#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util.h"
#include "vqoe/core/model_io.h"
#include "vqoe/par/parallel.h"
#include "vqoe/trace/csv.h"
#include "vqoe/wire/spool.h"

namespace qoebench {

using namespace vqoe;

namespace {

// Input sizes. The windowed feed is the operator shape (a few dozen
// subscribers, long back-to-back HAS sessions); the churn feed spreads the
// mostly-progressive cleartext mix over thousands of subscribers so the
// session table turns over constantly. Every workload trains on the same
// recipe: on half as many sessions, the training time of one seed's corpus
// differed from another's by up to 18%, on this many by half that.
constexpr std::size_t kWindowedSessions = 800;
constexpr std::size_t kWindowedSubscribers = 64;
constexpr std::size_t kChurnSessions = 3000;
constexpr std::size_t kChurnSubscribers = 2000;
constexpr std::size_t kTrainCleartext = 2400;
constexpr std::size_t kTrainAdaptive = 1200;
constexpr std::size_t kEvalSessions = 722;

// Independent streams derived from --seed.
enum : std::uint64_t {
  kFeedStream = 1,
  kTrainCleartextStream = 2,
  kTrainAdaptiveStream = 3,
  kEvalStream = 4,
};

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t tag,
                          std::uint64_t stream) {
  return par::derive_seed(seed, tag + 16 * stream);
}

void sort_by_time(std::vector<trace::WeblogRecord>& records) {
  std::stable_sort(records.begin(), records.end(),
                   [](const trace::WeblogRecord& a,
                      const trace::WeblogRecord& b) {
                     return a.timestamp_s < b.timestamp_s;
                   });
}

}  // namespace

bool parse_workload(std::string_view name, Workload& out) {
  if (name == "live-windowed") {
    out = Workload::live_windowed;
  } else if (name == "live-churn") {
    out = Workload::live_churn;
  } else if (name == "offline-train-assess") {
    out = Workload::offline_train_assess;
  } else {
    return false;
  }
  return true;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::live_windowed: return "live-windowed";
    case Workload::live_churn: return "live-churn";
    case Workload::offline_train_assess: return "offline-train-assess";
  }
  return "?";
}

Feed make_feed(Workload w, std::uint64_t seed) {
  if (!is_live(w)) throw std::logic_error("make_feed: not a live workload");
  const bool windowed = w == Workload::live_windowed;
  auto options = workload::cleartext_corpus_options(
      windowed ? kWindowedSessions : kChurnSessions,
      stream_seed(seed, kFeedStream, 0));
  if (windowed) options.adaptive_fraction = 1.0;
  options.subscribers = windowed ? kWindowedSubscribers : kChurnSubscribers;
  options.keep_session_results = false;
  workload::Corpus corpus = workload::generate_corpus(options);
  Feed feed;
  feed.records = trace::encrypt_view(std::move(corpus.weblogs));
  sort_by_time(feed.records);
  feed.truths = std::move(corpus.truths);
  return feed;
}

workload::Corpus make_training_corpus(std::uint64_t seed, std::uint64_t stream) {
  auto clear = workload::cleartext_corpus_options(
      kTrainCleartext, stream_seed(seed, kTrainCleartextStream, stream));
  clear.keep_session_results = false;
  auto adaptive = workload::has_corpus_options(
      kTrainAdaptive, stream_seed(seed, kTrainAdaptiveStream, stream));
  adaptive.keep_session_results = false;
  workload::Corpus corpus = workload::generate_corpus(clear);
  workload::Corpus more = workload::generate_corpus(adaptive);
  corpus.weblogs.insert(corpus.weblogs.end(),
                        std::make_move_iterator(more.weblogs.begin()),
                        std::make_move_iterator(more.weblogs.end()));
  corpus.truths.insert(corpus.truths.end(),
                       std::make_move_iterator(more.truths.begin()),
                       std::make_move_iterator(more.truths.end()));
  return corpus;
}

workload::Corpus make_eval_corpus(std::uint64_t seed) {
  auto options = workload::encrypted_corpus_options(
      kEvalSessions, stream_seed(seed, kEvalStream, 0));
  options.keep_session_results = false;
  workload::Corpus corpus = workload::generate_corpus(options);
  corpus.weblogs = trace::encrypt_view(std::move(corpus.weblogs));
  sort_by_time(corpus.weblogs);
  return corpus;
}

std::shared_ptr<const core::QoePipeline> train_model(std::uint64_t seed,
                                                     std::uint64_t stream) {
  const auto sessions =
      core::sessions_from_corpus(make_training_corpus(seed, stream));
  return std::make_shared<const core::QoePipeline>(
      core::QoePipeline::train(sessions));
}

engine::EngineConfig engine_config(
    Workload w, std::shared_ptr<const core::QoePipeline> shadow) {
  engine::EngineConfig config;
  config.shards = 1;
  if (w == Workload::live_windowed) {
    config.monitor.window.length_s = kWindowSeconds;
    config.monitor.window.min_chunks = kWindowMinChunks;
    config.drift.enabled = true;
    config.shadow = std::move(shadow);
  }
  return config;
}

std::string model_bytes(const core::QoePipeline& pipeline) {
  std::ostringstream os;
  core::save(pipeline.stall_detector(), os);
  core::save(pipeline.representation_detector(), os);
  core::save(pipeline.switch_detector(), os);
  return std::move(os).str();
}

void print_feed_digest(const char* name,
                       const std::vector<trace::WeblogRecord>& records) {
  Digest d;
  for (const auto& r : records) digest_record(d, r);
  std::printf("input %s records=%zu fnv=%016llx\n", name, records.size(),
              static_cast<unsigned long long>(d.value()));
}

void print_corpus_digest(const char* name, const workload::Corpus& c) {
  Digest d;
  for (const auto& r : c.weblogs) digest_record(d, r);
  for (const auto& t : c.truths) digest_truth(d, t);
  std::printf("input %s records=%zu sessions=%zu fnv=%016llx\n", name,
              c.weblogs.size(), c.truths.size(),
              static_cast<unsigned long long>(d.value()));
}

void print_model_digest(const char* name, const core::QoePipeline& pipeline) {
  Digest d;
  const std::string bytes = model_bytes(pipeline);
  d.bytes(bytes.data(), bytes.size());
  std::printf("input %s bytes=%zu fnv=%016llx\n", name, bytes.size(),
              static_cast<unsigned long long>(d.value()));
}

void prepare_inputs(Workload w, std::uint64_t seed,
                    const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  // Every workload measures training on its labelled corpus, read back
  // from CSV as vqoe_train reads it.
  const workload::Corpus train = make_training_corpus(seed);
  print_corpus_digest("train-corpus", train);
  trace::write_weblogs_csv(dir / "train_weblogs.csv", train.weblogs);
  trace::write_ground_truth_csv(dir / "train_truth.csv", train.truths);
  if (!is_live(w)) {
    const workload::Corpus eval = make_eval_corpus(seed);
    print_corpus_digest("eval-corpus", eval);
    trace::write_weblogs_csv(dir / "eval_weblogs.csv", eval.weblogs);
    trace::write_ground_truth_csv(dir / "eval_truth.csv", eval.truths);
    return;
  }
  const Feed feed = make_feed(w, seed);
  print_feed_digest("feed", feed.records);
  {
    wire::SpoolWriter spool(dir / "feed");
    spool.append(feed.records);
    spool.close();
  }
  std::ofstream(dir / "feed.count") << feed.records.size() << '\n';
  trace::write_ground_truth_csv(dir / "truth.csv", feed.truths);
  const core::QoePipeline model =
      core::QoePipeline::train(core::sessions_from_corpus(train));
  print_model_digest("model", model);
  core::save_pipeline(model, dir / "model", core::manifest_for(model));
  if (w == Workload::live_windowed) {
    const auto shadow = train_model(seed, 1);
    print_model_digest("shadow-model", *shadow);
    core::save_pipeline(*shadow, dir / "shadow", core::manifest_for(*shadow));
  }
}

std::vector<trace::WeblogRecord> load_feed(const std::filesystem::path& dir) {
  std::size_t count = 0;
  std::ifstream(dir / "feed.count") >> count;
  std::vector<trace::WeblogRecord> records;
  records.reserve(count);
  wire::SpoolReader reader(dir / "feed");
  trace::WeblogRecord r;
  while (reader.next(r)) records.push_back(std::move(r));
  if (records.size() != count) {
    throw std::runtime_error("feed spool holds " + std::to_string(records.size()) +
                             " records, expected " + std::to_string(count));
  }
  return records;
}

}  // namespace qoebench
