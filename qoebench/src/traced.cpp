// The traced run: per-layer metrics.
//
// Every layer the probe -> verdict path crosses is driven on its own over
// the workload's inputs (isolated stages), then chained single-threaded in
// one loop, then run live with its boundaries timed. Spans are recorded by
// this file around each call into a layer (name, start, end, parent, pass)
// and kept in memory until the run ends, when they are written to
// <out>/<workload>-seed<N>.spans.jsonl together with the record, session
// and verdict counts seen at the same boundaries.
//
// Each stage figure is the fastest tenth of its repetitions (the minimum
// below ten). The difference between live passes with and without their
// boundaries timed is reported as the tracing overhead.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "live.h"
#include "modes.h"
#include "vqoe/core/features.h"
#include "vqoe/core/labels.h"
#include "vqoe/core/model_io.h"
#include "vqoe/lifecycle/shard_lifecycle.h"
#include "vqoe/par/parallel.h"
#include "vqoe/session/reconstruct.h"
#include "vqoe/trace/csv.h"
#include "vqoe/wire/codec.h"
#include "vqoe/wire/crc32c.h"
#include "vqoe/wire/spool.h"
#include "vqoe/wire/transport.h"

namespace qoebench {

using namespace vqoe;

namespace {

/// Records per wire frame, as the probe batches them.
constexpr std::size_t kFrameRecords = wire::ProbeOptions{}.batch_records;
/// Records between two verdict harvests, as the live rig harvests.
constexpr std::size_t kHarvestEvery = kSendChunk;

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the span list, -1 for a root
  std::uint32_t pass = 0;    ///< one id per pass / stage repetition
};

/// In-memory span recorder; written out once at the end of the run.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {
    spans_.reserve(1 << 16);
  }
  std::int64_t begin(const char* name, std::int64_t parent) {
    spans_.push_back(Span{name, ns_since(origin_), 0, parent, pass_});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void end(std::int64_t id) { spans_[static_cast<std::size_t>(id)].end_ns = ns_since(origin_); }
  /// A span timed elsewhere (by the live rig), placed at [start, end).
  void add(const char* name, std::int64_t parent, std::int64_t start_ns,
           std::int64_t end_ns) {
    spans_.push_back(Span{name, start_ns, end_ns, parent, pass_});
  }
  std::uint32_t next_pass() { return ++pass_; }
  [[nodiscard]] const Span& span(std::int64_t id) const {
    return spans_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Duration of `root` minus the time its direct children cover, summed
  /// per child name prefix (the layer) into `self`.
  void self_times(std::int64_t root, std::map<std::string, double>& self_ns) const {
    const Span& r = span(root);
    double children = 0.0;
    for (std::size_t i = static_cast<std::size_t>(root) + 1; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.parent != root) continue;
      const double d = static_cast<double>(s.end_ns - s.start_ns);
      children += d;
      const std::string name = s.name;
      self_ns[name.substr(0, name.find('.'))] += d;
    }
    self_ns["bench"] += static_cast<double>(r.end_ns - r.start_ns) - children;
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::uint32_t pass_ = 0;
};

/// Counts taken at the layer boundaries of one pass.
struct Counts {
  const char* pass = "";
  std::uint64_t records_sent = 0;
  std::uint64_t records_received = 0;
  std::uint64_t records_ingested = 0;
  std::uint64_t sessions = 0;
  std::uint64_t verdicts = 0;
};

/// One isolated stage: a body run once per round, one root span per run.
struct Stage {
  const char* name;
  std::function<void(std::int64_t root)> body;
  std::vector<double> samples;  ///< seconds per repetition
};

/// Runs every stage once per round, round after round, for at least
/// `min_rounds` rounds and until `budget_s` is spent. Interleaving the
/// stages makes a slow phase of the machine hit all of them alike, which
/// keeps their sum comparable with the chained pass.
void run_rounds(Tracer& tracer, std::vector<Stage>& stages, double budget_s,
                std::size_t min_rounds, std::uint64_t& attempted) {
  const auto start = Clock::now();
  for (std::size_t round = 0;
       round < min_rounds || seconds_between(start, Clock::now()) < budget_s; ++round) {
    for (Stage& stage : stages) {
      tracer.next_pass();
      const std::int64_t id = tracer.begin(stage.name, -1);
      stage.body(id);
      tracer.end(id);
      const Span& s = tracer.span(id);
      stage.samples.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
      ++attempted;
    }
  }
}

/// Fastest tenth of a stage's repetitions, in seconds.
double stage_s(const std::vector<Stage>& stages, std::string_view name) {
  for (const Stage& s : stages) {
    if (name == s.name) return fastest_tenth(s.samples);
  }
  throw std::logic_error("no stage " + std::string(name));
}

struct MonitorRun {
  std::vector<core::CompletedSession> sessions;
  std::vector<window::WindowVerdict> verdicts;
  double ingest_s = 0.0;  ///< time inside ingest() and flush()
  double score_s = 0.0;   ///< time inside take_verdicts()
  mem::SessionArenaStats arena;
  lifecycle::ShadowStats shadow;
};

/// A bare OnlineMonitor over the feed, harvesting every kHarvestEvery
/// records as the live rig does. `observer` may be null.
MonitorRun run_monitor(const core::QoePipeline& model,
                       core::OnlineMonitorConfig config,
                       const std::vector<trace::WeblogRecord>& feed,
                       core::ScoreObserver* observer) {
  config.observer = observer;
  MonitorRun run;
  core::OnlineMonitor monitor{model, config};
  const auto take = [&] {
    const auto t = Clock::now();
    auto v = monitor.take_verdicts();
    run.score_s += seconds_between(t, Clock::now());
    run.verdicts.insert(run.verdicts.end(), std::make_move_iterator(v.begin()),
                        std::make_move_iterator(v.end()));
  };
  for (std::size_t i = 0; i < feed.size(); i += kHarvestEvery) {
    const std::size_t end = std::min(feed.size(), i + kHarvestEvery);
    const auto t = Clock::now();
    for (std::size_t j = i; j < end; ++j) {
      auto done = monitor.ingest(feed[j]);
      run.sessions.insert(run.sessions.end(), std::make_move_iterator(done.begin()),
                          std::make_move_iterator(done.end()));
    }
    run.ingest_s += seconds_between(t, Clock::now());
    take();
  }
  const auto t = Clock::now();
  auto rest = monitor.flush();
  run.ingest_s += seconds_between(t, Clock::now());
  run.sessions.insert(run.sessions.end(), std::make_move_iterator(rest.begin()),
                      std::make_move_iterator(rest.end()));
  take();
  run.arena = monitor.arena().stats();
  return run;
}

/// The live-windowed monitor settings, without lifecycle observers.
core::OnlineMonitorConfig windowed_config() {
  return engine_config(Workload::live_windowed, nullptr).monitor;
}

/// Rows of the stall forest's input (selected columns, forest order).
std::vector<std::vector<double>> stall_rows(
    const core::QoePipeline& model,
    const std::vector<std::vector<core::ChunkObs>>& sessions) {
  const auto& names = core::stall_feature_names();
  std::vector<std::size_t> columns;
  for (const std::string& f : model.stall_detector().selected_features()) {
    columns.push_back(static_cast<std::size_t>(
        std::find(names.begin(), names.end(), f) - names.begin()));
  }
  std::vector<std::vector<double>> rows;
  std::vector<double> full;
  for (const auto& chunks : sessions) {
    core::stall_features_into(chunks, full);
    std::vector<double> row;
    for (const std::size_t c : columns) row.push_back(full[c]);
    rows.push_back(std::move(row));
  }
  return rows;
}

void write_spans(const std::filesystem::path& path, const Tracer& tracer,
                 const std::vector<Counts>& counts) {
  std::ofstream out(path);
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const Span& s = tracer.spans()[i];
    out << "{\"id\": " << i << ", \"pass\": " << s.pass << ", \"parent\": "
        << s.parent << ", \"name\": \"" << s.name << "\", \"start_ns\": "
        << s.start_ns << ", \"end_ns\": " << s.end_ns << "}\n";
  }
  for (const Counts& c : counts) {
    out << "{\"counts\": \"" << c.pass << "\", \"records_sent\": " << c.records_sent
        << ", \"records_received\": " << c.records_received
        << ", \"records_ingested\": " << c.records_ingested
        << ", \"sessions\": " << c.sessions << ", \"verdicts\": " << c.verdicts
        << "}\n";
  }
}

}  // namespace

int run_traced(const Options& opt) {
  const Workload w = opt.workload;
  // Inputs, generated in-process: the traced run reports no set-up or
  // memory figure, so generation may share the process.
  par::set_threads(kOfflineThreads);
  const workload::Corpus training = make_training_corpus(opt.seed);
  std::vector<trace::WeblogRecord> feed;
  if (is_live(w)) {
    feed = make_feed(w, opt.seed).records;
  } else {
    feed = make_eval_corpus(opt.seed).weblogs;
  }
  print_feed_digest("feed", feed);
  print_corpus_digest("train-corpus", training);
  const auto labelled = core::sessions_from_corpus(training);
  const auto model = std::make_shared<const core::QoePipeline>(
      core::QoePipeline::train(labelled));
  const auto shadow = train_model(opt.seed, 1);
  print_model_digest("model", *model);
  print_model_digest("shadow-model", *shadow);
  // The offline workload has no live path of its own; its feed (the
  // encrypted evaluation corpus) goes through the windowed deployment.
  const engine::EngineConfig live_config =
      engine_config(is_live(w) ? w : Workload::live_windowed, shadow);
  const core::OnlineMonitorConfig monitor_config = live_config.monitor;

  const auto reconstructed = session::reconstruct(feed);
  std::vector<std::vector<core::ChunkObs>> chunks;
  std::size_t total_chunks = 0;
  for (const auto& s : reconstructed) {
    chunks.push_back(core::chunks_from_session(s));
    total_chunks += chunks.back().size();
  }
  const double n_records = static_cast<double>(feed.size());
  const double n_sessions = static_cast<double>(chunks.size());
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::size_t i = 0; i < feed.size(); i += kFrameRecords) {
    frames.emplace_back();
    wire::encode_batch(feed.data() + i, std::min(kFrameRecords, feed.size() - i),
                       wire::kWireVersionMax, frames.back());
  }
  const auto rows = stall_rows(*model, chunks);
  const auto model_dir = opt.work / "model";
  core::save_pipeline(*model, model_dir, core::manifest_for(*model));
  const auto csv_path = opt.work / "feed.csv";
  trace::write_weblogs_csv(csv_path, feed);

  Tracer tracer(opt.process_start);
  std::vector<Counts> counts;
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  const auto metric = [&metrics](const char* name, double value, const char* unit) {
    metrics.push_back({name, value, unit});
  };
  const auto check = [&correct](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "check failed: %s\n", what);
      correct = false;
    }
  };

  // ---- isolated stages, interleaved in rounds ----
  std::vector<std::uint8_t> frame;
  std::vector<trace::WeblogRecordView> views;
  std::uint32_t crc_sink = 0;
  std::size_t decoded = 0, transported = 0, rebuilt = 0, spools = 0;
  MonitorRun bare, windowed, observed, chained;
  std::vector<core::CompletedSession> direct_sessions;
  std::vector<window::WindowVerdict> direct_verdicts;
  core::DetectorScratch scratch;
  std::vector<double> features;
  int vote_sink = 0;
  std::vector<window::ClosedWindow> closed;

  std::vector<Stage> stages;
  stages.push_back({"wire.encode", [&](std::int64_t) {
    for (std::size_t i = 0; i < feed.size(); i += kFrameRecords) {
      frame.clear();
      wire::encode_batch(feed.data() + i, std::min(kFrameRecords, feed.size() - i),
                         wire::kWireVersionMax, frame);
    }
  }, {}});
  stages.push_back({"wire.frame_crc", [&](std::int64_t) {
    for (const auto& f : frames) crc_sink ^= wire::crc32c(f.data(), f.size());
  }, {}});
  stages.push_back({"wire.decode", [&](std::int64_t) {
    decoded = 0;
    for (const auto& f : frames) {
      views.clear();
      wire::decode_batch_views(f.data(), f.size(), wire::kWireVersionMax, views);
      decoded += views.size();
    }
  }, {}});
  stages.push_back({"wire.spool_append", [&](std::int64_t) {
    const auto dir = opt.work / ("spool-" + std::to_string(spools++));
    {
      wire::SpoolWriter spool(dir);
      const std::size_t batch = wire::CollectorConfig{}.tee_batch_records;
      for (std::size_t i = 0; i < feed.size(); i += batch) {
        spool.append(feed.data() + i, std::min(batch, feed.size() - i));
      }
      spool.close();
    }
    std::filesystem::remove_all(dir);
  }, {}});
  stages.push_back({"wire.transport", [&](std::int64_t) {
    wire::CollectorConfig cc;
    cc.expected_probes = 1;
    wire::Collector collector(cc);
    std::size_t sunk = 0;
    std::thread server([&] {
      try {
        (void)collector.run([&sunk](const trace::WeblogRecordView&) { ++sunk; });
      } catch (const std::exception& e) {
        std::fprintf(stderr, "collector: %s\n", e.what());
      }
    });
    try {
      wire::ProbeOptions po;
      po.port = collector.port();
      wire::Probe probe(po);
      probe.send(feed);
      probe.finish();
    } catch (...) {
      collector.stop();
      server.join();
      throw;
    }
    server.join();
    transported = sunk;
  }, {}});
  // Time inside ingest()/flush() and inside take_verdicts(): the fastest
  // repetition, as for the stage times.
  double bare_ingest_s = 1e300;
  double window_score_s = 1e300;
  stages.push_back({"core.monitor", [&](std::int64_t) {
    bare = run_monitor(*model, monitor_config, feed, nullptr);
    bare_ingest_s = std::min(bare_ingest_s, bare.ingest_s);
  }, {}});
  stages.push_back({"engine.direct", [&](std::int64_t) {
    engine::EngineConfig config;
    config.shards = 1;
    config.monitor = monitor_config;
    engine::MonitorEngine eng{*model, config};
    direct_sessions.clear();
    direct_verdicts.clear();
    for (std::size_t i = 0; i < feed.size(); i += kHarvestEvery) {
      const std::size_t end = std::min(feed.size(), i + kHarvestEvery);
      for (std::size_t j = i; j < end; ++j) {
        eng.ingest(trace::WeblogRecordView::of(feed[j]));
      }
      auto v = eng.harvest_verdicts();
      direct_verdicts.insert(direct_verdicts.end(), v.begin(), v.end());
      auto s = eng.harvest();
      direct_sessions.insert(direct_sessions.end(), s.begin(), s.end());
    }
    auto rest = eng.drain();
    direct_sessions.insert(direct_sessions.end(), rest.begin(), rest.end());
    auto v = eng.harvest_verdicts();
    direct_verdicts.insert(direct_verdicts.end(), v.begin(), v.end());
  }, {}});
  stages.push_back({"core.monitor_windowed", [&](std::int64_t) {
    windowed = run_monitor(*model, windowed_config(), feed, nullptr);
    window_score_s = std::min(window_score_s, windowed.score_s);
  }, {}});
  stages.push_back({"lifecycle.monitor_observed", [&](std::int64_t) {
    lifecycle::ShardLifecycleConfig lc;
    lc.drift.enabled = true;
    lc.shadow = shadow;
    lifecycle::ShardLifecycle observer(lc, 0);
    observed = run_monitor(*model, windowed_config(), feed, &observer);
    observed.shadow = observer.shadow().stats();
  }, {}});
  stages.push_back({"core.session_assess", [&](std::int64_t) {
    for (const auto& c : chunks) {
      vote_sink += static_cast<int>(model->assess(c, scratch).stall);
    }
  }, {}});
  stages.push_back({"core.stall_features", [&](std::int64_t) {
    for (const auto& c : chunks) core::stall_features_into(c, features);
  }, {}});
  stages.push_back({"core.repr_features", [&](std::int64_t) {
    for (const auto& c : chunks) core::representation_features_into(c, features);
  }, {}});
  stages.push_back({"ml.predict", [&](std::int64_t) {
    for (const auto& row : rows) vote_sink += model->stall_detector().forest().predict(row);
  }, {}});
  stages.push_back({"core.model_load", [&](std::int64_t) {
    const core::QoePipeline loaded = core::load_pipeline(model_dir);
    vote_sink += static_cast<int>(loaded.stall_detector().forest().num_trees());
  }, {}});
  stages.push_back({"session.reconstruct", [&](std::int64_t) {
    rebuilt = session::reconstruct(feed).size();
  }, {}});
  stages.push_back({"window.accumulate", [&](std::int64_t) {
    for (const auto& s : reconstructed) {
      window::SessionWindows schedule;
      schedule.start(windowed_config().window, s.start_time_s);
      for (const auto& r : s.media) {
        schedule.close_due(r.timestamp_s, closed);
        schedule.add(r.timestamp_s, r.arrival_time_s(),
                     static_cast<double>(r.object_size_bytes), r.transport);
      }
      schedule.close_all(s.end_time_s, closed);
      closed.clear();
    }
  }, {}});
  // The chained single-threaded pass: encode -> CRC -> decode -> monitor,
  // one child span per layer call.
  stages.push_back({"chain.pass", [&](std::int64_t root) {
    core::OnlineMonitor monitor{*model, monitor_config};
    chained = MonitorRun{};
    trace::WeblogRecord record;
    for (std::size_t i = 0; i < feed.size(); i += kFrameRecords) {
      const std::size_t n = std::min(kFrameRecords, feed.size() - i);
      std::int64_t id = tracer.begin("wire.encode", root);
      frame.clear();
      wire::encode_batch(feed.data() + i, n, wire::kWireVersionMax, frame);
      tracer.end(id);
      id = tracer.begin("wire.frame_crc", root);
      crc_sink ^= wire::crc32c(frame.data(), frame.size());
      tracer.end(id);
      id = tracer.begin("wire.decode", root);
      views.clear();
      wire::decode_batch_views(frame.data(), frame.size(), wire::kWireVersionMax, views);
      tracer.end(id);
      id = tracer.begin("core.monitor_ingest", root);
      for (const auto& v : views) {
        v.assign_to(record);
        auto done = monitor.ingest(record);
        chained.sessions.insert(chained.sessions.end(), std::make_move_iterator(done.begin()),
                                std::make_move_iterator(done.end()));
      }
      tracer.end(id);
      if ((i + n) % kHarvestEvery == 0) {
        id = tracer.begin("core.window_score", root);
        auto v = monitor.take_verdicts();
        tracer.end(id);
        chained.verdicts.insert(chained.verdicts.end(), v.begin(), v.end());
      }
    }
    const std::int64_t id = tracer.begin("core.flush", root);
    auto rest = monitor.flush();
    auto v = monitor.take_verdicts();
    tracer.end(id);
    chained.sessions.insert(chained.sessions.end(), rest.begin(), rest.end());
    chained.verdicts.insert(chained.verdicts.end(), v.begin(), v.end());
  }, {}});
  run_rounds(tracer, stages, opt.seconds * 0.5, 3, attempted);

  // Training and CSV parsing cost up to a second a repetition: two rounds.
  std::vector<std::vector<core::ChunkObs>> stall_x, repr_x;
  std::vector<core::StallLabel> stall_y;
  std::vector<core::ReprLabel> repr_y;
  for (const auto& rec : labelled) {
    stall_x.push_back(rec.chunks);
    stall_y.push_back(core::stall_label(rec.truth));
    if (rec.truth.adaptive) {
      repr_x.push_back(rec.chunks);
      repr_y.push_back(core::repr_label(rec.truth));
    }
  }
  const ml::Dataset stall_data = core::build_stall_dataset(stall_x, stall_y);
  const ml::Dataset repr_data = core::build_representation_dataset(repr_x, repr_y);
  std::string one_thread_model, two_thread_model;
  std::size_t parsed = 0;
  std::vector<Stage> slow;
  slow.push_back({"core.label_sessions", [&](std::int64_t) {
    vote_sink += static_cast<int>(core::sessions_from_corpus(training).size());
  }, {}});
  slow.push_back({"ml.train_stall", [&](std::int64_t) {
    vote_sink += core::StallDetector::train(stall_data).trained() ? 1 : 0;
  }, {}});
  slow.push_back({"ml.train_repr", [&](std::int64_t) {
    vote_sink += core::RepresentationDetector::train(repr_data).trained() ? 1 : 0;
  }, {}});
  slow.push_back({"ml.train_pipeline_1thread", [&](std::int64_t) {
    par::set_threads(1);
    one_thread_model = model_bytes(core::QoePipeline::train(labelled));
    par::set_threads(kOfflineThreads);
  }, {}});
  slow.push_back({"ml.train_pipeline_2threads", [&](std::int64_t) {
    two_thread_model = model_bytes(core::QoePipeline::train(labelled));
  }, {}});
  slow.push_back({"trace.csv_parse", [&](std::int64_t) {
    parsed = trace::read_weblogs_csv(csv_path).size();
  }, {}});
  run_rounds(tracer, slow, 0.0, 2, attempted);
  std::filesystem::remove_all(model_dir);
  std::filesystem::remove(csv_path);

  check(decoded == feed.size(), "decoded record count");
  check(transported == feed.size(), "transported record count");
  check(rebuilt == reconstructed.size() && parsed == feed.size(),
        "reconstruct / CSV round-trip counts");
  check(digest_verdicts(observed.verdicts) == digest_verdicts(windowed.verdicts) &&
            digest_sessions(observed.sessions) == digest_sessions(windowed.sessions),
        "lifecycle observer changed the verdicts");
  check(one_thread_model == two_thread_model && two_thread_model == model_bytes(*model),
        "training depends on the pool thread count");
  // The chained loop and the bare monitor see the same records without
  // watermark ticks; the engine fed directly ticks, as the reference does.
  const LiveReference ref = live_reference(*model, live_config, feed, reconstructed);
  check(digest_sessions(chained.sessions) == digest_sessions(bare.sessions) &&
            digest_verdicts(chained.verdicts) == digest_verdicts(bare.verdicts),
        "chained pass differs from the bare monitor");
  check(digest_sessions(direct_sessions) == ref.sessions_digest &&
            digest_verdicts(direct_verdicts) == ref.verdicts_digest,
        "engine fed directly differs from the sequential reference");
  counts.push_back({"chain", feed.size(), feed.size(), feed.size(), chained.sessions.size(),
                    chained.verdicts.size()});

  const auto per_record_ns = [&](const char* stage) {
    return stage_s(stages, stage) * 1e9 / n_records;
  };
  metric("wire.encode_ns_per_record", per_record_ns("wire.encode"), "ns/record");
  metric("wire.frame_crc_ns_per_record", per_record_ns("wire.frame_crc"), "ns/record");
  metric("wire.decode_ns_per_record", per_record_ns("wire.decode"), "ns/record");
  metric("wire.transport_ns_per_record", per_record_ns("wire.transport"), "ns/record");
  metric("wire.spool_append_ns_per_record", per_record_ns("wire.spool_append"), "ns/record");
  metric("engine.handoff_ns_per_record",
         per_record_ns("engine.direct") - per_record_ns("core.monitor"), "ns/record");
  metric("core.monitor_ingest_ns_per_record", bare_ingest_s * 1e9 / n_records, "ns/record");
  metric("core.session_assess_us_per_session",
         stage_s(stages, "core.session_assess") * 1e6 / n_sessions, "us/session");
  metric("core.window_score_us_per_verdict",
         window_score_s * 1e6 /
             static_cast<double>(std::max<std::size_t>(1, windowed.verdicts.size())),
         "us/verdict");
  metric("core.stall_features_us_per_session",
         stage_s(stages, "core.stall_features") * 1e6 / n_sessions, "us/session");
  metric("core.repr_features_us_per_session",
         stage_s(stages, "core.repr_features") * 1e6 / n_sessions, "us/session");
  metric("core.model_load_ms", stage_s(stages, "core.model_load") * 1e3, "ms");
  metric("core.label_sessions_ms", stage_s(slow, "core.label_sessions") * 1e3, "ms");
  metric("window.accumulate_ns_per_chunk",
         stage_s(stages, "window.accumulate") * 1e9 /
             static_cast<double>(std::max<std::size_t>(1, total_chunks)),
         "ns/chunk");
  metric("ml.predict_us_per_row", stage_s(stages, "ml.predict") * 1e6 / n_sessions, "us/row");
  metric("ml.train_stall_s", stage_s(slow, "ml.train_stall"), "s");
  metric("ml.train_repr_s", stage_s(slow, "ml.train_repr"), "s");
  metric("ml.train_speedup_2v1",
         stage_s(slow, "ml.train_pipeline_1thread") / stage_s(slow, "ml.train_pipeline_2threads"),
         "ratio");
  metric("session.reconstruct_ns_per_record", per_record_ns("session.reconstruct"), "ns/record");
  metric("lifecycle.overhead_ns_per_record",
         per_record_ns("lifecycle.monitor_observed") - per_record_ns("core.monitor_windowed"),
         "ns/record");
  metric("lifecycle.shadow_scored", static_cast<double>(observed.shadow.scored()), "count");
  metric("mem.arena_high_water_bytes", static_cast<double>(bare.arena.high_water), "bytes");
  metric("mem.arena_reuse_ratio", bare.arena.reuse_ratio(), "ratio");
  metric("trace.csv_parse_ns_per_record", stage_s(slow, "trace.csv_parse") * 1e9 / n_records,
         "ns/record");

  // Stage budget: the chained pass against the sum of its isolated parts,
  // and the self time of each layer inside the chained pass.
  const double chain_ns = per_record_ns("chain.pass");
  const double sum_ns = per_record_ns("wire.encode") + per_record_ns("wire.frame_crc") +
                        per_record_ns("wire.decode") + per_record_ns("core.monitor");
  std::map<std::string, double> self_ns;
  std::size_t chain_passes = 0;
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    if (std::string_view(tracer.spans()[i].name) == "chain.pass") {
      tracer.self_times(static_cast<std::int64_t>(i), self_ns);
      ++chain_passes;
    }
  }
  const double per_chain = static_cast<double>(chain_passes) * n_records;
  metric("chain.total_ns_per_record", chain_ns, "ns/record");
  metric("chain.stage_sum_ns_per_record", sum_ns, "ns/record");
  metric("chain.gap_pct", (chain_ns / sum_ns - 1.0) * 100.0, "%");
  metric("self.wire_ns_per_record", self_ns["wire"] / per_chain, "ns/record");
  metric("self.core_ns_per_record", self_ns["core"] / per_chain, "ns/record");
  metric("self.bench_ns_per_record", self_ns["bench"] / per_chain, "ns/record");

  // ---- live passes, boundaries timed and not, alternating ----
  const std::size_t stall_classes = model->stall_detector().forest().num_classes();
  const std::size_t repr_classes = model->representation_detector().forest().num_classes();
  const bool tee = w == Workload::live_churn;
  std::vector<double> plain_s, timed_s;
  std::vector<double> ingest_ns, busy, drain_ms, harvest_us, frames_per_wakeup,
      bytes_per_record, ack_stalls, queue_peak;
  std::map<std::string, double> live_self_ns;
  const auto live_start = Clock::now();
  for (std::size_t pass = 0;
       pass < 6 || seconds_between(live_start, Clock::now()) < opt.seconds * 0.3; ++pass) {
    const bool timed = pass % 2 == 1;
    std::optional<std::filesystem::path> spool;
    if (tee) spool = opt.work / ("live-spool-" + std::to_string(pass));
    LiveRig rig(model, live_config, spool, timed);
    tracer.next_pass();
    ++attempted;
    const std::int64_t root = timed ? tracer.begin("live.pass", -1) : -1;
    PassOutput out = rig.stream(feed);
    if (timed) {
      tracer.end(root);
      // The rig timed its probe-thread boundaries itself; record them as
      // child spans laid end to end from the pass start (their order within
      // the pass is not kept, only their durations).
      std::int64_t at = tracer.span(root).start_ns;
      for (const auto& [name, ns] : {std::pair{"wire.probe_send", out.send_ns},
                                     std::pair{"wire.probe_finish", out.finish_ns},
                                     std::pair{"engine.harvest", out.harvest_ns},
                                     std::pair{"engine.drain", out.drain_ns}}) {
        tracer.add(name, root, at, at + static_cast<std::int64_t>(ns));
        at += static_cast<std::int64_t>(ns);
      }
      tracer.self_times(root, live_self_ns);
      timed_s.push_back(out.seconds);
      ingest_ns.push_back(static_cast<double>(out.ingest_ns) / n_records);
      harvest_us.push_back(static_cast<double>(out.harvest_ns) * 1e-3 /
                           static_cast<double>(std::max<std::uint64_t>(1, out.harvest_calls)));
      drain_ms.push_back(static_cast<double>(out.drain_ns) * 1e-6);
    } else {
      plain_s.push_back(out.seconds);
    }
    busy.push_back(static_cast<double>(out.engine.shards.at(0).ingest_ns) * 1e-9 / out.seconds);
    frames_per_wakeup.push_back(
        static_cast<double>(out.collector.frames_received) /
        static_cast<double>(std::max<std::uint64_t>(1, out.collector.wakeups)));
    bytes_per_record.push_back(static_cast<double>(out.collector.bytes_received) / n_records);
    ack_stalls.push_back(static_cast<double>(out.probe.ack_stalls));
    queue_peak.push_back(static_cast<double>(out.engine.shards.at(0).queue_peak));
    bool ok = check_pass_local(out, feed.size(), stall_classes, repr_classes);
    if (spool) {
      ok = check_spool(*spool, feed) && ok;
      std::filesystem::remove_all(*spool);
    }
    ok = ok && session_set_digest(out.sessions) == ref.session_set_digest &&
         digest_sessions(out.sessions) == ref.sessions_digest &&
         digest_verdicts(out.verdicts) == ref.verdicts_digest;
    if (live_config.monitor.window.enabled()) {
      ok = ok && out.verdicts.size() == ref.qualifying_windows;
    }
    if (!ok) ++failed;
    counts.push_back({timed ? "live-timed" : "live", out.probe.records_sent,
                      out.collector.records_received, out.engine.records_out,
                      out.sessions.size(), out.verdicts.size()});
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double timed_passes = static_cast<double>(timed_s.size());
  metric("wire.frames_per_wakeup", median(frames_per_wakeup), "frames/wakeup");
  metric("wire.bytes_per_record", median(bytes_per_record), "bytes/record");
  metric("wire.probe_ack_stalls", median(ack_stalls), "count");
  metric("engine.ingest_ns_per_record", fastest_tenth(ingest_ns), "ns/record");
  metric("engine.queue_peak", median(queue_peak), "count");
  metric("engine.worker_busy_share", median(busy), "ratio");
  metric("engine.drain_ms", fastest_tenth(drain_ms), "ms");
  metric("engine.harvest_us_per_call", fastest_tenth(harvest_us), "us/call");
  metric("self.live_wire_ns_per_record", live_self_ns["wire"] / timed_passes / n_records,
         "ns/record");
  metric("self.live_engine_ns_per_record", live_self_ns["engine"] / timed_passes / n_records,
         "ns/record");
  metric("self.live_bench_ns_per_record", live_self_ns["bench"] / timed_passes / n_records,
         "ns/record");
  metric("bench.tracing_overhead_pct",
         (fastest_tenth(timed_s) / fastest_tenth(plain_s) - 1.0) * 100.0, "%");

  std::filesystem::create_directories(opt.out);
  write_spans(opt.out / (std::string(workload_name(w)) + "-seed" + std::to_string(opt.seed) +
                         ".spans.jsonl"),
              tracer, counts);
  (void)crc_sink;
  (void)vote_sink;
  print_result(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace qoebench
