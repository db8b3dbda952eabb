// End-to-end measurement (tracing off).
//
// Each run times one cold set-up from the start of the process, then
// repeats whole passes of the workload until --seconds have elapsed. A
// rate or a training time is estimated from the fastest tenth of the
// passes (util.h says why), the peak resident set is read before any
// reference computation, and every pass is checked against references
// computed afterwards, apart from the path under test. `setup` mode does
// the cold set-up alone in a fresh process, so that run.py can take the
// fastest tenth of several cold set-ups (a second set-up in one process
// would be a warm one). `train` mode times trainings in a process of its
// own, which a live run asks for one training at a time between its
// passes: spread over the run they ride out the host's slow phases as the
// passes do, and they leave the live process's peak resident set alone.
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.h"
#include "live.h"
#include "modes.h"
#include "vqoe/core/model_io.h"
#include "vqoe/par/parallel.h"
#include "vqoe/session/reconstruct.h"
#include "vqoe/trace/csv.h"

extern "C" char** environ;

namespace qoebench {

using namespace vqoe;

namespace {

constexpr std::size_t kMinPasses = 5;
constexpr std::size_t kAssessRepeats = 4;
/// Share of a live run's wall time given to trainings, one asked for
/// between two passes whenever the trainings fall behind it.
constexpr double kLiveTrainShare = 0.4;
/// Trainings a live run times at the least, however short it is.
constexpr std::size_t kMinLiveTrainings = 6;

/// Per-pass results the references are compared against after the loop.
struct PassRecord {
  bool local_ok = false;
  std::uint64_t session_set = 0;
  std::uint64_t sessions = 0;
  std::uint64_t verdicts = 0;
  std::size_t verdict_count = 0;
};

/// Prints the spread of the pass times (diagnostic, above the result).
void print_passes(const char* what, std::vector<double> s) {
  std::sort(s.begin(), s.end());
  const auto q = [&s](double f) {
    return s[static_cast<std::size_t>(f * static_cast<double>(s.size() - 1))];
  };
  std::printf("%s n=%zu min=%.5f p10=%.5f p25=%.5f p50=%.5f p90=%.5f max=%.5f\n", what,
              s.size(), q(0.0), q(0.1), q(0.25), q(0.5), q(0.9), q(1.0));
}

/// The labelled training corpus, read from CSV and grouped into sessions.
std::vector<core::SessionRecord> load_labelled(const std::filesystem::path& inputs,
                                               workload::Corpus* keep = nullptr) {
  workload::Corpus train;
  train.weblogs = trace::read_weblogs_csv(inputs / "train_weblogs.csv");
  train.truths = trace::read_ground_truth_csv(inputs / "train_truth.csv");
  auto labelled = core::sessions_from_corpus(train);
  if (keep) *keep = std::move(train);
  return labelled;
}

std::uint64_t model_digest(const core::QoePipeline& model) {
  const std::string bytes = model_bytes(model);
  Digest d;
  d.bytes(bytes.data(), bytes.size());
  return d.value();
}

/// One timed QoePipeline::train at kOfflineThreads pool threads.
core::QoePipeline timed_training(const std::vector<core::SessionRecord>& labelled,
                                 std::vector<double>& seconds) {
  const auto t0 = Clock::now();
  core::QoePipeline model = core::QoePipeline::train(labelled);
  seconds.push_back(seconds_between(t0, Clock::now()));
  return model;
}

/// The same training on one pool thread: the reference every timed
/// training's model must equal byte for byte.
core::QoePipeline one_thread_model(const std::vector<core::SessionRecord>& labelled) {
  par::set_threads(1);
  core::QoePipeline model = core::QoePipeline::train(labelled);
  par::set_threads(kOfflineThreads);
  return model;
}

/// A `qoe_bench train` process on this run's inputs: it reads the
/// labelled corpus once, then times one training each time it is asked,
/// so a live run can spread its trainings between its passes without
/// holding the corpus itself.
class TrainingProcess {
 public:
  explicit TrainingProcess(const Options& opt) {
    const std::string exe = std::filesystem::read_symlink("/proc/self/exe").string();
    std::vector<std::string> args = {exe,      "train",
                                     "--workload", workload_name(opt.workload),
                                     "--seed", std::to_string(opt.seed),
                                     "--inputs", opt.inputs.string()};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    int in[2];
    int out[2];
    if (pipe2(in, O_CLOEXEC) != 0) throw std::runtime_error("train: pipe2 failed");
    if (pipe2(out, O_CLOEXEC) != 0) {
      close(in[0]);
      close(in[1]);
      throw std::runtime_error("train: pipe2 failed");
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, in[0], STDIN_FILENO);
    posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
    const int rc =
        posix_spawn(&pid_, exe.c_str(), &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(in[0]);
    close(out[1]);
    to_ = in[1];
    from_ = out[0];
    if (rc != 0) {
      pid_ = -1;
      close_pipes();
      throw std::runtime_error("train: posix_spawn failed");
    }
    std::string line;
    try {
      line = read_line();
    } catch (...) {
      finish();
      throw;
    }
    if (line != "ready") {
      finish();
      throw std::runtime_error("train: process did not get ready");
    }
  }
  TrainingProcess(const TrainingProcess&) = delete;
  TrainingProcess& operator=(const TrainingProcess&) = delete;
  ~TrainingProcess() { finish(); }

  /// Times one training; appends its seconds and its model's digest.
  void train(std::vector<double>& seconds, std::vector<std::uint64_t>& digests) {
    if (write(to_, "t\n", 2) != 2) throw std::runtime_error("train: request failed");
    const std::string line = read_line();
    double t = 0.0;
    std::uint64_t d = 0;
    if (std::sscanf(line.c_str(), "train_s %lf %" SCNx64, &t, &d) != 2) {
      throw std::runtime_error("train: unexpected reply '" + line + "'");
    }
    seconds.push_back(t);
    digests.push_back(d);
  }

  /// Ends the process and waits for it; true when it exited cleanly.
  bool finish() {
    close_pipes();
    if (pid_ < 0) return status_ok_;
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    status_ok_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    return status_ok_;
  }

 private:
  std::string read_line() {
    for (;;) {
      const std::size_t nl = buffered_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffered_.substr(0, nl);
        buffered_.erase(0, nl + 1);
        return line;
      }
      char buf[256];
      const ssize_t n = read(from_, buf, sizeof buf);
      if (n > 0) {
        buffered_.append(buf, static_cast<std::size_t>(n));
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        throw std::runtime_error("train: process closed its output");
      }
    }
  }

  void close_pipes() {
    if (to_ >= 0) close(to_);
    if (from_ >= 0) close(from_);
    to_ = from_ = -1;
  }

  pid_t pid_ = -1;
  int to_ = -1;
  int from_ = -1;
  bool status_ok_ = false;
  std::string buffered_;
};

/// Where pass `pass` of a live workload tees its spool, if it does.
std::optional<std::filesystem::path> spool_dir(const Options& opt, std::size_t pass) {
  if (opt.workload != Workload::live_churn) return std::nullopt;
  return opt.work / ("spool-" + std::to_string(pass));
}

/// A live workload, ready for its first pass.
struct LiveSetup {
  std::shared_ptr<const core::QoePipeline> model;
  engine::EngineConfig config;
  std::unique_ptr<LiveRig> rig;
};

/// The cold set-up of a live workload: load the model directory (and the
/// shadow), start the engine and the collector, connect the probe.
LiveSetup live_setup(const Options& opt) {
  LiveSetup s;
  s.model = std::make_shared<const core::QoePipeline>(
      core::load_pipeline(opt.inputs / "model"));
  std::shared_ptr<const core::QoePipeline> shadow;
  if (opt.workload == Workload::live_windowed) {
    shadow = std::make_shared<const core::QoePipeline>(
        core::load_pipeline(opt.inputs / "shadow"));
  }
  s.config = engine_config(opt.workload, shadow);
  s.rig = std::make_unique<LiveRig>(s.model, s.config, spool_dir(opt, 0), false);
  return s;
}

/// Both corpora of the offline workload, as its cold set-up leaves them.
struct OfflineSetup {
  workload::Corpus train;
  std::vector<core::SessionRecord> labelled;
  std::vector<trace::WeblogRecord> eval;
  std::vector<trace::SessionGroundTruth> eval_truths;
};

/// The cold set-up of the offline workload: read the training and the
/// evaluation corpus from CSV and label the training one into sessions.
OfflineSetup offline_setup(const Options& opt) {
  OfflineSetup s;
  s.labelled = load_labelled(opt.inputs, &s.train);
  s.eval = trace::read_weblogs_csv(opt.inputs / "eval_weblogs.csv");
  s.eval_truths = trace::read_ground_truth_csv(opt.inputs / "eval_truth.csv");
  return s;
}

int run_live(const Options& opt) {
  const Workload w = opt.workload;
  LiveSetup setup = live_setup(opt);
  const double setup_s = seconds_between(opt.process_start, Clock::now());
  const auto& model = setup.model;
  const engine::EngineConfig& config = setup.config;
  auto rig = std::move(setup.rig);

  const auto feed = load_feed(opt.inputs);
  const auto truths = trace::read_ground_truth_csv(opt.inputs / "truth.csv");
  print_feed_digest("feed-loaded", feed);
  const std::size_t stall_classes = model->stall_detector().forest().num_classes();
  const std::size_t repr_classes =
      model->representation_detector().forest().num_classes();

  std::vector<double> pass_seconds;
  std::vector<PassRecord> passes;
  std::vector<core::CompletedSession> first_sessions;
  // Trainings of the deployed recipe, each asked of the training process
  // between passes, while no thread of this one runs.
  TrainingProcess trainer(opt);
  std::vector<double> train_seconds;
  std::vector<std::uint64_t> model_digests;
  double train_busy_s = 0.0;
  const auto loop_start = Clock::now();
  for (std::size_t pass = 0;; ++pass) {
    if (!rig) rig = std::make_unique<LiveRig>(model, config, spool_dir(opt, pass), false);
    PassOutput out = rig->stream(feed);
    rig.reset();  // joins the collector thread and the shard worker
    PassRecord rec;
    rec.local_ok = check_pass_local(out, feed.size(), stall_classes, repr_classes);
    if (const auto dir = spool_dir(opt, pass)) {
      rec.local_ok = check_spool(*dir, feed) && rec.local_ok;
      std::filesystem::remove_all(*dir);
    }
    rec.session_set = session_set_digest(out.sessions);
    rec.verdict_count = out.verdicts.size();
    rec.verdicts = digest_verdicts(std::move(out.verdicts));
    rec.sessions = digest_sessions(out.sessions);
    if (pass == 0) first_sessions = std::move(out.sessions);
    passes.push_back(rec);
    pass_seconds.push_back(out.seconds);
    if (train_busy_s < kLiveTrainShare * seconds_between(loop_start, Clock::now())) {
      const auto t0 = Clock::now();
      trainer.train(train_seconds, model_digests);
      train_busy_s += seconds_between(t0, Clock::now());
    }
    if (passes.size() >= kMinPasses && train_seconds.size() >= kMinLiveTrainings &&
        seconds_between(loop_start, Clock::now()) >= opt.seconds) {
      break;
    }
  }
  const double peak_mib = peak_rss_mib();
  if (!trainer.finish()) throw std::runtime_error("train: process exited abnormally");

  // --- reference training on one pool thread, after the peak is read ---
  const std::uint64_t ref_model = model_digest(one_thread_model(load_labelled(opt.inputs)));

  // --- references, untimed, apart from the live path ---
  const auto reconstructed = session::reconstruct(feed);
  const LiveReference ref = live_reference(*model, config, feed, reconstructed);
  std::uint64_t failed = 0;
  for (const PassRecord& p : passes) {
    bool ok = p.local_ok;
    if (p.session_set != ref.session_set_digest) {
      std::fprintf(stderr, "check failed: session set differs from session::reconstruct\n");
      ok = false;
    }
    if (p.sessions != ref.sessions_digest || p.verdicts != ref.verdicts_digest) {
      std::fprintf(stderr, "check failed: live output differs from the sequential monitor\n");
      ok = false;
    }
    if (config.monitor.window.enabled() && p.verdict_count != ref.qualifying_windows) {
      std::fprintf(stderr, "check failed: %zu verdicts, %zu qualifying windows\n",
                   p.verdict_count, ref.qualifying_windows);
      ok = false;
    }
    if (!ok) ++failed;
  }
  for (const std::uint64_t d : model_digests) {
    if (d != ref_model) {
      std::fprintf(stderr, "check failed: model at %d threads differs from 1 thread\n",
                   kOfflineThreads);
      ++failed;
    }
  }
  std::printf("sessions=%zu verdicts=%zu qualifying_windows=%zu passes=%zu\n",
              ref.sessions, passes.front().verdict_count, ref.qualifying_windows,
              passes.size());
  const Accuracy acc = accuracy_of(align_reports(first_sessions, reconstructed),
                                   reconstructed, truths);
  const bool correct = accuracy_ok(w, acc);

  print_passes("pass_s", pass_seconds);
  print_passes("train_s", train_seconds);
  const double rate =
      static_cast<double>(feed.size()) / fastest_tenth(pass_seconds);
  print_result(correct, passes.size() + model_digests.size(), failed,
               {{"setup_s", setup_s, "s"},
                {"records_per_s", rate, "records/s"},
                {"train_s", fastest_tenth(train_seconds), "s"},
                {"peak_rss_mib", peak_mib, "MiB"}});
  return 0;
}

std::uint64_t digest_reports(const std::vector<core::QoeReport>& reports) {
  Digest d;
  d.u64(reports.size());
  for (const auto& r : reports) {
    d.u64(static_cast<std::uint64_t>(r.stall));
    d.u64(static_cast<std::uint64_t>(r.representation));
    d.u64(r.quality_switches);
    d.f64(r.switch_score);
  }
  return d.value();
}

/// Reconstructs the encrypted corpus and assesses every session, as
/// vqoe_assess does.
std::vector<core::QoeReport> assess_all(
    const core::QoePipeline& model,
    const std::vector<session::ReconstructedSession>& sessions) {
  std::vector<core::QoeReport> reports;
  reports.reserve(sessions.size());
  core::DetectorScratch scratch;
  for (const auto& s : sessions) {
    reports.push_back(model.assess(core::chunks_from_session(s), scratch));
  }
  return reports;
}

int run_offline(const Options& opt) {
  par::set_threads(kOfflineThreads);
  OfflineSetup setup = offline_setup(opt);
  const double setup_s = seconds_between(opt.process_start, Clock::now());
  print_corpus_digest("train-corpus-loaded", setup.train);
  print_feed_digest("eval-loaded", setup.eval);
  setup.train = {};
  const auto& labelled = setup.labelled;
  const auto& eval = setup.eval;
  const auto& eval_truths = setup.eval_truths;

  std::vector<double> train_seconds;
  std::vector<double> assess_seconds;
  std::vector<std::uint64_t> model_digests;
  std::vector<std::vector<std::uint64_t>> report_digests;  ///< per pass, per repeat
  std::vector<core::QoeReport> first_reports;
  const auto loop_start = Clock::now();
  while (true) {
    const core::QoePipeline model = timed_training(labelled, train_seconds);
    model_digests.push_back(model_digest(model));
    // Assessment is ~20x cheaper than training: repeat it within the pass
    // so its rate rests on as many samples as the live rates do.
    report_digests.emplace_back();
    for (std::size_t rep = 0; rep < kAssessRepeats; ++rep) {
      const auto t2 = Clock::now();
      const auto sessions = session::reconstruct(eval);
      auto reports = assess_all(model, sessions);
      assess_seconds.push_back(seconds_between(t2, Clock::now()));
      report_digests.back().push_back(digest_reports(reports));
      if (first_reports.empty()) first_reports = std::move(reports);
    }
    if (train_seconds.size() >= kMinPasses &&
        seconds_between(loop_start, Clock::now()) >= opt.seconds) {
      break;
    }
  }
  const double peak_mib = peak_rss_mib();

  // --- references: the same training on one pool thread ---
  const core::QoePipeline ref_model = one_thread_model(labelled);
  const std::uint64_t ref_model_digest = model_digest(ref_model);
  const auto reconstructed = session::reconstruct(eval);
  const std::uint64_t ref_reports = digest_reports(assess_all(ref_model, reconstructed));
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < model_digests.size(); ++i) {
    bool ok = true;
    if (model_digests[i] != ref_model_digest) {
      std::fprintf(stderr, "check failed: model at %d threads differs from 1 thread\n",
                   kOfflineThreads);
      ok = false;
    }
    if (std::any_of(report_digests[i].begin(), report_digests[i].end(),
                    [ref_reports](std::uint64_t d) { return d != ref_reports; })) {
      std::fprintf(stderr, "check failed: reports differ from the 1-thread model's\n");
      ok = false;
    }
    if (!ok) ++failed;
  }
  std::vector<const core::QoeReport*> aligned;
  for (const auto& r : first_reports) aligned.push_back(&r);
  const Accuracy acc = accuracy_of(aligned, reconstructed, eval_truths);
  const bool correct = accuracy_ok(opt.workload, acc);
  std::printf("train_sessions=%zu eval_sessions=%zu passes=%zu\n",
              labelled.size(), reconstructed.size(), train_seconds.size());

  print_passes("train_s", train_seconds);
  print_passes("assess_s", assess_seconds);
  const double rate =
      static_cast<double>(eval.size()) / fastest_tenth(assess_seconds);
  print_result(correct, train_seconds.size(), failed,
               {{"setup_s", setup_s, "s"},
                {"records_per_s", rate, "records/s"},
                {"train_s", fastest_tenth(train_seconds), "s"},
                {"peak_rss_mib", peak_mib, "MiB"}});
  return 0;
}

}  // namespace

int run_measured(const Options& opt) {
  return is_live(opt.workload) ? run_live(opt) : run_offline(opt);
}

int run_train(const Options& opt) {
  par::set_threads(kOfflineThreads);
  const auto labelled = load_labelled(opt.inputs);
  std::printf("ready\n");
  std::fflush(stdout);
  std::vector<double> seconds;
  char request[16];
  while (std::fgets(request, sizeof request, stdin)) {
    const std::uint64_t digest = model_digest(timed_training(labelled, seconds));
    std::printf("train_s %.9g %016" PRIx64 "\n", seconds.back(), digest);
    std::fflush(stdout);
  }
  return 0;
}

int run_setup(const Options& opt) {
  double setup_s = 0.0;
  if (is_live(opt.workload)) {
    LiveSetup setup = live_setup(opt);
    setup_s = seconds_between(opt.process_start, Clock::now());
    setup.rig.reset();  // joins the collector thread and the shard worker
    if (const auto dir = spool_dir(opt, 0)) std::filesystem::remove_all(*dir);
  } else {
    par::set_threads(kOfflineThreads);
    const OfflineSetup setup = offline_setup(opt);
    setup_s = seconds_between(opt.process_start, Clock::now());
  }
  std::printf("setup_s %.9g\n", setup_s);
  return 0;
}

}  // namespace qoebench
