// Workloads and their seeded inputs.
//
// Every input the benchmark feeds the program is a function of the
// workload name and --seed: the live feeds, the labelled training corpus,
// the Section-5.2 evaluation corpus and the models trained on them. The
// `prepare` step writes them into a scratch directory from a process of
// its own, so neither input generation nor model training sets the peak
// resident set of the process that is measured.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string_view>
#include <vector>

#include "vqoe/core/pipeline.h"
#include "vqoe/engine/engine.h"
#include "vqoe/trace/weblog.h"
#include "vqoe/workload/corpus.h"

namespace qoebench {

enum class Workload { live_windowed, live_churn, offline_train_assess };

bool parse_workload(std::string_view name, Workload& out);
const char* workload_name(Workload w);
inline bool is_live(Workload w) { return w != Workload::offline_train_assess; }

/// Tumbling window length and verdict gate of the live-windowed engine.
inline constexpr double kWindowSeconds = 10.0;
inline constexpr std::size_t kWindowMinChunks = 2;
/// Pool threads of the offline workload.
inline constexpr int kOfflineThreads = 2;

/// A live feed: encrypted operator weblogs, globally time-sorted, plus the
/// simulator's per-session ground truth.
struct Feed {
  std::vector<vqoe::trace::WeblogRecord> records;
  std::vector<vqoe::trace::SessionGroundTruth> truths;
};

/// The live feed of a workload (live workloads only).
Feed make_feed(Workload w, std::uint64_t seed);
/// The labelled cleartext training corpus of every workload (cleartext mix
/// plus an adaptive draw, as the paper trains the representation model on
/// HAS sessions).
vqoe::workload::Corpus make_training_corpus(std::uint64_t seed,
                                            std::uint64_t stream = 0);
/// The Section-5.2 encrypted evaluation corpus (weblogs already stripped).
vqoe::workload::Corpus make_eval_corpus(std::uint64_t seed);

/// Trains the deployed pipeline of a live workload; `stream` 1 is the
/// shadow candidate (another draw of the same recipe).
std::shared_ptr<const vqoe::core::QoePipeline> train_model(std::uint64_t seed,
                                                           std::uint64_t stream);

/// Engine configuration of a live workload.
vqoe::engine::EngineConfig engine_config(
    Workload w, std::shared_ptr<const vqoe::core::QoePipeline> shadow);

/// Serialized model bytes (the three detector files in save order).
std::string model_bytes(const vqoe::core::QoePipeline& pipeline);

/// Prints "input <name> count=<n> fnv=<hex>" lines for generated inputs.
void print_feed_digest(const char* name,
                       const std::vector<vqoe::trace::WeblogRecord>& records);
void print_corpus_digest(const char* name, const vqoe::workload::Corpus& c);
void print_model_digest(const char* name,
                        const vqoe::core::QoePipeline& pipeline);

/// Loads a live feed written by prepare_inputs(), reserving its exact size
/// first so that loading leaves no growth transient in the peak RSS.
std::vector<vqoe::trace::WeblogRecord> load_feed(const std::filesystem::path& dir);

/// Writes every input of the workload under `dir`.
void prepare_inputs(Workload w, std::uint64_t seed,
                    const std::filesystem::path& dir);

}  // namespace qoebench
