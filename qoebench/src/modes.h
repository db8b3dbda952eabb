// The measuring modes of qoe_bench.
#pragma once

#include <cstdint>
#include <filesystem>

#include "inputs.h"
#include "util.h"

namespace qoebench {

struct Options {
  Workload workload = Workload::live_windowed;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::filesystem::path inputs;  ///< written by `prepare`
  std::filesystem::path work;    ///< scratch: spools, CSVs, model copies
  std::filesystem::path out;     ///< where the traced run writes its spans
  Clock::time_point process_start;
};

/// End-to-end metrics (tracing off). Returns the process exit code.
int run_measured(const Options& opt);
/// One cold set-up and nothing else; prints `setup_s <seconds>`.
int run_setup(const Options& opt);
/// Reads the labelled corpus and prints `ready`, then times one training
/// per line read from standard input and prints `train_s <seconds>
/// <model digest>` for each, until standard input ends.
int run_train(const Options& opt);
/// Per-layer metrics from the traced run. Returns the process exit code.
int run_traced(const Options& opt);

}  // namespace qoebench
