// qoe_bench: the probe -> verdict benchmark of vqoe.
//
//   qoe_bench prepare --workload W --seed N --inputs DIR
//   qoe_bench run     --workload W --seed N --seconds S --inputs DIR --work DIR
//   qoe_bench setup   --workload W --seed N --inputs DIR --work DIR
//   qoe_bench train   --workload W --seed N --inputs DIR
//   qoe_bench trace   --workload W --seed N --seconds S --work DIR --out DIR
//
// `prepare` generates the workload's inputs from the seed and writes them
// under --inputs. `run` measures the end-to-end metrics on them and prints
// one JSON result line last; `setup` times the workload's cold set-up
// alone and prints it; `train` times trainings on the labelled corpus,
// one whenever a live workload's `run`, which starts it, asks between
// passes; `trace` drives
// each layer on its own and then chained, records spans, and prints the
// per-layer metrics the same way.
// run.py (next to this directory) builds this program and sequences the
// steps.
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "inputs.h"
#include "modes.h"
#include "util.h"
#include "vqoe/par/parallel.h"

namespace {

using namespace qoebench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "qoe_bench: %s\n"
               "usage: qoe_bench prepare|run|setup|train|trace --workload W --seed N "
               "[--seconds S] [--inputs DIR] [--work DIR] [--out DIR]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  // Cold set-up is timed from here: the first thing `run` does is load
  // what a deployment loads.
  const Clock::time_point process_start = Clock::now();
  if (argc < 2) usage("missing mode");
  const std::string mode = argv[1];
  Options opt;
  opt.process_start = process_start;
  bool have_workload = false;
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("flag without value");
    const char* value = argv[++i];
    if (key == "--workload") {
      if (!parse_workload(value, opt.workload)) usage("unknown workload");
      have_workload = true;
    } else if (key == "--seed") {
      if (!parse_u64(value, opt.seed)) usage("bad --seed");
    } else if (key == "--seconds") {
      std::uint64_t s = 0;
      if (!parse_u64(value, s) || s == 0) usage("bad --seconds");
      opt.seconds = static_cast<double>(s);
    } else if (key == "--inputs") {
      opt.inputs = value;
    } else if (key == "--work") {
      opt.work = value;
    } else if (key == "--out") {
      opt.out = value;
    } else {
      usage("unknown flag");
    }
  }
  if (!have_workload) usage("missing --workload");

  try {
    if (mode == "prepare") {
      if (opt.inputs.empty()) usage("prepare needs --inputs");
      // Input generation and training may use every vCPU but one.
      vqoe::par::set_threads(3);
      prepare_inputs(opt.workload, opt.seed, opt.inputs);
      return 0;
    }
    if (mode == "run") {
      if (opt.inputs.empty() || opt.work.empty()) usage("run needs --inputs and --work");
      std::filesystem::create_directories(opt.work);
      return run_measured(opt);
    }
    if (mode == "setup") {
      if (opt.inputs.empty() || opt.work.empty()) usage("setup needs --inputs and --work");
      std::filesystem::create_directories(opt.work);
      return run_setup(opt);
    }
    if (mode == "train") {
      if (opt.inputs.empty()) usage("train needs --inputs");
      return run_train(opt);
    }
    if (mode == "trace") {
      if (opt.work.empty() || opt.out.empty()) usage("trace needs --work and --out");
      std::filesystem::create_directories(opt.work);
      return run_traced(opt);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qoe_bench: %s\n", e.what());
    return 1;
  }
  usage("unknown mode");
}
