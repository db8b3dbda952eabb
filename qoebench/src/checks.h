// Accuracy against the simulator's ground truth, with the floors every
// workload must meet (derived in README.md from EXPERIMENTS.md).
#pragma once

#include <vector>

#include "inputs.h"
#include "vqoe/core/online.h"
#include "vqoe/session/reconstruct.h"

namespace qoebench {

/// Share of one population scored correctly.
struct Share {
  double value = 0.0;
  std::size_t sessions = 0;  ///< population size
};

struct Accuracy {
  Share stall;           ///< all matched sessions
  Share repr;            ///< matched adaptive sessions
  Share switch_without;  ///< adaptive, no switch: scored below 500
  Share switch_with;     ///< adaptive, switching: scored above 500
  std::size_t matched = 0;  ///< ground-truth sessions matched
  std::size_t truths = 0;
};

/// `reports[i]` is the report for `reconstructed[i]` (null when the path
/// under test reported none). Ground truth is joined with
/// session::match_ground_truth.
Accuracy accuracy_of(
    const std::vector<const vqoe::core::QoeReport*>& reports,
    const std::vector<vqoe::session::ReconstructedSession>& reconstructed,
    const std::vector<vqoe::trace::SessionGroundTruth>& truths);

/// Aligns live session reports with the reconstructed sessions by
/// (subscriber, start time).
std::vector<const vqoe::core::QoeReport*> align_reports(
    const std::vector<vqoe::core::CompletedSession>& sessions,
    const std::vector<vqoe::session::ReconstructedSession>& reconstructed);

/// Prints the accuracy line and checks it against the floors and that
/// every ground-truth session was matched. A population under 50 sessions
/// is held to a lower floor scaled to its size (checks.cpp says how).
bool accuracy_ok(Workload w, const Accuracy& a);

}  // namespace qoebench
