#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <tuple>

#include "vqoe/core/labels.h"

namespace qoebench {

using namespace vqoe;

namespace {

// Floors, derived in README.md ("Accuracy floors"): the lower of the
// encrypted and cleartext figures of EXPERIMENTS.md less 0.15, rounded
// down to 0.05. A scoring path that breaks lands near chance (stall ~0.33,
// switch ~0.5), under every full floor.
//
// A population under kFullPopulation sessions is held to a floor scaled to
// its size: the full floor less two binomial standard errors at that floor,
// but never under chance on a two-class question (0.5). The churn feed
// holds 10-28 switching HAS sessions, where one session moves the share by
// 4-9 points and a working scorer has read 6 of 11; a scorer that never
// flags a switch still fails here, one that always does fails the
// no-switch population.
constexpr std::size_t kFullPopulation = 50;
constexpr double kChance = 0.5;

double floor_for(double full_floor, std::size_t sessions) {
  if (sessions >= kFullPopulation) return full_floor;
  const double se =
      std::sqrt(full_floor * (1.0 - full_floor) / static_cast<double>(sessions));
  return std::max(kChance, full_floor - 2.0 * se);
}

struct Floors {
  double stall = 0.65;
  double repr = 0.65;
  double switch_without = 0.65;
  double switch_with = 0.70;
};

}  // namespace

Accuracy accuracy_of(
    const std::vector<const core::QoeReport*>& reports,
    const std::vector<session::ReconstructedSession>& reconstructed,
    const std::vector<trace::SessionGroundTruth>& truths) {
  Accuracy a;
  a.truths = truths.size();
  const auto matches = session::match_ground_truth(reconstructed, truths);
  std::size_t stall_ok = 0, stall_n = 0, repr_ok = 0, repr_n = 0;
  std::size_t without_ok = 0, without_n = 0, with_ok = 0, with_n = 0;
  for (std::size_t i = 0; i < reconstructed.size(); ++i) {
    if (!matches[i]) continue;
    ++a.matched;
    const core::QoeReport* report = reports[i];
    const trace::SessionGroundTruth& truth = truths[*matches[i]];
    ++stall_n;
    if (report && report->stall == core::stall_label(truth)) ++stall_ok;
    if (!truth.adaptive) continue;
    ++repr_n;
    if (report && report->representation == core::repr_label(truth)) ++repr_ok;
    const bool switching =
        core::variation_label(truth) != core::VariationLabel::none;
    if (switching) {
      ++with_n;
      if (report && report->quality_switches) ++with_ok;
    } else {
      ++without_n;
      if (report && !report->quality_switches) ++without_ok;
    }
  }
  const auto share = [](std::size_t ok, std::size_t n) {
    return Share{n ? static_cast<double>(ok) / static_cast<double>(n) : 0.0, n};
  };
  a.stall = share(stall_ok, stall_n);
  a.repr = share(repr_ok, repr_n);
  a.switch_without = share(without_ok, without_n);
  a.switch_with = share(with_ok, with_n);
  return a;
}

std::vector<const core::QoeReport*> align_reports(
    const std::vector<core::CompletedSession>& sessions,
    const std::vector<session::ReconstructedSession>& reconstructed) {
  std::map<std::tuple<std::string_view, double>, const core::QoeReport*> by_key;
  for (const auto& s : sessions) {
    by_key[{s.subscriber_id, s.start_time_s}] = &s.report;
  }
  std::vector<const core::QoeReport*> out(reconstructed.size(), nullptr);
  for (std::size_t i = 0; i < reconstructed.size(); ++i) {
    const auto it = by_key.find(
        {reconstructed[i].subscriber_id, reconstructed[i].start_time_s});
    if (it != by_key.end()) out[i] = it->second;
  }
  return out;
}

bool accuracy_ok(Workload w, const Accuracy& a) {
  const Floors f;
  std::printf(
      "accuracy stall=%.4f/%zu repr=%.4f/%zu switch_without=%.4f/%zu "
      "switch_with=%.4f/%zu matched=%zu/%zu\n",
      a.stall.value, a.stall.sessions, a.repr.value, a.repr.sessions,
      a.switch_without.value, a.switch_without.sessions, a.switch_with.value,
      a.switch_with.sessions, a.matched, a.truths);
  bool ok = true;
  if (a.matched != a.truths) {
    std::fprintf(stderr, "check failed: %zu of %zu ground-truth sessions matched\n",
                 a.matched, a.truths);
    ok = false;
  }
  const auto floor_ok = [&](const char* what, const Share& s, double full_floor) {
    if (s.sessions == 0) {
      std::fprintf(stderr, "check failed: no %s sessions to score (%s)\n", what,
                   workload_name(w));
      ok = false;
      return;
    }
    const double floor = floor_for(full_floor, s.sessions);
    if (s.value >= floor) return;
    std::fprintf(stderr, "check failed: %s accuracy %.4f over %zu sessions under %.3f (%s)\n",
                 what, s.value, s.sessions, floor, workload_name(w));
    ok = false;
  };
  floor_ok("stall", a.stall, f.stall);
  floor_ok("representation", a.repr, f.repr);
  floor_ok("switch (no switch)", a.switch_without, f.switch_without);
  floor_ok("switch (switching)", a.switch_with, f.switch_with);
  return ok;
}

}  // namespace qoebench
