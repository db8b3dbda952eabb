// Small shared pieces of the qoe_bench harness: clock, robust estimators,
// input digests, process memory and the result line.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "vqoe/core/online.h"
#include "vqoe/trace/weblog.h"
#include "vqoe/window/window.h"

namespace qoebench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline std::int64_t ns_since(Clock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

/// Mean of the fastest tenth of the samples (at least one). The machine
/// this runs on has slow phases lasting seconds in which every pass runs
/// 20-60% long; the fastest tenth of a run's passes is what repeats from
/// process to process, the median is not.
inline double fastest_tenth(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t k = std::max<std::size_t>(1, samples.size() / 10);
  double sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) sum += samples[i];
  return sum / static_cast<double>(k);
}

/// FNV-1a over the bytes handed to it; the digest printed for every
/// generated input so a change in how inputs are made is visible.
class Digest {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ull;
    }
  }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

void digest_record(Digest& d, const vqoe::trace::WeblogRecord& r);
void digest_truth(Digest& d, const vqoe::trace::SessionGroundTruth& t);
void digest_session(Digest& d, const vqoe::core::CompletedSession& s);
void digest_verdict(Digest& d, const vqoe::window::WindowVerdict& v);

/// Order-independent canonical digest of a session report multiset and a
/// verdict multiset (the engine emits them in harvest order, a sequential
/// monitor in close order).
std::uint64_t digest_sessions(std::vector<vqoe::core::CompletedSession> sessions);
std::uint64_t digest_verdicts(std::vector<vqoe::window::WindowVerdict> verdicts);

/// Peak resident set (VmHWM) of this process in MiB; 0 when unreadable.
double peak_rss_mib();

/// Strict whole-string parse of an unsigned decimal; false on garbage.
bool parse_u64(const char* text, std::uint64_t& out);

/// One metric of the final result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints the result object as the last line of standard output.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics);

}  // namespace qoebench
