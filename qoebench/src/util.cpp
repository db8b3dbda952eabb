#include "util.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <tuple>

namespace qoebench {

void digest_record(Digest& d, const vqoe::trace::WeblogRecord& r) {
  d.str(r.subscriber_id);
  d.f64(r.timestamp_s);
  d.f64(r.transaction_time_s);
  d.u64(r.object_size_bytes);
  d.str(r.host);
  d.u64(static_cast<std::uint64_t>(r.kind));
  d.u64(r.encrypted);
  d.u64(r.served_from_cache);
  d.f64(r.transport.rtt_min_ms);
  d.f64(r.transport.rtt_avg_ms);
  d.f64(r.transport.rtt_max_ms);
  d.f64(r.transport.bdp_bytes);
  d.f64(r.transport.bif_avg_bytes);
  d.f64(r.transport.bif_max_bytes);
  d.f64(r.transport.loss_pct);
  d.f64(r.transport.retrans_pct);
  d.str(r.session_id);
  d.u64(static_cast<std::uint64_t>(r.itag_height));
  d.u64(r.is_audio);
  d.u64(static_cast<std::uint64_t>(r.report_stall_count));
  d.f64(r.report_stall_duration_s);
}

void digest_truth(Digest& d, const vqoe::trace::SessionGroundTruth& t) {
  d.str(t.session_id);
  d.str(t.subscriber_id);
  d.f64(t.start_time_s);
  d.f64(t.total_duration_s);
  d.u64(t.adaptive);
  d.u64(t.media_chunk_count);
  d.f64(t.rebuffering_ratio);
  d.f64(t.average_height);
  d.u64(t.switch_count);
  d.f64(t.switch_amplitude);
}

void digest_session(Digest& d, const vqoe::core::CompletedSession& s) {
  d.str(s.subscriber_id);
  d.f64(s.start_time_s);
  d.f64(s.end_time_s);
  d.u64(s.chunk_count);
  d.u64(static_cast<std::uint64_t>(s.report.stall));
  d.u64(static_cast<std::uint64_t>(s.report.representation));
  d.u64(s.report.quality_switches);
  d.f64(s.report.switch_score);
}

void digest_verdict(Digest& d, const vqoe::window::WindowVerdict& v) {
  d.str(v.subscriber_id);
  d.u64(v.window_index);
  d.f64(v.start_s);
  d.f64(v.end_s);
  d.u64(v.chunk_count);
  d.u64(v.final_window);
  d.u64(v.stall);
  d.u64(v.representation);
  d.u64(v.quality_switches);
  d.f64(v.switch_score);
  d.f64(v.stall_confidence);
  d.f64(v.repr_confidence);
  d.f64(v.window_cusum);
  d.f64(v.mean_goodput_kbps);
}

std::uint64_t digest_sessions(
    std::vector<vqoe::core::CompletedSession> sessions) {
  std::sort(sessions.begin(), sessions.end(),
            [](const auto& a, const auto& b) {
              return std::tie(a.subscriber_id, a.start_time_s) <
                     std::tie(b.subscriber_id, b.start_time_s);
            });
  Digest d;
  d.u64(sessions.size());
  for (const auto& s : sessions) digest_session(d, s);
  return d.value();
}

std::uint64_t digest_verdicts(
    std::vector<vqoe::window::WindowVerdict> verdicts) {
  std::sort(verdicts.begin(), verdicts.end(),
            [](const auto& a, const auto& b) {
              return std::tie(a.subscriber_id, a.start_s, a.window_index,
                              a.end_s) <
                     std::tie(b.subscriber_id, b.start_s, b.window_index,
                              b.end_s);
            });
  Digest d;
  d.u64(verdicts.size());
  for (const auto& v : verdicts) digest_verdict(d, v);
  return d.value();
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::uint64_t kib = 0;
    const char* p = line.c_str() + 6;
    while (*p == ' ' || *p == '\t') ++p;
    const char* end = p;
    while (*end >= '0' && *end <= '9') ++end;
    std::from_chars(p, end, kib);
    return static_cast<double>(kib) / 1024.0;
  }
  return 0.0;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc{} && ptr == end && ptr != text;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (i) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::fflush(stdout);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace qoebench
