#include "live.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <tuple>

#include "util.h"

namespace qoebench {

using namespace vqoe;

namespace {

wire::CollectorConfig collector_config(wire::SpoolWriter* tee) {
  wire::CollectorConfig config;
  config.port = 0;  // ephemeral
  config.expected_probes = 1;
  config.tee = tee;
  return config;
}

wire::ProbeOptions probe_options(std::uint16_t port) {
  wire::ProbeOptions options;
  options.port = port;
  options.speed = 0.0;  // unthrottled: a closed loop held back by acks only
  return options;
}

bool same_record(const trace::WeblogRecord& a, const trace::WeblogRecord& b) {
  const auto& ta = a.transport;
  const auto& tb = b.transport;
  return a.subscriber_id == b.subscriber_id && a.timestamp_s == b.timestamp_s &&
         a.transaction_time_s == b.transaction_time_s &&
         a.object_size_bytes == b.object_size_bytes && a.host == b.host &&
         a.kind == b.kind && a.encrypted == b.encrypted &&
         a.served_from_cache == b.served_from_cache &&
         ta.rtt_min_ms == tb.rtt_min_ms && ta.rtt_avg_ms == tb.rtt_avg_ms &&
         ta.rtt_max_ms == tb.rtt_max_ms && ta.bdp_bytes == tb.bdp_bytes &&
         ta.bif_avg_bytes == tb.bif_avg_bytes &&
         ta.bif_max_bytes == tb.bif_max_bytes && ta.loss_pct == tb.loss_pct &&
         ta.retrans_pct == tb.retrans_pct && a.session_id == b.session_id &&
         a.itag_height == b.itag_height && a.is_audio == b.is_audio &&
         a.report_stall_count == b.report_stall_count &&
         a.report_stall_duration_s == b.report_stall_duration_s;
}

}  // namespace

LiveRig::LiveRig(std::shared_ptr<const core::QoePipeline> model,
                 const engine::EngineConfig& config,
                 std::optional<std::filesystem::path> tee_dir,
                 bool time_boundaries)
    : engine_(std::move(model), config),
      tee_(tee_dir ? std::make_unique<wire::SpoolWriter>(*tee_dir) : nullptr),
      collector_(collector_config(tee_.get())),
      time_boundaries_(time_boundaries) {
  server_ = std::thread([this] {
    try {
      if (time_boundaries_) {
        collector_stats_ =
            collector_.run([this](const trace::WeblogRecordView& view) {
              const auto t0 = Clock::now();
              engine_.ingest(view);
              ingest_ns_ += static_cast<std::uint64_t>(ns_since(t0));
              ++sink_records_;
            });
      } else {
        collector_stats_ =
            collector_.run([this](const trace::WeblogRecordView& view) {
              engine_.ingest(view);
              ++sink_records_;
            });
      }
    } catch (...) {
      server_error_ = std::current_exception();
    }
  });
  try {
    probe_ = std::make_unique<wire::Probe>(probe_options(collector_.port()));
  } catch (...) {
    stop_server();
    throw;
  }
}

LiveRig::~LiveRig() {
  probe_.reset();  // an unfinished probe reads as a truncated stream
  stop_server();
}

void LiveRig::stop_server() noexcept {
  if (!server_.joinable()) return;
  collector_.stop();
  server_.join();
}

PassOutput LiveRig::stream(const std::vector<trace::WeblogRecord>& feed) {
  PassOutput out;
  const auto harvest = [&] {
    const auto t0 = Clock::now();
    auto done = engine_.harvest();
    auto verdicts = engine_.harvest_verdicts();
    if (time_boundaries_) {
      out.harvest_ns += static_cast<std::uint64_t>(ns_since(t0));
      ++out.harvest_calls;
    }
    out.sessions.insert(out.sessions.end(),
                        std::make_move_iterator(done.begin()),
                        std::make_move_iterator(done.end()));
    out.verdicts.insert(out.verdicts.end(),
                        std::make_move_iterator(verdicts.begin()),
                        std::make_move_iterator(verdicts.end()));
  };

  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < feed.size(); i += kSendChunk) {
    const auto t_send = Clock::now();
    probe_->send(feed.data() + i, std::min(kSendChunk, feed.size() - i));
    if (time_boundaries_) out.send_ns += static_cast<std::uint64_t>(ns_since(t_send));
    harvest();
  }
  const auto t_finish = Clock::now();
  probe_->finish();
  server_.join();  // run() returns once the one expected probe finished
  if (time_boundaries_) out.finish_ns = static_cast<std::uint64_t>(ns_since(t_finish));
  if (server_error_) std::rethrow_exception(server_error_);
  const auto t_drain = Clock::now();
  auto rest = engine_.drain();
  if (time_boundaries_) out.drain_ns = static_cast<std::uint64_t>(ns_since(t_drain));
  out.sessions.insert(out.sessions.end(), std::make_move_iterator(rest.begin()),
                      std::make_move_iterator(rest.end()));
  harvest();
  out.seconds = seconds_between(t0, Clock::now());

  if (tee_) tee_->close();
  out.probe = probe_->stats();
  out.collector = collector_stats_;
  out.engine = engine_.stats();
  out.sink_records = sink_records_;
  out.ingest_ns = ingest_ns_;
  return out;
}

std::uint64_t session_set_digest(
    const std::vector<core::CompletedSession>& sessions) {
  std::vector<std::tuple<std::string, double, double, std::size_t>> set;
  set.reserve(sessions.size());
  for (const auto& s : sessions) {
    set.emplace_back(s.subscriber_id, s.start_time_s, s.end_time_s,
                     s.chunk_count);
  }
  std::sort(set.begin(), set.end());
  Digest d;
  d.u64(set.size());
  for (const auto& [sub, start, end, chunks] : set) {
    d.str(sub);
    d.f64(start);
    d.f64(end);
    d.u64(chunks);
  }
  return d.value();
}

LiveReference live_reference(
    const core::QoePipeline& model, const engine::EngineConfig& config,
    const std::vector<trace::WeblogRecord>& feed,
    const std::vector<session::ReconstructedSession>& reconstructed) {
  LiveReference ref;
  // Sequential monitor, same monitor settings, no lifecycle observer: the
  // engine's shadow scoring and drift tracking must not change a verdict.
  core::OnlineMonitorConfig monitor_config = config.monitor;
  monitor_config.observer = nullptr;
  core::OnlineMonitor monitor{model, monitor_config};
  std::vector<core::CompletedSession> sessions;
  // The engine's watermark cadence, replayed: a tick before any record
  // that moves the stream clock a full interval past the last tick.
  const double interval = config.watermark_interval_s;
  bool ticking = false;
  double last_tick_s = 0.0;
  for (const auto& r : feed) {
    if (interval > 0.0) {
      if (!ticking) {
        ticking = true;
        last_tick_s = r.timestamp_s;
      } else if (r.timestamp_s - last_tick_s >= interval) {
        last_tick_s = r.timestamp_s;
        auto done = monitor.advance_to(r.timestamp_s);
        sessions.insert(sessions.end(), std::make_move_iterator(done.begin()),
                        std::make_move_iterator(done.end()));
      }
    }
    auto done = monitor.ingest(r);
    sessions.insert(sessions.end(), std::make_move_iterator(done.begin()),
                    std::make_move_iterator(done.end()));
  }
  auto rest = monitor.flush();
  sessions.insert(sessions.end(), std::make_move_iterator(rest.begin()),
                  std::make_move_iterator(rest.end()));
  ref.sessions = sessions.size();
  ref.sessions_digest = digest_sessions(std::move(sessions));
  ref.verdicts_digest = digest_verdicts(monitor.take_verdicts());

  // Session boundaries from the batch reconstructor.
  std::vector<core::CompletedSession> batch;
  for (const auto& s : reconstructed) {
    core::CompletedSession c;
    c.subscriber_id = s.subscriber_id;
    c.start_time_s = s.start_time_s;
    c.end_time_s = s.end_time_s;
    c.chunk_count = s.media.size();
    batch.push_back(std::move(c));
  }
  ref.session_set_digest = session_set_digest(batch);

  // Window count from the rules of DESIGN.md section 5g, over the
  // reconstructed sessions: half-open tumbling windows anchored at the
  // session's first record, chunk i in window floor((t_i - anchor) / len);
  // every window holding at least min_chunks chunks yields one verdict.
  const window::WindowConfig& win = config.monitor.window;
  if (win.enabled()) {
    for (const auto& s : reconstructed) {
      std::map<std::uint64_t, std::size_t> per_window;
      for (const auto& chunk : s.media) {
        const double index =
            std::floor((chunk.timestamp_s - s.start_time_s) / win.hop());
        ++per_window[static_cast<std::uint64_t>(index)];
      }
      for (const auto& [index, count] : per_window) {
        if (count >= win.min_chunks) ++ref.qualifying_windows;
      }
    }
  }
  return ref;
}

bool check_pass_local(const PassOutput& pass, std::size_t feed_records,
                      std::size_t stall_classes, std::size_t repr_classes) {
  bool ok = true;
  const auto fail = [&ok](const char* what, std::uint64_t got,
                          std::uint64_t want) {
    std::fprintf(stderr, "check failed: %s: %llu != %llu\n", what,
                 static_cast<unsigned long long>(got),
                 static_cast<unsigned long long>(want));
    ok = false;
  };
  const std::uint64_t n = feed_records;
  if (pass.probe.records_sent != n) fail("probe records sent", pass.probe.records_sent, n);
  if (pass.collector.records_received != n)
    fail("collector records received", pass.collector.records_received, n);
  if (pass.collector.records_emitted != n)
    fail("collector records emitted", pass.collector.records_emitted, n);
  if (pass.sink_records != n) fail("sink records", pass.sink_records, n);
  if (pass.engine.records_out != n) fail("engine records ingested", pass.engine.records_out, n);
  if (pass.engine.dropped != 0) fail("engine drops", pass.engine.dropped, 0);
  if (pass.collector.protocol_errors != 0)
    fail("protocol errors", pass.collector.protocol_errors, 0);
  if (pass.engine.sessions_reported != pass.sessions.size())
    fail("sessions harvested", pass.sessions.size(), pass.engine.sessions_reported);
  if (pass.engine.verdicts_emitted != pass.verdicts.size())
    fail("verdicts harvested", pass.verdicts.size(), pass.engine.verdicts_emitted);
  // A forest's majority vote share lies in [1/classes, 1].
  const double eps = 1e-9;
  for (const auto& v : pass.verdicts) {
    const double lo_s = 1.0 / static_cast<double>(stall_classes);
    const double lo_r = 1.0 / static_cast<double>(repr_classes);
    if (v.stall_confidence < lo_s - eps || v.stall_confidence > 1.0 + eps ||
        v.repr_confidence < lo_r - eps || v.repr_confidence > 1.0 + eps) {
      std::fprintf(stderr, "check failed: confidence out of range (%g, %g)\n",
                   v.stall_confidence, v.repr_confidence);
      ok = false;
      break;
    }
  }
  return ok;
}

bool check_spool(const std::filesystem::path& dir,
                 const std::vector<trace::WeblogRecord>& feed) {
  wire::SpoolReader reader(dir);
  trace::WeblogRecord r;
  std::size_t i = 0;
  while (reader.next(r)) {
    if (i >= feed.size() || !same_record(r, feed[i])) {
      std::fprintf(stderr, "check failed: spool record %zu differs\n", i);
      return false;
    }
    ++i;
  }
  if (i != feed.size() || reader.torn_tail()) {
    std::fprintf(stderr, "check failed: spool holds %zu of %zu records\n", i,
                 feed.size());
    return false;
  }
  return true;
}

}  // namespace qoebench
