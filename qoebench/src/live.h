// The live probe -> loopback TCP -> collector -> engine -> verdict path.
#pragma once

#include <cstdint>
#include <exception>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "vqoe/core/online.h"
#include "vqoe/engine/engine.h"
#include "vqoe/session/reconstruct.h"
#include "vqoe/wire/spool.h"
#include "vqoe/wire/transport.h"

namespace qoebench {

/// Records per probe send between two harvests on the probe thread.
inline constexpr std::size_t kSendChunk = 2048;

/// What one pass through the live path produced and counted.
struct PassOutput {
  double seconds = 0.0;  ///< first send -> last verdict harvested after drain
  std::vector<vqoe::core::CompletedSession> sessions;
  std::vector<vqoe::window::WindowVerdict> verdicts;
  vqoe::wire::ProbeStats probe;
  vqoe::wire::CollectorStats collector;
  vqoe::engine::EngineStats engine;
  std::uint64_t sink_records = 0;  ///< records the collector handed on
  // Filled only when the rig times its boundaries (traced run).
  std::uint64_t ingest_ns = 0;      ///< collector-thread time in ingest()
  std::uint64_t send_ns = 0;        ///< probe-thread time in Probe::send()
  std::uint64_t finish_ns = 0;      ///< Probe::finish() + collector join
  std::uint64_t harvest_calls = 0;
  std::uint64_t harvest_ns = 0;
  std::uint64_t drain_ns = 0;
};

/// One ready probe -> collector -> engine path: engine started, collector
/// event loop running on its own thread, probe connected. Streams one feed
/// (stream()), after which it is spent. Three busy threads: the probe
/// (caller), the collector and the single shard worker.
class LiveRig {
 public:
  /// `tee_dir`: when set, the collector tees the merged feed to a spool
  /// there. `time_boundaries`: time each engine ingest and harvest call.
  LiveRig(std::shared_ptr<const vqoe::core::QoePipeline> model,
          const vqoe::engine::EngineConfig& config,
          std::optional<std::filesystem::path> tee_dir, bool time_boundaries);
  ~LiveRig();
  LiveRig(const LiveRig&) = delete;
  LiveRig& operator=(const LiveRig&) = delete;

  PassOutput stream(const std::vector<vqoe::trace::WeblogRecord>& feed);

 private:
  void stop_server() noexcept;

  vqoe::engine::MonitorEngine engine_;
  std::unique_ptr<vqoe::wire::SpoolWriter> tee_;
  vqoe::wire::Collector collector_;
  bool time_boundaries_;
  std::uint64_t sink_records_ = 0;   ///< collector thread only until join
  std::uint64_t ingest_ns_ = 0;      ///< collector thread only until join
  vqoe::wire::CollectorStats collector_stats_;
  std::exception_ptr server_error_;
  std::thread server_;  ///< declared after everything the loop touches
  std::unique_ptr<vqoe::wire::Probe> probe_;
};

/// Everything a live pass is checked against, computed apart from the
/// live path: a sequential OnlineMonitor without lifecycle observers, the
/// batch reconstructor, and the window rules of DESIGN.md section 5g.
struct LiveReference {
  std::uint64_t sessions_digest = 0;  ///< sequential monitor reports
  std::uint64_t verdicts_digest = 0;  ///< sequential monitor verdicts
  std::uint64_t session_set_digest = 0;  ///< session::reconstruct boundaries
  std::size_t sessions = 0;
  std::size_t qualifying_windows = 0;
};

LiveReference live_reference(const vqoe::core::QoePipeline& model,
                             const vqoe::engine::EngineConfig& config,
                             const std::vector<vqoe::trace::WeblogRecord>& feed,
                             const std::vector<vqoe::session::ReconstructedSession>&
                                 reconstructed);

/// Digest of (subscriber, start, end, chunk count) over a session set.
std::uint64_t session_set_digest(
    const std::vector<vqoe::core::CompletedSession>& sessions);

/// Checks of one pass that need nothing but the feed and the pass itself:
/// conservation, no protocol errors or drops, confidence ranges.
/// Prints the reason of each failure to stderr.
bool check_pass_local(const PassOutput& pass, std::size_t feed_records,
                      std::size_t stall_classes, std::size_t repr_classes);

/// Streams the spool back and compares it with the feed record for record.
bool check_spool(const std::filesystem::path& dir,
                 const std::vector<vqoe::trace::WeblogRecord>& feed);

}  // namespace qoebench
