// Progress reporting and cooperative cancellation for the mining
// engines, plus the ObserveContext bundle that threads the whole
// observability layer (metrics registry, trace sink, progress callback)
// through every engine via DmcPolicy.
//
// Overhead policy: all three hooks default to null/empty. Engines check
// a cached `enabled` flag once per progress interval (default 1024
// rows), so a disabled context costs one integer compare per row and no
// clock reads, allocations or virtual calls.

#ifndef DMC_OBSERVE_PROGRESS_H_
#define DMC_OBSERVE_PROGRESS_H_

#include <cstdint>
#include <functional>

namespace dmc {

class MetricsRegistry;
class TraceSink;

/// One progress sample, delivered from inside a mining scan.
struct ProgressUpdate {
  /// Which scan is reporting ("prescan", "hundred_phase", "sub_phase",
  /// or a baseline pass name).
  const char* phase = "";
  /// Rows of the current scan processed so far.
  uint64_t rows_processed = 0;
  /// Total rows the current scan will touch (0 when unknown, e.g. an
  /// unbounded stream).
  uint64_t total_rows = 0;
  /// Live candidate entries in the miss-counter table right now.
  uint64_t live_candidates = 0;
  /// Current counter-array bytes (the Fig. 3 quantity).
  uint64_t counter_bytes = 0;
  /// Parallel shard index delivering this update; -1 for serial runs.
  int shard = -1;
};

/// Return false to cancel the mine; the engine stops at the next
/// progress interval and returns Status(kCancelled). May be invoked
/// concurrently from shard threads, so callbacks must be thread-safe.
using ProgressCallback = std::function<bool(const ProgressUpdate&)>;

/// Observability hooks carried by DmcPolicy. Copyable; engines treat
/// null members as disabled. The registry and sink must outlive every
/// mine that uses them.
struct ObserveContext {
  MetricsRegistry* metrics = nullptr;
  TraceSink* trace = nullptr;
  ProgressCallback progress;
  /// Rows between progress-callback invocations (and cancellation
  /// checks). Smaller = more responsive cancellation, more overhead.
  uint64_t progress_interval_rows = 1024;
  /// Shard index stamped on progress updates; -1 = serial. The parallel
  /// driver sets this on each shard's policy copy.
  int shard = -1;
  /// Trace display lane for spans (0 = main thread, shards use
  /// shard + 1).
  int trace_lane = 0;

  bool has_progress() const { return static_cast<bool>(progress); }
};

/// Delivers one progress sample to the (non-empty) callback; returns
/// false iff the callback requested cancellation.
inline bool ReportProgress(const ObserveContext& obs, const char* phase,
                           uint64_t processed, uint64_t total,
                           uint64_t live_candidates, uint64_t counter_bytes) {
  ProgressUpdate update;
  update.phase = phase;
  update.rows_processed = processed;
  update.total_rows = total;
  update.live_candidates = live_candidates;
  update.counter_bytes = counter_bytes;
  update.shard = obs.shard;
  return obs.progress(update);
}

/// Progress-check helper for simple scan loops: fires the callback when
/// `processed` lands on the interval; returns false iff the callback
/// requested cancellation.
inline bool CheckProgress(const ObserveContext& obs, const char* phase,
                          uint64_t processed, uint64_t total,
                          uint64_t live_candidates, uint64_t counter_bytes) {
  if (!obs.has_progress()) return true;
  const uint64_t interval =
      obs.progress_interval_rows > 0 ? obs.progress_interval_rows : 1;
  if (processed % interval != 0) return true;
  return ReportProgress(obs, phase, processed, total, live_candidates,
                        counter_bytes);
}

}  // namespace dmc

#endif  // DMC_OBSERVE_PROGRESS_H_
