// Trace sink producing Chrome-tracing-compatible JSON (chrome://tracing
// or https://ui.perfetto.dev "Open trace file").
//
// The sink collects complete events ("ph":"X"): a name, a start
// timestamp relative to the sink's creation, a duration, and a small
// integer "thread" lane. Engines wrap phases in ScopedSpan; parallel
// shards pass an explicit lane id so per-shard spans nest visually under
// the parent span on lane 0.
//
// A null `TraceSink*` disables tracing: ScopedSpan's constructor then
// does no work at all (no clock read), so the hooks can stay compiled
// into the hot paths.

#ifndef DMC_OBSERVE_TRACE_H_
#define DMC_OBSERVE_TRACE_H_

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "util/thread_annotations.h"

namespace dmc {

/// One complete ("ph":"X") event.
struct TraceEvent {
  std::string name;
  int64_t ts_micros = 0;   // start, relative to sink creation
  int64_t dur_micros = 0;  // duration
  int tid = 0;             // display lane (0 = main, 1.. = shards)
};

class TraceSink {
 public:
  TraceSink();
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Microseconds since the sink was created (monotonic clock).
  int64_t NowMicros() const;

  void AddCompleteEvent(TraceEvent event);

  /// Copy of the recorded events in insertion order.
  std::vector<TraceEvent> Snapshot() const;

  /// Writes `{"traceEvents":[...], "displayTimeUnit":"ms"}` with events
  /// sorted by (ts, tid) for deterministic output.
  void WriteChromeJson(std::ostream& os) const;

 private:
  using Clock = std::chrono::steady_clock;
  const Clock::time_point epoch_;
  mutable Mutex mu_;
  std::vector<TraceEvent> events_ DMC_GUARDED_BY(mu_);
};

/// RAII span: records a complete event covering its lifetime. With a
/// null sink the constructor and destructor are no-ops.
class ScopedSpan {
 public:
  ScopedSpan(TraceSink* sink, std::string name, int tid = 0)
      : sink_(sink), tid_(tid) {
    if (sink_ == nullptr) return;
    name_ = std::move(name);
    start_micros_ = sink_->NowMicros();
  }

  ~ScopedSpan() {
    if (sink_ == nullptr) return;
    TraceEvent e;
    e.name = std::move(name_);
    e.ts_micros = start_micros_;
    e.dur_micros = sink_->NowMicros() - start_micros_;
    e.tid = tid_;
    sink_->AddCompleteEvent(std::move(e));
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceSink* sink_;
  int tid_;
  std::string name_;
  int64_t start_micros_ = 0;
};

}  // namespace dmc

#endif  // DMC_OBSERVE_TRACE_H_
