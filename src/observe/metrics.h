// Thread-safe metrics registry: counters, gauges, timers, and
// fixed-bucket histograms, keyed by name.
//
// Design notes (see README "Observability"):
//   * The registry is pull-model: engines record into it, exporters read
//     a snapshot. All maps are std::map so exports are sorted and
//     deterministic — golden tests diff the output byte-for-byte.
//   * Every mutation takes one mutex. The registry sits outside the
//     per-row hot loops (engines record per phase or per progress
//     interval), so a single lock is cheap and keeps TSan trivially
//     happy across parallel shards.
//   * A null `MetricsRegistry*` everywhere means "disabled"; the helpers
//     (ScopedTimer, free functions) no-op without reading a clock.

#ifndef DMC_OBSERVE_METRICS_H_
#define DMC_OBSERVE_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/stopwatch.h"
#include "util/thread_annotations.h"

namespace dmc {

class JsonWriter;

/// Aggregated timer: call-count plus total/max elapsed seconds.
struct TimerStat {
  uint64_t count = 0;
  double total_seconds = 0.0;
  double max_seconds = 0.0;
};

/// Fixed-bucket histogram. `upper_bounds` are inclusive bucket tops in
/// ascending order; `counts` has one extra slot for the overflow bucket.
struct HistogramStat {
  std::vector<double> upper_bounds;
  std::vector<uint64_t> counts;  // size = upper_bounds.size() + 1
  uint64_t total = 0;
  double sum = 0.0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void IncrCounter(const std::string& name, uint64_t delta = 1);
  void SetGauge(const std::string& name, double value);
  /// Sets the gauge to max(current, value); missing gauges start at
  /// `value`. Used for peaks merged across parallel shards.
  void MaxGauge(const std::string& name, double value);
  void RecordTimer(const std::string& name, double seconds);

  /// Defines histogram buckets ahead of recording. Recording into an
  /// undefined histogram auto-defines default buckets (powers of four
  /// from 1 to ~4^12) so callers never have to pre-register.
  void DefineHistogram(const std::string& name,
                       std::vector<double> upper_bounds);
  void RecordHistogram(const std::string& name, double value);

  // Snapshot accessors (each copies under the lock).
  uint64_t counter(const std::string& name) const;
  double gauge(const std::string& name) const;
  TimerStat timer(const std::string& name) const;
  HistogramStat histogram(const std::string& name) const;
  std::map<std::string, uint64_t> counters() const;
  std::map<std::string, double> gauges() const;
  std::map<std::string, TimerStat> timers() const;
  std::map<std::string, HistogramStat> histograms() const;

  /// Writes the registry as one JSON object with "counters", "gauges",
  /// "timers" and "histograms" sub-objects (names sorted).
  void WriteJson(JsonWriter& w) const;

  void Clear();

 private:
  mutable Mutex mu_;
  std::map<std::string, uint64_t> counters_ DMC_GUARDED_BY(mu_);
  std::map<std::string, double> gauges_ DMC_GUARDED_BY(mu_);
  std::map<std::string, TimerStat> timers_ DMC_GUARDED_BY(mu_);
  std::map<std::string, HistogramStat> histograms_ DMC_GUARDED_BY(mu_);
};

/// RAII timer recording into `registry` on destruction; a null registry
/// disables it entirely (no clock read).
class ScopedTimer {
 public:
  ScopedTimer(MetricsRegistry* registry, std::string name)
      : registry_(registry), name_(std::move(name)) {
    if (registry_ != nullptr) sw_.Restart();
  }
  ~ScopedTimer() {
    if (registry_ != nullptr) {
      registry_->RecordTimer(name_, sw_.ElapsedSeconds());
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  MetricsRegistry* registry_;
  std::string name_;
  Stopwatch sw_;
};

}  // namespace dmc

#endif  // DMC_OBSERVE_METRICS_H_
