// Byte-exact accounting of the candidate/counter data structures.
//
// The paper's evaluation (Fig. 3, Fig. 6(g,h)) reports the size of the
// "counter array that keeps candidate IDs and their miss-counters"; this
// tracker is the instrument behind those figures, and also drives the
// DMC-base -> DMC-bitmap switch (the 50 MB rule in §4.4). The Fig. 3
// memory-vs-progress curves are its per-row TakeIntervalPeak() values,
// which the scan stores in MiningStats::memory_history.

#ifndef DMC_UTIL_MEMORY_TRACKER_H_
#define DMC_UTIL_MEMORY_TRACKER_H_

#include <cstddef>

namespace dmc {

/// Tracks current and peak byte usage of an instrumented structure, and
/// the peak of each interval between two TakeIntervalPeak() calls.
class MemoryTracker {
 public:
  MemoryTracker() = default;

  void Add(size_t bytes) {
    current_ += bytes;
    if (current_ > peak_) peak_ = current_;
    if (current_ > interval_peak_) interval_peak_ = current_;
  }

  void Sub(size_t bytes) {
    current_ = bytes > current_ ? 0 : current_ - bytes;
  }

  size_t current_bytes() const { return current_; }
  size_t peak_bytes() const { return peak_; }

  /// Returns the highest usage seen since the previous TakeIntervalPeak()
  /// (or since construction/Reset), then re-arms the interval at the
  /// current usage. With one take per row, max over all takes equals
  /// peak_bytes() exactly — even when lists shrink mid-row — which is the
  /// invariant the exported Fig. 3 memory curves are checked against.
  size_t TakeIntervalPeak() {
    const size_t p = interval_peak_;
    interval_peak_ = current_;
    return p;
  }

 private:
  size_t current_ = 0;
  size_t peak_ = 0;
  size_t interval_peak_ = 0;
};

}  // namespace dmc

#endif  // DMC_UTIL_MEMORY_TRACKER_H_
