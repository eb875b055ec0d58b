// Wall-clock stopwatch used by the mining engines to attribute time to
// phases (pre-scan, 100%-rule phase, DMC-base, DMC-bitmap).

#ifndef DMC_UTIL_STOPWATCH_H_
#define DMC_UTIL_STOPWATCH_H_

#include <chrono>

namespace dmc {

/// Monotonic stopwatch with microsecond resolution. Starts running on
/// construction; Restart() resets the origin.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Resets the origin to now.
  void Restart() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace dmc

#endif  // DMC_UTIL_STOPWATCH_H_
