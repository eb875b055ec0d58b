// Shared pieces of the repository benchmark: clocks, sample statistics,
// the benchmark-side span log and the metric sink.
//
// Spans are recorded by the benchmark around each public library call
// (the library's own observe hooks stay off), kept in memory, and
// written out once at the end of a traced run.

#ifndef DMC_PERFBENCH_COMMON_H_
#define DMC_PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile (the same rule as numpy's default and
/// Python's statistics.quantiles "inclusive" method). 0 for no samples.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// One benchmark-side span. Times are seconds since the run's origin.
struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;  ///< index into the log, -1 for a top-level span
  int op_id = 0;    ///< shared by every span of one timed operation
};

/// In-memory span log. A disabled log records nothing and returns -1
/// as the span id.
class SpanLog {
 public:
  SpanLog(bool enabled, Clock::time_point origin)
      : enabled_(enabled), origin_(origin) {}

  int NewOp() { return ++last_op_; }

  /// Records a span that ran over [start, end].
  int Add(const std::string& name, Clock::time_point start,
          Clock::time_point end, int parent, int op_id) {
    if (!enabled_) return -1;
    spans_.push_back({name, SecondsBetween(origin_, start),
                      SecondsBetween(origin_, end), parent, op_id});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// One JSON object per line.
  std::string ToJsonLines() const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  int last_op_ = 0;
  std::vector<Span> spans_;
};

/// Named metric values in print order, with units.
class MetricSink {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }

  /// The "metrics" object of the result line.
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Tally of timed operations and output checks for the result line.
struct Outcome {
  /// False once any output check failed (timed or not).
  bool correct = true;
  std::vector<std::string> errors;
  /// Attempted and failed operations per kind ("imp", "serve.append", ...).
  std::map<std::string, std::pair<uint64_t, uint64_t>> ops;

  void Fail(const std::string& why) {
    correct = false;
    if (errors.size() < 20) errors.push_back(why);
  }
  /// Counts one operation of `kind`; `error` empty means it passed.
  void Record(const std::string& kind, const std::string& error) {
    auto& [attempted, failed] = ops[kind];
    ++attempted;
    if (!error.empty()) {
      ++failed;
      Fail(kind + ": " + error);
    }
  }
  /// Failed operations of the kinds whose name starts with `prefix`.
  uint64_t Failed(const std::string& prefix = "") const {
    uint64_t n = 0;
    for (const auto& [kind, tally] : ops) {
      if (kind.rfind(prefix, 0) == 0) n += tally.second;
    }
    return n;
  }
  uint64_t Attempted() const {
    uint64_t n = 0;
    for (const auto& [kind, tally] : ops) n += tally.first;
    return n;
  }
  /// The lowest pass rate over the kinds, so that one failing path moves
  /// it however many operations the other kinds ran.
  double SuccessRate() const {
    double rate = ops.empty() ? 0.0 : 1.0;
    for (const auto& [kind, tally] : ops) {
      rate = std::min(rate, static_cast<double>(tally.first - tally.second) /
                                static_cast<double>(tally.first));
    }
    return rate;
  }
};

/// Deterministic work counts of one operation kind. The first
/// repetition fixes the values; every later repetition of the same
/// input must reproduce them exactly.
class CountLedger {
 public:
  /// Returns an error message when `value` differs from the first
  /// value recorded under `name`, else "".
  std::string Check(const std::string& name, uint64_t value) {
    const auto [it, inserted] = values_.emplace(name, value);
    if (inserted || it->second == value) return "";
    return "count " + name + " changed between repetitions: " +
           std::to_string(it->second) + " -> " + std::to_string(value);
  }
  const std::map<std::string, uint64_t>& values() const { return values_; }

 private:
  std::map<std::string, uint64_t> values_;
};

}  // namespace perfbench

#endif  // DMC_PERFBENCH_COMMON_H_
