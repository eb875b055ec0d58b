#include "observe/metrics.h"

#include <algorithm>

#include "observe/json_writer.h"

namespace dmc {

namespace {

// Default exponential buckets for auto-defined histograms: powers of
// four from 1 to 4^12 (~16.7M). Wide enough for row counts, candidate
// counts and byte sizes without pre-registration.
std::vector<double> DefaultBuckets() {
  std::vector<double> bounds;
  double b = 1.0;
  for (int i = 0; i <= 12; ++i) {
    bounds.push_back(b);
    b *= 4.0;
  }
  return bounds;
}

}  // namespace

void MetricsRegistry::IncrCounter(const std::string& name, uint64_t delta) {
  MutexLock lock(mu_);
  counters_[name] += delta;
}

void MetricsRegistry::SetGauge(const std::string& name, double value) {
  MutexLock lock(mu_);
  gauges_[name] = value;
}

void MetricsRegistry::MaxGauge(const std::string& name, double value) {
  MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauges_[name] = value;
  } else if (value > it->second) {
    it->second = value;
  }
}

void MetricsRegistry::RecordTimer(const std::string& name, double seconds) {
  MutexLock lock(mu_);
  TimerStat& t = timers_[name];
  ++t.count;
  t.total_seconds += seconds;
  if (seconds > t.max_seconds) t.max_seconds = seconds;
}

void MetricsRegistry::DefineHistogram(const std::string& name,
                                      std::vector<double> upper_bounds) {
  std::sort(upper_bounds.begin(), upper_bounds.end());
  MutexLock lock(mu_);
  HistogramStat& h = histograms_[name];
  h.upper_bounds = std::move(upper_bounds);
  h.counts.assign(h.upper_bounds.size() + 1, 0);
  h.total = 0;
  h.sum = 0.0;
}

void MetricsRegistry::RecordHistogram(const std::string& name, double value) {
  MutexLock lock(mu_);
  HistogramStat& h = histograms_[name];
  if (h.counts.empty()) {
    h.upper_bounds = DefaultBuckets();
    h.counts.assign(h.upper_bounds.size() + 1, 0);
  }
  const auto it =
      std::lower_bound(h.upper_bounds.begin(), h.upper_bounds.end(), value);
  ++h.counts[static_cast<size_t>(it - h.upper_bounds.begin())];
  ++h.total;
  h.sum += value;
}

uint64_t MetricsRegistry::counter(const std::string& name) const {
  MutexLock lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::gauge(const std::string& name) const {
  MutexLock lock(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

TimerStat MetricsRegistry::timer(const std::string& name) const {
  MutexLock lock(mu_);
  const auto it = timers_.find(name);
  return it == timers_.end() ? TimerStat{} : it->second;
}

HistogramStat MetricsRegistry::histogram(const std::string& name) const {
  MutexLock lock(mu_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? HistogramStat{} : it->second;
}

std::map<std::string, uint64_t> MetricsRegistry::counters() const {
  MutexLock lock(mu_);
  return counters_;
}

std::map<std::string, double> MetricsRegistry::gauges() const {
  MutexLock lock(mu_);
  return gauges_;
}

std::map<std::string, TimerStat> MetricsRegistry::timers() const {
  MutexLock lock(mu_);
  return timers_;
}

std::map<std::string, HistogramStat> MetricsRegistry::histograms() const {
  MutexLock lock(mu_);
  return histograms_;
}

void MetricsRegistry::WriteJson(JsonWriter& w) const {
  const auto counters = this->counters();
  const auto gauges = this->gauges();
  const auto timers = this->timers();
  const auto histograms = this->histograms();

  w.BeginObject();
  w.Key("counters");
  w.BeginObject();
  for (const auto& [name, v] : counters) {
    w.Key(name);
    w.Value(v);
  }
  w.EndObject();

  w.Key("gauges");
  w.BeginObject();
  for (const auto& [name, v] : gauges) {
    w.Key(name);
    w.Value(v);
  }
  w.EndObject();

  w.Key("timers");
  w.BeginObject();
  for (const auto& [name, t] : timers) {
    w.Key(name);
    w.BeginObject();
    w.Key("count");
    w.Value(t.count);
    w.Key("total_seconds");
    w.Value(t.total_seconds);
    w.Key("max_seconds");
    w.Value(t.max_seconds);
    w.EndObject();
  }
  w.EndObject();

  w.Key("histograms");
  w.BeginObject();
  for (const auto& [name, h] : histograms) {
    w.Key(name);
    w.BeginObject();
    w.Key("upper_bounds");
    w.BeginArray();
    for (double b : h.upper_bounds) w.Value(b);
    w.EndArray();
    w.Key("counts");
    w.BeginArray();
    for (uint64_t c : h.counts) w.Value(c);
    w.EndArray();
    w.Key("total");
    w.Value(h.total);
    w.Key("sum");
    w.Value(h.sum);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
}

void MetricsRegistry::Clear() {
  MutexLock lock(mu_);
  counters_.clear();
  gauges_.clear();
  timers_.clear();
  histograms_.clear();
}

}  // namespace dmc
