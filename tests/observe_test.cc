// Unit tests for the observability layer: metrics registry, histogram
// bucketing, trace spans, JSON/JSONL output shape, progress/cancel
// helper, and multi-threaded registry/sink use (run under TSan by
// tools/check.sh).

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/mining_stats.h"
#include "core/parallel_dmc.h"
#include "observe/json_writer.h"
#include "observe/metrics.h"
#include "observe/progress.h"
#include "observe/stats_export.h"
#include "observe/trace.h"

namespace dmc {
namespace {

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t n = 0;
  size_t pos = 0;
  while ((pos = haystack.find(needle, pos)) != std::string::npos) {
    ++n;
    pos += needle.size();
  }
  return n;
}

// --- JsonWriter ------------------------------------------------------

TEST(JsonWriterTest, EscapesControlCharactersAndQuotes) {
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("x\ny"), "x\\ny");
  EXPECT_EQ(JsonEscape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonWriterTest, NonFiniteNumbersBecomeNull) {
  EXPECT_EQ(JsonNumber(0.5), "0.5");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::quiet_NaN()), "null");
}

TEST(JsonWriterTest, CompactObjectShape) {
  std::ostringstream os;
  JsonWriter w(os, /*indent=*/0);
  w.BeginObject();
  w.Key("a");
  w.Value(uint64_t{1});
  w.Key("b");
  w.BeginArray();
  w.Value(2);
  w.Value(3);
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(os.str(), "{\"a\":1,\"b\":[2,3]}");
}

// --- MetricsRegistry -------------------------------------------------

TEST(MetricsRegistryTest, CountersGaugesTimers) {
  MetricsRegistry r;
  r.IncrCounter("rows");
  r.IncrCounter("rows", 9);
  EXPECT_EQ(r.counter("rows"), 10u);
  EXPECT_EQ(r.counter("missing"), 0u);

  r.SetGauge("mem", 5.0);
  r.SetGauge("mem", 3.0);
  EXPECT_DOUBLE_EQ(r.gauge("mem"), 3.0);
  r.MaxGauge("peak", 5.0);
  r.MaxGauge("peak", 3.0);
  r.MaxGauge("peak", 7.0);
  EXPECT_DOUBLE_EQ(r.gauge("peak"), 7.0);

  r.RecordTimer("t", 0.5);
  r.RecordTimer("t", 1.5);
  const TimerStat t = r.timer("t");
  EXPECT_EQ(t.count, 2u);
  EXPECT_DOUBLE_EQ(t.total_seconds, 2.0);
  EXPECT_DOUBLE_EQ(t.max_seconds, 1.5);

  r.Clear();
  EXPECT_EQ(r.counter("rows"), 0u);
  EXPECT_TRUE(r.counters().empty());
}

TEST(MetricsRegistryTest, HistogramBucketingIsInclusiveOnUpperBound) {
  MetricsRegistry r;
  r.DefineHistogram("h", {10.0, 100.0});
  r.RecordHistogram("h", 10.0);   // on the boundary -> first bucket
  r.RecordHistogram("h", 10.5);   // second bucket
  r.RecordHistogram("h", 100.0);  // second bucket
  r.RecordHistogram("h", 1e9);    // overflow bucket
  const HistogramStat h = r.histogram("h");
  ASSERT_EQ(h.counts.size(), 3u);
  EXPECT_EQ(h.counts[0], 1u);
  EXPECT_EQ(h.counts[1], 2u);
  EXPECT_EQ(h.counts[2], 1u);
  EXPECT_EQ(h.total, 4u);
  EXPECT_DOUBLE_EQ(h.sum, 10.0 + 10.5 + 100.0 + 1e9);
}

TEST(MetricsRegistryTest, RecordingUndefinedHistogramAutoDefinesBuckets) {
  MetricsRegistry r;
  r.RecordHistogram("auto", 17.0);
  const HistogramStat h = r.histogram("auto");
  // Powers of four from 4^0 to 4^12: 13 bounds, 14 counts.
  ASSERT_EQ(h.upper_bounds.size(), 13u);
  ASSERT_EQ(h.counts.size(), 14u);
  EXPECT_DOUBLE_EQ(h.upper_bounds.front(), 1.0);
  EXPECT_DOUBLE_EQ(h.upper_bounds.back(), 16777216.0);
  // 17 lands in the (16, 64] bucket = index 3.
  EXPECT_EQ(h.counts[3], 1u);
  EXPECT_EQ(h.total, 1u);
}

TEST(MetricsRegistryTest, ScopedTimerRecordsOnceAndNullRegistryIsNoop) {
  MetricsRegistry r;
  { ScopedTimer timer(&r, "scoped"); }
  EXPECT_EQ(r.timer("scoped").count, 1u);
  { ScopedTimer disabled(nullptr, "scoped"); }  // must not crash
  EXPECT_EQ(r.timer("scoped").count, 1u);
}

TEST(MetricsRegistryTest, WriteJsonHasAllFourSections) {
  MetricsRegistry r;
  r.IncrCounter("c", 2);
  r.SetGauge("g", 1.5);
  r.RecordTimer("t", 0.25);
  r.DefineHistogram("h", {1.0});
  r.RecordHistogram("h", 0.5);
  std::ostringstream os;
  JsonWriter w(os, 2);
  r.WriteJson(w);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"timers\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"c\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"total_seconds\": 0.25"), std::string::npos);
  EXPECT_NE(json.find("\"upper_bounds\""), std::string::npos);
}

// --- TraceSink / ScopedSpan ------------------------------------------

TEST(TraceSinkTest, NestedSpansRecordInCompletionOrder) {
  TraceSink sink;
  {
    ScopedSpan outer(&sink, "outer", /*tid=*/0);
    {
      ScopedSpan inner(&sink, "inner", /*tid=*/1);
    }
  }
  const auto events = sink.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Inner completes (and records) first; outer encloses it in time.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[0].tid, 1);
  EXPECT_EQ(events[1].tid, 0);
  EXPECT_LE(events[1].ts_micros, events[0].ts_micros);
  EXPECT_GE(events[1].ts_micros + events[1].dur_micros,
            events[0].ts_micros + events[0].dur_micros);
}

TEST(TraceSinkTest, NullSinkSpanIsNoop) {
  ScopedSpan span(nullptr, "never");
  // Destructor must not crash; nothing to assert beyond surviving.
}

TEST(TraceSinkTest, ChromeJsonShape) {
  TraceSink sink;
  { ScopedSpan span(&sink, "phase \"one\"", /*tid=*/2); }
  std::ostringstream os;
  sink.WriteChromeJson(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\": 2"), std::string::npos);
  // The quote inside the span name must be escaped.
  EXPECT_NE(json.find("phase \\\"one\\\""), std::string::npos);
}

// --- CheckProgress ---------------------------------------------------

TEST(ProgressTest, DisabledContextNeverFires) {
  ObserveContext obs;
  EXPECT_TRUE(CheckProgress(obs, "p", 0, 10, 0, 0));
  EXPECT_TRUE(CheckProgress(obs, "p", 1024, 10, 0, 0));
}

TEST(ProgressTest, FiresOnIntervalAndPropagatesCancel) {
  std::vector<uint64_t> seen;
  ObserveContext obs;
  obs.progress_interval_rows = 4;
  obs.progress = [&seen](const ProgressUpdate& u) {
    seen.push_back(u.rows_processed);
    return u.rows_processed < 8;  // cancel at row 8
  };
  for (uint64_t row = 0; row <= 8; ++row) {
    const bool keep_going = CheckProgress(obs, "scan", row, 9, 1, 2);
    if (row == 8) {
      EXPECT_FALSE(keep_going);
    } else {
      EXPECT_TRUE(keep_going);
    }
  }
  EXPECT_EQ(seen, (std::vector<uint64_t>{0, 4, 8}));
}

TEST(ProgressTest, UpdateCarriesContextFields) {
  ProgressUpdate got;
  ObserveContext obs;
  obs.progress_interval_rows = 1;
  obs.shard = 3;
  obs.progress = [&got](const ProgressUpdate& u) {
    got = u;
    return true;
  };
  EXPECT_TRUE(CheckProgress(obs, "sub_phase", 7, 100, 11, 13));
  EXPECT_STREQ(got.phase, "sub_phase");
  EXPECT_EQ(got.rows_processed, 7u);
  EXPECT_EQ(got.total_rows, 100u);
  EXPECT_EQ(got.live_candidates, 11u);
  EXPECT_EQ(got.counter_bytes, 13u);
  EXPECT_EQ(got.shard, 3);
}

// --- stats export ----------------------------------------------------

TEST(StatsExportTest, FullReportHasSchemaAndSections) {
  MiningStats mining;
  mining.total_seconds = 1.5;
  mining.peak_counter_bytes = 4096;
  mining.rules_from_hundred_phase = 2;
  mining.rules_from_sub_phase = 3;

  ParallelMiningStats parallel;
  parallel.shards = 2;
  parallel.per_shard.resize(2);

  MetricsRegistry registry;
  registry.IncrCounter("imp.rules_total", 5);

  MetricsReport report;
  report.tool = "observe_test";
  report.dataset = "synthetic";
  report.labels["command"] = "mine-imp";
  report.rules_total = 5;
  report.mining = &mining;
  report.parallel = &parallel;
  report.metrics = &registry;

  std::ostringstream os;
  ASSERT_TRUE(ExportMetricsJson(report, os).ok());
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"tool\": \"observe_test\""), std::string::npos);
  EXPECT_NE(json.find("\"dataset\": \"synthetic\""), std::string::npos);
  EXPECT_NE(json.find("\"command\": \"mine-imp\""), std::string::npos);
  EXPECT_NE(json.find("\"rules_total\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"mining\""), std::string::npos);
  EXPECT_NE(json.find("\"parallel\""), std::string::npos);
  EXPECT_NE(json.find("\"per_shard\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"peak_counter_bytes\": 4096"), std::string::npos);
  // The external section must be absent when its pointer is null.
  EXPECT_EQ(json.find("\"external\""), std::string::npos);
  EXPECT_EQ(json.back(), '\n');
}

TEST(StatsExportTest, NegativeRulesTotalIsOmitted) {
  MetricsReport report;
  report.tool = "observe_test";
  std::ostringstream os;
  ASSERT_TRUE(ExportMetricsJson(report, os).ok());
  EXPECT_EQ(os.str().find("rules_total"), std::string::npos);
}

TEST(StatsExportTest, RecordToRegistryUsesPrefix) {
  MiningStats mining;
  mining.peak_counter_bytes = 64;
  mining.rules_from_hundred_phase = 1;
  mining.rules_from_sub_phase = 2;
  MetricsRegistry registry;
  RecordToRegistry(&registry, "imp", mining);
  EXPECT_DOUBLE_EQ(registry.gauge("imp.peak_counter_bytes"), 64.0);
  EXPECT_EQ(registry.counter("imp.rules_from_hundred_phase"), 1u);
  EXPECT_EQ(registry.counter("imp.rules_from_sub_phase"), 2u);
  // A null registry must be a safe no-op.
  RecordToRegistry(nullptr, "imp", mining);
}

// --- thread safety (meaningful under TSan) ---------------------------

TEST(ObserveThreadingTest, RegistryAndSinkSurviveConcurrentUse) {
  MetricsRegistry registry;
  TraceSink sink;
  std::atomic<uint64_t> cancels{0};
  ObserveContext obs;
  obs.metrics = &registry;
  obs.trace = &sink;
  obs.progress_interval_rows = 1;
  obs.progress = [&registry, &cancels](const ProgressUpdate& u) {
    registry.IncrCounter("progress.updates");
    cancels.fetch_add(u.shard >= 0 ? 0 : 1, std::memory_order_relaxed);
    return true;
  };

  constexpr int kThreads = 8;
  constexpr int kIters = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&obs, &registry, &sink, t] {
      for (int i = 0; i < kIters; ++i) {
        registry.IncrCounter("shared.counter");
        registry.MaxGauge("shared.peak", t * kIters + i);
        registry.RecordTimer("shared.timer", 0.001);
        registry.RecordHistogram("shared.hist", i);
        ScopedSpan span(&sink, "worker", t + 1);
        ObserveContext local = obs;
        local.shard = t;
        CheckProgress(local, "stress", static_cast<uint64_t>(i), kIters, 0, 0);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(registry.counter("shared.counter"),
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(registry.counter("progress.updates"),
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(registry.timer("shared.timer").count,
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(registry.histogram("shared.hist").total,
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_DOUBLE_EQ(registry.gauge("shared.peak"),
                   static_cast<double>(kThreads * kIters - 1));
  EXPECT_EQ(sink.Snapshot().size(),
            static_cast<size_t>(kThreads) * kIters);
  EXPECT_EQ(cancels.load(), 0u);
  std::ostringstream os;
  sink.WriteChromeJson(os);
  EXPECT_EQ(CountOccurrences(os.str(), "\"ph\": \"X\""),
            static_cast<size_t>(kThreads) * kIters);
}

}  // namespace
}  // namespace dmc
