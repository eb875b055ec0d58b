// Load generator for the rule-serving daemon (src/serve).
//
// Starts an in-process RuleServer on an ephemeral loopback port, seeds
// it with a WlogP-style matrix, then drives a mixed workload:
//
//   * N client threads, each pipelining `--pipeline` query requests
//     (antecedent / consequent / top-k / stats mix) per window for
//     throughput, plus one individually-timed synchronous query every
//     few windows — those samples are the latency histogram, so p50/p99
//     measure a query's round trip *under* full pipelined load.
//   * One appender thread pushing small batches on a fixed cadence, so
//     snapshots keep publishing while the readers hammer the index.
//
// Flags: --scale=F --threads=N --seconds=S --pipeline=P
//        --json-out=PATH   (BENCH_serve.json schema; see bench_common.h)
//        --smoke           (tiny deterministic run, hard-fails on any
//                           error reply — the check.sh serve stage)
// Any other argument, or a malformed value, exits 2.
//
// Reported: total mixed QPS, query p50/p99, snapshots published during
// the run.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "matrix/binary_matrix.h"
#include "serve/client.h"
#include "serve/server.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace dmc {
namespace {

using bench::BenchRecord;

/// Rows for one append batch: a few hundred correlated rows so each
/// AppendBatch both confirms existing rules and perturbs confidences.
std::vector<std::vector<ColumnId>> MakeBatchRows(Rng& rng, size_t rows,
                                                 ColumnId num_columns) {
  std::vector<std::vector<ColumnId>> out(rows);
  for (auto& row : out) {
    const ColumnId base =
        static_cast<ColumnId>(rng.Uniform(num_columns > 4 ? num_columns - 4
                                                          : 1));
    row.push_back(base);
    row.push_back(base + 1);
    if (rng.Uniform(4) == 0) row.push_back(base + 3);
  }
  for (auto& row : out) {
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
  }
  return out;
}

struct WorkerResult {
  uint64_t requests = 0;
  uint64_t errors = 0;
  std::vector<double> latencies;  // seconds, synchronous samples only
};

void RunWorker(uint16_t port, ColumnId num_columns, double seconds,
               size_t pipeline, uint32_t seed, std::atomic<bool>* stop,
               WorkerResult* result) {
  serve::RuleClient client;
  if (!client.Connect("127.0.0.1", port).ok()) {
    ++result->errors;
    return;
  }
  Rng rng(seed);
  // One pre-encoded frame per op kind, re-randomized each window.
  std::vector<std::string> window;
  window.reserve(pipeline);
  Stopwatch clock;
  uint64_t windows = 0;
  while (!stop->load(std::memory_order_relaxed) &&
         clock.ElapsedSeconds() < seconds) {
    window.clear();
    for (size_t i = 0; i < pipeline; ++i) {
      const uint32_t kind = static_cast<uint32_t>(rng.Uniform(16));
      const ColumnId col = static_cast<ColumnId>(rng.Uniform(num_columns));
      if (kind < 7) {
        window.push_back(serve::EncodeQueryRequest(
            serve::Op::kQueryByAntecedent, col));
      } else if (kind < 14) {
        window.push_back(serve::EncodeQueryRequest(
            serve::Op::kQueryByConsequent, col));
      } else if (kind == 14) {
        window.push_back(
            serve::EncodeQueryRequest(serve::Op::kTopK, 16));
      } else {
        window.push_back(serve::EncodeStatsRequest());
      }
    }
    std::string wire;
    for (const std::string& frame : window) wire += frame;
    if (!client.SendRequest(wire).ok()) {
      ++result->errors;
      break;
    }
    bool dead = false;
    for (size_t i = 0; i < pipeline; ++i) {
      const StatusOr<serve::Reply> reply = client.ReadReply();
      if (!reply.ok()) {
        ++result->errors;
        dead = true;
        break;
      }
      ++result->requests;
    }
    if (dead) break;
    ++windows;
    // Every 8th window: one synchronous, individually timed query —
    // the latency histogram measures these under the pipelined load.
    if (windows % 8 == 0) {
      Stopwatch rt;
      const StatusOr<serve::Reply> reply = client.QueryByAntecedent(
          static_cast<ColumnId>(rng.Uniform(num_columns)));
      if (!reply.ok()) {
        ++result->errors;
        break;
      }
      result->latencies.push_back(rt.ElapsedSeconds());
      ++result->requests;
    }
  }
}

void RunAppender(uint16_t port, ColumnId num_columns, double seconds,
                 std::atomic<bool>* stop, uint64_t* batches_sent,
                 uint64_t* errors) {
  serve::RuleClient client;
  if (!client.Connect("127.0.0.1", port).ok()) {
    ++*errors;
    return;
  }
  Rng rng(0xA99E7Du);
  Stopwatch clock;
  while (!stop->load(std::memory_order_relaxed) &&
         clock.ElapsedSeconds() < seconds) {
    const auto rows = MakeBatchRows(rng, 256, num_columns);
    if (!client.AppendRows(num_columns, rows).ok()) {
      ++*errors;
      return;
    }
    ++*batches_sent;
    // ~8 batches/second: enough to publish well over 10 snapshots in a
    // default 5-second run without starving the readers' core.
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
  }
}

double Percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t idx = static_cast<size_t>(p * (sorted.size() - 1));
  return sorted[idx];
}

int Run(int argc, char** argv) {
  constexpr cli::FlagSpec kServeFlags[] = {
      {"threads", cli::FlagKind::kUint, UINT32_MAX},
      {"seconds", cli::FlagKind::kUint, UINT32_MAX},
      {"pipeline", cli::FlagKind::kUint, UINT32_MAX},
      {"json-out", cli::FlagKind::kText},
      {"smoke", cli::FlagKind::kSwitch},
  };
  const cli::Flags flags =
      bench::CheckFlags(argc, argv, {bench::kScaleFlag, kServeFlags});
  const bool smoke = flags.Has("smoke");
  const double scale = flags.GetDouble("scale", smoke ? 0.05 : 0.25);
  const size_t threads = flags.GetUint("threads", smoke ? 1 : 4);
  const double seconds =
      smoke ? 1.0 : static_cast<double>(flags.GetUint("seconds", 5));
  const size_t pipeline = flags.GetUint("pipeline", 128);
  const std::string json_out = flags.Get("json-out");

  bench::PrintHeader("bench_serve: mixed query/append load");

  bench::Dataset dataset = bench::MakeWlogP(scale);
  // The load's column space. An append row spans 4 columns
  // (MakeBatchRows), and appends widen a seed that a tiny --scale left
  // narrower than that.
  const ColumnId num_columns =
      std::max<ColumnId>(dataset.matrix.num_columns(), 4);

  ServeOptions options;
  options.mining.min_confidence = 0.5;
  RuleServer server(std::move(options));
  if (!server.SeedFromMatrix(dataset.matrix).ok() || !server.Start().ok()) {
    std::fprintf(stderr, "bench_serve: failed to start the server\n");
    return 1;
  }
  const serve::ServeStats before = server.StatsSnapshot();
  std::printf("seeded %s: %u x %u, generation %llu, %llu rules\n",
              dataset.name.c_str(), dataset.matrix.num_rows(),
              dataset.matrix.num_columns(),
              (unsigned long long)before.generation,
              (unsigned long long)before.num_rules);

  std::atomic<bool> stop{false};
  std::vector<WorkerResult> results(threads);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  Stopwatch wall;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back(RunWorker, server.port(), num_columns, seconds,
                         pipeline, static_cast<uint32_t>(1000 + t), &stop,
                         &results[t]);
  }
  uint64_t batches_sent = 0;
  uint64_t append_errors = 0;
  std::thread appender(RunAppender, server.port(), num_columns, seconds,
                       &stop, &batches_sent, &append_errors);
  for (std::thread& w : workers) w.join();
  stop.store(true, std::memory_order_relaxed);
  appender.join();
  const double elapsed = wall.ElapsedSeconds();

  uint64_t requests = 0;
  uint64_t errors = append_errors;
  std::vector<double> latencies;
  for (const WorkerResult& r : results) {
    requests += r.requests;
    errors += r.errors;
    latencies.insert(latencies.end(), r.latencies.begin(), r.latencies.end());
  }
  requests += batches_sent;  // appends are requests too
  std::sort(latencies.begin(), latencies.end());

  const serve::ServeStats after = server.StatsSnapshot();
  server.Shutdown();

  const double qps = requests / elapsed;
  const double p50 = Percentile(latencies, 0.50);
  const double p99 = Percentile(latencies, 0.99);
  const uint64_t snapshots =
      after.snapshots_published - before.snapshots_published;

  std::printf("%zu threads x pipeline %zu for %.1fs\n", threads, pipeline,
              elapsed);
  std::printf("requests        %llu (%llu append batches)\n",
              (unsigned long long)requests, (unsigned long long)batches_sent);
  std::printf("mixed qps       %.0f\n", qps);
  std::printf("query p50       %.3f ms (%zu samples)\n", p50 * 1e3,
              latencies.size());
  std::printf("query p99       %.3f ms\n", p99 * 1e3);
  std::printf("snapshots       %llu published during the run (gen %llu)\n",
              (unsigned long long)snapshots,
              (unsigned long long)after.generation);
  std::printf("errors          %llu\n", (unsigned long long)errors);

  if (!json_out.empty()) {
    char params[160];
    std::snprintf(params, sizeof(params),
                  "threads=%zu pipeline=%zu seconds=%.1f scale=%g "
                  "snapshots=%llu",
                  threads, pipeline, elapsed, scale,
                  (unsigned long long)snapshots);
    std::vector<BenchRecord> records;
    records.push_back({"serve/mixed_qps", params, elapsed, qps, 0});
    records.push_back({"serve/query_latency_p50", params, p50, 0.0, 0});
    records.push_back({"serve/query_latency_p99", params, p99, 0.0, 0});
    if (!bench::WriteBenchJson(records, json_out)) {
      std::fprintf(stderr, "bench_serve: failed to write %s\n",
                   json_out.c_str());
      return 1;
    }
  }

  if (smoke) {
    // The smoke contract for check.sh: no error replies, the readers
    // made real progress, and at least one append published.
    if (errors != 0 || requests < 100 || snapshots < 1) {
      std::fprintf(stderr,
                   "bench_serve --smoke FAILED: errors=%llu requests=%llu "
                   "snapshots=%llu\n",
                   (unsigned long long)errors, (unsigned long long)requests,
                   (unsigned long long)snapshots);
      return 1;
    }
    std::printf("smoke OK\n");
  }
  return errors == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dmc

int main(int argc, char** argv) { return dmc::Run(argc, argv); }
