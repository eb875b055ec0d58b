// Micro-benchmarks for the hot-path merge kernels (core/kernels.h) and
// the arena-backed counter table:
//
//   * counter-table churn: Assign/Release cycles through the arena,
//   * full mining scans (imp + sim) under each MergeKernel, reporting
//     the speedup of the in-place kernels over kLegacy, over two
//     matrices on either side of kernels::PreferVectorSweep: a dense
//     correlated-block matrix (kSimd runs the vector sweep) and sparse
//     Quest baskets (kSimd runs the row-mask merge). kScalar runs the
//     row-mask merge on both.
//
// `--scale=<float>` sizes both workloads; `--json-out=<path>` writes the
// measurements as a stable JSON document (see bench_common.h);
// `--baseline=<path>` compares the scan throughput against a previously
// committed bench JSON and exits nonzero on a >10% drop.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/engine.h"
#include "core/kernels.h"
#include "core/miss_counter_table.h"
#include "datagen/quest_gen.h"
#include "matrix/binary_matrix.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace dmc {
namespace {

/// Dense correlated matrix: the regime where candidate lists stay long
/// and the per-row merge dominates the scan. Columns come in blocks of
/// 20 that co-occur with probability 0.9 when their block is selected
/// (so high-confidence rules exist and their candidates survive the
/// whole scan, exactly like real rule-bearing data), on top of 10%
/// uniform background noise that feeds short-lived candidates.
BinaryMatrix MakeDenseMatrix(double scale) {
  const uint32_t rows = static_cast<uint32_t>(3000 * scale);
  const uint32_t cols = static_cast<uint32_t>(500 * scale);
  const uint32_t block = 20;
  const uint32_t num_blocks = (cols + block - 1) / block;
  Rng rng(42);
  MatrixBuilder b(cols);
  std::vector<uint8_t> on(cols);
  std::vector<ColumnId> row;
  for (uint32_t r = 0; r < rows; ++r) {
    std::fill(on.begin(), on.end(), 0);
    // Each row activates ~1/4 of the blocks and emits each member column
    // of an active block with probability 0.9.
    for (uint32_t g = 0; g < num_blocks; ++g) {
      if (!rng.Bernoulli(0.25)) continue;
      const uint32_t lo = g * block;
      const uint32_t hi = std::min(cols, lo + block);
      for (uint32_t c = lo; c < hi; ++c) {
        if (rng.Bernoulli(0.9)) on[c] = 1;
      }
    }
    for (uint32_t c = 0; c < cols; ++c) {
      if (!on[c] && rng.Bernoulli(0.1)) on[c] = 1;
    }
    row.clear();
    for (uint32_t c = 0; c < cols; ++c) {
      if (on[c]) row.push_back(c);
    }
    b.AddRow(row);
  }
  return b.Build();
}

/// Sparse market baskets: 2000 items, about ten per basket — a mean row
/// far narrower than the 32-word decided-set sidecar, so kSimd scans run
/// the row-mask merge (the mine-sparse regime of perfbench/).
BinaryMatrix MakeSparseMatrix(double scale) {
  QuestOptions q;
  q.num_transactions = static_cast<uint32_t>(30000 * scale);
  q.num_items = 2000;
  q.seed = 7;
  return GenerateQuest(q);
}

void BenchTableChurn(std::vector<bench::BenchRecord>& records, double scale) {
  bench::PrintSubHeader("counter-table Assign/Release churn (lists/sec)");
  const ColumnId cols = 256;
  const size_t list_len = static_cast<size_t>(200 * scale);
  std::vector<ColumnId> cand(list_len);
  std::vector<uint32_t> miss(list_len, 0);
  for (size_t i = 0; i < list_len; ++i) cand[i] = static_cast<ColumnId>(i);
  const int rounds = 2000;

  MemoryTracker tracker;
  MissCounterTable table(cols, MissCounterTable::kEntryBytesWithCounters,
                         &tracker);
  Stopwatch sw;
  for (int r = 0; r < rounds; ++r) {
    for (ColumnId c = 0; c < cols; ++c) {
      table.Create(c);
      table.Assign(c, cand.data(), miss.data(), list_len);
    }
    table.ReleaseEverything();
  }
  const double secs = sw.ElapsedSeconds();
  const double lists_per_sec = double(rounds) * cols / secs;
  std::printf("  table_churn      %10.3f ms/round  %12.0f lists/sec  "
              "(arena %zu KiB)\n",
              secs * 1e3 / rounds, lists_per_sec, table.arena_bytes() >> 10);
  records.push_back({"table_churn", "lists=256,len=" + std::to_string(list_len),
                     secs / rounds, lists_per_sec, 0});
}

struct ScanResult {
  double seconds = 0.0;
  size_t peak_counter_bytes = 0;
  size_t rules = 0;
};

ScanResult RunImpScan(const BinaryMatrix& m, MergeKernel k) {
  ImplicationMiningOptions o;
  o.min_confidence = 0.6;
  o.policy.kernel = k;
  MiningStats stats;
  Stopwatch sw;
  auto rules = MineImplications(m, o, &stats);
  ScanResult r;
  r.seconds = sw.ElapsedSeconds();
  r.peak_counter_bytes = stats.peak_counter_bytes;
  r.rules = rules.ok() ? rules->size() : 0;
  return r;
}

ScanResult RunSimScan(const BinaryMatrix& m, MergeKernel k) {
  SimilarityMiningOptions o;
  o.min_similarity = 0.55;
  o.policy.kernel = k;
  MiningStats stats;
  Stopwatch sw;
  auto pairs = MineSimilarities(m, o, &stats);
  ScanResult r;
  r.seconds = sw.ElapsedSeconds();
  r.peak_counter_bytes = stats.peak_counter_bytes;
  r.rules = pairs.ok() ? pairs->size() : 0;
  return r;
}

// Full imp + sim scans of `m` under every kernel, recorded as
// scan_imp_<label>/<kernel> and scan_sim_<label>/<kernel>.
void BenchScans(std::vector<bench::BenchRecord>& records, const char* label,
                const BinaryMatrix& m, double scale) {
  bench::PrintSubHeader(std::string(label) +
                        "-workload scans (rows/sec; speedup vs legacy)");
  bench::PerfCounters perf;
  std::printf("  matrix: %u rows x %u cols, %zu ones  (hw counters: %s)\n",
              m.num_rows(), m.num_columns(), size_t(m.num_ones()),
              perf.available() ? "on" : "unavailable");
  std::printf("  simd kernel runs the %s\n",
              kernels::PreferVectorSweep(m.num_columns(), m.num_rows(),
                                         m.num_ones())
                  ? "vector sweep"
                  : "row-mask merge");

  const MergeKernel kernels_to_run[] = {MergeKernel::kLegacy,
                                        MergeKernel::kScalar,
                                        MergeKernel::kSimd};
  // Best-of-N per variant: full scans are long enough that scheduler noise
  // dominates single-shot timings; the minimum is the stable estimator.
  // Hardware counters are captured per rep and reported for the fastest
  // rep, so instructions/cache_misses describe the same run as `seconds`.
  const int reps = 5;
  for (const bool sim : {false, true}) {
    const std::string scan =
        std::string(sim ? "scan_sim_" : "scan_imp_") + label;
    double legacy_secs = 0.0;
    for (const MergeKernel k : kernels_to_run) {
      const MergeKernel resolved = ResolveKernel(k);
      if (k == MergeKernel::kSimd && resolved != MergeKernel::kSimd) continue;
      perf.Start();
      ScanResult r = sim ? RunSimScan(m, k) : RunImpScan(m, k);
      perf.Stop();
      uint64_t instructions = perf.instructions();
      uint64_t cache_misses = perf.cache_misses();
      for (int i = 1; i < reps; ++i) {
        perf.Start();
        const ScanResult again = sim ? RunSimScan(m, k) : RunImpScan(m, k);
        perf.Stop();
        if (again.seconds < r.seconds) {
          r.seconds = again.seconds;
          instructions = perf.instructions();
          cache_misses = perf.cache_misses();
        }
      }
      if (k == MergeKernel::kLegacy) legacy_secs = r.seconds;
      const double rows_per_sec = m.num_rows() / r.seconds;
      std::printf("  %s/%-6s  %8.3f s  %10.0f rows/sec  %zu rules"
                  "  peak=%zu B",
                  scan.c_str(), KernelName(k), r.seconds, rows_per_sec,
                  r.rules, r.peak_counter_bytes);
      if (perf.available()) {
        std::printf("  %" PRIu64 "M insn  %" PRIu64 "k LLC-miss",
                    instructions / 1000000, cache_misses / 1000);
      }
      if (k != MergeKernel::kLegacy && legacy_secs > 0.0) {
        std::printf("  (%.2fx vs legacy)", legacy_secs / r.seconds);
      }
      std::printf("\n");
      records.push_back({scan + "/" + KernelName(k),
                         "scale=" + std::to_string(scale), r.seconds,
                         rows_per_sec, r.peak_counter_bytes, instructions,
                         cache_misses});
    }
  }
}

int Main(int argc, char** argv) {
  constexpr cli::FlagSpec kKernelFlags[] = {
      {"json-out", cli::FlagKind::kText}, {"baseline", cli::FlagKind::kText}};
  const cli::Flags flags =
      bench::CheckFlags(argc, argv, {bench::kScaleFlag, kKernelFlags});
  const double scale = flags.GetDouble("scale", 1.0);
  const std::string json_out = flags.Get("json-out");
  const std::string baseline = flags.Get("baseline");
  bench::PrintHeader("Hot-path kernel micro-benchmarks");
  std::printf("scale=%.2f  simd=%s\n", scale,
              SimdKernelAvailable() ? "avx2" : "unavailable");

  std::vector<bench::BenchRecord> records;
  BenchTableChurn(records, scale);
  BenchScans(records, "dense", MakeDenseMatrix(scale), scale);
  BenchScans(records, "sparse", MakeSparseMatrix(scale), scale);

  if (!bench::WriteBenchJson(records, json_out)) return 1;
  const auto is_scan = [](const bench::BenchRecord& r) {
    return r.bench.rfind("scan_", 0) == 0;
  };
  if (!baseline.empty() && !bench::MeetsBaseline(records, baseline, is_scan)) {
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace dmc

int main(int argc, char** argv) { return dmc::Main(argc, argv); }
