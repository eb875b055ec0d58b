// Micro-benchmarks (google-benchmark) of the kernels the mining engines
// sit on: bit-vector popcount kernels, candidate-list merging, min-hash
// signature construction, and the workload generators — plus the
// append-batch scenario comparing an incremental 1%-row append against a
// full re-mine on the correlated block workload.
//
// `--json-out=<path>` additionally writes every measurement in the
// shared BENCH_*.json schema (see bench_common.h); `--baseline=<path>`
// compares the scenario throughput against a committed bench JSON and
// exits nonzero on a >10% drop. Any other argument that google-benchmark
// does not take exits 2.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>

#include "bench_common.h"

#include "baselines/minhash.h"
#include "core/engine.h"
#include "core/miss_counter_table.h"
#include "datagen/news_gen.h"
#include "datagen/quest_gen.h"
#include "datagen/weblog_gen.h"
#include "incr/incr_miner.h"
#include "util/bitvector.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/zipf.h"

namespace dmc {
namespace {

void BM_BitVectorAndNotCount(benchmark::State& state) {
  const size_t n = state.range(0);
  BitVector a(n), b(n);
  Rng rng(1);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) a.Set(i);
    if (rng.Bernoulli(0.3)) b.Set(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.AndNotCount(b));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BitVectorAndNotCount)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_ZipfSample(benchmark::State& state) {
  const ZipfSampler zipf(state.range(0), 1.0);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(100000);

void BM_MinHashSignatures(benchmark::State& state) {
  QuestOptions q;
  q.num_transactions = 2000;
  q.num_items = 500;
  const BinaryMatrix m = GenerateQuest(q);
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeMinHashSignatures(m, k, 7));
  }
  state.SetItemsProcessed(state.iterations() * m.num_ones() * k);
}
BENCHMARK(BM_MinHashSignatures)->Arg(32)->Arg(128);

void BM_MineImplicationsQuest(benchmark::State& state) {
  QuestOptions q;
  q.num_transactions = static_cast<uint32_t>(state.range(0));
  q.num_items = 400;
  const BinaryMatrix m = GenerateQuest(q);
  ImplicationMiningOptions o;
  o.min_confidence = 0.9;
  for (auto _ : state) {
    auto rules = MineImplications(m, o);
    benchmark::DoNotOptimize(rules);
  }
  state.SetItemsProcessed(state.iterations() * m.num_ones());
}
BENCHMARK(BM_MineImplicationsQuest)->Arg(1000)->Arg(4000);

void BM_MineSimilaritiesQuest(benchmark::State& state) {
  QuestOptions q;
  q.num_transactions = static_cast<uint32_t>(state.range(0));
  q.num_items = 400;
  const BinaryMatrix m = GenerateQuest(q);
  SimilarityMiningOptions o;
  o.min_similarity = 0.8;
  for (auto _ : state) {
    auto pairs = MineSimilarities(m, o);
    benchmark::DoNotOptimize(pairs);
  }
  state.SetItemsProcessed(state.iterations() * m.num_ones());
}
BENCHMARK(BM_MineSimilaritiesQuest)->Arg(1000)->Arg(4000);

void BM_GenerateWebLog(benchmark::State& state) {
  WebLogOptions o;
  o.num_clients = static_cast<uint32_t>(state.range(0));
  o.num_urls = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateWebLog(o));
  }
}
BENCHMARK(BM_GenerateWebLog)->Arg(2000);

void BM_GenerateNews(benchmark::State& state) {
  NewsOptions o;
  o.num_docs = static_cast<uint32_t>(state.range(0));
  o.background_vocab = 2000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateNews(o));
  }
}
BENCHMARK(BM_GenerateNews)->Arg(2000);

void BM_Transpose(benchmark::State& state) {
  QuestOptions q;
  q.num_transactions = 5000;
  q.num_items = 2000;
  const BinaryMatrix m = GenerateQuest(q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.Transposed());
  }
  state.SetItemsProcessed(state.iterations() * m.num_ones());
}
BENCHMARK(BM_Transpose);

// Correlated block workload (the bench_kernels dense-matrix shape):
// columns come in blocks of 20 that co-occur with probability 0.9 when
// their block activates (p=0.25 per row), over 10% background noise —
// the regime where high-confidence rules exist and survive the scan.
BinaryMatrix MakeCorrelatedBlockMatrix(uint32_t rows, uint32_t cols) {
  const uint32_t block = 20;
  const uint32_t num_blocks = (cols + block - 1) / block;
  Rng rng(42);
  MatrixBuilder b(cols);
  std::vector<uint8_t> on(cols);
  std::vector<ColumnId> row;
  for (uint32_t r = 0; r < rows; ++r) {
    std::fill(on.begin(), on.end(), 0);
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

BinaryMatrix SliceRows(const BinaryMatrix& m, uint32_t start,
                       uint32_t count) {
  MatrixBuilder b(m.num_columns());
  for (uint32_t r = start; r < start + count; ++r) {
    const auto row = m.Row(r);
    b.AddRow(std::vector<ColumnId>(row.begin(), row.end()));
  }
  return b.Build();
}

// Append-batch scenario: absorbing the last 1% of rows through the
// incremental engine vs re-mining the whole matrix. Records both
// timings (best of N) plus the ratio; the check tracked in ISSUE 5 is
// append < 25% of the full re-mine.
void BenchAppendBatch(std::vector<bench::BenchRecord>& records) {
  const uint32_t rows = 3000;
  const uint32_t cols = 300;
  const BinaryMatrix full = MakeCorrelatedBlockMatrix(rows, cols);
  const uint32_t delta_rows = rows / 100;
  const BinaryMatrix base = SliceRows(full, 0, rows - delta_rows);
  const BinaryMatrix delta = SliceRows(full, rows - delta_rows, delta_rows);

  ImplicationMiningOptions options;
  options.min_confidence = 0.6;
  const int reps = 3;

  double full_secs = 1e300;
  size_t full_rules = 0;
  for (int i = 0; i < reps; ++i) {
    Stopwatch sw;
    auto rules = MineImplications(full, options);
    full_secs = std::min(full_secs, sw.ElapsedSeconds());
    full_rules = rules.ok() ? rules->size() : 0;
  }

  auto seeded = IncrementalImplicationMiner::FromBatchMine(base, options);
  if (!seeded.ok()) {
    std::fprintf(stderr, "append scenario seed failed: %s\n",
                 seeded.status().ToString().c_str());
    return;
  }
  double append_secs = 1e300;
  size_t incr_rules = 0;
  for (int i = 0; i < reps; ++i) {
    IncrementalImplicationMiner miner = *seeded;  // fresh state per rep
    Stopwatch sw;
    if (!miner.AppendBatch(delta).ok()) return;
    append_secs = std::min(append_secs, sw.ElapsedSeconds());
    incr_rules = miner.rules().size();
  }

  const double ratio = append_secs / full_secs;
  std::printf("incr_append_1pct: full re-mine %.3fs (%zu rules), append "
              "%u rows %.3fs (%zu rules) — %.1f%% of a re-mine\n",
              full_secs, full_rules, delta_rows, append_secs, incr_rules,
              100.0 * ratio);
  char params[96];
  std::snprintf(params, sizeof(params), "rows=%u,cols=%u,minconf=0.6", rows,
                cols);
  records.push_back({"incr_append_1pct/full_remine", params, full_secs,
                     rows / full_secs, 0});
  std::snprintf(params, sizeof(params),
                "delta_rows=%u,append_vs_full=%.4f", delta_rows, ratio);
  records.push_back({"incr_append_1pct/append", params, append_secs,
                     delta_rows / append_secs, 0});
}

// Window-slide scenario: one steady-state slide step (append `step`
// rows into a full count-bounded window, auto-evicting the oldest
// `step`) vs a fresh batch mine of the resulting window contents.
// Records both timings (best of N) plus the ratio; the check tracked in
// ISSUE 10 is slide < 30% of the fresh window mine.
void BenchWindowSlide(std::vector<bench::BenchRecord>& records) {
  const uint32_t window = 4000;
  const uint32_t step = 100;
  const uint32_t cols = 300;
  const BinaryMatrix full = MakeCorrelatedBlockMatrix(window + step, cols);
  const BinaryMatrix base = SliceRows(full, 0, window);
  const BinaryMatrix delta = SliceRows(full, window, step);
  const BinaryMatrix slid = SliceRows(full, step, window);

  ImplicationMiningOptions options;
  options.min_confidence = 0.6;
  const int reps = 3;

  double fresh_secs = 1e300;
  size_t fresh_rules = 0;
  for (int i = 0; i < reps; ++i) {
    Stopwatch sw;
    auto rules = MineImplications(slid, options);
    fresh_secs = std::min(fresh_secs, sw.ElapsedSeconds());
    fresh_rules = rules.ok() ? rules->size() : 0;
  }

  auto seeded =
      IncrementalImplicationMiner::FromBatchMine(base, options, window);
  if (!seeded.ok()) {
    std::fprintf(stderr, "window scenario seed failed: %s\n",
                 seeded.status().ToString().c_str());
    return;
  }
  double slide_secs = 1e300;
  size_t slid_rules = 0;
  for (int i = 0; i < reps; ++i) {
    IncrementalImplicationMiner miner = *seeded;  // fresh state per rep
    Stopwatch sw;
    if (!miner.AppendBatch(delta).ok()) return;
    slide_secs = std::min(slide_secs, sw.ElapsedSeconds());
    slid_rules = miner.rules().size();
  }

  const double ratio = slide_secs / fresh_secs;
  std::printf("window_slide: fresh window mine %.3fs (%zu rules), slide "
              "%u rows %.3fs (%zu rules) — %.1f%% of a fresh mine\n",
              fresh_secs, fresh_rules, step, slide_secs, slid_rules,
              100.0 * ratio);
  char params[96];
  std::snprintf(params, sizeof(params), "window=%u,cols=%u,minconf=0.6",
                window, cols);
  records.push_back({"window_slide/full_window_remine", params, fresh_secs,
                     window / fresh_secs, 0});
  std::snprintf(params, sizeof(params),
                "step_rows=%u,slide_vs_full=%.4f", step, ratio);
  records.push_back({"window_slide/slide_step", params, slide_secs,
                     step / slide_secs, 0});
}

// Console reporter that also captures each run as a BenchRecord so the
// google-benchmark binary can emit the shared --json-out schema.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCaptureReporter(std::vector<bench::BenchRecord>* records)
      : records_(records) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      bench::BenchRecord rec;
      rec.bench = run.benchmark_name();
      rec.params = "iterations=" + std::to_string(run.iterations);
      rec.seconds = run.iterations > 0
                        ? run.real_accumulated_time /
                              static_cast<double>(run.iterations)
                        : run.real_accumulated_time;
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) rec.rows_per_sec = it->second.value;
      records_->push_back(std::move(rec));
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  std::vector<bench::BenchRecord>* records_;
};

}  // namespace
}  // namespace dmc

int main(int argc, char** argv) {
  using dmc::cli::FlagKind;
  // google-benchmark takes its --benchmark_* flags out of argv first.
  benchmark::Initialize(&argc, argv);
  constexpr dmc::cli::FlagSpec kMicroFlags[] = {
      {"json-out", FlagKind::kText}, {"baseline", FlagKind::kText}};
  const dmc::cli::Flags flags =
      dmc::bench::CheckFlags(argc, argv, {kMicroFlags});
  const std::string json_out = flags.Get("json-out");
  const std::string baseline = flags.Get("baseline");
  std::vector<dmc::bench::BenchRecord> records;
  dmc::JsonCaptureReporter reporter(&records);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  dmc::BenchAppendBatch(records);
  dmc::BenchWindowSlide(records);
  if (!dmc::bench::WriteBenchJson(records, json_out)) return 1;
  // The scenario records: google-benchmark runs without an items
  // counter report no throughput.
  const auto has_throughput = [](const dmc::bench::BenchRecord& r) {
    return r.rows_per_sec > 0.0;
  };
  if (!baseline.empty() &&
      !dmc::bench::MeetsBaseline(records, baseline, has_throughput)) {
    return 1;
  }
  return 0;
}
