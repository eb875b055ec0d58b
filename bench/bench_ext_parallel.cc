// Extension bench (the paper's §7 future work): the parallel
// divide-and-conquer miner and the disk-based external pipeline.
//
//   * parallel: speedup of MineImplicationsParallel / -SimilaritiesParallel
//     over the serial engines at 1/2/4/8 shards (identical outputs);
//   * external: the file-based two-pass miner vs in-memory, with the
//     pass-1 / partition / mine time split.

#include <cstdio>
#include <filesystem>

#include "bench/bench_common.h"
#include "core/engine.h"
#include "core/external_miner.h"
#include "matrix/matrix_io.h"

int main(int argc, char** argv) {
  using namespace dmc;
  const double scale =
      bench::CheckFlags(argc, argv, {bench::kScaleFlag}).GetDouble("scale", 1.0);

  bench::PrintHeader("Extension: parallel divide-and-conquer DMC (scale=" +
                     std::to_string(scale) + ")");
  std::printf("%-8s %-6s %8s %10s %10s %14s %14s %10s\n", "Data", "kind",
              "threads", "wall [s]", "serial[s]", "shard peak MB",
              "serial MB", "rules");
  for (const auto& maker : {bench::MakeWlog, bench::MakeNewsSet}) {
    const bench::Dataset d = maker(scale);
    {
      // Low threshold: candidate-list maintenance (which shards) must
      // dominate the shared row-scan cost for parallelism to pay.
      ImplicationMiningOptions o;
      o.min_confidence = 0.70;
      MiningStats serial_stats;
      auto serial = MineImplications(d.matrix, o, &serial_stats);
      if (!serial.ok()) continue;
      for (uint32_t threads : {2u, 4u, 8u}) {
        ParallelOptions p;
        p.num_threads = threads;
        ParallelMiningStats stats;
        auto rules = MineImplicationsParallel(d.matrix, o, p, &stats);
        if (!rules.ok()) continue;
        std::printf("%-8s %-6s %8u %10.3f %10.3f %14.3f %14.3f %10zu\n",
                    d.name.c_str(), "imp", threads, stats.total_seconds,
                    serial_stats.total_seconds,
                    stats.max_peak_counter_bytes / (1024.0 * 1024.0),
                    serial_stats.peak_counter_bytes / (1024.0 * 1024.0),
                    rules->size());
        std::fflush(stdout);
      }
    }
    {
      SimilarityMiningOptions o;
      o.min_similarity = 0.60;
      MiningStats serial_stats;
      auto serial = MineSimilarities(d.matrix, o, &serial_stats);
      if (!serial.ok()) continue;
      for (uint32_t threads : {2u, 4u, 8u}) {
        ParallelOptions p;
        p.num_threads = threads;
        ParallelMiningStats stats;
        auto pairs = MineSimilaritiesParallel(d.matrix, o, p, &stats);
        if (!pairs.ok()) continue;
        std::printf("%-8s %-6s %8u %10.3f %10.3f %14.3f %14.3f %10zu\n",
                    d.name.c_str(), "sim", threads, stats.total_seconds,
                    serial_stats.total_seconds,
                    stats.max_peak_counter_bytes / (1024.0 * 1024.0),
                    serial_stats.peak_counter_bytes / (1024.0 * 1024.0),
                    pairs->size());
        std::fflush(stdout);
      }
    }
  }

  bench::PrintHeader("Extension: external (disk-based) two-pass DMC-imp");
  std::printf("%-8s %10s %12s %10s %10s %12s %10s\n", "Data", "pass1",
              "partition", "mine", "total", "in-memory", "rules");
  const std::string work_dir =
      std::filesystem::temp_directory_path().string();
  for (const auto& maker : {bench::MakeWlog, bench::MakeNewsSet}) {
    const bench::Dataset d = maker(scale);
    const std::string path = work_dir + "/dmc_bench_" + d.name + ".txt";
    if (!WriteMatrixTextFile(d.matrix, path).ok()) continue;

    ImplicationMiningOptions o;
    o.min_confidence = 0.9;
    MiningStats mem_stats;
    auto in_memory = MineImplications(d.matrix, o, &mem_stats);
    ExternalMiningStats ext_stats;
    auto external = MineImplicationsFromFile(path, o, work_dir, &ext_stats);
    std::error_code ec;
    std::filesystem::remove(path, ec);
    if (!in_memory.ok() || !external.ok()) continue;
    std::printf("%-8s %10.3f %12.3f %10.3f %10.3f %12.3f %10zu%s\n",
                d.name.c_str(), ext_stats.pass1_seconds,
                ext_stats.partition_seconds, ext_stats.mine_seconds,
                ext_stats.total_seconds, mem_stats.total_seconds,
                external->size(),
                external->Pairs() == in_memory->Pairs() ? ""
                                                        : "  MISMATCH!");
    std::fflush(stdout);
  }
  std::printf(
      "\nExpectation: parallel outputs are identical to serial. The win\n"
      "the paper asks for (§7: News outgrowing 256 MB) is MEMORY: each\n"
      "shard's counter-array peak is a fraction of the serial peak, so a\n"
      "divide-and-conquer deployment fits workloads no single counter\n"
      "array could. Wall-clock gains appear only when candidate-list\n"
      "maintenance dominates the (replicated) row scan. The external\n"
      "miner matches the in-memory result while touching rows only via\n"
      "streams.\n");
  return 0;
}
