// Extension bench: the multi-process shard coordinator (src/shard/,
// DESIGN §5.8).
//
// Streams a Quest matrix to disk with the bounded-memory generator, then
// mines it with MineImplicationsSharded / MineSimilaritiesSharded at
// 1/2/4/8 worker processes and compares against the single-process
// external pipeline. Every fleet's rule set must match the baseline
// exactly — the scaling numbers are only worth recording if the
// byte-identity contract holds while we time it.
//
//   bench_shard [--scale=F] [--json-out=BENCH_shard.json]

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/external_miner.h"
#include "datagen/quest_gen.h"
#include "shard/coordinator.h"

namespace {

// Bench binaries live in build/bench/; the worker ships in build/tools/.
std::string WorkerBinaryPath() {
  std::error_code ec;
  const auto self = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) return "";
  return (self.parent_path().parent_path() / "tools" / "dmc_shard_worker")
      .string();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dmc;
  constexpr cli::FlagSpec kShardFlags[] = {{"json-out", cli::FlagKind::kText}};
  const cli::Flags flags =
      bench::CheckFlags(argc, argv, {bench::kScaleFlag, kShardFlags});
  const double scale = flags.GetDouble("scale", 1.0);
  const std::string json_out = flags.Get("json-out");

  const auto tmp = std::filesystem::temp_directory_path();
  const std::string input = (tmp / "bench_shard_quest.txt").string();
  const std::string work_dir = tmp.string();

  QuestOptions q;
  q.num_transactions = static_cast<uint32_t>(200000 * scale);
  q.num_items = 2000;
  q.seed = 4242;
  if (const Status st = GenerateQuestFile(q, input); !st.ok()) {
    std::fprintf(stderr, "generate: %s\n", st.ToString().c_str());
    return 1;
  }

  bench::PrintHeader("Extension: sharded multi-process DMC (scale=" +
                     std::to_string(scale) + ")");
  std::printf("dataset: quest %u x %u (streamed to %s)\n",
              q.num_transactions, q.num_items, input.c_str());

  // Low thresholds so candidate maintenance (which shards across
  // workers) dominates the shared row replay (which does not).
  ImplicationMiningOptions imp;
  imp.min_confidence = 0.70;
  SimilarityMiningOptions sim;
  sim.min_similarity = 0.40;

  ExternalMiningStats base_imp_stats;
  auto base_imp = MineImplicationsFromFile(input, imp, work_dir,
                                           ExternalIoOptions{},
                                           &base_imp_stats);
  if (!base_imp.ok()) {
    std::fprintf(stderr, "baseline: %s\n",
                 base_imp.status().ToString().c_str());
    return 1;
  }

  std::vector<bench::BenchRecord> records;
  const std::string params =
      "rows=" + std::to_string(q.num_transactions) +
      " cols=" + std::to_string(q.num_items) +
      " minconf=0.70 minsim=0.40 scale=" + std::to_string(scale);
  records.push_back({"shard_imp/baseline_1proc", params,
                     base_imp_stats.total_seconds,
                     q.num_transactions / base_imp_stats.total_seconds, 0});

  std::printf("%-6s %8s %10s %12s %12s %10s %8s\n", "kind", "workers",
              "total [s]", "pass1 [s]", "mine [s]", "rules", "match");
  std::printf("%-6s %8s %10.3f %12.3f %12.3f %10zu %8s\n", "imp", "1proc",
              base_imp_stats.total_seconds, base_imp_stats.pass1_seconds,
              base_imp_stats.mine_seconds, base_imp->size(), "-");

  for (const int workers : {1, 2, 4, 8}) {
    shard::ShardOptions s;
    s.num_workers = workers;
    // One task per worker: the robustness over-partitioning (default 2)
    // doubles replay work, which is noise in a throughput curve.
    s.tasks_per_worker = 1;
    s.worker_binary = WorkerBinaryPath();
    shard::ShardMiningStats stats;
    auto rules = shard::MineImplicationsSharded(input, imp, work_dir, s,
                                                &stats);
    if (!rules.ok()) {
      std::fprintf(stderr, "imp workers=%d: %s\n", workers,
                   rules.status().ToString().c_str());
      return 1;
    }
    const bool match = rules->rules() == base_imp->rules();
    std::printf("%-6s %8d %10.3f %12.3f %12.3f %10zu %8s\n", "imp",
                workers, stats.total_seconds, stats.pass1_seconds,
                stats.mine_seconds, rules->size(), match ? "yes" : "NO");
    std::fflush(stdout);
    if (!match) return 1;
    records.push_back({"shard_imp/workers=" + std::to_string(workers),
                       params, stats.total_seconds,
                       q.num_transactions / stats.total_seconds, 0});
  }

  ExternalMiningStats base_sim_stats;
  auto base_sim = MineSimilaritiesFromFile(input, sim, work_dir,
                                           ExternalIoOptions{},
                                           &base_sim_stats);
  if (!base_sim.ok()) {
    std::fprintf(stderr, "baseline sim: %s\n",
                 base_sim.status().ToString().c_str());
    return 1;
  }
  records.push_back({"shard_sim/baseline_1proc", params,
                     base_sim_stats.total_seconds,
                     q.num_transactions / base_sim_stats.total_seconds, 0});
  std::printf("%-6s %8s %10.3f %12.3f %12.3f %10zu %8s\n", "sim", "1proc",
              base_sim_stats.total_seconds, base_sim_stats.pass1_seconds,
              base_sim_stats.mine_seconds, base_sim->size(), "-");

  for (const int workers : {1, 2, 4, 8}) {
    shard::ShardOptions s;
    s.num_workers = workers;
    // One task per worker: the robustness over-partitioning (default 2)
    // doubles replay work, which is noise in a throughput curve.
    s.tasks_per_worker = 1;
    s.worker_binary = WorkerBinaryPath();
    shard::ShardMiningStats stats;
    auto pairs = shard::MineSimilaritiesSharded(input, sim, work_dir, s,
                                                &stats);
    if (!pairs.ok()) {
      std::fprintf(stderr, "sim workers=%d: %s\n", workers,
                   pairs.status().ToString().c_str());
      return 1;
    }
    const bool match = pairs->pairs() == base_sim->pairs();
    std::printf("%-6s %8d %10.3f %12.3f %12.3f %10zu %8s\n", "sim",
                workers, stats.total_seconds, stats.pass1_seconds,
                stats.mine_seconds, pairs->size(), match ? "yes" : "NO");
    std::fflush(stdout);
    if (!match) return 1;
    records.push_back({"shard_sim/workers=" + std::to_string(workers),
                       params, stats.total_seconds,
                       q.num_transactions / stats.total_seconds, 0});
  }

  std::filesystem::remove(input);
  if (!bench::WriteBenchJson(records, json_out)) {
    std::fprintf(stderr, "failed to write %s\n", json_out.c_str());
    return 1;
  }
  return 0;
}
