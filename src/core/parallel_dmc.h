// Parallel DMC — the divide-and-conquer extension the paper's conclusion
// calls for ("a parallel algorithm based on a divide-and-conquer
// technique, such as FDM for a-priori, is necessary").
//
// Columns are partitioned into shards balanced by 1-count; each worker
// thread runs the full DMC pipeline over the shared (read-only) matrix,
// owning candidate lists only for its shard's columns as antecedents.
// The shard outputs are disjoint (a rule belongs to its antecedent's
// shard), so their merge (MergeCanonical, rules/rule_set.h) is exactly
// the serial result — the same guarantee the property tests enforce.
//
// This is the thread executor of the antecedent-shard plan; the shard
// coordinator (shard/coordinator.h) is the process executor, and both
// follow one failure rule: the caller mines what a worker cannot run.
// A shard whose thread cannot start is mined on the calling thread
// after the join. Nothing is retried: over an in-memory matrix a shard
// fails only on invalid options or cancellation, which every attempt
// would repeat, so a failed shard fails the run.

#ifndef DMC_CORE_PARALLEL_DMC_H_
#define DMC_CORE_PARALLEL_DMC_H_

#include <cstdint>
#include <vector>

#include "core/dmc_imp.h"
#include "core/dmc_sim.h"
#include "core/mining_stats.h"

namespace dmc {

struct ParallelOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  uint32_t num_threads = 0;
};

/// Aggregate statistics of a parallel run.
struct ParallelMiningStats {
  /// Wall-clock time of the whole parallel run.
  double total_seconds = 0.0;
  /// Slowest single shard (the critical path).
  double max_shard_seconds = 0.0;
  /// Sum of per-shard times (the serial-equivalent work).
  double sum_shard_seconds = 0.0;
  /// Sum of per-shard counter-array peaks — an upper bound on the
  /// concurrent peak (shards run simultaneously).
  size_t sum_peak_counter_bytes = 0;
  /// Largest single shard's counter-array peak — the per-machine memory
  /// requirement in a distributed (FDM-style) deployment, which is the
  /// paper's motivation for parallelizing (§7: the News run outgrowing
  /// 256 MB).
  size_t max_peak_counter_bytes = 0;
  /// Threads run: num_threads, or the column count when that is smaller.
  uint32_t shards = 0;
  /// Shards whose mine returned an error; the run then fails with the
  /// first error that is not kCancelled (or kCancelled if all are).
  uint32_t shards_failed = 0;
  /// Shards whose thread could not start, mined on the calling thread
  /// after the join.
  uint32_t shards_degraded = 0;
  /// Full per-shard engine stats, in shard order. The aggregate fields
  /// above are derived from these; exported under "per_shard" so the
  /// invariant tests can cross-check the aggregation.
  std::vector<MiningStats> per_shard;
};

/// Parallel MineImplications. Identical output to the serial engine.
[[nodiscard]] StatusOr<ImplicationRuleSet> MineImplicationsParallel(
    const BinaryMatrix& matrix, const ImplicationMiningOptions& options,
    const ParallelOptions& parallel,
    ParallelMiningStats* stats = nullptr);

/// Parallel MineSimilarities. Identical output to the serial engine.
[[nodiscard]] StatusOr<SimilarityRuleSet> MineSimilaritiesParallel(
    const BinaryMatrix& matrix, const SimilarityMiningOptions& options,
    const ParallelOptions& parallel,
    ParallelMiningStats* stats = nullptr);

/// The shard assignment used by the miners, exposed for tests: columns
/// are sorted by descending 1-count and dealt greedily to the currently
/// lightest shard, balancing expected scan work. No shard is left
/// without a column: there are min(num_shards, max(1, columns)) masks.
std::vector<std::vector<uint8_t>> MakeColumnShards(
    const std::vector<uint32_t>& column_ones, uint64_t num_shards);

}  // namespace dmc

#endif  // DMC_CORE_PARALLEL_DMC_H_
