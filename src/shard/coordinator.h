// The shard coordinator: multi-process DMC mining (DESIGN §5.8).
//
// The coordinator runs pass 1 of the external pipeline once (scan +
// density-bucket partitioning, or a checkpoint resume), splits the
// columns into num_workers * tasks_per_worker balanced antecedent
// shards (at most one per column), fork/execs a fleet of
// dmc_shard_worker children (at most one per task), and deals
// tasks to them over the length-prefixed shard protocol. Workers replay
// the coordinator's bucket files — the input is scanned exactly once no
// matter how many workers mine it.
//
// Robustness contract (the kill-a-worker differential sweep pins this):
//
//   * Liveness: every worker owes a heartbeat within
//     heartbeat_timeout_seconds while it holds a task. A missed
//     deadline, an EOF, a bad frame, or a wait()able child all count as
//     death: the worker is SIGKILLed/reaped, its task is requeued, and
//     the slot is respawned with full-jitter backoff while the respawn
//     budget lasts.
//   * Reassignment invariant: a task is either mined to completion by
//     exactly one process and its canonical rule set recorded, or it is
//     requeued untouched — per-task results are all-or-nothing, so a
//     task can bounce between workers without double-counting.
//   * Degradation: when a task exhausts its attempts (or no worker can
//     be spawned or respawned), the coordinator mines the remaining
//     tasks itself, in-process, over the same bucket files. This is the
//     one failure rule both executors of the antecedent-shard plan
//     share — the caller mines what a worker cannot run; parallel_dmc.h
//     applies it to shards whose thread cannot start. With
//     degrade_to_in_process=false the run fails with a clean Status
//     instead; it never hangs and never returns a partial rule set.
//   * Merge-order invariant: each rule is owned by exactly one task (its
//     antecedent's shard — for similarity pairs, the canonical sparser
//     column's shard), so merging the canonical per-task sets in task
//     order (MergeCanonical, rules/rule_set.h, the threads' merge too)
//     reproduces the single-process Canonicalize(union) byte for byte.
//
// Per-task results can be checkpointed (shard_checkpoint.h): a rerun
// with resume=true skips every task whose checkpoint still matches the
// input/config fingerprint, so a killed coordinator resumes instead of
// re-mining finished shards.

#ifndef DMC_SHARD_COORDINATOR_H_
#define DMC_SHARD_COORDINATOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/dmc_options.h"
#include "core/external_miner.h"
#include "rules/rule_set.h"
#include "shard/shard_stats.h"
#include "util/retry.h"
#include "util/statusor.h"

namespace dmc {
namespace shard {

struct ShardOptions {
  /// Worker processes to keep alive, at most one per task to mine.
  int num_workers = 2;
  /// Tasks per worker (over-partitioning): more tasks mean finer
  /// reassignment granularity when a worker dies mid-run.
  int tasks_per_worker = 2;
  /// Path of the dmc_shard_worker binary. Empty resolves to
  /// "dmc_shard_worker" next to the current executable.
  std::string worker_binary;
  /// A worker holding a task (or owing its hello after spawn) that stays
  /// silent this long is declared dead.
  double heartbeat_timeout_seconds = 30.0;
  /// Respawn budget per worker slot.
  int max_respawns_per_slot = 2;
  /// Backoff between respawn attempts of one slot; full-jitter so a
  /// fleet of dead workers does not respawn in lockstep.
  RetryPolicy spawn_retry = {
      .max_attempts = 3,
      .initial_backoff_seconds = 0.01,
      .max_backoff_seconds = 0.5,
      .full_jitter = true,
      .max_total_backoff_seconds = 2.0,
  };
  /// Mine leftover tasks in-process once respawns are exhausted. When
  /// false the run fails cleanly instead.
  bool degrade_to_in_process = true;
  /// Directory for per-task result checkpoints; empty disables them.
  std::string checkpoint_dir;
  /// Load matching task checkpoints from checkpoint_dir instead of
  /// re-mining those tasks.
  bool resume = false;
  /// Pass-1 I/O options (checkpoint/resume of the scan itself, retry
  /// policy for file opens). keep_artifacts is forced on internally
  /// while workers replay the bucket files.
  ExternalIoOptions io;
  /// Extra "KEY=VALUE" environment entries for workers. DMC_FAILPOINTS
  /// is propagated automatically when set in the coordinator.
  std::vector<std::string> worker_env;
  /// Directory for per-worker metrics JSONL files (worker_<slot>.jsonl);
  /// empty disables worker metrics. Merged into the coordinator's
  /// registry (one schema-v1 document) at the end of the run.
  std::string worker_metrics_dir;
  /// Test hook: observed after every successful spawn with the slot
  /// index and the child pid (kill targets for the fault sweep).
  std::function<void(int slot, int pid)> on_worker_spawn;
};

/// Mines implication rules from the transaction text file at `path`
/// across a fleet of worker processes. Byte-identical to
/// MineImplicationsFromFile(path, options, work_dir) — the differential
/// sweep holds this under worker kills, hangs and injected faults.
[[nodiscard]] StatusOr<ImplicationRuleSet> MineImplicationsSharded(
    const std::string& path, const ImplicationMiningOptions& options,
    const std::string& work_dir, const ShardOptions& shard,
    ShardMiningStats* stats = nullptr);

/// Similarity-rule counterpart of MineImplicationsSharded.
[[nodiscard]] StatusOr<SimilarityRuleSet> MineSimilaritiesSharded(
    const std::string& path, const SimilarityMiningOptions& options,
    const std::string& work_dir, const ShardOptions& shard,
    ShardMiningStats* stats = nullptr);

}  // namespace shard
}  // namespace dmc

#endif  // DMC_SHARD_COORDINATOR_H_
