// The shard worker: one child process of the coordinator, speaking the
// shard protocol over two inherited pipe descriptors. A worker is a thin
// loop — receive the plan, mine whatever tasks arrive with the task's
// lhs-shard mask, stream heartbeats from the progress callback, send the
// canonical per-shard rule set back — and is deliberately stateless
// across tasks so the coordinator can hand any task to any worker.
//
// Failure behavior: a mining error (including an injected
// "shard.worker" failpoint) is reported as kTaskError and the worker
// stays alive for the next task; only transport failure (coordinator
// gone) or kShutdown ends the loop. Two environment hooks exist for the
// kill-a-worker tests: DMC_SHARD_TEST_CRASH_AFTER_ROWS=<n> calls _exit
// mid-mine after n rows, DMC_SHARD_TEST_HANG_AFTER_ROWS=<n> stops
// processing (and heartbeating) forever — the coordinator must detect
// both and reassign.
//
// A worker keeps no metrics registry: it mines with
// policy.observe.metrics == nullptr, and the coordinator records the
// dmc.shard.worker.* metrics from the frames it sends and receives
// (coordinator.h).

#ifndef DMC_SHARD_SHARD_WORKER_H_
#define DMC_SHARD_SHARD_WORKER_H_

#include <cstdint>
#include <vector>

#include "core/dmc_options.h"
#include "core/external_miner.h"
#include "shard/shard_protocol.h"
#include "util/status.h"
#include "util/statusor.h"

namespace dmc {
namespace shard {

struct WorkerOptions {
  /// Descriptor carrying coordinator -> worker frames (blocking).
  int in_fd = -1;
  /// Descriptor carrying worker -> coordinator frames (blocking).
  int out_fd = -1;
};

/// Mines one task: the rules whose antecedents fall in `mask`, found by
/// replaying `input` through the streamed phase driver of the plan's
/// engine under `policy`. The worker loop and the coordinator's
/// in-process degrade path both call this, so a degraded task returns
/// exactly what a worker would have sent: the same rules and the exact
/// counter peak of the task's scan (ShardResult::peak_counter_bytes).
[[nodiscard]] StatusOr<ShardResult> MineShardTask(
    const ShardPlan& plan, const DmcPolicy& policy,
    const std::vector<uint8_t>& mask, uint32_t task_id, ExternalInput* input);

/// Runs the worker loop until kShutdown or EOF on in_fd. Returns non-OK
/// only on transport or protocol failure (the exit code of
/// dmc_shard_worker).
[[nodiscard]] Status RunShardWorker(const WorkerOptions& options);

}  // namespace shard
}  // namespace dmc

#endif  // DMC_SHARD_SHARD_WORKER_H_
