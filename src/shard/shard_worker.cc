#include "shard/shard_worker.h"

#include <errno.h>
#include <string.h>
#include <unistd.h>

#include <cstdlib>
#include <utility>
#include <vector>

#include "core/dmc_options.h"
#include "core/external_miner.h"
#include "core/mining_stats.h"
#include "core/streaming_pass.h"
#include "serve/protocol.h"
#include "shard/shard_protocol.h"
#include "util/failpoint.h"
#include "util/stopwatch.h"

namespace dmc {
namespace shard {

namespace {

Status WriteAllFd(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return IOError(std::string("worker write: ") + strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

uint64_t EnvRows(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return 0;
  return std::strtoull(v, nullptr, 10);
}

/// Per-task mining state shared with the progress callback.
struct TaskContext {
  int out_fd = -1;
  uint32_t task_id = 0;
  uint64_t crash_after_rows = 0;
  uint64_t hang_after_rows = 0;
  bool transport_broken = false;
};

// The plan's policy carries no registry: the coordinator records every
// worker metric from the frames it decodes.
DmcPolicy PolicyFromPlan(const ShardPlan& plan, TaskContext* ctx) {
  DmcPolicy policy = plan.policy;
  // Heartbeats ride the progress callback: liveness and cancellation
  // share one cadence, so a worker that stops mining also stops
  // heartbeating and the coordinator's deadline fires.
  policy.observe.progress = [ctx](const ProgressUpdate& update) {
    if (ctx->crash_after_rows > 0 &&
        update.rows_processed >= ctx->crash_after_rows) {
      _exit(137);  // test hook: simulate an abrupt worker death
    }
    if (ctx->hang_after_rows > 0 &&
        update.rows_processed >= ctx->hang_after_rows) {
      for (;;) pause();  // test hook: alive but silent forever
    }
    if (!ctx->transport_broken) {
      const Status st = WriteAllFd(
          ctx->out_fd, EncodeHeartbeat(ctx->task_id, update.rows_processed));
      // A dead coordinator surfaces as EPIPE here; finish the task
      // anyway (the result write will fail and end the loop cleanly).
      if (!st.ok()) ctx->transport_broken = true;
    }
    return true;
  };
  return policy;
}

// A worker's task: its own policy (heartbeats on the progress callback)
// and a replay of the coordinator's bucket files.
StatusOr<ShardResult> MineTask(const ShardPlan& plan,
                               const std::vector<uint8_t>& mask,
                               uint32_t task_id, TaskContext* ctx) {
  if (fail::Enabled()) {
    DMC_RETURN_IF_ERROR(fail::InjectStatus("shard.worker"));
  }
  const DmcPolicy policy = PolicyFromPlan(plan, ctx);
  ExternalIoOptions io;  // no checkpointing in workers; artifacts borrowed
  ExternalInput input(plan.input_path, plan.work_dir,
                      policy.row_order != RowOrderPolicy::kIdentity, io,
                      policy.observe, nullptr);
  FirstPassStats first_pass;
  first_pass.num_columns = plan.num_columns;
  first_pass.num_rows = plan.num_rows;
  first_pass.column_ones = plan.column_ones;
  std::vector<int> buckets(plan.buckets.begin(), plan.buckets.end());
  input.AdoptPlan(std::move(first_pass), std::move(buckets));
  return MineShardTask(plan, policy, mask, task_id, &input);
}

// The scan options of a task of the plan's rule kind.
template <typename Kind>
typename Kind::Options TaskOptions(const ShardPlan& plan,
                                   const DmcPolicy& policy) {
  typename Kind::Options options;
  options.*Kind::kThreshold = plan.threshold;
  options.policy = policy;
  return options;
}

}  // namespace

StatusOr<ShardResult> MineShardTask(const ShardPlan& plan,
                                    const DmcPolicy& policy,
                                    const std::vector<uint8_t>& mask,
                                    uint32_t task_id, ExternalInput* input) {
  if (mask.size() != plan.column_ones.size()) {
    return InvalidArgumentError("task mask width does not match the plan");
  }
  ShardResult result;
  result.task_id = task_id;
  result.engine = plan.engine;
  MiningStats stats;
  Stopwatch sw;
  if (plan.engine == Engine::kSimilarities) {
    DMC_ASSIGN_OR_RETURN(
        SimilarityRuleSet pairs,
        StreamExternalInput<SimilarityKind>(
            input, TaskOptions<SimilarityKind>(plan, policy), &mask, &stats));
    result.sim_pairs = pairs.TakePairs();
  } else {
    DMC_ASSIGN_OR_RETURN(
        ImplicationRuleSet rules,
        StreamExternalInput<ImplicationKind>(
            input, TaskOptions<ImplicationKind>(plan, policy), &mask, &stats));
    result.imp_rules = rules.TakeRules();
  }
  result.mine_seconds = sw.ElapsedSeconds();
  result.peak_counter_bytes = stats.peak_counter_bytes;
  return result;
}

Status RunShardWorker(const WorkerOptions& options) {
  const uint64_t crash_after = EnvRows("DMC_SHARD_TEST_CRASH_AFTER_ROWS");
  const uint64_t hang_after = EnvRows("DMC_SHARD_TEST_HANG_AFTER_ROWS");

  DMC_RETURN_IF_ERROR(WriteAllFd(options.out_fd, EncodeHello()));

  serve::FrameBuffer frames(kShardMaxFramePayloadBytes);
  ShardPlan plan;
  bool have_plan = false;

  char buf[1 << 16];
  for (;;) {
    std::string payload;
    // Drain every complete frame before reading more bytes.
    while (true) {
      const auto poll = frames.Next(&payload);
      if (poll == serve::FrameBuffer::Poll::kNeedMore) break;
      if (poll == serve::FrameBuffer::Poll::kBadFrame) {
        return InvalidArgumentError("worker: unframed bytes from coordinator");
      }
      auto msg = DecodeMessagePayload(payload);
      if (!msg.ok()) return msg.status();
      switch (msg->op) {
        case Op::kInit:
          plan = std::move(msg->plan);
          have_plan = true;
          break;
        case Op::kTask: {
          if (!have_plan) {
            return InvalidArgumentError("worker: kTask before kInit");
          }
          TaskContext ctx;
          ctx.out_fd = options.out_fd;
          ctx.task_id = msg->task_id;
          ctx.crash_after_rows = crash_after;
          ctx.hang_after_rows = hang_after;
          auto result = MineTask(plan, msg->shard_mask, msg->task_id, &ctx);
          const std::string reply =
              result.ok() ? EncodeResult(*result)
                          : EncodeTaskError(msg->task_id, result.status());
          DMC_RETURN_IF_ERROR(WriteAllFd(options.out_fd, reply));
          break;
        }
        case Op::kShutdown:
          return Status::OK();
        default:
          return InvalidArgumentError("worker: unexpected op from coordinator");
      }
    }

    const ssize_t n = read(options.in_fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      return IOError(std::string("worker read: ") + strerror(errno));
    }
    if (n == 0) return Status::OK();  // coordinator closed the pipe
    frames.Append(buf, static_cast<size_t>(n));
  }
}

}  // namespace shard
}  // namespace dmc
