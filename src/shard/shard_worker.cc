#include "shard/shard_worker.h"

#include <errno.h>
#include <string.h>
#include <unistd.h>

#include <cstdlib>
#include <sstream>
#include <utility>
#include <vector>

#include "core/dmc_options.h"
#include "core/external_miner.h"
#include "core/mining_stats.h"
#include "core/streaming_pass.h"
#include "observe/metrics.h"
#include "serve/protocol.h"
#include "shard/shard_protocol.h"
#include "util/atomic_io.h"
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

DmcPolicy PolicyFromPlan(const ShardPlan& plan, MetricsRegistry* metrics,
                         TaskContext* ctx) {
  DmcPolicy policy = plan.policy;
  policy.observe.metrics = metrics;
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
                               uint32_t task_id, MetricsRegistry* metrics,
                               TaskContext* ctx) {
  if (fail::Enabled()) {
    DMC_RETURN_IF_ERROR(fail::InjectStatus("shard.worker"));
  }
  const DmcPolicy policy = PolicyFromPlan(plan, metrics, ctx);
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

// Streams the task's phases for one rule kind into `out`; a failed
// replay also starves the pass, so it is the error reported.
template <typename Kind>
Status StreamTask(const ShardPlan& plan, const DmcPolicy& policy,
                  const std::vector<uint8_t>& mask, ExternalInput* input,
                  MiningStats* stats, typename Kind::RuleSet* out) {
  typename Kind::Options options;
  options.*Kind::kThreshold = plan.threshold;
  options.policy = policy;
  Status replay_status = Status::OK();
  const auto replay = [&](auto&& sink) {
    if (!replay_status.ok()) return;
    replay_status = input->Replay(sink, Kind::kRowSite);
  };
  auto rules = StreamPhases<Kind>(plan.num_columns, plan.column_ones,
                                  plan.num_rows, options, replay, &mask,
                                  stats);
  DMC_RETURN_IF_ERROR(replay_status);
  if (!rules.ok()) return rules.status();
  *out = std::move(*rules);
  return Status::OK();
}

void ExportMetrics(const MetricsRegistry& metrics, const std::string& path) {
  if (path.empty()) return;
  std::ostringstream os;
  metrics.WriteJsonl(os);
  // Atomic whole-file replace: the coordinator either sees the previous
  // complete snapshot or this one, never a torn line.
  (void)AtomicWriteFile(path, os.str()).ok();
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
  ImplicationRuleSet rules;
  SimilarityRuleSet pairs;
  DMC_RETURN_IF_ERROR(
      plan.engine == Engine::kSimilarities
          ? StreamTask<SimilarityKind>(plan, policy, mask, input, &stats,
                                       &pairs)
          : StreamTask<ImplicationKind>(plan, policy, mask, input, &stats,
                                        &rules));
  result.imp_rules = rules.TakeRules();
  result.sim_pairs = pairs.TakePairs();
  result.mine_seconds = sw.ElapsedSeconds();
  result.peak_counter_bytes = stats.peak_counter_bytes;
  return result;
}

Status RunShardWorker(const WorkerOptions& options) {
  const uint64_t crash_after = EnvRows("DMC_SHARD_TEST_CRASH_AFTER_ROWS");
  const uint64_t hang_after = EnvRows("DMC_SHARD_TEST_HANG_AFTER_ROWS");

  DMC_RETURN_IF_ERROR(WriteAllFd(options.out_fd, EncodeHello()));

  MetricsRegistry metrics;
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
          metrics.IncrCounter("dmc.shard.worker.tasks_received");
          TaskContext ctx;
          ctx.out_fd = options.out_fd;
          ctx.task_id = msg->task_id;
          ctx.crash_after_rows = crash_after;
          ctx.hang_after_rows = hang_after;
          auto result =
              MineTask(plan, msg->shard_mask, msg->task_id, &metrics, &ctx);
          std::string reply;
          if (result.ok()) {
            metrics.IncrCounter("dmc.shard.worker.tasks_ok");
            metrics.RecordTimer("dmc.shard.worker.mine_seconds",
                                result->mine_seconds);
            metrics.MaxGauge("dmc.shard.worker.peak_counter_bytes",
                             static_cast<double>(result->peak_counter_bytes));
            reply = EncodeResult(*result);
          } else {
            metrics.IncrCounter("dmc.shard.worker.tasks_failed");
            reply = EncodeTaskError(msg->task_id, result.status());
          }
          ExportMetrics(metrics, options.metrics_out);
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
