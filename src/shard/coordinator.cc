#include "shard/coordinator.h"

#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <string.h>
#include <unistd.h>

#include <algorithm>
#include <deque>
#include <filesystem>
#include <type_traits>
#include <utility>

#include "core/checkpoint.h"
#include "core/parallel_dmc.h"
#include "core/streaming_pass.h"
#include "observe/metrics.h"
#include "observe/stats_export.h"
#include "observe/trace.h"
#include "serve/protocol.h"
#include "shard/process_control.h"
#include "shard/shard_checkpoint.h"
#include "shard/shard_protocol.h"
#include "shard/shard_worker.h"
#include "util/failpoint.h"
#include "util/stopwatch.h"

namespace dmc {
namespace shard {

namespace {

/// How long workers get to exit after kShutdown before SIGKILL.
constexpr double kShutdownGraceSeconds = 2.0;

void Incr(const ObserveContext& obs, const char* name, uint64_t delta = 1) {
  if (obs.metrics != nullptr) obs.metrics->IncrCounter(name, delta);
}

std::string DefaultWorkerBinary() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "dmc_shard_worker";
  buf[n] = '\0';
  std::string exe(buf);
  const size_t slash = exe.rfind('/');
  if (slash == std::string::npos) return "dmc_shard_worker";
  return exe.substr(0, slash + 1) + "dmc_shard_worker";
}

ShardPlan BuildPlan(Engine engine, double threshold, const DmcPolicy& policy,
                    const std::string& path, const std::string& work_dir,
                    const ExternalInput& input) {
  ShardPlan plan;
  plan.engine = engine;
  plan.threshold = threshold;
  plan.policy = policy;
  plan.input_path = path;
  plan.work_dir = work_dir;
  plan.num_columns = input.first_pass().num_columns;
  plan.num_rows = input.first_pass().num_rows;
  plan.column_ones = input.first_pass().column_ones;
  plan.buckets.assign(input.buckets().begin(), input.buckets().end());
  return plan;
}

struct Task {
  uint32_t id = 0;
  std::vector<uint8_t> mask;
  int attempts = 0;
  bool done = false;
  ShardResult result;
};

enum class SlotState { kDead, kAwaitingHello, kIdle, kMining };

struct Slot {
  ChildProcess proc;
  SlotState state = SlotState::kDead;
  int task = -1;  // index into tasks when kMining
  std::string outbox;
  serve::FrameBuffer frames{kShardMaxFramePayloadBytes};
  /// Elapsed-seconds instant after which the worker counts as dead;
  /// armed only while it owes us something (hello, or heartbeats for a
  /// task in flight).
  double deadline = 0.0;
  int respawns = 0;
};

/// Checkpoints a finished task, whether a worker or the degrade path
/// mined it, so a resumed run skips it.
void WriteTaskCheckpoint(const ShardOptions& opts,
                         const FileFingerprint& input_fp,
                         const ShardPlan& plan, const Task& t,
                         const ObserveContext& obs) {
  if (opts.checkpoint_dir.empty()) return;
  const uint64_t fp = TaskFingerprint(input_fp, plan.engine, plan.threshold,
                                      plan.num_columns, t.mask, t.id);
  const Status st = WriteShardCheckpoint(
      t.result, fp, ShardCheckpointPath(opts.checkpoint_dir, t.id));
  // A failed checkpoint costs resumability, never the run.
  if (!st.ok()) Incr(obs, "dmc.shard.checkpoint_write_failures");
}

/// The coordinator's poll(2) event loop over one fleet of workers.
/// Leaves unfinished tasks for the caller (degrade path); only
/// programming errors produce a non-OK status. It is the one recorder of
/// the dmc.shard.worker.* metrics: every number comes from a frame it
/// deals or decodes, so a worker's death loses none of them.
class Fleet {
 public:
  Fleet(const ShardPlan& plan, const ShardOptions& opts,
        const ObserveContext& obs, ShardMiningStats* stats,
        const FileFingerprint& input_fp, std::vector<Task>* tasks)
      : plan_(plan),
        opts_(opts),
        obs_(obs),
        stats_(stats),
        tasks_(*tasks),
        input_fp_(input_fp) {
    binary_ = opts.worker_binary.empty() ? DefaultWorkerBinary()
                                         : opts.worker_binary;
    init_frame_ = EncodeInit(plan_);
    attempt_cap_ = std::max(
        2, opts_.max_respawns_per_slot + opts_.num_workers + 1);
  }

  void Run() {
    for (size_t i = 0; i < tasks_.size(); ++i) {
      if (!tasks_[i].done) pending_.push_back(static_cast<int>(i));
    }
    if (pending_.empty()) return;
    // Never more workers than tasks left to mine.
    slots_.resize(std::min<size_t>(opts_.num_workers, pending_.size()));
    for (size_t i = 0; i < slots_.size(); ++i) Spawn(static_cast<int>(i));

    while (!Finished()) {
      if (!AnyAlive()) break;  // fleet gone; caller degrades
      PumpAssignments();
      PollOnce();
      EnforceDeadlines();
    }
    Shutdown();
  }

 private:
  double Now() const { return clock_.ElapsedSeconds(); }

  bool Finished() const {
    // Done when nothing is pending and nothing is in flight. Tasks
    // abandoned past the attempt cap are neither — they fall through to
    // the degrade path.
    if (!pending_.empty()) return false;
    for (const Slot& s : slots_) {
      if (s.state == SlotState::kMining) return false;
    }
    return true;
  }

  bool AnyAlive() const {
    for (const Slot& s : slots_) {
      if (s.state != SlotState::kDead) return true;
    }
    return false;
  }

  void Spawn(int idx) {
    Slot& slot = slots_[idx];
    std::vector<std::string> env = opts_.worker_env;
    // Children mine with the same injected faults as the coordinator,
    // whether the spec came from the environment or from Configure().
    const std::string spec = fail::CurrentSpec();
    if (!spec.empty()) env.push_back("DMC_FAILPOINTS=" + spec);

    RetryPolicy retry = opts_.spawn_retry;
    // Decorrelate per-slot respawn schedules deterministically.
    retry.jitter_seed ^= 0x9e3779b97f4a7c15ULL * (idx + 1);
    const Status st = RetryWithBackoff(retry, [&]() -> Status {
      auto child = SpawnWorker(binary_, env);
      if (!child.ok()) return child.status();
      slot.proc = *child;
      return Status::OK();
    });
    if (!st.ok()) {
      slot.state = SlotState::kDead;
      Incr(obs_, "dmc.shard.spawn_failures");
      return;
    }
    slot.state = SlotState::kAwaitingHello;
    slot.task = -1;
    slot.outbox.clear();
    slot.frames = serve::FrameBuffer(kShardMaxFramePayloadBytes);
    slot.deadline = Now() + opts_.heartbeat_timeout_seconds;
    ++stats_->workers_spawned;
    if (opts_.on_worker_spawn) opts_.on_worker_spawn(idx, slot.proc.pid);
  }

  void DeclareDead(int idx) {
    Slot& slot = slots_[idx];
    if (slot.state == SlotState::kDead) return;
    // SIGKILL before reaping: the "death" may be a hang or a protocol
    // violation with the process still running.
    SignalProcess(slot.proc.pid, SIGKILL);
    CloseChannel(&slot.proc);
    ReapBlocking(slot.proc.pid);
    slot.proc.pid = -1;
    ++stats_->workers_died;
    if (slot.state == SlotState::kMining && slot.task >= 0) {
      Requeue(slot.task, /*front=*/true);
      ++stats_->tasks_reassigned;
    }
    slot.task = -1;
    slot.state = SlotState::kDead;
    slot.deadline = 0.0;
    if (!Finished() && slot.respawns < opts_.max_respawns_per_slot) {
      ++slot.respawns;
      Incr(obs_, "dmc.shard.respawns");
      Spawn(idx);
    }
  }

  void Requeue(int task_idx, bool front) {
    Task& t = tasks_[task_idx];
    if (t.done) return;
    if (t.attempts >= attempt_cap_) {
      // Abandoned: some input/worker combination keeps killing workers
      // on this task. The degrade path (or a clean failure) takes over
      // after the fleet drains the rest.
      Incr(obs_, "dmc.shard.tasks_abandoned");
      return;
    }
    if (front) {
      pending_.push_front(task_idx);
    } else {
      pending_.push_back(task_idx);
    }
  }

  void PumpAssignments() {
    for (size_t i = 0; i < slots_.size() && !pending_.empty(); ++i) {
      Slot& slot = slots_[i];
      if (slot.state != SlotState::kIdle) continue;
      const int ti = pending_.front();
      pending_.pop_front();
      Task& t = tasks_[ti];
      ++t.attempts;
      slot.task = ti;
      slot.state = SlotState::kMining;
      slot.outbox += EncodeTask(t.id, t.mask);
      slot.deadline = Now() + opts_.heartbeat_timeout_seconds;
      Incr(obs_, "dmc.shard.worker.tasks_received");
      FlushOutbox(static_cast<int>(i));
    }
  }

  void FlushOutbox(int idx) {
    Slot& slot = slots_[idx];
    while (slot.state != SlotState::kDead && !slot.outbox.empty()) {
      const ssize_t n = write(slot.proc.write_fd, slot.outbox.data(),
                              slot.outbox.size());
      if (n > 0) {
        slot.outbox.erase(0, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      // EPIPE and friends: the worker is gone.
      DeclareDead(idx);
      return;
    }
  }

  void DrainRead(int idx) {
    Slot& slot = slots_[idx];
    // Failpoint site for the coordinator's receive path; an injected
    // fault is indistinguishable from a worker whose pipe broke.
    if (fail::Enabled() && !fail::InjectStatus("shard.read").ok()) {
      DeclareDead(idx);
      return;
    }
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = read(slot.proc.read_fd, buf, sizeof(buf));
      if (n > 0) {
        slot.frames.Append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) {  // EOF: the worker exited (or crashed)
        DeclareDead(idx);
        return;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      DeclareDead(idx);
      return;
    }
    ProcessFrames(idx);
  }

  void ProcessFrames(int idx) {
    Slot& slot = slots_[idx];
    std::string payload;
    while (slot.state != SlotState::kDead) {
      const auto poll = slot.frames.Next(&payload);
      if (poll == serve::FrameBuffer::Poll::kNeedMore) return;
      if (poll == serve::FrameBuffer::Poll::kBadFrame) {
        Incr(obs_, "dmc.shard.protocol_errors");
        DeclareDead(idx);
        return;
      }
      auto msg = DecodeMessagePayload(payload);
      if (!msg.ok()) {
        Incr(obs_, "dmc.shard.protocol_errors");
        DeclareDead(idx);
        return;
      }
      HandleMessage(idx, *msg);
    }
  }

  void HandleMessage(int idx, Message& msg) {
    Slot& slot = slots_[idx];
    switch (msg.op) {
      case Op::kHello: {
        if (slot.state != SlotState::kAwaitingHello) break;
        slot.outbox += init_frame_;
        slot.state = SlotState::kIdle;
        slot.deadline = 0.0;
        FlushOutbox(idx);
        break;
      }
      case Op::kHeartbeat: {
        ++stats_->heartbeats;
        if (slot.state == SlotState::kMining) {
          slot.deadline = Now() + opts_.heartbeat_timeout_seconds;
        }
        break;
      }
      case Op::kResult: {
        if (slot.state != SlotState::kMining || slot.task < 0 ||
            tasks_[slot.task].id != msg.result.task_id) {
          Incr(obs_, "dmc.shard.protocol_errors");
          DeclareDead(idx);
          return;
        }
        Task& t = tasks_[slot.task];
        t.result = std::move(msg.result);
        t.done = true;
        WriteTaskCheckpoint(opts_, input_fp_, plan_, t, obs_);
        slot.task = -1;
        slot.state = SlotState::kIdle;
        slot.deadline = 0.0;
        if (obs_.metrics != nullptr) {
          obs_.metrics->IncrCounter("dmc.shard.worker.tasks_ok");
          obs_.metrics->RecordTimer("dmc.shard.worker.mine_seconds",
                                    t.result.mine_seconds);
          obs_.metrics->MaxGauge(
              "dmc.shard.worker.peak_counter_bytes",
              static_cast<double>(t.result.peak_counter_bytes));
        }
        break;
      }
      case Op::kTaskError: {
        if (slot.state != SlotState::kMining || slot.task < 0) {
          Incr(obs_, "dmc.shard.protocol_errors");
          DeclareDead(idx);
          return;
        }
        // The worker is healthy, the task failed (e.g. an injected
        // shard.worker fault): requeue at the back so a different
        // worker — or a later attempt — picks it up.
        Incr(obs_, "dmc.shard.worker.tasks_failed");
        Requeue(slot.task, /*front=*/false);
        slot.task = -1;
        slot.state = SlotState::kIdle;
        slot.deadline = 0.0;
        break;
      }
      default:
        Incr(obs_, "dmc.shard.protocol_errors");
        DeclareDead(idx);
        return;
    }
  }

  void PollOnce() {
    std::vector<pollfd> fds;
    std::vector<int> owner;
    double next_deadline = 0.0;
    for (size_t i = 0; i < slots_.size(); ++i) {
      Slot& slot = slots_[i];
      if (slot.state == SlotState::kDead) continue;
      pollfd p{};
      p.fd = slot.proc.read_fd;
      p.events = POLLIN;
      fds.push_back(p);
      owner.push_back(static_cast<int>(i));
      if (!slot.outbox.empty()) {
        pollfd w{};
        w.fd = slot.proc.write_fd;
        w.events = POLLOUT;
        fds.push_back(w);
        owner.push_back(static_cast<int>(i));
      }
      if (slot.deadline > 0.0 &&
          (next_deadline == 0.0 || slot.deadline < next_deadline)) {
        next_deadline = slot.deadline;
      }
    }
    if (fds.empty()) return;

    int timeout_ms = 100;  // floor so dead-fleet detection cannot stall
    if (next_deadline > 0.0) {
      const double remaining = next_deadline - Now();
      timeout_ms = std::max(0, std::min(timeout_ms,
                                        static_cast<int>(remaining * 1000)));
    }
    const int rc = poll(fds.data(), fds.size(), timeout_ms);
    if (rc <= 0) return;  // timeout or EINTR; deadlines handle the rest
    for (size_t k = 0; k < fds.size(); ++k) {
      const int idx = owner[k];
      if (slots_[idx].state == SlotState::kDead) continue;
      if (fds[k].revents & POLLOUT) FlushOutbox(idx);
      if (fds[k].revents & (POLLIN | POLLHUP | POLLERR)) DrainRead(idx);
    }
  }

  void EnforceDeadlines() {
    const double t = Now();
    for (size_t i = 0; i < slots_.size(); ++i) {
      Slot& slot = slots_[i];
      if (slot.state == SlotState::kDead || slot.deadline <= 0.0) continue;
      if (t >= slot.deadline) {
        // Hung (or never said hello): no frame within the heartbeat
        // window while holding an obligation.
        Incr(obs_, "dmc.shard.heartbeat_timeouts");
        DeclareDead(static_cast<int>(i));
      }
    }
  }

  void Shutdown() {
    for (size_t i = 0; i < slots_.size(); ++i) {
      Slot& slot = slots_[i];
      if (slot.state == SlotState::kDead) continue;
      slot.outbox += EncodeShutdown();
      FlushOutbox(static_cast<int>(i));
    }
    const double grace_end = Now() + kShutdownGraceSeconds;
    for (size_t i = 0; i < slots_.size(); ++i) {
      Slot& slot = slots_[i];
      if (slot.state == SlotState::kDead) continue;
      int exit_code = 0;
      while (!TryReap(slot.proc.pid, &exit_code) && Now() < grace_end) {
        usleep(5000);
      }
      if (Now() >= grace_end && !TryReap(slot.proc.pid, &exit_code)) {
        SignalProcess(slot.proc.pid, SIGKILL);
        ReapBlocking(slot.proc.pid);
      }
      CloseChannel(&slot.proc);
      slot.proc.pid = -1;
      slot.state = SlotState::kDead;
    }
  }

  const ShardPlan& plan_;
  const ShardOptions& opts_;
  const ObserveContext& obs_;
  ShardMiningStats* stats_;
  std::vector<Task>& tasks_;
  const FileFingerprint input_fp_;
  std::string binary_;
  std::string init_frame_;
  int attempt_cap_ = 2;
  Stopwatch clock_;
  std::vector<Slot> slots_;
  std::deque<int> pending_;
};

/// The whole sharded mine, engine-agnostic: pass 1, task construction
/// (with checkpoint resume), the worker fleet, the in-process degrade
/// path, and stats. Returns the per-task results in task order.
StatusOr<std::vector<ShardResult>> RunShardedMine(
    Engine engine, double threshold, const DmcPolicy& policy,
    const std::string& path, const std::string& work_dir,
    const ShardOptions& opts, ShardMiningStats* stats) {
  if (opts.num_workers < 1) {
    return InvalidArgumentError("shard: num_workers must be >= 1");
  }
  if (opts.tasks_per_worker < 1) {
    return InvalidArgumentError("shard: tasks_per_worker must be >= 1");
  }
  if (!(threshold > 0.0) || threshold > 1.0) {
    return InvalidArgumentError("shard: threshold must be in (0, 1]");
  }
  // Workers replay pass 1's density-bucket spills; an exact sort needs
  // the whole matrix.
  if (policy.row_order == RowOrderPolicy::kExactSort) {
    return InvalidArgumentError(
        "shard: workers replay density buckets or input order; "
        "RowOrderPolicy::kExactSort needs the in-memory matrix");
  }
  if (opts.resume && opts.checkpoint_dir.empty()) {
    return InvalidArgumentError(
        "shard: resume requires a checkpoint_dir to resume from");
  }
  // Create the checkpoint directory up front: a misspelled or first-run
  // path must not silently turn every checkpoint write into a
  // counted-but-invisible failure.
  if (!opts.checkpoint_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opts.checkpoint_dir, ec);
    if (ec) {
      return IOError("shard: cannot create directory " + opts.checkpoint_dir +
                     ": " + ec.message());
    }
  }

  const ObserveContext& obs = policy.observe;
  Stopwatch total;
  ShardMiningStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = ShardMiningStats{};

  // Pass 1 (or checkpoint resume) — exactly once, in this process.
  ExternalMiningStats ext_stats;
  const bool bucketed = policy.row_order != RowOrderPolicy::kIdentity;
  ExternalInput input(path, work_dir, bucketed, opts.io, obs, &ext_stats);
  {
    ScopedSpan span(obs.trace, "shard/pass1", obs.trace_lane);
    DMC_RETURN_IF_ERROR(input.Prepare());
  }
  stats->pass1_seconds = ext_stats.pass1_seconds + ext_stats.partition_seconds;
  stats->resumed = ext_stats.resumed;

  const ShardPlan plan =
      BuildPlan(engine, threshold, policy, path, work_dir, input);

  // Fingerprint the input once iff task checkpoints are on; the
  // fingerprint binds every checkpoint to this exact input.
  FileFingerprint input_fp;
  if (!opts.checkpoint_dir.empty()) {
    auto fp = FingerprintFile(path);
    if (!fp.ok()) return fp.status();
    input_fp = *fp;
  }

  // Balanced antecedent shards; over-partitioned so reassignment moves
  // 1/(workers*tasks_per_worker) of the work, not 1/workers; never
  // more tasks than columns.
  const uint64_t num_tasks = static_cast<uint64_t>(opts.num_workers) *
                             static_cast<uint64_t>(opts.tasks_per_worker);
  std::vector<std::vector<uint8_t>> masks =
      MakeColumnShards(plan.column_ones, num_tasks);
  std::vector<Task> tasks(masks.size());
  for (size_t i = 0; i < masks.size(); ++i) {
    tasks[i].id = static_cast<uint32_t>(i);
    tasks[i].mask = std::move(masks[i]);
  }
  stats->tasks_total = static_cast<int>(tasks.size());

  // Resume finished tasks from their checkpoints.
  if (opts.resume) {
    for (Task& t : tasks) {
      auto loaded = ReadShardCheckpoint(
          ShardCheckpointPath(opts.checkpoint_dir, t.id));
      if (!loaded.ok()) continue;  // missing/corrupt: mine it fresh
      const uint64_t expect = TaskFingerprint(
          input_fp, engine, threshold, plan.num_columns, t.mask, t.id);
      if (loaded->fingerprint != expect ||
          loaded->result.engine != engine ||
          loaded->result.task_id != t.id) {
        continue;  // stale config: mine it fresh
      }
      t.result = std::move(loaded->result);
      t.done = true;
      ++stats->checkpoint_hits;
    }
  }

  // The fleet.
  Stopwatch mine_clock;
  {
    ScopedSpan span(obs.trace, "shard/fleet", obs.trace_lane);
    Fleet fleet(plan, opts, obs, stats, input_fp, &tasks);
    fleet.Run();
  }

  // Degrade: anything the fleet could not finish is mined right here,
  // in-process, over the same artifacts — or the run fails cleanly.
  for (Task& t : tasks) {
    if (t.done) continue;
    if (!opts.degrade_to_in_process) {
      return InternalError(
          "shard: worker respawns exhausted with tasks unfinished and "
          "degrade_to_in_process disabled");
    }
    ScopedSpan span(obs.trace, "shard/degrade", obs.trace_lane);
    // In-process fallback over the coordinator's own prepared input:
    // same data, same mask, same task function as the workers.
    auto result = MineShardTask(plan, policy, t.mask, t.id, &input);
    if (!result.ok()) return result.status();
    t.result = std::move(*result);
    t.done = true;
    ++stats->degraded_tasks;
    WriteTaskCheckpoint(opts, input_fp, plan, t, obs);
  }
  stats->mine_seconds = mine_clock.ElapsedSeconds();
  stats->total_seconds = total.ElapsedSeconds();
  RecordToRegistry(obs.metrics, "dmc.shard", *stats);
  if (obs.metrics != nullptr) {
    obs.metrics->SetGauge("dmc.shard.num_workers",
                          static_cast<double>(opts.num_workers));
  }

  std::vector<ShardResult> results;
  results.reserve(tasks.size());
  for (Task& t : tasks) results.push_back(std::move(t.result));
  return results;
}

// Both rule kinds: the fleet (or its degrade path) mines every task,
// then the disjoint canonical task sets merge in task order.
template <typename Kind>
StatusOr<typename Kind::RuleSet> MineSharded(
    const std::string& path, const typename Kind::Options& options,
    const std::string& work_dir, const ShardOptions& shard,
    ShardMiningStats* stats) {
  constexpr bool kSim = std::is_same_v<Kind, SimilarityKind>;
  auto results = RunShardedMine(
      kSim ? Engine::kSimilarities : Engine::kImplications,
      options.*Kind::kThreshold, options.policy, path, work_dir, shard, stats);
  if (!results.ok()) return results.status();
  if (fail::Enabled()) {
    DMC_RETURN_IF_ERROR(fail::InjectStatus("shard.merge"));
  }
  const ObserveContext& obs = options.policy.observe;
  ScopedSpan span(obs.trace, "shard/merge", obs.trace_lane);
  std::vector<typename Kind::RuleSet> parts;
  parts.reserve(results->size());
  for (ShardResult& r : *results) {
    if constexpr (kSim) {
      parts.emplace_back(std::move(r.sim_pairs));
    } else {
      parts.emplace_back(std::move(r.imp_rules));
    }
  }
  return MergeCanonical(std::move(parts));
}

}  // namespace

StatusOr<ImplicationRuleSet> MineImplicationsSharded(
    const std::string& path, const ImplicationMiningOptions& options,
    const std::string& work_dir, const ShardOptions& shard,
    ShardMiningStats* stats) {
  return MineSharded<ImplicationKind>(path, options, work_dir, shard, stats);
}

StatusOr<SimilarityRuleSet> MineSimilaritiesSharded(
    const std::string& path, const SimilarityMiningOptions& options,
    const std::string& work_dir, const ShardOptions& shard,
    ShardMiningStats* stats) {
  return MineSharded<SimilarityKind>(path, options, work_dir, shard, stats);
}

}  // namespace shard
}  // namespace dmc
