// Kill-a-worker differential sweep for the multi-process shard
// coordinator (src/shard/, DESIGN §5.8).
//
// Every scenario — clean fleets of 1/2/4 workers, SIGKILLed workers,
// crash/hang hooks armed in every child, an unexecutable worker binary,
// forced shard.* failpoints, checkpoint resume with a torn checkpoint —
// must end in exactly one of two ways: a rule set byte-identical to the
// single-process external miner, or a clean non-OK Status. Never a
// hang, never a partial result.
//
// The worker binary path is compile-defined (DMC_SHARD_WORKER_BIN) so
// the sweep runs the worker from the same build tree — under ASan/UBSan
// the children are sanitized too.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/external_miner.h"
#include "core/streaming_pass.h"
#include "matrix/binary_matrix.h"
#include "matrix/matrix_io.h"
#include "observe/metrics.h"
#include "shard/coordinator.h"
#include "shard/shard_checkpoint.h"
#include "shard/shard_worker.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace dmc {
namespace shard {
namespace {

BinaryMatrix TestMatrix() {
  Rng rng(0x5AAD);
  MatrixBuilder b(18);
  std::vector<ColumnId> row;
  for (uint32_t r = 0; r < 160; ++r) {
    row.clear();
    for (ColumnId c = 0; c < 18; ++c) {
      if (rng.Bernoulli(0.3)) row.push_back(c);
    }
    // Planted structure so both engines have rules to find: column 1
    // accompanies column 0, and 2/3 are near-identical.
    if (!row.empty() && row[0] == 0) row.insert(row.begin() + 1, 1);
    b.AddRow(row);
  }
  return b.Build();
}

class ShardDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = testing::TempDir() + "/" +
           std::string(info->test_suite_name()) + "_" + info->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    input_ = dir_ + "/input.txt";
    ASSERT_TRUE(WriteMatrixTextFile(TestMatrix(), input_).ok());

    imp_.min_confidence = 0.8;
    sim_.min_similarity = 0.5;

    auto truth_imp = MineImplicationsFromFile(input_, imp_, dir_);
    ASSERT_TRUE(truth_imp.ok());
    truth_imp_ = truth_imp->rules();
    ASSERT_FALSE(truth_imp_.empty());
    auto truth_sim = MineSimilaritiesFromFile(input_, sim_, dir_);
    ASSERT_TRUE(truth_sim.ok());
    truth_sim_ = truth_sim->pairs();
    ASSERT_FALSE(truth_sim_.empty());
  }

  void TearDown() override {
    fail::Disable();
    std::filesystem::remove_all(dir_);
  }

  ShardOptions BaseOptions() const {
    ShardOptions s;
    s.worker_binary = DMC_SHARD_WORKER_BIN;
    s.num_workers = 2;
    s.tasks_per_worker = 2;
    // Keep worst-case test wall-clock bounded: tight backoff budget.
    s.spawn_retry.initial_backoff_seconds = 0.001;
    s.spawn_retry.max_backoff_seconds = 0.02;
    s.spawn_retry.max_total_backoff_seconds = 0.1;
    return s;
  }

  std::string dir_;
  std::string input_;
  ImplicationMiningOptions imp_;
  SimilarityMiningOptions sim_;
  std::vector<ImplicationRule> truth_imp_;
  std::vector<SimilarityPair> truth_sim_;
};

TEST_F(ShardDifferentialTest, FleetSizesMatchSingleProcessByteForByte) {
  for (const int workers : {1, 2, 4}) {
    ShardOptions s = BaseOptions();
    s.num_workers = workers;
    ShardMiningStats stats;
    auto rules = MineImplicationsSharded(input_, imp_, dir_, s, &stats);
    ASSERT_TRUE(rules.ok()) << rules.status().ToString();
    EXPECT_EQ(rules->rules(), truth_imp_) << "workers=" << workers;
    EXPECT_EQ(stats.tasks_total, workers * s.tasks_per_worker);
    EXPECT_GE(stats.workers_spawned, 1);
    EXPECT_EQ(stats.degraded_tasks, 0);

    auto pairs = MineSimilaritiesSharded(input_, sim_, dir_, s, &stats);
    ASSERT_TRUE(pairs.ok()) << pairs.status().ToString();
    EXPECT_EQ(pairs->pairs(), truth_sim_) << "workers=" << workers;
  }
}

TEST_F(ShardDifferentialTest, IdentityRowOrderMatchesToo) {
  ImplicationMiningOptions imp = imp_;
  imp.policy.row_order = RowOrderPolicy::kIdentity;
  auto truth = MineImplicationsFromFile(input_, imp, dir_);
  ASSERT_TRUE(truth.ok());

  ShardOptions s = BaseOptions();
  auto rules = MineImplicationsSharded(input_, imp, dir_, s);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  EXPECT_EQ(rules->rules(), truth->rules());
}

TEST_F(ShardDifferentialTest, SigkilledWorkerIsReplacedAndResultExact) {
  ShardOptions s = BaseOptions();
  std::mutex mu;
  int kills = 0;
  s.on_worker_spawn = [&](int slot, int pid) {
    std::lock_guard<std::mutex> lock(mu);
    // Murder the first worker of slot 0 right out of the gate; its
    // replacement (and slot 1) survive.
    if (slot == 0 && kills == 0) {
      ++kills;
      kill(pid, SIGKILL);
    }
  };
  ShardMiningStats stats;
  auto rules = MineImplicationsSharded(input_, imp_, dir_, s, &stats);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  EXPECT_EQ(rules->rules(), truth_imp_);
  EXPECT_EQ(kills, 1);
  EXPECT_GE(stats.workers_died, 1);
  EXPECT_GE(stats.workers_spawned, 3);  // 2 slots + 1 respawn
}

TEST_F(ShardDifferentialTest, EveryWorkerCrashingDegradesToExactResult) {
  ShardOptions s = BaseOptions();
  s.worker_env = {"DMC_SHARD_TEST_CRASH_AFTER_ROWS=5"};
  s.max_respawns_per_slot = 1;
  // The hooks ride the progress callback; a tight cadence makes them
  // fire within this small matrix.
  imp_.policy.observe.progress_interval_rows = 8;
  sim_.policy.observe.progress_interval_rows = 8;
  ShardMiningStats stats;
  auto rules = MineImplicationsSharded(input_, imp_, dir_, s, &stats);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  EXPECT_EQ(rules->rules(), truth_imp_);
  EXPECT_GE(stats.workers_died, 2);
  EXPECT_GE(stats.degraded_tasks, 1);

  auto pairs = MineSimilaritiesSharded(input_, sim_, dir_, s, &stats);
  ASSERT_TRUE(pairs.ok()) << pairs.status().ToString();
  EXPECT_EQ(pairs->pairs(), truth_sim_);
}

TEST_F(ShardDifferentialTest, HungWorkerTripsHeartbeatDeadline) {
  ShardOptions s = BaseOptions();
  s.worker_env = {"DMC_SHARD_TEST_HANG_AFTER_ROWS=5"};
  s.heartbeat_timeout_seconds = 0.3;
  s.max_respawns_per_slot = 1;
  // Tight heartbeat cadence so a live worker would never miss the
  // 0.3 s deadline — only the hang hook does.
  imp_.policy.observe.progress_interval_rows = 8;
  ShardMiningStats stats;
  auto rules = MineImplicationsSharded(input_, imp_, dir_, s, &stats);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  EXPECT_EQ(rules->rules(), truth_imp_);
  EXPECT_GE(stats.workers_died, 2);
  EXPECT_GE(stats.degraded_tasks, 1);
}

TEST_F(ShardDifferentialTest, UnexecutableWorkerBinaryDegradesOrFails) {
  ShardOptions s = BaseOptions();
  s.worker_binary = dir_ + "/no_such_worker";
  s.max_respawns_per_slot = 0;
  ShardMiningStats stats;
  auto rules = MineImplicationsSharded(input_, imp_, dir_, s, &stats);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  EXPECT_EQ(rules->rules(), truth_imp_);
  EXPECT_EQ(stats.degraded_tasks, stats.tasks_total);

  s.degrade_to_in_process = false;
  auto refused = MineImplicationsSharded(input_, imp_, dir_, s);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInternal);
}

TEST_F(ShardDifferentialTest, DegradeDisabledFailsCleanlyUnderCrashes) {
  ShardOptions s = BaseOptions();
  s.worker_env = {"DMC_SHARD_TEST_CRASH_AFTER_ROWS=5"};
  s.max_respawns_per_slot = 0;
  s.degrade_to_in_process = false;
  imp_.policy.observe.progress_interval_rows = 8;
  auto rules = MineImplicationsSharded(input_, imp_, dir_, s);
  ASSERT_FALSE(rules.ok());
  EXPECT_EQ(rules.status().code(), StatusCode::kInternal);

  // The same options mine fine once the hook is gone — the failure was
  // the fleet's, not a leftover artifact's.
  s.worker_env.clear();
  s.degrade_to_in_process = true;
  auto retry = MineImplicationsSharded(input_, imp_, dir_, s);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(retry->rules(), truth_imp_);
}

TEST_F(ShardDifferentialTest, ForcedFailpointsRecoverOrFailCleanly) {
  const char* sites[] = {"shard.spawn", "shard.read", "shard.worker",
                         "shard.merge"};
  for (const char* site : sites) {
    ASSERT_TRUE(
        fail::Configure(std::string(site) + "=error@1").ok());
    ShardOptions s = BaseOptions();
    ShardMiningStats stats;
    auto rules = MineImplicationsSharded(input_, imp_, dir_, s, &stats);
    if (rules.ok()) {
      EXPECT_EQ(rules->rules(), truth_imp_) << site;
    } else {
      EXPECT_FALSE(rules.status().message().empty()) << site;
    }
    fail::Disable();
  }
}

TEST_F(ShardDifferentialTest, FailpointSpecPropagatesIntoWorkers) {
  // shard.worker only exists inside the worker binary; the in-process
  // degrade path never hits it. Arming it with an always-fire trigger
  // therefore fails every worker attempt — if (and only if) the spec
  // actually reaches the children via DMC_FAILPOINTS. All tasks ending
  // up degraded proves the propagation.
  ASSERT_TRUE(fail::Configure("shard.worker=error").ok());
  ShardOptions s = BaseOptions();
  s.max_respawns_per_slot = 1;
  ShardMiningStats stats;
  auto rules = MineImplicationsSharded(input_, imp_, dir_, s, &stats);
  fail::Disable();
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  EXPECT_EQ(rules->rules(), truth_imp_);
  EXPECT_EQ(stats.degraded_tasks, stats.tasks_total);
}

TEST_F(ShardDifferentialTest, ResumeSkipsCheckpointedTasks) {
  const std::string ckpt_dir = dir_ + "/task_ckpts";
  std::filesystem::create_directories(ckpt_dir);

  ShardOptions s = BaseOptions();
  s.checkpoint_dir = ckpt_dir;
  ShardMiningStats first;
  auto rules = MineImplicationsSharded(input_, imp_, dir_, s, &first);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  EXPECT_EQ(rules->rules(), truth_imp_);
  EXPECT_EQ(first.checkpoint_hits, 0);

  // Resume: every task comes back from its checkpoint, no worker runs.
  s.resume = true;
  int spawns = 0;
  s.on_worker_spawn = [&](int, int) { ++spawns; };
  ShardMiningStats second;
  auto resumed = MineImplicationsSharded(input_, imp_, dir_, s, &second);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->rules(), truth_imp_);
  EXPECT_EQ(second.checkpoint_hits, second.tasks_total);
  EXPECT_EQ(spawns, 0);
  EXPECT_EQ(second.workers_spawned, 0);

  // Tear one checkpoint: only that task is re-mined, result unchanged.
  const std::string victim = ShardCheckpointPath(ckpt_dir, 0);
  {
    std::ifstream in(victim, std::ios::binary);
    std::string bytes(std::istreambuf_iterator<char>(in), {});
    ASSERT_GT(bytes.size(), 8u);
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  ShardMiningStats third;
  auto repaired = MineImplicationsSharded(input_, imp_, dir_, s, &third);
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  EXPECT_EQ(repaired->rules(), truth_imp_);
  EXPECT_EQ(third.checkpoint_hits, third.tasks_total - 1);
}

TEST_F(ShardDifferentialTest, ConfigDriftInvalidatesTaskCheckpoints) {
  const std::string ckpt_dir = dir_ + "/task_ckpts";
  std::filesystem::create_directories(ckpt_dir);

  ShardOptions s = BaseOptions();
  s.checkpoint_dir = ckpt_dir;
  auto rules = MineImplicationsSharded(input_, imp_, dir_, s);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();

  // Same checkpoints, different threshold: every fingerprint misses and
  // the run re-mines from scratch — correctly, for the new threshold.
  ImplicationMiningOptions looser = imp_;
  looser.min_confidence = 0.6;
  auto loose_truth = MineImplicationsFromFile(input_, looser, dir_);
  ASSERT_TRUE(loose_truth.ok());
  s.resume = true;
  ShardMiningStats stats;
  auto remined = MineImplicationsSharded(input_, looser, dir_, s, &stats);
  ASSERT_TRUE(remined.ok()) << remined.status().ToString();
  EXPECT_EQ(remined->rules(), loose_truth->rules());
  EXPECT_EQ(stats.checkpoint_hits, 0);
  EXPECT_GE(stats.workers_spawned, 1);
}

TEST_F(ShardDifferentialTest, WorkerMetricsFoldIntoCoordinatorRegistry) {
  const std::string metrics_dir = dir_ + "/worker_metrics";
  std::filesystem::create_directories(metrics_dir);
  MetricsRegistry registry;
  imp_.policy.observe.metrics = &registry;

  ShardOptions s = BaseOptions();
  s.worker_metrics_dir = metrics_dir;
  ShardMiningStats stats;
  auto rules = MineImplicationsSharded(input_, imp_, dir_, s, &stats);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  EXPECT_EQ(rules->rules(), truth_imp_);

  // Coordinator-side fleet accounting and worker-side mining counters
  // both land in the one registry. The fleet counts are folded once, at
  // the end of the run, from the stats the caller gets back.
  EXPECT_GE(stats.workers_spawned, 2);
  const std::pair<const char*, uint64_t> counters[] = {
      {"workers_spawned", stats.workers_spawned},
      {"workers_died", stats.workers_died},
      {"tasks_reassigned", stats.tasks_reassigned},
      {"heartbeats", stats.heartbeats},
      {"checkpoint_hits", stats.checkpoint_hits},
      {"degraded_tasks", stats.degraded_tasks},
  };
  for (const auto& [member, value] : counters) {
    EXPECT_EQ(registry.counter(std::string("dmc.shard.") + member), value)
        << member;
  }
  EXPECT_EQ(registry.gauge("dmc.shard.tasks_total"), stats.tasks_total);
  for (const char* timer : {"pass1_seconds", "mine_seconds", "total_seconds"}) {
    EXPECT_EQ(registry.timer(std::string("dmc.shard.") + timer).count, 1u)
        << timer;
  }
  EXPECT_DOUBLE_EQ(registry.timer("dmc.shard.total_seconds").total_seconds,
                   stats.total_seconds);
  EXPECT_GE(registry.counter("dmc.shard.worker.tasks_received"),
            registry.counter("dmc.shard.worker.tasks_ok"));
  EXPECT_GE(registry.counter("dmc.shard.worker.tasks_ok"), 1u);
}

TEST_F(ShardDifferentialTest, NoMoreTasksOrWorkersThanColumns) {
  // Four workers, one task each, over three columns: every task owns a
  // column and every worker a task, so three of each.
  const std::string narrow = dir_ + "/narrow.txt";
  ASSERT_TRUE(WriteMatrixTextFile(BinaryMatrix::FromRows(
                                      3, {{0, 1, 2}, {0, 1}, {2}, {0, 2}}),
                                  narrow)
                  .ok());
  ImplicationMiningOptions options;
  options.min_confidence = 0.5;
  auto truth = MineImplicationsFromFile(narrow, options, dir_);
  ASSERT_TRUE(truth.ok()) << truth.status().ToString();
  ShardOptions s = BaseOptions();
  s.num_workers = 4;
  s.tasks_per_worker = 1;
  ShardMiningStats stats;
  auto rules = MineImplicationsSharded(narrow, options, dir_, s, &stats);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  EXPECT_EQ(rules->rules(), truth->rules());
  EXPECT_EQ(stats.tasks_total, 3);
  EXPECT_EQ(stats.workers_spawned, 3);
  EXPECT_EQ(stats.degraded_tasks, 0);
}

TEST_F(ShardDifferentialTest, SurvivesLowDescriptorsBeingOccupied) {
  // Regression: when the coordinator's fd 3 is taken but 4 is free
  // (ctest leaves exactly this layout), the first worker pipe lands
  // on {4, 5} — so the read end occupies the conventional child
  // *output* slot. A careless child-side dup2 sequence then closed
  // the output pipe it had just placed on fd 4, every worker write
  // died with EBADF, and the run silently degraded in-process.
  // Recreate that exact layout and insist the fleet mines remotely.
  // (If something else already owns fd 3 we inherit the layout for
  // free; if 4 is also taken the hostile case cannot arise at all.)
  bool squatting = false;
  if (fcntl(3, F_GETFD) == -1) {
    const int dn = open("/dev/null", O_RDONLY);
    ASSERT_GE(dn, 0);
    if (dn != 3) {
      ASSERT_EQ(dup2(dn, 3), 3);
      close(dn);
    }
    squatting = true;
  }
  ShardMiningStats stats;
  auto rules =
      MineImplicationsSharded(input_, imp_, dir_, BaseOptions(), &stats);
  if (squatting) close(3);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  EXPECT_EQ(rules->rules(), truth_imp_);
  EXPECT_EQ(stats.degraded_tasks, 0);
  EXPECT_EQ(stats.workers_died, 0);
}

TEST_F(ShardDifferentialTest, InvalidOptionsAreRejectedUpFront) {
  ShardOptions s = BaseOptions();
  s.num_workers = 0;
  EXPECT_EQ(MineImplicationsSharded(input_, imp_, dir_, s).status().code(),
            StatusCode::kInvalidArgument);

  s = BaseOptions();
  s.tasks_per_worker = 0;
  EXPECT_EQ(MineImplicationsSharded(input_, imp_, dir_, s).status().code(),
            StatusCode::kInvalidArgument);

  s = BaseOptions();
  s.resume = true;  // no checkpoint_dir
  EXPECT_EQ(MineImplicationsSharded(input_, imp_, dir_, s).status().code(),
            StatusCode::kInvalidArgument);

  ImplicationMiningOptions bad = imp_;
  bad.min_confidence = 0.0;
  EXPECT_EQ(
      MineImplicationsSharded(input_, bad, dir_, BaseOptions()).status().code(),
      StatusCode::kInvalidArgument);
}

// A task reports the exact counter peak of its scan: the peak the
// in-memory miner reports for the same antecedent mask. MineShardTask is
// what workers and the coordinator's degrade path both run.
TEST_F(ShardDifferentialTest, TaskPeakIsTheExactScanPeak) {
  const BinaryMatrix m = TestMatrix();
  ExternalMiningStats ext_stats;
  ExternalInput input(input_, dir_, /*bucketed=*/true, ExternalIoOptions{},
                      ObserveContext{}, &ext_stats);
  ASSERT_TRUE(input.Prepare().ok());
  ShardPlan plan;
  plan.num_columns = input.first_pass().num_columns;
  plan.num_rows = input.first_pass().num_rows;
  plan.column_ones = input.first_pass().column_ones;
  ASSERT_EQ(plan.num_columns, m.num_columns());
  const auto masks = MakeColumnShards(plan.column_ones, 3);
  for (uint32_t id = 0; id < masks.size(); ++id) {
    plan.engine = Engine::kImplications;
    plan.threshold = imp_.min_confidence;
    auto imp_task = MineShardTask(plan, imp_.policy, masks[id], id, &input);
    ASSERT_TRUE(imp_task.ok()) << imp_task.status().ToString();
    MiningStats imp_want;
    auto rules =
        MineMatrix<ImplicationKind>(m, imp_, &masks[id], &imp_want);
    ASSERT_TRUE(rules.ok());
    EXPECT_EQ(imp_task->imp_rules, rules->rules()) << "task " << id;
    EXPECT_EQ(imp_task->peak_counter_bytes, imp_want.peak_counter_bytes)
        << "task " << id;

    plan.engine = Engine::kSimilarities;
    plan.threshold = sim_.min_similarity;
    auto sim_task = MineShardTask(plan, sim_.policy, masks[id], id, &input);
    ASSERT_TRUE(sim_task.ok()) << sim_task.status().ToString();
    MiningStats sim_want;
    auto pairs =
        MineMatrix<SimilarityKind>(m, sim_, &masks[id], &sim_want);
    ASSERT_TRUE(pairs.ok());
    EXPECT_EQ(sim_task->sim_pairs, pairs->pairs()) << "task " << id;
    EXPECT_EQ(sim_task->peak_counter_bytes, sim_want.peak_counter_bytes)
        << "task " << id;
  }

  // Through a real worker: one task over every column, its peak read
  // back from the worker's metrics.
  const std::string metrics_dir = dir_ + "/worker_metrics";
  MetricsRegistry registry;
  imp_.policy.observe.metrics = &registry;
  ShardOptions s = BaseOptions();
  s.num_workers = 1;
  s.tasks_per_worker = 1;
  s.worker_metrics_dir = metrics_dir;
  ShardMiningStats stats;
  auto sharded = MineImplicationsSharded(input_, imp_, dir_, s, &stats);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ(stats.degraded_tasks, 0);
  MiningStats whole;
  imp_.policy.observe.metrics = nullptr;
  ASSERT_TRUE(::dmc::MineImplications(m, imp_, &whole).ok());
  EXPECT_EQ(registry.gauge("dmc.shard.worker.peak_counter_bytes"),
            static_cast<double>(whole.peak_counter_bytes));
}

}  // namespace
}  // namespace shard
}  // namespace dmc
