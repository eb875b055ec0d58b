// TSan stress for the shard coordinator: several coordinators running
// concurrently on threads of one process, all funneling fleet and
// worker metrics into one shared MetricsRegistry while they fork/exec,
// poll and reap their own worker fleets. The coordinator's event loop
// is single-threaded by design; what must be race-free is everything it
// shares — the metrics registry, the failpoint registry, and the
// process-control layer (a fork from a multithreaded parent).
//
// Own binary so tools/check.sh can run exactly this under TSan.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/external_miner.h"
#include "matrix/binary_matrix.h"
#include "matrix/matrix_io.h"
#include "observe/metrics.h"
#include "shard/coordinator.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace dmc {
namespace shard {
namespace {

BinaryMatrix StressMatrix() {
  Rng rng(0x57E5);
  MatrixBuilder b(14);
  std::vector<ColumnId> row;
  for (uint32_t r = 0; r < 120; ++r) {
    row.clear();
    for (ColumnId c = 0; c < 14; ++c) {
      if (rng.Bernoulli(0.3)) row.push_back(c);
    }
    if (!row.empty() && row[0] == 0) row.insert(row.begin() + 1, 1);
    b.AddRow(row);
  }
  return b.Build();
}

class ShardStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = testing::TempDir() + "/" +
           std::string(info->test_suite_name()) + "_" + info->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    input_ = dir_ + "/input.txt";
    ASSERT_TRUE(WriteMatrixTextFile(StressMatrix(), input_).ok());
    imp_.min_confidence = 0.8;
    auto truth = MineImplicationsFromFile(input_, imp_, dir_);
    ASSERT_TRUE(truth.ok());
    truth_ = truth->rules();
    ASSERT_FALSE(truth_.empty());
  }
  void TearDown() override {
    fail::Disable();
    std::filesystem::remove_all(dir_);
  }

  std::string dir_;
  std::string input_;
  ImplicationMiningOptions imp_;
  std::vector<ImplicationRule> truth_;
};

TEST_F(ShardStressTest, ConcurrentCoordinatorsShareOneRegistry) {
  constexpr int kCoordinators = 3;
  MetricsRegistry registry;

  std::vector<std::string> errors(kCoordinators);
  std::vector<std::thread> threads;
  for (int i = 0; i < kCoordinators; ++i) {
    threads.emplace_back([&, i] {
      // Every coordinator needs its own work_dir — bucket files are
      // per-run artifacts — but they share the registry on purpose.
      const std::string work_dir = dir_ + "/coord_" + std::to_string(i);
      std::filesystem::create_directories(work_dir);
      ImplicationMiningOptions options = imp_;
      options.policy.observe.metrics = &registry;
      ShardOptions s;
      s.worker_binary = DMC_SHARD_WORKER_BIN;
      s.num_workers = 2;
      s.tasks_per_worker = 1;
      auto rules =
          MineImplicationsSharded(input_, options, work_dir, s);
      if (!rules.ok()) {
        errors[i] = rules.status().ToString();
      } else if (rules->rules() != truth_) {
        errors[i] = "rule set diverged from single-process baseline";
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kCoordinators; ++i) {
    EXPECT_TRUE(errors[i].empty()) << "coordinator " << i << ": "
                                   << errors[i];
  }
  // Fleet accounting from all coordinators landed in the one registry.
  EXPECT_GE(registry.counter("dmc.shard.workers_spawned"),
            2u * kCoordinators);
  EXPECT_GE(registry.counter("dmc.shard.worker.tasks_ok"),
            uint64_t{kCoordinators});
}

TEST_F(ShardStressTest, ConcurrentCrashRecoveryStaysExact) {
  constexpr int kCoordinators = 2;
  MetricsRegistry registry;
  std::vector<std::string> errors(kCoordinators);
  std::vector<std::thread> threads;
  for (int i = 0; i < kCoordinators; ++i) {
    threads.emplace_back([&, i] {
      const std::string work_dir = dir_ + "/crash_" + std::to_string(i);
      std::filesystem::create_directories(work_dir);
      ImplicationMiningOptions options = imp_;
      options.policy.observe.metrics = &registry;
      ShardOptions s;
      s.worker_binary = DMC_SHARD_WORKER_BIN;
      s.num_workers = 2;
      s.tasks_per_worker = 2;
      s.max_respawns_per_slot = 1;
      s.spawn_retry.initial_backoff_seconds = 0.001;
      s.spawn_retry.max_backoff_seconds = 0.01;
      s.spawn_retry.max_total_backoff_seconds = 0.05;
      // Odd coordinators run a crashing fleet and must degrade; even
      // ones run clean. Both must land on the identical rule set. The
      // crash hook rides the progress callback — tighten its cadence so
      // it fires within this small matrix.
      if (i % 2 == 1) {
        s.worker_env = {"DMC_SHARD_TEST_CRASH_AFTER_ROWS=5"};
        options.policy.observe.progress_interval_rows = 8;
      }
      auto rules =
          MineImplicationsSharded(input_, options, work_dir, s);
      if (!rules.ok()) {
        errors[i] = rules.status().ToString();
      } else if (rules->rules() != truth_) {
        errors[i] = "rule set diverged from single-process baseline";
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kCoordinators; ++i) {
    EXPECT_TRUE(errors[i].empty()) << "coordinator " << i << ": "
                                   << errors[i];
  }
  EXPECT_GE(registry.counter("dmc.shard.workers_died"), 2u);
}

}  // namespace
}  // namespace shard
}  // namespace dmc
