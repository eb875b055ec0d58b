// Differential fault-injection sweep: enumerate every live failpoint
// site via a record-only run, then force each one and prove the
// robustness contract — a faulted run either fails with a clean Status
// (leaving no partial artifacts) or recovers and produces *exactly* the
// fault-free rule set. Plus the kill-between-passes / --resume
// exactness check for the external miner's checkpoint.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/engine.h"
#include "core/external_miner.h"
#include "core/parallel_dmc.h"
#include "incr/incr_miner.h"
#include "matrix/binary_matrix.h"
#include "matrix/matrix_io.h"
#include "matrix/row_order.h"
#include "observe/metrics.h"
#include "util/checksum.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace dmc {
namespace {

BinaryMatrix TestMatrix() {
  Rng rng(0xFA17);
  MatrixBuilder b(12);
  std::vector<ColumnId> row;
  for (uint32_t r = 0; r < 80; ++r) {
    row.clear();
    for (ColumnId c = 0; c < 12; ++c) {
      if (rng.Bernoulli(0.25)) row.push_back(c);
    }
    // A planted implication: column 1 always accompanies column 0.
    if (!row.empty() && row[0] == 0) row.insert(row.begin() + 1, 1);
    b.AddRow(row);
  }
  return b.Build();
}

bool NoBucketFilesLeft(const std::string& dir) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("dmc_bucket_", 0) == 0) return false;
  }
  return true;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// Overwrites `path` in place, keeping its size.
void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs each case as its own parallel process; a per-case
    // directory keeps them from clobbering each other.
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = testing::TempDir() + "/" +
           std::string(info->test_suite_name()) + "_" + info->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    input_ = dir_ + "/input.txt";
    const BinaryMatrix m = TestMatrix();
    ASSERT_TRUE(WriteMatrixTextFile(m, input_).ok());
    options_.min_confidence = 0.9;
    options_.policy.row_order = RowOrderPolicy::kDensityBuckets;
    auto truth = MineImplications(m, options_);
    ASSERT_TRUE(truth.ok());
    truth_ = truth->Pairs();
    ASSERT_FALSE(truth_.empty());
  }
  void TearDown() override {
    fail::Disable();
    std::filesystem::remove_all(dir_);
  }

  std::string dir_;
  std::string input_;
  ImplicationMiningOptions options_;
  std::vector<std::pair<ColumnId, ColumnId>> truth_;
};

// The heart of the PR: for every site the external pipeline actually
// hits, under several fault modes, the result is all-or-nothing.
TEST_F(FaultInjectionTest, ExternalSweepFailsCleanlyOrMatchesExactly) {
  // Pass 1 of the sweep: record-only run to enumerate live sites.
  ASSERT_TRUE(fail::Configure("").ok());
  {
    auto rules = MineImplicationsFromFile(input_, options_, dir_);
    ASSERT_TRUE(rules.ok());
    ASSERT_EQ(rules->Pairs(), truth_);
  }
  const std::vector<std::string> sites = fail::SitesSeen();
  fail::Disable();
  // The pipeline must expose at least its structural sites; a refactor
  // that silently drops one weakens the sweep.
  for (const char* expected :
       {"external.pass1.open", "external.partition.open",
        "external.spill.write", "external.replay.open",
        "matrix.text.row", "streaming.imp.row"}) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), expected), sites.end())
        << "site not seen: " << expected;
  }

  for (const std::string& site : sites) {
    for (const char* arm : {"=error", "=error@1", "=enospc@2",
                            "=dataloss@1", "=error@p0.3;seed=9"}) {
      ASSERT_TRUE(fail::Configure(site + arm).ok());
      ExternalMiningStats stats;
      auto rules = MineImplicationsFromFile(input_, options_, dir_,
                                            ExternalIoOptions{}, &stats);
      const uint64_t fires = fail::TotalFires();
      fail::Disable();
      if (rules.ok()) {
        EXPECT_EQ(rules->Pairs(), truth_) << site << arm;
      } else {
        EXPECT_GT(fires, 0u) << site << arm;
        EXPECT_FALSE(rules.status().message().empty()) << site << arm;
      }
      // Win or lose, a non-checkpointed run cleans up its spill files.
      EXPECT_TRUE(NoBucketFilesLeft(dir_)) << site << arm;
    }
  }
}

// A transient open failure is absorbed by the retry policy: the run
// succeeds, reports the retry, and the rules are exact.
TEST_F(FaultInjectionTest, TransientOpenFaultIsRetriedToExactness) {
  MetricsRegistry registry;
  ImplicationMiningOptions options = options_;
  options.policy.observe.metrics = &registry;
  ASSERT_TRUE(fail::Configure("external.pass1.open=error@1").ok());
  ExternalMiningStats stats;
  auto rules = MineImplicationsFromFile(input_, options, dir_,
                                        ExternalIoOptions{}, &stats);
  fail::Disable();
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  EXPECT_EQ(rules->Pairs(), truth_);
  EXPECT_GE(stats.io_retries, 1u);
  EXPECT_GE(registry.counter("dmc.faults.injected"), 1u);
  EXPECT_GE(registry.counter("dmc.faults.retried"), 1u);
  EXPECT_GE(registry.counter("dmc.faults.recovered"), 1u);
}

// A persistent fault exhausts the bounded retries and surfaces.
TEST_F(FaultInjectionTest, PersistentFaultExhaustsRetriesAndSurfaces) {
  ASSERT_TRUE(fail::Configure("external.pass1.open=enospc").ok());
  ExternalIoOptions io;
  io.retry.max_attempts = 2;
  io.retry.initial_backoff_seconds = 0.0;
  ExternalMiningStats stats;
  auto rules =
      MineImplicationsFromFile(input_, options_, dir_, io, &stats);
  fail::Disable();
  ASSERT_FALSE(rules.ok());
  EXPECT_EQ(rules.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(fail::IsInjectedFault(rules.status()));
  EXPECT_EQ(stats.io_retries, 1u);
}

// Simulated kill between pass 1 and pass 2: the first run checkpoints,
// then dies replaying (a persistent fault stands in for SIGKILL). The
// checkpoint and bucket files survive, and a --resume run skips pass 1
// and reproduces the fault-free rule set bit-for-bit.
TEST_F(FaultInjectionTest, KillBetweenPassesThenResumeIsExact) {
  const std::string ckpt = dir_ + "/ckpt.bin";
  ExternalIoOptions io;
  io.checkpoint_path = ckpt;
  io.retry.max_attempts = 1;
  io.retry.initial_backoff_seconds = 0.0;

  ASSERT_TRUE(fail::Configure("external.replay.open=error").ok());
  auto crashed = MineImplicationsFromFile(input_, options_, dir_, io);
  fail::Disable();
  ASSERT_FALSE(crashed.ok());
  ASSERT_TRUE(std::filesystem::exists(ckpt));
  ASSERT_FALSE(NoBucketFilesLeft(dir_));

  io.resume = true;
  ExternalMiningStats stats;
  auto resumed =
      MineImplicationsFromFile(input_, options_, dir_, io, &stats);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(stats.resumed);
  EXPECT_EQ(resumed->Pairs(), truth_);
}

// Resume must refuse a stale checkpoint: if the input changed after the
// crash, the run silently falls back to a fresh pass 1 and still mines
// the *new* input correctly.
TEST_F(FaultInjectionTest, ResumeWithChangedInputFallsBackToFreshRun) {
  const std::string ckpt = dir_ + "/ckpt.bin";
  ExternalIoOptions io;
  io.checkpoint_path = ckpt;
  {
    auto first = MineImplicationsFromFile(input_, options_, dir_, io);
    ASSERT_TRUE(first.ok());
  }
  // Grow the input; the old checkpoint no longer describes it.
  Rng rng(0x5EED);
  MatrixBuilder b(12);
  for (uint32_t r = 0; r < 40; ++r) {
    std::vector<ColumnId> row;
    for (ColumnId c = 0; c < 12; ++c) {
      if (rng.Bernoulli(0.4)) row.push_back(c);
    }
    b.AddRow(row);
  }
  const BinaryMatrix changed = b.Build();
  ASSERT_TRUE(WriteMatrixTextFile(changed, input_).ok());
  auto fresh_truth = MineImplications(changed, options_);
  ASSERT_TRUE(fresh_truth.ok());

  io.resume = true;
  ExternalMiningStats stats;
  auto resumed =
      MineImplicationsFromFile(input_, options_, dir_, io, &stats);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_FALSE(stats.resumed);
  EXPECT_EQ(resumed->Pairs(), fresh_truth->Pairs());
}

// A valid checkpoint naming a bucket file that was truncated after the
// crash must degrade to a fresh run (never mine the torn bucket), and
// the fresh run must still be exact.
TEST_F(FaultInjectionTest, ResumeWithTruncatedBucketFallsBackToFreshRun) {
  const std::string ckpt = dir_ + "/ckpt.bin";
  ExternalIoOptions io;
  io.checkpoint_path = ckpt;
  {
    auto first = MineImplicationsFromFile(input_, options_, dir_, io);
    ASSERT_TRUE(first.ok());
  }
  // Truncate the first surviving bucket file to half its size.
  std::string bucket;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("dmc_bucket_", 0) == 0) {
      bucket = entry.path().string();
      break;
    }
  }
  ASSERT_FALSE(bucket.empty());
  const auto size = std::filesystem::file_size(bucket);
  ASSERT_GT(size, 1u);
  std::filesystem::resize_file(bucket, size / 2);

  io.resume = true;
  ExternalMiningStats stats;
  auto resumed =
      MineImplicationsFromFile(input_, options_, dir_, io, &stats);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_FALSE(stats.resumed);
  EXPECT_EQ(resumed->Pairs(), truth_);
}

// A checkpoint written by a future build (higher schema version, valid
// structure) must be refused and degrade to a fresh, exact run.
TEST_F(FaultInjectionTest, ResumeWithFutureVersionFallsBackToFreshRun) {
  const std::string ckpt = dir_ + "/ckpt.bin";
  ExternalIoOptions io;
  io.checkpoint_path = ckpt;
  {
    auto first = MineImplicationsFromFile(input_, options_, dir_, io);
    ASSERT_TRUE(first.ok());
  }
  // Bump the version field and re-seal the trailing FNV-1a checksum (8
  // bytes before the end magic) so only the version check stands between
  // resume and a misparse.
  std::string bytes = ReadBytes(ckpt);
  ASSERT_GT(bytes.size(), 12u);
  const uint32_t future = kCheckpointVersion + 1;
  std::memcpy(bytes.data() + 8, &future, sizeof(future));
  const uint64_t h = Fnv1a(bytes.data(), bytes.size() - 12);
  std::memcpy(bytes.data() + bytes.size() - 12, &h, sizeof(h));
  WriteBytes(ckpt, bytes);

  io.resume = true;
  ExternalMiningStats stats;
  auto resumed =
      MineImplicationsFromFile(input_, options_, dir_, io, &stats);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_FALSE(stats.resumed);
  EXPECT_EQ(resumed->Pairs(), truth_);
}

// A bucket damaged after the checkpoint but still its old size (here one
// payload byte of its first block) must not be resumed: resume reads
// every spill back, so the run falls back to a fresh, exact one.
TEST_F(FaultInjectionTest, ResumeWithDamagedBucketOfTheSameSizeFallsBack) {
  const std::string ckpt = dir_ + "/ckpt.bin";
  ExternalIoOptions io;
  io.checkpoint_path = ckpt;
  {
    auto first = MineImplicationsFromFile(input_, options_, dir_, io);
    ASSERT_TRUE(first.ok());
  }
  std::string bucket;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("dmc_bucket_", 0) == 0) {
      bucket = entry.path().string();
      break;
    }
  }
  ASSERT_FALSE(bucket.empty());
  std::string bytes = ReadBytes(bucket);
  const size_t first_payload_byte = 8 + 16;  // after magic + block header
  ASSERT_GT(bytes.size(), first_payload_byte + 16);
  bytes[first_payload_byte] ^= 0x01;
  WriteBytes(bucket, bytes);

  io.resume = true;
  ExternalMiningStats stats;
  auto resumed =
      MineImplicationsFromFile(input_, options_, dir_, io, &stats);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_FALSE(stats.resumed);
  EXPECT_EQ(resumed->Pairs(), truth_);
}

// A worker replaying a bucket spill damaged after pass 1 (no checkpoint
// involved) stops at the damaged block with kDataLoss naming the file
// and byte offset; none of that block's rows reaches the scan.
TEST_F(FaultInjectionTest, DamagedSpillNeverReachesTheScan) {
  ExternalIoOptions keep;
  keep.keep_artifacts = true;
  ExternalInput prepared(input_, dir_, /*bucketed=*/true, keep,
                         ObserveContext{}, nullptr);
  ASSERT_TRUE(prepared.Prepare().ok());
  ASSERT_GE(prepared.buckets().size(), 2u);
  const int densest = prepared.buckets().back();
  const std::string bucket = ExternalBucketPath(dir_, densest);
  std::string bytes = ReadBytes(bucket);
  bytes[bytes.size() / 2] ^= 0x20;
  WriteBytes(bucket, bytes);

  ExternalInput worker(input_, dir_, /*bucketed=*/true, ExternalIoOptions{},
                       ObserveContext{}, nullptr);
  worker.AdoptPlan(prepared.first_pass(), prepared.buckets());
  uint64_t rows = 0;
  const Status replayed = worker.Replay(
      [&](std::span<const ColumnId> row) {
        ++rows;
        EXPECT_LT(DensityBucket(row.size()), densest);
      },
      "streaming.imp.row");
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.code(), StatusCode::kDataLoss);
  EXPECT_NE(replayed.message().find(bucket), std::string::npos) << replayed;
  EXPECT_NE(replayed.message().find("at byte "), std::string::npos)
      << replayed;
  EXPECT_LT(rows, prepared.first_pass().num_rows);
}

// Parallel miner: the caller mines what a thread cannot run. A shard
// whose thread fails to start (parallel.thread.start stands in for the
// std::system_error std::thread throws under a thread or pid limit) is
// mined on the calling thread after the join, and the rules stay exact.
TEST_F(FaultInjectionTest, ParallelShardFaultsAreContained) {
  const BinaryMatrix m = TestMatrix();
  auto serial = MineImplications(m, options_);
  ASSERT_TRUE(serial.ok());
  ParallelOptions par;
  par.num_threads = 3;

  {
    // The second of three threads does not start.
    ASSERT_TRUE(fail::Configure("parallel.thread.start=error@2").ok());
    ParallelMiningStats stats;
    auto rules = MineImplicationsParallel(m, options_, par, &stats);
    fail::Disable();
    ASSERT_TRUE(rules.ok()) << rules.status().ToString();
    EXPECT_EQ(rules->rules(), serial->rules());
    EXPECT_EQ(rules->Pairs(), truth_);
    EXPECT_EQ(stats.shards_degraded, 1u);
    EXPECT_EQ(stats.shards_failed, 0u);
  }
  {
    // No thread starts: every shard is mined on the calling thread.
    ASSERT_TRUE(fail::Configure("parallel.thread.start=error").ok());
    ParallelMiningStats stats;
    auto rules = MineImplicationsParallel(m, options_, par, &stats);
    fail::Disable();
    ASSERT_TRUE(rules.ok()) << rules.status().ToString();
    EXPECT_EQ(rules->rules(), serial->rules());
    EXPECT_EQ(stats.shards_degraded, 3u);
    EXPECT_EQ(stats.shards_failed, 0u);
  }
}

// The records of either rule kind, by value, for exact comparison.
std::vector<ImplicationRule> Items(const ImplicationRuleSet& rules) {
  return rules.rules();
}
std::vector<SimilarityPair> Items(const SimilarityRuleSet& pairs) {
  return pairs.pairs();
}

// Incremental fault arm: drive a windowed miner of each rule kind
// through an append/evict schedule with faults forced at the
// incr.append or incr.evict site. After every op, faulted or not, the
// rule set must be exactly a fresh mine of the rows the miner actually
// holds — a fault may abort an append, an evict or the auto-slide half
// of an append, but it must never leave a corrupted window.
template <typename Kind>
void WindowFaultLeavesExactWindow(double threshold, const char* arm) {
  SCOPED_TRACE(std::string(Kind::kName) + " " + arm);
  Rng rng(0xE71C);
  std::vector<std::vector<ColumnId>> feed;
  for (int r = 0; r < 120; ++r) {
    std::vector<ColumnId> row;
    for (ColumnId c = 0; c < 10; ++c) {
      if (rng.Bernoulli(0.3)) row.push_back(c);
    }
    feed.push_back(std::move(row));
  }
  typename Kind::Options o;
  o.*Kind::kThreshold = threshold;

  const auto fresh_rules =
      [&o](const std::vector<std::vector<ColumnId>>& rows) {
        auto mined = MineMatrix<Kind>(BinaryMatrix::FromRows(10, rows), o,
                                      nullptr, nullptr);
        EXPECT_TRUE(mined.ok());
        typename Kind::RuleSet out =
            mined.ok() ? std::move(*mined) : typename Kind::RuleSet();
        out.Canonicalize();
        return Items(out);
      };

  ASSERT_TRUE(fail::Configure(arm).ok());
  IncrementalMiner<Kind> miner(o, 30);
  // Rows successfully appended, in feed order; a batch whose append
  // faulted before absorbing anything is dropped.
  std::vector<std::vector<ColumnId>> absorbed;
  size_t pos = 0;
  int op = 0;
  bool saw_fault = false;
  while (pos < feed.size()) {
    const uint64_t rows_before = miner.num_rows();
    Status st = Status::OK();
    size_t n = 0;
    if (op % 3 == 2 && miner.num_rows() >= 7) {
      st = miner.EvictBatch(7);
    } else {
      n = std::min<size_t>(10, feed.size() - pos);
      st = miner.AppendBatch(BinaryMatrix::FromRows(
          10, std::vector<std::vector<ColumnId>>(feed.begin() + pos,
                                                 feed.begin() + pos + n)));
    }
    ++op;
    if (!st.ok()) {
      saw_fault = true;
      EXPECT_TRUE(fail::IsInjectedFault(st));
    }
    // A faulted windowed append may have absorbed its rows and failed
    // only in the auto-slide; the row count says which.
    if (n > 0 && (st.ok() || miner.num_rows() == rows_before + n)) {
      absorbed.insert(absorbed.end(), feed.begin() + pos,
                      feed.begin() + pos + n);
    }
    pos += n;
    // The contract: the miner holds exactly the newest num_rows() of
    // the absorbed feed, mined exactly.
    ASSERT_LE(miner.num_rows(), absorbed.size());
    const std::vector<std::vector<ColumnId>> held(
        absorbed.end() - miner.num_rows(), absorbed.end());
    ASSERT_EQ(Items(miner.rules()), fresh_rules(held)) << " op=" << op;
  }
  const uint64_t fires = fail::TotalFires();
  fail::Disable();
  EXPECT_EQ(saw_fault, fires > 0);
}

TEST_F(FaultInjectionTest, WindowEvictFaultLeavesExactWindowOrFailsCleanly) {
  for (const char* site : {"incr.evict", "incr.append"}) {
    for (const char* mode : {"=error@1", "=enospc@2", "=dataloss@3",
                             "=error@5", "=error@p0.4;seed=7", "=error"}) {
      const std::string arm = std::string(site) + mode;
      WindowFaultLeavesExactWindow<ImplicationKind>(0.85, arm.c_str());
      WindowFaultLeavesExactWindow<SimilarityKind>(0.3, arm.c_str());
    }
  }
}

// Streaming row faults surface from Finish() as the injected status —
// never as a truncated rule set. The external miner streams every row
// through the site, so a mid-stream fault is guaranteed to fire.
TEST_F(FaultInjectionTest, StreamingRowFaultSurfaces) {
  ASSERT_TRUE(fail::Configure("streaming.imp.row=dataloss@17").ok());
  auto rules = MineImplicationsFromFile(input_, options_, dir_);
  const uint64_t fires = fail::TotalFires();
  fail::Disable();
  ASSERT_FALSE(rules.ok());
  EXPECT_EQ(rules.status().code(), StatusCode::kDataLoss);
  EXPECT_TRUE(fail::IsInjectedFault(rules.status()));
  EXPECT_EQ(fires, 1u);
  EXPECT_TRUE(NoBucketFilesLeft(dir_));
}

}  // namespace
}  // namespace dmc
