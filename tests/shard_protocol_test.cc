// Shard wire protocol and per-task checkpoints (src/shard/). Pure
// library tests: every frame round-trips exactly or decodes to
// kInvalidArgument, and every torn checkpoint reads as kDataLoss — the
// invariants the multi-process differential sweep leans on. The merge
// of the task outputs is tested with the rule sets (rule_set_test.cc).

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "shard/shard_checkpoint.h"
#include "shard/shard_protocol.h"
#include "util/random.h"
#include "util/status.h"

namespace dmc {
namespace shard {
namespace {

// Frames carry a u32-LE length prefix; DecodeMessagePayload wants the
// payload alone.
std::string_view PayloadOf(const std::string& frame) {
  EXPECT_GE(frame.size(), 4u);
  return std::string_view(frame).substr(4);
}

ShardPlan SamplePlan() {
  ShardPlan plan;
  plan.engine = Engine::kSimilarities;
  plan.threshold = 0.625;
  plan.policy.row_order = RowOrderPolicy::kDensityBuckets;
  plan.policy.hundred_percent_phase = false;
  plan.policy.bitmap_fallback = true;
  plan.policy.column_density_pruning = false;
  plan.policy.max_hits_pruning = true;
  plan.policy.kernel = MergeKernel::kScalar;
  plan.policy.memory_threshold_bytes = 7777;
  plan.policy.bitmap_max_remaining_rows = 96;
  plan.policy.observe.progress_interval_rows = 512;
  plan.input_path = "/tmp/quest.txt";
  plan.work_dir = "/tmp/work";
  plan.num_columns = 5;  // the decoder insists column_ones covers it
  plan.num_rows = 4242;
  plan.column_ones = {0, 3, 9, 4242, 1u << 20};
  plan.buckets = {0, 2, 5};
  return plan;
}

ShardResult SampleImpResult() {
  ShardResult r;
  r.task_id = 7;
  r.engine = Engine::kImplications;
  r.imp_rules = {{1, 2, 30, 3}, {4, 5, 100, 0}, {9, 0, 12, 1}};
  r.mine_seconds = 1.5;
  r.peak_counter_bytes = 1u << 22;
  return r;
}

ShardResult SampleSimResult() {
  ShardResult r;
  r.task_id = 11;
  r.engine = Engine::kSimilarities;
  r.sim_pairs = {{1, 2, 30, 40, 25}, {3, 8, 12, 12, 12}};
  r.mine_seconds = 0.25;
  r.peak_counter_bytes = 512;
  return r;
}

TEST(ShardProtocolTest, HelloAndShutdownRoundTrip) {
  auto hello = DecodeMessagePayload(PayloadOf(EncodeHello()));
  ASSERT_TRUE(hello.ok());
  EXPECT_EQ(hello->op, Op::kHello);

  auto bye = DecodeMessagePayload(PayloadOf(EncodeShutdown()));
  ASSERT_TRUE(bye.ok());
  EXPECT_EQ(bye->op, Op::kShutdown);
}

TEST(ShardProtocolTest, InitRoundTripPreservesEveryPlanField) {
  const ShardPlan plan = SamplePlan();
  auto msg = DecodeMessagePayload(PayloadOf(EncodeInit(plan)));
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg->op, Op::kInit);
  const ShardPlan& p = msg->plan;
  EXPECT_EQ(p.engine, plan.engine);
  EXPECT_EQ(p.threshold, plan.threshold);
  EXPECT_EQ(p.policy.row_order, plan.policy.row_order);
  EXPECT_EQ(p.policy.hundred_percent_phase, plan.policy.hundred_percent_phase);
  EXPECT_EQ(p.policy.bitmap_fallback, plan.policy.bitmap_fallback);
  EXPECT_EQ(p.policy.column_density_pruning,
            plan.policy.column_density_pruning);
  EXPECT_EQ(p.policy.max_hits_pruning, plan.policy.max_hits_pruning);
  EXPECT_EQ(p.policy.kernel, plan.policy.kernel);
  EXPECT_EQ(p.policy.memory_threshold_bytes,
            plan.policy.memory_threshold_bytes);
  EXPECT_EQ(p.policy.bitmap_max_remaining_rows,
            plan.policy.bitmap_max_remaining_rows);
  EXPECT_EQ(p.policy.observe.progress_interval_rows,
            plan.policy.observe.progress_interval_rows);
  EXPECT_EQ(p.input_path, plan.input_path);
  EXPECT_EQ(p.work_dir, plan.work_dir);
  EXPECT_EQ(p.num_columns, plan.num_columns);
  EXPECT_EQ(p.num_rows, plan.num_rows);
  EXPECT_EQ(p.column_ones, plan.column_ones);
  EXPECT_EQ(p.buckets, plan.buckets);
}

TEST(ShardProtocolTest, TaskRoundTripPreservesMask) {
  const std::vector<uint8_t> mask = {1, 0, 0, 1, 1, 0, 1};
  auto msg = DecodeMessagePayload(PayloadOf(EncodeTask(42, mask)));
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg->op, Op::kTask);
  EXPECT_EQ(msg->task_id, 42u);
  EXPECT_EQ(msg->shard_mask, mask);
}

TEST(ShardProtocolTest, HeartbeatRoundTrip) {
  auto msg = DecodeMessagePayload(
      PayloadOf(EncodeHeartbeat(3, uint64_t{1} << 40)));
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg->op, Op::kHeartbeat);
  EXPECT_EQ(msg->task_id, 3u);
  EXPECT_EQ(msg->rows_processed, uint64_t{1} << 40);
}

TEST(ShardProtocolTest, ResultRoundTripBothEngines) {
  for (const ShardResult& r : {SampleImpResult(), SampleSimResult()}) {
    auto msg = DecodeMessagePayload(PayloadOf(EncodeResult(r)));
    ASSERT_TRUE(msg.ok());
    EXPECT_EQ(msg->op, Op::kResult);
    EXPECT_EQ(msg->result.task_id, r.task_id);
    EXPECT_EQ(msg->result.engine, r.engine);
    EXPECT_EQ(msg->result.imp_rules, r.imp_rules);
    EXPECT_EQ(msg->result.sim_pairs, r.sim_pairs);
    EXPECT_EQ(msg->result.mine_seconds, r.mine_seconds);
    EXPECT_EQ(msg->result.peak_counter_bytes, r.peak_counter_bytes);
  }
}

TEST(ShardProtocolTest, TaskErrorRoundTripKeepsCodeAndMessage) {
  const Status err = DataLossError("bucket 3 went missing");
  auto msg = DecodeMessagePayload(PayloadOf(EncodeTaskError(9, err)));
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg->op, Op::kTaskError);
  EXPECT_EQ(msg->task_id, 9u);
  EXPECT_EQ(msg->task_status.code(), StatusCode::kDataLoss);
  EXPECT_NE(msg->task_status.message().find("bucket 3"),
            std::string::npos);
}

TEST(ShardProtocolTest, EveryTruncationOfEveryOpIsInvalidArgument) {
  const std::string frames[] = {
      EncodeHello(),
      EncodeInit(SamplePlan()),
      EncodeTask(1, {1, 0, 1}),
      EncodeHeartbeat(2, 77),
      EncodeResult(SampleImpResult()),
      EncodeResult(SampleSimResult()),
      EncodeTaskError(3, IOError("boom")),
      EncodeShutdown(),
  };
  for (const std::string& frame : frames) {
    const std::string_view payload = PayloadOf(frame);
    for (size_t len = 0; len < payload.size(); ++len) {
      auto msg = DecodeMessagePayload(payload.substr(0, len));
      EXPECT_FALSE(msg.ok()) << "truncation to " << len << " of "
                             << payload.size() << " decoded";
      if (!msg.ok()) {
        EXPECT_EQ(msg.status().code(), StatusCode::kInvalidArgument);
      }
    }
  }
}

TEST(ShardProtocolTest, TrailingGarbageIsInvalidArgument) {
  std::string frame = EncodeHeartbeat(1, 2);
  std::string payload(PayloadOf(frame));
  payload.push_back('\0');
  auto msg = DecodeMessagePayload(payload);
  ASSERT_FALSE(msg.ok());
  EXPECT_EQ(msg.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardProtocolTest, VersionSkewAndUnknownOpAreRejected) {
  // Payload header: u16 version, u8 op, u8 reserved.
  std::string payload(PayloadOf(EncodeHello()));
  payload[0] = static_cast<char>(kShardProtocolVersion + 1);
  auto skew = DecodeMessagePayload(payload);
  ASSERT_FALSE(skew.ok());
  EXPECT_EQ(skew.status().code(), StatusCode::kInvalidArgument);

  std::string bad_op(PayloadOf(EncodeHello()));
  bad_op[2] = static_cast<char>(0xEE);
  auto unknown = DecodeMessagePayload(bad_op);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardProtocolTest, OutOfRangeInitEnumsAreRejected) {
  // kInit layout: 4-byte header, u8 engine, f64 threshold, u8 row_order,
  // four u8 policy flags, u8 kernel. A worker casts these bytes straight
  // to Engine, RowOrderPolicy and MergeKernel, so any value outside the
  // enums must bounce off the decoder.
  const std::string init(PayloadOf(EncodeInit(SamplePlan())));
  ASSERT_TRUE(DecodeMessagePayload(init).ok());
  const struct {
    size_t offset;
    uint8_t first_bad;
  } kFields[] = {{4, 2}, {13, 3}, {18, 4}};
  for (const auto& field : kFields) {
    for (const uint8_t bad : {field.first_bad, uint8_t{7}, uint8_t{0xFF}}) {
      std::string payload = init;
      payload[field.offset] = static_cast<char>(bad);
      auto msg = DecodeMessagePayload(payload);
      ASSERT_FALSE(msg.ok()) << "offset " << field.offset << " byte "
                             << int{bad};
      EXPECT_EQ(msg.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(ShardProtocolTest, HostileCountsAreRejectedBeforeAllocation) {
  // kTask layout: 4-byte header, u32 task_id, u32 mask_len, mask bytes.
  // A 16-byte frame announcing a 4 GiB mask must bounce off the bounds
  // check, not size a vector.
  std::string payload(PayloadOf(EncodeTask(1, {1, 0, 1})));
  const uint32_t huge = 0xFFFFFFFFu;
  payload.replace(8, 4, reinterpret_cast<const char*>(&huge), 4);
  auto msg = DecodeMessagePayload(payload);
  ASSERT_FALSE(msg.ok());
  EXPECT_EQ(msg.status().code(), StatusCode::kInvalidArgument);

  // Same for a kResult rule count: 4-byte header + u32 task_id +
  // u8 engine + f64 + u64 puts the count at offset 25.
  std::string rp(PayloadOf(EncodeResult(SampleImpResult())));
  rp.replace(25, 4, reinterpret_cast<const char*>(&huge), 4);
  auto rmsg = DecodeMessagePayload(rp);
  ASSERT_FALSE(rmsg.ok());
  EXPECT_EQ(rmsg.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// Per-task checkpoints.

class ShardCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = testing::TempDir() + "/" +
           std::string(info->test_suite_name()) + "_" + info->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string ReadAll(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }
  void WriteAll(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string dir_;
};

TEST_F(ShardCheckpointTest, RoundTripPreservesResultAndFingerprint) {
  const std::string path = ShardCheckpointPath(dir_, 7);
  const ShardResult want = SampleImpResult();
  ASSERT_TRUE(WriteShardCheckpoint(want, 0xDEADBEEFu, path).ok());
  auto got = ReadShardCheckpoint(path);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->fingerprint, 0xDEADBEEFu);
  EXPECT_EQ(got->result.task_id, want.task_id);
  EXPECT_EQ(got->result.engine, want.engine);
  EXPECT_EQ(got->result.imp_rules, want.imp_rules);

  const ShardResult sim = SampleSimResult();
  const std::string sim_path = ShardCheckpointPath(dir_, 11);
  ASSERT_TRUE(WriteShardCheckpoint(sim, 1, sim_path).ok());
  auto sim_got = ReadShardCheckpoint(sim_path);
  ASSERT_TRUE(sim_got.ok());
  EXPECT_EQ(sim_got->result.sim_pairs, sim.sim_pairs);
}

TEST_F(ShardCheckpointTest, MissingFileIsIOError) {
  auto got = ReadShardCheckpoint(dir_ + "/absent.ckpt");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kIOError);
}

TEST_F(ShardCheckpointTest, EveryTruncationIsDataLoss) {
  const std::string path = ShardCheckpointPath(dir_, 1);
  ASSERT_TRUE(WriteShardCheckpoint(SampleImpResult(), 99, path).ok());
  const std::string bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), 16u);
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteAll(path, bytes.substr(0, len));
    auto got = ReadShardCheckpoint(path);
    ASSERT_FALSE(got.ok()) << "truncation to " << len << " read OK";
    EXPECT_EQ(got.status().code(), StatusCode::kDataLoss);
  }
}

TEST_F(ShardCheckpointTest, BitFlipsAreDataLoss) {
  const std::string path = ShardCheckpointPath(dir_, 1);
  ASSERT_TRUE(WriteShardCheckpoint(SampleSimResult(), 99, path).ok());
  const std::string bytes = ReadAll(path);
  Rng rng(0x5AD);
  for (int trial = 0; trial < 64; ++trial) {
    std::string corrupt = bytes;
    const size_t pos = rng.Uniform(corrupt.size());
    corrupt[pos] = static_cast<char>(
        corrupt[pos] ^ (1 << rng.Uniform(8)));
    if (corrupt == bytes) continue;
    WriteAll(path, corrupt);
    auto got = ReadShardCheckpoint(path);
    ASSERT_FALSE(got.ok()) << "bit flip at byte " << pos << " read OK";
    EXPECT_EQ(got.status().code(), StatusCode::kDataLoss);
  }
}

TEST_F(ShardCheckpointTest, FutureVersionIsDataLoss) {
  const std::string path = ShardCheckpointPath(dir_, 1);
  ASSERT_TRUE(WriteShardCheckpoint(SampleImpResult(), 99, path).ok());
  std::string bytes = ReadAll(path);
  // u32 version lives at offset 8, after the 8-byte magic.
  bytes[8] = 2;
  WriteAll(path, bytes);
  auto got = ReadShardCheckpoint(path);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDataLoss);
}

TEST(TaskFingerprintTest, EveryConfigInputChangesTheFingerprint) {
  const FileFingerprint input{1234, 0xABCD};
  const std::vector<uint8_t> mask = {1, 0, 1, 1};
  const uint64_t base = TaskFingerprint(input, Engine::kImplications,
                                        0.9, 4, mask, 0);

  FileFingerprint other_input{1234, 0xABCE};
  EXPECT_NE(base, TaskFingerprint(other_input, Engine::kImplications,
                                  0.9, 4, mask, 0));
  EXPECT_NE(base, TaskFingerprint(input, Engine::kSimilarities, 0.9, 4,
                                  mask, 0));
  EXPECT_NE(base, TaskFingerprint(input, Engine::kImplications, 0.91, 4,
                                  mask, 0));
  EXPECT_NE(base, TaskFingerprint(input, Engine::kImplications, 0.9, 5,
                                  mask, 0));
  std::vector<uint8_t> other_mask = {1, 1, 1, 1};
  EXPECT_NE(base, TaskFingerprint(input, Engine::kImplications, 0.9, 4,
                                  other_mask, 0));
  EXPECT_NE(base, TaskFingerprint(input, Engine::kImplications, 0.9, 4,
                                  mask, 1));
  // And it is a pure function: same inputs, same hash.
  EXPECT_EQ(base, TaskFingerprint(input, Engine::kImplications, 0.9, 4,
                                  mask, 0));
}

}  // namespace
}  // namespace shard
}  // namespace dmc
