// Format fixtures: every binary writer must reproduce, byte for byte, the
// file committed for it under tests/testdata/formats/, and every reader
// must decode that file back to the values it was written from.
//
// Round-trip tests alone still pass when a writer and its reader drift
// together; these pin the layouts themselves, so a file or frame written
// by an older build keeps loading. The fixtures cover the four sealed
// files (external checkpoint, shard checkpoint per rule kind, rule-index
// snapshot, binary matrix) and the frames that carry rule records (a
// serve rules reply, a shard kInit, a shard kResult per rule kind).
//
// To regenerate them after an intentional format change (which also
// bumps that format's version), run this binary with UPDATE_GOLDENS=1.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "matrix/matrix_io.h"
#include "rules/rule_index.h"
#include "serve/protocol.h"
#include "shard/shard_checkpoint.h"
#include "shard/shard_protocol.h"

namespace dmc {
namespace {

std::string FixturePath(const std::string& name) {
  return std::string(DMC_TESTDATA_DIR) + "/formats/" + name;
}

bool UpdateGoldens() {
  const char* env = std::getenv("UPDATE_GOLDENS");
  return env != nullptr && std::string(env) == "1";
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Compares a writer's output with the named fixture, or replaces the
// fixture with it under UPDATE_GOLDENS=1.
void ExpectFixture(const std::string& name, const std::string& bytes) {
  const std::string path = FixturePath(name);
  if (UpdateGoldens()) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    return;
  }
  const std::string want = ReadFile(path);
  ASSERT_FALSE(want.empty()) << "missing fixture " << path;
  size_t first_diff = 0;
  while (first_diff < want.size() && first_diff < bytes.size() &&
         want[first_diff] == bytes[first_diff]) {
    ++first_diff;
  }
  EXPECT_TRUE(bytes == want)
      << name << ": the writer's " << bytes.size() << " bytes differ from the "
      << want.size() << "-byte fixture at byte " << first_diff;
}

// The writers that go through a path write into a per-case directory
// (ctest runs each case as its own process), removed afterwards.
class FormatFixtureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = testing::TempDir() + "/FormatFixtureTest_" + info->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string ScratchPath(const std::string& name) const {
    return dir_ + "/" + name;
  }

  std::string dir_;
};

std::vector<ImplicationRule> SampleRules() {
  return {{0, 3, 10, 0}, {0, 5, 10, 2}, {2, 1, 7, 1}, {4, 0, 65536, 9}};
}

std::vector<SimilarityPair> SamplePairs() {
  return {{1, 2, 30, 40, 25}, {3, 8, 12, 12, 12}, {6, 7, 9, 70000, 5}};
}

ExternalCheckpoint SampleCheckpoint() {
  ExternalCheckpoint cp;
  cp.input = {4096, 0x0123456789ABCDEFull};
  cp.bucketed = true;
  cp.num_columns = 5;
  cp.num_rows = 12;
  cp.column_ones = {3, 0, 7, 12, 1};
  cp.buckets.push_back({1, 4, 40, 0x1111222233334444ull});
  cp.buckets.push_back({3, 8, 96, 0x5555666677778888ull});
  return cp;
}

shard::ShardResult SampleImpResult() {
  shard::ShardResult r;
  r.task_id = 3;
  r.engine = shard::Engine::kImplications;
  r.imp_rules = SampleRules();
  r.mine_seconds = 1.5;
  r.peak_counter_bytes = 1u << 22;
  return r;
}

shard::ShardResult SampleSimResult() {
  shard::ShardResult r;
  r.task_id = 4;
  r.engine = shard::Engine::kSimilarities;
  r.sim_pairs = SamplePairs();
  r.mine_seconds = 0.25;
  r.peak_counter_bytes = 512;
  return r;
}

shard::ShardPlan SamplePlan() {
  shard::ShardPlan plan;
  plan.engine = shard::Engine::kSimilarities;
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
  plan.input_path = "quest.txt";
  plan.work_dir = "work";
  plan.num_columns = 5;
  plan.num_rows = 4242;
  plan.column_ones = {0, 3, 9, 4242, 1u << 20};
  plan.buckets = {0, 2, 5};
  return plan;
}

// Frames carry a u32 length prefix; the decoders want the payload alone.
std::string_view PayloadOf(const std::string& frame) {
  EXPECT_GE(frame.size(), 4u);
  return std::string_view(frame).substr(4);
}

TEST_F(FormatFixtureTest, ExternalCheckpoint) {
  const ExternalCheckpoint cp = SampleCheckpoint();
  const std::string path = ScratchPath("ckpt.bin");
  ASSERT_TRUE(WriteCheckpointFile(cp, path).ok());
  ExpectFixture("external_checkpoint.bin", ReadFile(path));

  auto read = ReadCheckpointFile(FixturePath("external_checkpoint.bin"));
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_TRUE(read->input == cp.input);
  EXPECT_EQ(read->bucketed, cp.bucketed);
  EXPECT_EQ(read->num_columns, cp.num_columns);
  EXPECT_EQ(read->num_rows, cp.num_rows);
  EXPECT_EQ(read->column_ones, cp.column_ones);
  ASSERT_EQ(read->buckets.size(), cp.buckets.size());
  for (size_t i = 0; i < cp.buckets.size(); ++i) {
    EXPECT_EQ(read->buckets[i].id, cp.buckets[i].id);
    EXPECT_EQ(read->buckets[i].rows, cp.buckets[i].rows);
    EXPECT_EQ(read->buckets[i].bytes, cp.buckets[i].bytes);
    EXPECT_EQ(read->buckets[i].digest, cp.buckets[i].digest);
  }
}

TEST_F(FormatFixtureTest, ShardCheckpointBothRuleKinds) {
  const uint64_t fingerprint = 0xFEEDFACECAFEBEEFull;
  for (const shard::ShardResult& want :
       {SampleImpResult(), SampleSimResult()}) {
    const std::string name =
        want.engine == shard::Engine::kImplications
            ? "shard_checkpoint_imp.bin"
            : "shard_checkpoint_sim.bin";
    const std::string path = ScratchPath(name);
    ASSERT_TRUE(shard::WriteShardCheckpoint(want, fingerprint, path).ok());
    ExpectFixture(name, ReadFile(path));

    auto read = shard::ReadShardCheckpoint(FixturePath(name));
    ASSERT_TRUE(read.ok()) << read.status();
    EXPECT_EQ(read->fingerprint, fingerprint);
    EXPECT_EQ(read->result.task_id, want.task_id);
    EXPECT_EQ(read->result.engine, want.engine);
    EXPECT_EQ(read->result.imp_rules, want.imp_rules);
    EXPECT_EQ(read->result.sim_pairs, want.sim_pairs);
  }
}

TEST_F(FormatFixtureTest, RuleIndexSnapshot) {
  const auto snap =
      RuleIndexSnapshot::Build(ImplicationRuleSet(SampleRules()), 42);
  ExpectFixture("rule_index.bin", snap->Serialize());

  auto read = RuleIndexSnapshot::Deserialize(
      ReadFile(FixturePath("rule_index.bin")), "fixture");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ((*read)->generation(), 42u);
  EXPECT_EQ((*read)->TopK(0), snap->TopK(0));
}

TEST_F(FormatFixtureTest, BinaryMatrix) {
  const BinaryMatrix m =
      BinaryMatrix::FromRows(6, {{0, 2, 5}, {}, {1}, {0, 1, 2, 3, 4, 5}});
  ExpectFixture("binary_matrix.bin", SerializeMatrixBinary(m));

  auto read = ReadMatrixBinaryFile(FixturePath("binary_matrix.bin"));
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, m);
}

TEST_F(FormatFixtureTest, ServeRulesReply) {
  const std::vector<ImplicationRule> rules = SampleRules();
  ExpectFixture("serve_rules_reply.bin",
                serve::EncodeRulesReply(serve::Op::kTopK, 7, rules));

  const std::string frame = ReadFile(FixturePath("serve_rules_reply.bin"));
  auto reply = serve::DecodeReplyPayload(PayloadOf(frame));
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->op, serve::Op::kTopK);
  EXPECT_TRUE(reply->status.ok());
  EXPECT_EQ(reply->generation, 7u);
  EXPECT_EQ(reply->rules, rules);
}

TEST_F(FormatFixtureTest, ShardInit) {
  const shard::ShardPlan want = SamplePlan();
  ExpectFixture("shard_init.bin", shard::EncodeInit(want));

  const std::string frame = ReadFile(FixturePath("shard_init.bin"));
  auto msg = shard::DecodeMessagePayload(PayloadOf(frame));
  ASSERT_TRUE(msg.ok()) << msg.status();
  ASSERT_EQ(msg->op, shard::Op::kInit);
  const shard::ShardPlan& got = msg->plan;
  EXPECT_EQ(got.engine, want.engine);
  EXPECT_EQ(got.threshold, want.threshold);
  EXPECT_EQ(got.policy.row_order, want.policy.row_order);
  EXPECT_EQ(got.policy.hundred_percent_phase,
            want.policy.hundred_percent_phase);
  EXPECT_EQ(got.policy.bitmap_fallback, want.policy.bitmap_fallback);
  EXPECT_EQ(got.policy.column_density_pruning,
            want.policy.column_density_pruning);
  EXPECT_EQ(got.policy.max_hits_pruning, want.policy.max_hits_pruning);
  EXPECT_EQ(got.policy.kernel, want.policy.kernel);
  EXPECT_EQ(got.policy.memory_threshold_bytes,
            want.policy.memory_threshold_bytes);
  EXPECT_EQ(got.policy.bitmap_max_remaining_rows,
            want.policy.bitmap_max_remaining_rows);
  EXPECT_EQ(got.policy.observe.progress_interval_rows,
            want.policy.observe.progress_interval_rows);
  EXPECT_EQ(got.input_path, want.input_path);
  EXPECT_EQ(got.work_dir, want.work_dir);
  EXPECT_EQ(got.num_columns, want.num_columns);
  EXPECT_EQ(got.num_rows, want.num_rows);
  EXPECT_EQ(got.column_ones, want.column_ones);
  EXPECT_EQ(got.buckets, want.buckets);
}

TEST_F(FormatFixtureTest, ShardResultBothRuleKinds) {
  for (const shard::ShardResult& want :
       {SampleImpResult(), SampleSimResult()}) {
    const std::string name = want.engine == shard::Engine::kImplications
                                 ? "shard_result_imp.bin"
                                 : "shard_result_sim.bin";
    ExpectFixture(name, shard::EncodeResult(want));

    const std::string frame = ReadFile(FixturePath(name));
    auto msg = shard::DecodeMessagePayload(PayloadOf(frame));
    ASSERT_TRUE(msg.ok()) << msg.status();
    ASSERT_EQ(msg->op, shard::Op::kResult);
    const shard::ShardResult& got = msg->result;
    EXPECT_EQ(got.task_id, want.task_id);
    EXPECT_EQ(got.engine, want.engine);
    EXPECT_EQ(got.imp_rules, want.imp_rules);
    EXPECT_EQ(got.sim_pairs, want.sim_pairs);
    EXPECT_EQ(got.mine_seconds, want.mine_seconds);
    EXPECT_EQ(got.peak_counter_bytes, want.peak_counter_bytes);
  }
}

}  // namespace
}  // namespace dmc
