// RuleIndex serving layer: query semantics, exact confidence ordering,
// snapshot immutability under Publish, checksummed persistence, failpoint
// behavior, and (under TSan) queries racing snapshot swaps.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "rules/rule_index.h"
#include "util/checksum.h"
#include "util/failpoint.h"

namespace dmc {
namespace {

ImplicationRule MakeRule(ColumnId lhs, ColumnId rhs, uint32_t lhs_ones,
                         uint32_t misses) {
  return ImplicationRule{lhs, rhs, lhs_ones, misses};
}

ImplicationRuleSet SampleRules() {
  ImplicationRuleSet rules;
  rules.Add(MakeRule(0, 1, 10, 0));   // conf 1.0
  rules.Add(MakeRule(0, 2, 10, 2));   // conf 0.8
  rules.Add(MakeRule(0, 3, 10, 1));   // conf 0.9
  rules.Add(MakeRule(1, 2, 20, 4));   // conf 0.8
  rules.Add(MakeRule(2, 1, 5, 1));    // conf 0.8
  rules.Add(MakeRule(3, 1, 8, 0));    // conf 1.0
  return rules;
}

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(HigherConfidenceTest, ExactOrderingAndTies) {
  // 2/3 vs 0.666...: cross-multiplication must get this right where
  // doubles could tie.
  EXPECT_TRUE(HigherConfidence(MakeRule(0, 1, 3, 1),      // 2/3
                               MakeRule(0, 2, 1000000, 333334)));
  // Equal confidence (4/5 == 16/20): falls back to (lhs, rhs) order.
  EXPECT_TRUE(HigherConfidence(MakeRule(1, 2, 5, 1), MakeRule(2, 1, 20, 4)));
  EXPECT_FALSE(HigherConfidence(MakeRule(2, 1, 20, 4), MakeRule(1, 2, 5, 1)));
  // Zero-antecedent rules order as confidence 0, after everything else.
  EXPECT_TRUE(HigherConfidence(MakeRule(5, 6, 4, 3), MakeRule(0, 1, 0, 0)));
  // Malformed (misses > ones) clamps to confidence 0 instead of wrapping.
  EXPECT_FALSE(HigherConfidence(MakeRule(0, 1, 2, 5), MakeRule(5, 6, 4, 3)));
}

TEST(RuleIndexSnapshotTest, QueryByAntecedentSortsByConfidence) {
  const auto snap = RuleIndexSnapshot::Build(SampleRules(), 7);
  EXPECT_EQ(snap->generation(), 7u);
  EXPECT_EQ(snap->size(), 6u);

  const auto from0 = snap->QueryByAntecedent(0);
  ASSERT_EQ(from0.size(), 3u);
  EXPECT_EQ(from0[0], MakeRule(0, 1, 10, 0));
  EXPECT_EQ(from0[1], MakeRule(0, 3, 10, 1));
  EXPECT_EQ(from0[2], MakeRule(0, 2, 10, 2));

  EXPECT_TRUE(snap->QueryByAntecedent(9).empty());
}

TEST(RuleIndexSnapshotTest, QueryByConsequentSortsByConfidence) {
  const auto snap = RuleIndexSnapshot::Build(SampleRules(), 1);
  const auto to1 = snap->QueryByConsequent(1);
  ASSERT_EQ(to1.size(), 3u);
  EXPECT_EQ(to1[0], MakeRule(0, 1, 10, 0));
  EXPECT_EQ(to1[1], MakeRule(3, 1, 8, 0));
  EXPECT_EQ(to1[2], MakeRule(2, 1, 5, 1));
  EXPECT_TRUE(snap->QueryByConsequent(0).empty());
}

TEST(RuleIndexSnapshotTest, TopKGlobalOrder) {
  const auto snap = RuleIndexSnapshot::Build(SampleRules(), 1);
  const auto top2 = snap->TopK(2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0], MakeRule(0, 1, 10, 0));
  EXPECT_EQ(top2[1], MakeRule(3, 1, 8, 0));
  EXPECT_EQ(snap->TopK(0).size(), 6u);
  EXPECT_EQ(snap->TopK(100).size(), 6u);
}

TEST(RuleIndexSnapshotTest, BuildCanonicalizesDuplicates) {
  ImplicationRuleSet rules;
  rules.Add(MakeRule(1, 2, 5, 1));
  rules.Add(MakeRule(1, 2, 5, 1));
  const auto snap = RuleIndexSnapshot::Build(rules, 1);
  EXPECT_EQ(snap->size(), 1u);
}

TEST(RuleIndexSnapshotTest, EmptySnapshotServes) {
  const auto snap = RuleIndexSnapshot::Build(ImplicationRuleSet(), 0);
  EXPECT_TRUE(snap->empty());
  EXPECT_TRUE(snap->QueryByAntecedent(0).empty());
  EXPECT_TRUE(snap->QueryByConsequent(0).empty());
  EXPECT_TRUE(snap->TopK(5).empty());
}

TEST(RuleIndexSnapshotTest, SerializeRoundTrips) {
  const auto snap = RuleIndexSnapshot::Build(SampleRules(), 42);
  const std::string image = snap->Serialize();
  auto restored = RuleIndexSnapshot::Deserialize(image, "test");
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ((*restored)->generation(), 42u);
  EXPECT_EQ((*restored)->Serialize(), image);
  EXPECT_EQ((*restored)->TopK(0), snap->TopK(0));
}

TEST(RuleIndexSnapshotTest, DeserializeRejectsCorruption) {
  const std::string image =
      RuleIndexSnapshot::Build(SampleRules(), 1)->Serialize();

  auto truncated = RuleIndexSnapshot::Deserialize(
      image.substr(0, image.size() / 2), "t");
  EXPECT_EQ(truncated.status().code(), StatusCode::kDataLoss);

  std::string flipped = image;
  flipped[image.size() / 2] ^= 0x40;
  auto corrupt = RuleIndexSnapshot::Deserialize(flipped, "t");
  EXPECT_EQ(corrupt.status().code(), StatusCode::kDataLoss);

  std::string bad_magic = image;
  bad_magic[0] = 'X';
  EXPECT_EQ(RuleIndexSnapshot::Deserialize(bad_magic, "t").status().code(),
            StatusCode::kDataLoss);

  EXPECT_EQ(RuleIndexSnapshot::Deserialize("", "t").status().code(),
            StatusCode::kDataLoss);

  // A 40-byte snapshot that announces 2^60 rules, holds none, and
  // carries a correct seal: the count must be bounded by the bytes that
  // follow it before anything is sized from it (count * 16 wraps to 0).
  std::string huge = image.substr(0, 20);  // magic, version, generation
  const uint64_t count = uint64_t{1} << 60;
  huge.append(reinterpret_cast<const char*>(&count), sizeof(count));
  const uint64_t seal = Fnv1a(huge);
  huge.append(reinterpret_cast<const char*>(&seal), sizeof(seal));
  huge.append("DMCE");
  ASSERT_EQ(huge.size(), 40u);
  EXPECT_EQ(RuleIndexSnapshot::Deserialize(huge, "t").status().code(),
            StatusCode::kDataLoss);
}

TEST(RuleIndexTest, PublishBumpsGenerationAndPreservesReaders) {
  RuleIndex index;
  const auto before = index.snapshot();
  EXPECT_EQ(before->generation(), 0u);
  EXPECT_TRUE(before->empty());

  index.Publish(SampleRules());
  const auto after = index.snapshot();
  EXPECT_EQ(after->generation(), 1u);
  EXPECT_EQ(after->size(), 6u);
  // The old snapshot is untouched by the swap.
  EXPECT_TRUE(before->empty());

  index.Publish(ImplicationRuleSet());
  EXPECT_EQ(index.snapshot()->generation(), 2u);
  EXPECT_EQ(after->size(), 6u);
}

TEST(RuleIndexTest, SaveLoadRoundTrip) {
  const std::string path = TempPath("dmc_rule_index_roundtrip.bin");
  RuleIndex writer;
  writer.Publish(SampleRules());
  ASSERT_TRUE(writer.Save(path).ok());

  RuleIndex reader;
  ASSERT_TRUE(reader.Load(path).ok());
  const auto snap = reader.snapshot();
  EXPECT_EQ(snap->generation(), 1u);
  EXPECT_EQ(snap->TopK(0), writer.snapshot()->TopK(0));
  std::remove(path.c_str());
}

TEST(RuleIndexTest, LoadKeepsServingOnCorruptFile) {
  const std::string path = TempPath("dmc_rule_index_corrupt.bin");
  RuleIndex writer;
  writer.Publish(SampleRules());
  ASSERT_TRUE(writer.Save(path).ok());

  // Flip a byte in the middle of the stored image.
  std::string data;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    data = buf.str();
  }
  data[data.size() / 2] ^= 0x01;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }

  RuleIndex reader;
  reader.Publish(SampleRules());
  const Status status = reader.Load(path);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  // The served snapshot is unchanged after the failed load.
  EXPECT_EQ(reader.snapshot()->generation(), 1u);
  EXPECT_EQ(reader.snapshot()->size(), 6u);
  std::remove(path.c_str());
}

TEST(RuleIndexTest, LoadMissingFileIsIOError) {
  RuleIndex index;
  EXPECT_EQ(index.Load(TempPath("dmc_rule_index_nonexistent.bin")).code(),
            StatusCode::kIOError);
}

TEST(RuleIndexFaultTest, SaveAndLoadFailpointsFire) {
  const std::string path = TempPath("dmc_rule_index_fault.bin");
  RuleIndex index;
  index.Publish(SampleRules());

  ASSERT_TRUE(fail::Configure("rule_index.save=enospc@1").ok());
  EXPECT_EQ(index.Save(path).code(), StatusCode::kResourceExhausted);
  // Second attempt (trigger was @1) succeeds.
  EXPECT_TRUE(index.Save(path).ok());

  ASSERT_TRUE(fail::Configure("rule_index.load=dataloss@1").ok());
  EXPECT_EQ(index.Load(path).code(), StatusCode::kDataLoss);
  EXPECT_TRUE(index.Load(path).ok());
  fail::Disable();
  std::remove(path.c_str());
}

// Readers race Publish and Load; TSan must stay quiet and every reader
// must observe a fully built snapshot.
TEST(RuleIndexConcurrencyTest, QueriesDuringSnapshotSwap) {
  const std::string path = TempPath("dmc_rule_index_tsan.bin");
  RuleIndex index;
  index.Publish(SampleRules());
  ASSERT_TRUE(index.Save(path).ok());

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&index, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = index.snapshot();
        const auto from0 = snap->QueryByAntecedent(0);
        const auto top = snap->TopK(2);
        if (!snap->empty()) {
          ASSERT_EQ(from0.size(), 3u);
          ASSERT_EQ(top.size(), 2u);
        }
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    index.Publish(i % 2 == 0 ? SampleRules() : ImplicationRuleSet());
    if (i % 50 == 0) {
      ASSERT_TRUE(index.Load(path).ok());
    }
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_GE(index.snapshot()->generation(), 1u);
  std::remove(path.c_str());
}

TEST(RuleIndexConcurrencyTest, PublishRacingSaveNeverTearsAnImage) {
  // Save serializes whatever snapshot it acquires; Publish swaps fresh
  // snapshots underneath it the whole time. Every saved image must load
  // back as one coherent published state (checksum valid, and exactly a
  // rule set that was published — never a mix of two generations).
  const std::string path = TempPath("dmc_rule_index_pub_vs_save.bin");
  RuleIndex index;
  index.Publish(SampleRules());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> saves{0};
  std::thread saver([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(index.Save(path).ok());
      saves.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // The two states publishes alternate between; a torn save would show
  // up as a mixture of the two (or a checksum failure on Load). Keep
  // publishing until the saver has demonstrably overlapped several
  // swaps (on one core it may not get scheduled for a while).
  const ImplicationRuleSet full = SampleRules();
  const ImplicationRuleSet empty;
  int i = 0;
  while (i < 300 || saves.load(std::memory_order_relaxed) < 3) {
    index.Publish(i % 2 == 0 ? empty : full);
    ++i;
    if (i % 100 == 0) std::this_thread::yield();
  }
  stop.store(true);
  saver.join();
  EXPECT_GT(saves.load(), 0u);

  RuleIndex loaded;
  ASSERT_TRUE(loaded.Load(path).ok());
  const auto snap = loaded.snapshot();
  const auto rules = snap->TopK(100);
  if (!rules.empty()) {
    // A full-state image must carry the complete sample set.
    auto sorted = full.rules();
    std::sort(sorted.begin(), sorted.end());
    auto got = rules;
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, sorted);
  }
  std::remove(path.c_str());
}

TEST(RuleIndexConcurrencyTest, ConcurrentPublishersKeepGenerationsDense) {
  // publish_mu_ serializes writers: two threads publishing concurrently
  // must never double-allocate a generation, so after N publishes the
  // generation is exactly N.
  RuleIndex index;
  constexpr int kPerThread = 100;
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&index, t] {
      for (int i = 0; i < kPerThread; ++i) {
        index.Publish(t == 0 ? SampleRules() : ImplicationRuleSet());
      }
    });
  }
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(index.snapshot()->generation(),
            static_cast<uint64_t>(2 * kPerThread));
}

}  // namespace
}  // namespace dmc
