// Seed-stability sweep: every engine, run twice with the same seed and
// inputs, must produce byte-identical serialized rule sets and identical
// byte accounting (peak_counter_bytes). Catches nondeterminism
// regressions — hash-container iteration order, uninitialized reads,
// time-dependent tie-breaks — before they poison goldens.

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/external_miner.h"
#include "core/parallel_dmc.h"
#include "core/streaming_pass.h"
#include "incr/incr_miner.h"
#include "matrix/binary_matrix.h"
#include "matrix/matrix_io.h"
#include "rules/rule_index.h"
#include "util/random.h"

namespace dmc {
namespace {

constexpr double kConf = 0.85;
constexpr double kSim = 0.6;

BinaryMatrix RandomMatrix(uint64_t seed, uint32_t rows, uint32_t cols,
                          double density) {
  Rng rng(seed);
  MatrixBuilder b(cols);
  std::vector<ColumnId> row;
  for (uint32_t r = 0; r < rows; ++r) {
    row.clear();
    for (ColumnId c = 0; c < cols; ++c) {
      if (rng.Bernoulli(density)) row.push_back(c);
    }
    b.AddRow(row);
  }
  return b.Build();
}

std::string PrintImp(const ImplicationRuleSet& rules) {
  std::ostringstream os;
  ImplicationRuleSet sorted = rules;
  sorted.Canonicalize();
  sorted.Print(os);
  return os.str();
}

std::string PrintSim(const SimilarityRuleSet& pairs) {
  std::ostringstream os;
  SimilarityRuleSet sorted = pairs;
  sorted.Canonicalize();
  sorted.Print(os);
  return os.str();
}

TEST(SeedStabilityTest, BatchEnginesAreRunToRunIdentical) {
  const BinaryMatrix m = RandomMatrix(101, 80, 16, 0.3);
  std::string imp_text;
  size_t imp_peak = 0;
  std::string sim_text;
  size_t sim_peak = 0;
  for (int run = 0; run < 2; ++run) {
    ImplicationMiningOptions io;
    io.min_confidence = kConf;
    MiningStats is;
    auto rules = MineImplications(m, io, &is);
    ASSERT_TRUE(rules.ok());
    SimilarityMiningOptions so;
    so.min_similarity = kSim;
    MiningStats ss;
    auto pairs = MineSimilarities(m, so, &ss);
    ASSERT_TRUE(pairs.ok());
    if (run == 0) {
      imp_text = PrintImp(*rules);
      imp_peak = is.peak_counter_bytes;
      sim_text = PrintSim(*pairs);
      sim_peak = ss.peak_counter_bytes;
    } else {
      EXPECT_EQ(PrintImp(*rules), imp_text);
      EXPECT_EQ(is.peak_counter_bytes, imp_peak);
      EXPECT_EQ(PrintSim(*pairs), sim_text);
      EXPECT_EQ(ss.peak_counter_bytes, sim_peak);
    }
  }
}

TEST(SeedStabilityTest, ParallelEnginesAreRunToRunIdentical) {
  const BinaryMatrix m = RandomMatrix(102, 70, 14, 0.35);
  ParallelOptions popt;
  popt.num_threads = 2;
  std::string imp_text;
  size_t imp_sum = 0, imp_max = 0;
  std::string sim_text;
  for (int run = 0; run < 2; ++run) {
    ImplicationMiningOptions io;
    io.min_confidence = kConf;
    ParallelMiningStats is;
    auto rules = MineImplicationsParallel(m, io, popt, &is);
    ASSERT_TRUE(rules.ok());
    SimilarityMiningOptions so;
    so.min_similarity = kSim;
    auto pairs = MineSimilaritiesParallel(m, so, popt);
    ASSERT_TRUE(pairs.ok());
    if (run == 0) {
      imp_text = PrintImp(*rules);
      imp_sum = is.sum_peak_counter_bytes;
      imp_max = is.max_peak_counter_bytes;
      sim_text = PrintSim(*pairs);
    } else {
      EXPECT_EQ(PrintImp(*rules), imp_text);
      EXPECT_EQ(is.sum_peak_counter_bytes, imp_sum);
      EXPECT_EQ(is.max_peak_counter_bytes, imp_max);
      EXPECT_EQ(PrintSim(*pairs), sim_text);
    }
  }
}

TEST(SeedStabilityTest, StreamingDriversAreRunToRunIdentical) {
  const BinaryMatrix m = RandomMatrix(103, 60, 12, 0.4);
  const auto replay = [&m](auto&& sink) {
    for (RowId r = 0; r < m.num_rows(); ++r) sink(m.Row(r));
  };
  std::string imp_text;
  std::string sim_text;
  for (int run = 0; run < 2; ++run) {
    ImplicationMiningOptions io;
    io.min_confidence = kConf;
    auto rules = StreamPhases<ImplicationKind>(
        m.num_columns(), m.column_ones(), m.num_rows(), io, replay);
    ASSERT_TRUE(rules.ok());
    SimilarityMiningOptions so;
    so.min_similarity = kSim;
    auto pairs = StreamPhases<SimilarityKind>(
        m.num_columns(), m.column_ones(), m.num_rows(), so, replay);
    ASSERT_TRUE(pairs.ok());
    if (run == 0) {
      imp_text = PrintImp(*rules);
      sim_text = PrintSim(*pairs);
    } else {
      EXPECT_EQ(PrintImp(*rules), imp_text);
      EXPECT_EQ(PrintSim(*pairs), sim_text);
    }
  }
}

TEST(SeedStabilityTest, ExternalMinerIsRunToRunIdentical) {
  const BinaryMatrix m = RandomMatrix(104, 50, 10, 0.35);
  const auto dir = std::filesystem::temp_directory_path() / "dmc_seed_ext";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "input.txt").string();
  ASSERT_TRUE(WriteMatrixTextFile(m, path).ok());
  std::string imp_text;
  for (int run = 0; run < 2; ++run) {
    ImplicationMiningOptions io;
    io.min_confidence = kConf;
    auto rules = MineImplicationsFromFile(path, io, dir.string());
    ASSERT_TRUE(rules.ok()) << rules.status();
    if (run == 0) {
      imp_text = PrintImp(*rules);
    } else {
      EXPECT_EQ(PrintImp(*rules), imp_text);
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(SeedStabilityTest, IncrementalMinerIsRunToRunIdentical) {
  const BinaryMatrix m = RandomMatrix(105, 90, 15, 0.3);
  const uint32_t batch = 17;  // deliberately not a divisor of 90
  std::string imp_text;
  std::string sim_text;
  size_t imp_bytes = 0;
  std::string index_image;
  for (int run = 0; run < 2; ++run) {
    ImplicationMiningOptions io;
    io.min_confidence = kConf;
    IncrementalImplicationMiner imp(io);
    SimilarityMiningOptions so;
    so.min_similarity = kSim;
    IncrementalSimilarityMiner sim(so);
    for (uint32_t start = 0; start < m.num_rows(); start += batch) {
      const uint32_t n = std::min(batch, m.num_rows() - start);
      MatrixBuilder b(m.num_columns());
      for (uint32_t r = start; r < start + n; ++r) {
        const auto row = m.Row(r);
        b.AddRow(std::vector<ColumnId>(row.begin(), row.end()));
      }
      const BinaryMatrix delta = b.Build();
      ASSERT_TRUE(imp.AppendBatch(delta).ok());
      ASSERT_TRUE(sim.AppendBatch(delta).ok());
    }
    const std::string image =
        RuleIndexSnapshot::Build(imp.rules(), 1)->Serialize();
    if (run == 0) {
      imp_text = PrintImp(imp.rules());
      sim_text = PrintSim(sim.pairs());
      imp_bytes = imp.MemoryBytes();
      index_image = image;
    } else {
      EXPECT_EQ(PrintImp(imp.rules()), imp_text);
      EXPECT_EQ(PrintSim(sim.pairs()), sim_text);
      EXPECT_EQ(imp.MemoryBytes(), imp_bytes);
      EXPECT_EQ(image, index_image);
    }
  }
}

}  // namespace
}  // namespace dmc
