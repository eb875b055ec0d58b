// Randomized differential sweep: many small random matrices with random
// shapes/densities/thresholds, each checked across engines —
// batch / streaming / parallel DMC against the brute-force oracle.
// Complements property_test.cc's curated cases with breadth.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>

#include "baselines/bruteforce.h"
#include "core/engine.h"
#include "core/streaming_pass.h"
#include "matrix/matrix_io.h"
#include "matrix/row_order.h"
#include "matrix/row_spill.h"
#include "util/random.h"

namespace dmc {
namespace {

BinaryMatrix RandomMatrix(Rng& rng) {
  const uint32_t rows = 5 + static_cast<uint32_t>(rng.Uniform(120));
  const uint32_t cols = 2 + static_cast<uint32_t>(rng.Uniform(24));
  const double density = 0.03 + rng.UniformDouble() * 0.45;
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

double RandomThreshold(Rng& rng) {
  // Mix exact rational thresholds with arbitrary ones.
  switch (rng.Uniform(4)) {
    case 0:
      return (1 + rng.Uniform(20)) / 20.0;  // 0.05 .. 1.00
    case 1:
      return 1.0;
    case 2:
      return 0.5 + rng.UniformDouble() * 0.5;
    default:
      return 0.05 + rng.UniformDouble() * 0.95;
  }
}

DmcPolicy RandomPolicy(Rng& rng) {
  DmcPolicy p;
  p.row_order = static_cast<RowOrderPolicy>(rng.Uniform(3));
  p.hundred_percent_phase = rng.Bernoulli(0.5);
  p.bitmap_fallback = rng.Bernoulli(0.5);
  p.memory_threshold_bytes = rng.Uniform(2048);
  p.bitmap_max_remaining_rows = rng.Uniform(80);
  p.column_density_pruning = rng.Bernoulli(0.5);
  p.max_hits_pruning = rng.Bernoulli(0.5);
  return p;
}

TEST(FuzzSweepTest, ImplicationsAcrossEnginesMatchOracle) {
  Rng rng(0xF122);
  for (int trial = 0; trial < 120; ++trial) {
    const BinaryMatrix m = RandomMatrix(rng);
    ImplicationMiningOptions o;
    o.min_confidence = RandomThreshold(rng);
    o.policy = RandomPolicy(rng);
    const auto truth = BruteForceImplications(m, o.min_confidence).Pairs();

    auto batch = MineImplications(m, o);
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch->Pairs(), truth) << "trial " << trial;

    const auto order = SortedByDensityOrder(m);
    auto streamed = StreamPhases<ImplicationKind>(
        m.num_columns(), m.column_ones(), m.num_rows(), o,
        [&](auto&& sink) {
          for (RowId r : order) sink(m.Row(r));
        });
    ASSERT_TRUE(streamed.ok());
    ASSERT_EQ(streamed->Pairs(), truth) << "trial " << trial;

    ParallelOptions par;
    par.num_threads = 1 + static_cast<uint32_t>(rng.Uniform(4));
    auto parallel = MineImplicationsParallel(m, o, par);
    ASSERT_TRUE(parallel.ok());
    ASSERT_EQ(parallel->Pairs(), truth) << "trial " << trial;
  }
}

TEST(FuzzSweepTest, SimilaritiesAcrossEnginesMatchOracle) {
  Rng rng(0xF133);
  for (int trial = 0; trial < 120; ++trial) {
    const BinaryMatrix m = RandomMatrix(rng);
    SimilarityMiningOptions o;
    o.min_similarity = RandomThreshold(rng);
    o.policy = RandomPolicy(rng);
    const auto truth = BruteForceSimilarities(m, o.min_similarity).Pairs();

    auto batch = MineSimilarities(m, o);
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch->Pairs(), truth) << "trial " << trial;

    const auto order = DensityBucketOrder(m).order;
    auto streamed = StreamPhases<SimilarityKind>(
        m.num_columns(), m.column_ones(), m.num_rows(), o,
        [&](auto&& sink) {
          for (RowId r : order) sink(m.Row(r));
        });
    ASSERT_TRUE(streamed.ok());
    ASSERT_EQ(streamed->Pairs(), truth) << "trial " << trial;

    ParallelOptions par;
    par.num_threads = 1 + static_cast<uint32_t>(rng.Uniform(4));
    auto parallel = MineSimilaritiesParallel(m, o, par);
    ASSERT_TRUE(parallel.ok());
    ASSERT_EQ(parallel->Pairs(), truth) << "trial " << trial;
  }
}

// A cancelling progress callback: returns false from invocation
// `cancel_after` onwards (sticky, thread-safe for the parallel miners).
struct Canceller {
  explicit Canceller(uint64_t cancel_after) : remaining(cancel_after) {}

  ProgressCallback Callback() {
    return [this](const ProgressUpdate&) {
      // fetch_sub on 0 wraps, so test-and-decrement in two steps.
      uint64_t cur = remaining.load(std::memory_order_relaxed);
      while (cur > 0 &&
             !remaining.compare_exchange_weak(cur, cur - 1,
                                              std::memory_order_relaxed)) {
      }
      if (cur == 0) {
        requested.store(true, std::memory_order_relaxed);
        return false;
      }
      return true;
    };
  }

  std::atomic<uint64_t> remaining;
  std::atomic<bool> requested{false};
};

// Cancels each engine at a random point in its progress stream. Either
// the engine got cancelled (clean kCancelled, no partial results) or it
// outran the cancellation and must still match the oracle exactly.
TEST(FuzzSweepTest, ImplicationCancellationAtRandomRowsIsClean) {
  Rng rng(0xF144);
  for (int trial = 0; trial < 40; ++trial) {
    const BinaryMatrix m = RandomMatrix(rng);
    ImplicationMiningOptions o;
    o.min_confidence = RandomThreshold(rng);
    o.policy = RandomPolicy(rng);
    o.policy.observe.progress_interval_rows = 1 + rng.Uniform(8);
    const uint64_t cancel_after = rng.Uniform(2 * m.num_rows() + 2);
    const auto truth = BruteForceImplications(m, o.min_confidence).Pairs();

    {
      Canceller cancel(cancel_after);
      o.policy.observe.progress = cancel.Callback();
      auto batch = MineImplications(m, o);
      if (batch.ok()) {
        EXPECT_EQ(batch->Pairs(), truth) << "trial " << trial;
      } else {
        EXPECT_EQ(batch.status().code(), StatusCode::kCancelled)
            << "trial " << trial << ": " << batch.status().message();
        EXPECT_TRUE(cancel.requested.load());
      }
    }
    {
      Canceller cancel(cancel_after);
      o.policy.observe.progress = cancel.Callback();
      const auto order = SortedByDensityOrder(m);
      auto streamed = StreamPhases<ImplicationKind>(
          m.num_columns(), m.column_ones(), m.num_rows(), o,
          [&](auto&& sink) {
            for (RowId r : order) sink(m.Row(r));
          });
      if (streamed.ok()) {
        EXPECT_EQ(streamed->Pairs(), truth) << "trial " << trial;
      } else {
        EXPECT_EQ(streamed.status().code(), StatusCode::kCancelled)
            << "trial " << trial;
        EXPECT_TRUE(cancel.requested.load());
      }
    }
    {
      Canceller cancel(cancel_after);
      o.policy.observe.progress = cancel.Callback();
      ParallelOptions par;
      par.num_threads = 1 + static_cast<uint32_t>(rng.Uniform(4));
      auto parallel = MineImplicationsParallel(m, o, par);
      if (parallel.ok()) {
        EXPECT_EQ(parallel->Pairs(), truth) << "trial " << trial;
      } else {
        EXPECT_EQ(parallel.status().code(), StatusCode::kCancelled)
            << "trial " << trial;
        EXPECT_TRUE(cancel.requested.load());
      }
    }
  }
}

TEST(FuzzSweepTest, SimilarityCancellationAtRandomRowsIsClean) {
  Rng rng(0xF155);
  for (int trial = 0; trial < 40; ++trial) {
    const BinaryMatrix m = RandomMatrix(rng);
    SimilarityMiningOptions o;
    o.min_similarity = RandomThreshold(rng);
    o.policy = RandomPolicy(rng);
    o.policy.observe.progress_interval_rows = 1 + rng.Uniform(8);
    const uint64_t cancel_after = rng.Uniform(2 * m.num_rows() + 2);
    const auto truth = BruteForceSimilarities(m, o.min_similarity).Pairs();

    {
      Canceller cancel(cancel_after);
      o.policy.observe.progress = cancel.Callback();
      auto batch = MineSimilarities(m, o);
      if (batch.ok()) {
        EXPECT_EQ(batch->Pairs(), truth) << "trial " << trial;
      } else {
        EXPECT_EQ(batch.status().code(), StatusCode::kCancelled)
            << "trial " << trial;
        EXPECT_TRUE(cancel.requested.load());
      }
    }
    {
      Canceller cancel(cancel_after);
      o.policy.observe.progress = cancel.Callback();
      const auto order = DensityBucketOrder(m).order;
      auto streamed = StreamPhases<SimilarityKind>(
          m.num_columns(), m.column_ones(), m.num_rows(), o,
          [&](auto&& sink) {
            for (RowId r : order) sink(m.Row(r));
          });
      if (streamed.ok()) {
        EXPECT_EQ(streamed->Pairs(), truth) << "trial " << trial;
      } else {
        EXPECT_EQ(streamed.status().code(), StatusCode::kCancelled)
            << "trial " << trial;
        EXPECT_TRUE(cancel.requested.load());
      }
    }
    {
      Canceller cancel(cancel_after);
      o.policy.observe.progress = cancel.Callback();
      ParallelOptions par;
      par.num_threads = 1 + static_cast<uint32_t>(rng.Uniform(4));
      auto parallel = MineSimilaritiesParallel(m, o, par);
      if (parallel.ok()) {
        EXPECT_EQ(parallel->Pairs(), truth) << "trial " << trial;
      } else {
        EXPECT_EQ(parallel.status().code(), StatusCode::kCancelled)
            << "trial " << trial;
        EXPECT_TRUE(cancel.requested.load());
      }
    }
  }
}

// Cancelling on the very first progress sample must cancel every engine
// deterministically (a row-level check always precedes completion on
// non-empty matrices).
TEST(FuzzSweepTest, ImmediateCancellationAlwaysCancels) {
  Rng rng(0xF166);
  const BinaryMatrix m = RandomMatrix(rng);
  ImplicationMiningOptions io;
  io.min_confidence = 0.8;
  io.policy.observe.progress_interval_rows = 1;
  io.policy.observe.progress = [](const ProgressUpdate&) { return false; };
  auto imp = MineImplications(m, io);
  ASSERT_FALSE(imp.ok());
  EXPECT_EQ(imp.status().code(), StatusCode::kCancelled);

  SimilarityMiningOptions so;
  so.min_similarity = 0.7;
  so.policy.observe = io.policy.observe;
  auto sim = MineSimilarities(m, so);
  ASSERT_FALSE(sim.ok());
  EXPECT_EQ(sim.status().code(), StatusCode::kCancelled);
}

// Applies `flips` random byte mutations (or a truncation) to `data`.
std::string Mutate(Rng& rng, std::string data) {
  if (data.empty() || rng.Bernoulli(0.3)) {
    return data.substr(0, rng.Uniform(data.size() + 1));
  }
  const uint32_t flips = 1 + static_cast<uint32_t>(rng.Uniform(4));
  for (uint32_t i = 0; i < flips; ++i) {
    const size_t pos = rng.Uniform(data.size());
    data[pos] = static_cast<char>(data[pos] ^ (1u << rng.Uniform(8)));
  }
  return data;
}

// Text reader/scanner fuzz: random truncations and bit flips must yield
// either a clean parse (a mutation can still be valid text) or a
// structured error naming the line — never a crash or a hang. When the
// strict reader accepts, the streaming scanner must agree with it.
TEST(FuzzSweepTest, TextReaderSurvivesRandomMutations) {
  Rng rng(0xF177);
  for (int trial = 0; trial < 300; ++trial) {
    const BinaryMatrix m = RandomMatrix(rng);
    std::ostringstream serialized;
    ASSERT_TRUE(WriteMatrixText(m, serialized).ok());
    const std::string mutated = Mutate(rng, serialized.str());

    std::istringstream read_in(mutated);
    const auto parsed = ReadMatrixText(read_in);
    std::istringstream count_in(mutated);
    uint64_t rows_streamed = 0;
    const Status streamed = ForEachRowText(
        count_in,
        [&rows_streamed](std::span<const ColumnId>) {
          ++rows_streamed;
          return Status::OK();
        });
    if (parsed.ok()) {
      EXPECT_TRUE(streamed.ok()) << "trial " << trial;
      EXPECT_EQ(rows_streamed, parsed->num_rows()) << "trial " << trial;
    } else {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
          << "trial " << trial << ": " << parsed.status().ToString();
      EXPECT_NE(parsed.status().message().find("line "), std::string::npos)
          << "trial " << trial << ": " << parsed.status().ToString();
      EXPECT_FALSE(streamed.ok()) << "trial " << trial;
    }
  }
}

// Binary reader fuzz: the checksummed container must reject every
// mutation that changes the bytes, with kDataLoss and row/byte context.
TEST(FuzzSweepTest, BinaryReaderSurvivesRandomMutations) {
  Rng rng(0xF188);
  for (int trial = 0; trial < 300; ++trial) {
    const BinaryMatrix m = RandomMatrix(rng);
    const std::string whole = SerializeMatrixBinary(m);
    const std::string mutated = Mutate(rng, whole);
    const auto parsed = ReadMatrixBinary(mutated);
    if (mutated == whole) {
      ASSERT_TRUE(parsed.ok()) << "trial " << trial;
      EXPECT_EQ(parsed->num_rows(), m.num_rows());
      EXPECT_EQ(parsed->num_columns(), m.num_columns());
      continue;
    }
    ASSERT_FALSE(parsed.ok())
        << "trial " << trial << ": corrupt input accepted";
    EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss)
        << "trial " << trial;
    const std::string& msg = parsed.status().message();
    EXPECT_TRUE(msg.find("row ") != std::string::npos ||
                msg.find("byte") != std::string::npos)
        << "trial " << trial << ": " << msg;
  }
}

// Spill reader fuzz: the external miner's bucket format must turn every
// mutation that changes a byte into kDataLoss naming the file and byte
// offset, and the sink may only ever see intact rows in their original
// order — never an id out of range or out of order.
TEST(FuzzSweepTest, SpillReaderSurvivesRandomMutations) {
  const std::string dir = testing::TempDir() + "/fuzz_spill";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/dmc_bucket_0.spill";
  Rng rng(0xF199);
  for (int trial = 0; trial < 300; ++trial) {
    const BinaryMatrix m = RandomMatrix(rng);
    RowSpillWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    for (RowId r = 0; r < m.num_rows(); ++r) {
      ASSERT_TRUE(writer.AppendRow(m.Row(r)).ok());
    }
    ASSERT_TRUE(writer.Finish().ok());
    std::string whole;
    {
      std::ifstream in(path, std::ios::binary);
      whole.assign(std::istreambuf_iterator<char>(in), {});
    }
    const std::string mutated = Mutate(rng, whole);

    std::istringstream in(mutated);
    RowId next = 0;
    const auto read = ReadRowSpill(
        in, path, m.num_columns(),
        [&](std::span<const ColumnId> row) -> Status {
          for (size_t i = 0; i < row.size(); ++i) {
            EXPECT_LT(row[i], m.num_columns()) << "trial " << trial;
            if (i > 0) {
              EXPECT_LT(row[i - 1], row[i]) << "trial " << trial;
            }
          }
          EXPECT_LT(next, m.num_rows()) << "trial " << trial;
          if (next < m.num_rows()) {
            const auto want = m.Row(next);
            EXPECT_TRUE(std::equal(row.begin(), row.end(), want.begin(),
                                   want.end()))
                << "trial " << trial << " row " << next;
          }
          ++next;
          return Status::OK();
        });
    if (mutated == whole) {
      ASSERT_TRUE(read.ok()) << "trial " << trial << ": " << read.status();
      EXPECT_EQ(next, m.num_rows());
      continue;
    }
    ASSERT_FALSE(read.ok())
        << "trial " << trial << ": corrupt spill accepted";
    EXPECT_EQ(read.status().code(), StatusCode::kDataLoss)
        << "trial " << trial;
    const std::string& msg = read.status().message();
    EXPECT_NE(msg.find(path), std::string::npos)
        << "trial " << trial << ": " << msg;
    EXPECT_NE(msg.find("at byte "), std::string::npos)
        << "trial " << trial << ": " << msg;
  }
  std::filesystem::remove_all(dir);
}

TEST(FuzzSweepTest, DegenerateMatrices) {
  // All-zero, single-row, single-column, duplicate-row matrices.
  const std::vector<BinaryMatrix> cases = {
      BinaryMatrix::FromRows(3, {{}, {}, {}}),
      BinaryMatrix::FromRows(4, {{0, 1, 2, 3}}),
      BinaryMatrix::FromRows(1, {{0}, {0}, {0}}),
      BinaryMatrix::FromRows(2, {{0, 1}, {0, 1}, {0, 1}, {0, 1}}),
  };
  for (const auto& m : cases) {
    for (double t : {0.5, 1.0}) {
      ImplicationMiningOptions io;
      io.min_confidence = t;
      auto rules = MineImplications(m, io);
      ASSERT_TRUE(rules.ok());
      EXPECT_EQ(rules->Pairs(), BruteForceImplications(m, t).Pairs());
      SimilarityMiningOptions so;
      so.min_similarity = t;
      auto pairs = MineSimilarities(m, so);
      ASSERT_TRUE(pairs.ok());
      EXPECT_EQ(pairs->Pairs(), BruteForceSimilarities(m, t).Pairs());
    }
  }
}

}  // namespace
}  // namespace dmc
