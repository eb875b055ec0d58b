// Differential battery for the serving daemon: every byte that comes
// back over the wire must decode to exactly the result of the
// equivalent direct RuleIndexSnapshot query — including while an
// append/publish loop is running, where the reply's generation pins
// which snapshot it must match (never a torn or in-between state).
//
// The oracle is a mirror miner: the server publishes exactly one
// snapshot per ingested batch, in arrival order, so generation g always
// serves "seed + first (g - 1) batches". The test replays the same
// batches through its own IncrementalImplicationMiner, builds the
// expected snapshot per generation, and compares rule-for-rule.

#include "serve/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "incr/incr_miner.h"
#include "matrix/binary_matrix.h"
#include "rules/rule_index.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "util/random.h"

namespace dmc {
namespace {

using serve::Op;
using serve::Reply;
using serve::RuleClient;

std::vector<std::vector<ColumnId>> RandomRows(Rng& rng, size_t rows,
                                              ColumnId num_columns) {
  std::vector<std::vector<ColumnId>> out(rows);
  for (auto& row : out) {
    // Clustered pairs so implications actually form and shift around.
    const ColumnId base = static_cast<ColumnId>(rng.Uniform(num_columns - 2));
    row.push_back(base);
    if (rng.Uniform(3) != 0) row.push_back(base + 1);
    if (rng.Uniform(5) == 0) {
      row.push_back(static_cast<ColumnId>(rng.Uniform(num_columns)));
    }
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
  }
  return out;
}

ImplicationMiningOptions Options() {
  ImplicationMiningOptions options;
  options.min_confidence = 0.6;
  return options;
}

class ServeDifferentialTest : public ::testing::Test {
 protected:
  static constexpr ColumnId kColumns = 48;

  BinaryMatrix MakeSeed(uint32_t seed, size_t rows) {
    Rng rng(seed);
    return BinaryMatrix::FromRows(kColumns, RandomRows(rng, rows, kColumns));
  }
};

TEST_F(ServeDifferentialTest, WireRepliesEqualDirectSnapshotQueries) {
  const BinaryMatrix seed = MakeSeed(11, 400);
  ServeOptions options;
  options.mining = Options();
  RuleServer server(std::move(options));
  ASSERT_TRUE(server.SeedFromMatrix(seed).ok());
  ASSERT_TRUE(server.Start().ok());

  RuleClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  const std::shared_ptr<const RuleIndexSnapshot> snap =
      server.index().snapshot();
  ASSERT_GT(snap->size(), 0u);  // the seed must actually yield rules

  for (ColumnId c = 0; c < kColumns; ++c) {
    const StatusOr<Reply> by_lhs = client.QueryByAntecedent(c);
    ASSERT_TRUE(by_lhs.ok()) << by_lhs.status();
    EXPECT_EQ(by_lhs->generation, snap->generation());
    EXPECT_EQ(by_lhs->rules, snap->QueryByAntecedent(c)) << "lhs=" << c;

    const StatusOr<Reply> by_rhs = client.QueryByConsequent(c);
    ASSERT_TRUE(by_rhs.ok()) << by_rhs.status();
    EXPECT_EQ(by_rhs->rules, snap->QueryByConsequent(c)) << "rhs=" << c;
  }
  for (uint32_t k : {0u, 1u, 7u, 1000u}) {
    const StatusOr<Reply> top = client.TopK(k);
    ASSERT_TRUE(top.ok()) << top.status();
    EXPECT_EQ(top->rules, snap->TopK(k)) << "k=" << k;
  }

  const StatusOr<serve::ServeStats> stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->generation, snap->generation());
  EXPECT_EQ(stats->num_rules, snap->size());
  EXPECT_EQ(stats->rows_mined, 400u);

  server.Shutdown();
}

TEST_F(ServeDifferentialTest, GenerationPinsExactSnapshotDuringPublishes) {
  constexpr size_t kBatches = 12;
  constexpr size_t kBatchRows = 120;

  const BinaryMatrix seed = MakeSeed(23, 500);
  Rng batch_rng(29);
  std::vector<BinaryMatrix> batches;
  for (size_t b = 0; b < kBatches; ++b) {
    batches.push_back(BinaryMatrix::FromRows(
        kColumns, RandomRows(batch_rng, kBatchRows, kColumns)));
  }

  // Mirror miner: expected[g] is the snapshot generation g must serve.
  auto mirror =
      IncrementalImplicationMiner::FromBatchMine(seed, Options());
  ASSERT_TRUE(mirror.ok());
  std::vector<std::shared_ptr<const RuleIndexSnapshot>> expected;
  expected.push_back(nullptr);  // generation 0: never served after seeding
  expected.push_back(RuleIndexSnapshot::Build(mirror->rules(), 1));
  for (size_t b = 0; b < kBatches; ++b) {
    ASSERT_TRUE(mirror->AppendBatch(batches[b]).ok());
    expected.push_back(RuleIndexSnapshot::Build(
        mirror->rules(), static_cast<uint64_t>(b) + 2));
  }

  ServeOptions options;
  options.mining = Options();
  RuleServer server(std::move(options));
  ASSERT_TRUE(server.SeedFromMatrix(seed).ok());
  ASSERT_TRUE(server.Start().ok());

  // Appender: one wire client feeding the batches in order, paced only
  // by the append acknowledgments (so publishes overlap the queries).
  std::atomic<bool> append_failed{false};
  std::thread appender([&] {
    RuleClient client;
    if (!client.Connect("127.0.0.1", server.port()).ok()) {
      append_failed.store(true);
      return;
    }
    for (const BinaryMatrix& batch : batches) {
      std::vector<std::vector<ColumnId>> rows(batch.num_rows());
      for (RowId r = 0; r < batch.num_rows(); ++r) {
        const auto row = batch.Row(r);
        rows[r].assign(row.begin(), row.end());
      }
      if (!client.AppendRows(batch.num_columns(), rows).ok()) {
        append_failed.store(true);
        return;
      }
    }
  });

  // Reader: hammer queries while the publishes happen. Each reply's
  // generation selects the oracle snapshot it must match exactly.
  RuleClient reader;
  ASSERT_TRUE(reader.Connect("127.0.0.1", server.port()).ok());
  Rng rng(31);
  const uint64_t final_generation = kBatches + 1;
  uint64_t seen_generations = 0;
  uint64_t queries = 0;
  while (true) {
    const ColumnId c = static_cast<ColumnId>(rng.Uniform(kColumns));
    const bool by_lhs = rng.Uniform(2) == 0;
    const StatusOr<Reply> reply =
        by_lhs ? reader.QueryByAntecedent(c) : reader.QueryByConsequent(c);
    ASSERT_TRUE(reply.ok()) << reply.status();
    ASSERT_GE(reply->generation, 1u);
    ASSERT_LE(reply->generation, final_generation);
    const RuleIndexSnapshot& oracle = *expected[reply->generation];
    EXPECT_EQ(reply->rules, by_lhs ? oracle.QueryByAntecedent(c)
                                   : oracle.QueryByConsequent(c))
        << "generation " << reply->generation << (by_lhs ? " lhs=" : " rhs=")
        << c;
    ++queries;
    if (reply->generation > seen_generations) {
      seen_generations = reply->generation;
    }
    if (seen_generations == final_generation && queries >= 2000) break;
    ASSERT_LT(queries, 2000000u) << "server never reached generation "
                                 << final_generation;
  }
  appender.join();
  EXPECT_FALSE(append_failed.load());

  // After the last publish the served snapshot must equal the mirror's
  // final state, rule for rule.
  const StatusOr<Reply> top = reader.TopK(1u << 20);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(top->generation, final_generation);
  EXPECT_EQ(top->rules, expected[final_generation]->TopK(1u << 20));

  const StatusOr<serve::ServeStats> stats = reader.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->batches_ingested, kBatches);
  EXPECT_EQ(stats->snapshots_published, kBatches + 1);
  EXPECT_EQ(stats->rows_mined, 500u + kBatches * kBatchRows);

  server.Shutdown();
}

TEST_F(ServeDifferentialTest, EvictOverWireMatchesDirectEvictBatch) {
  // kEvict round-trip: each evict must bump the generation by exactly
  // one and serve what a direct EvictBatch on a mirror miner yields —
  // interleaved with appends so the id renumbering is exercised on the
  // wire path too.
  const BinaryMatrix seed = MakeSeed(53, 300);
  Rng rng(57);
  const std::vector<std::vector<ColumnId>> batch_rows =
      RandomRows(rng, 150, kColumns);

  auto mirror = IncrementalImplicationMiner::FromBatchMine(seed, Options());
  ASSERT_TRUE(mirror.ok());

  ServeOptions options;
  options.mining = Options();
  RuleServer server(std::move(options));
  ASSERT_TRUE(server.SeedFromMatrix(seed).ok());
  ASSERT_TRUE(server.Start().ok());

  RuleClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  // Await a given generation, returning its full rule set.
  const auto rules_at = [&client](uint64_t generation) {
    StatusOr<Reply> top = client.TopK(1u << 20);
    EXPECT_TRUE(top.ok());
    while (top.ok() && top->generation < generation) {
      top = client.TopK(1u << 20);
    }
    EXPECT_TRUE(top.ok());
    EXPECT_EQ(top->generation, generation);
    return top->rules;
  };

  // Evict 120 of the 300 seeded rows: generation 1 -> 2.
  ASSERT_TRUE(mirror->EvictBatch(120).ok());
  ASSERT_TRUE(client.EvictRows(120).ok());
  EXPECT_EQ(rules_at(2),
            RuleIndexSnapshot::Build(mirror->rules(), 2)->TopK(1u << 20));

  // Append a batch on top of the trimmed window: generation 3.
  ASSERT_TRUE(mirror->AppendBatch(
                  BinaryMatrix::FromRows(kColumns, batch_rows)).ok());
  ASSERT_TRUE(client.AppendRows(kColumns, batch_rows).ok());
  EXPECT_EQ(rules_at(3),
            RuleIndexSnapshot::Build(mirror->rules(), 3)->TopK(1u << 20));

  // Evict across the old/new boundary: generation 4.
  ASSERT_TRUE(mirror->EvictBatch(200).ok());
  ASSERT_TRUE(client.EvictRows(200).ok());
  EXPECT_EQ(rules_at(4),
            RuleIndexSnapshot::Build(mirror->rules(), 4)->TopK(1u << 20));

  const StatusOr<serve::ServeStats> stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->batches_evicted, 2u);
  EXPECT_EQ(stats->rows_evicted, 320u);
  EXPECT_EQ(stats->evicts_dropped, 0u);
  EXPECT_EQ(stats->rows_mined, 300u - 120u + 150u - 200u);
  EXPECT_EQ(stats->snapshots_published, 4u);

  server.Shutdown();
}

TEST_F(ServeDifferentialTest, WindowedServerSlidesLikeWindowedMiner) {
  // --window-rows end to end: a server with a row budget must serve, at
  // every generation, exactly what an IncrementalImplicationMiner with
  // the same row budget, fed the same batches, holds — the auto-slide happens inside the ingest
  // thread's publish cycle.
  constexpr uint64_t kWindow = 250;
  constexpr size_t kBatches = 6;
  constexpr size_t kBatchRows = 100;

  const BinaryMatrix seed = MakeSeed(61, 400);
  Rng rng(67);
  std::vector<std::vector<std::vector<ColumnId>>> batches;
  for (size_t b = 0; b < kBatches; ++b) {
    batches.push_back(RandomRows(rng, kBatchRows, kColumns));
  }

  auto mirror =
      IncrementalImplicationMiner::FromBatchMine(seed, Options(), kWindow);
  ASSERT_TRUE(mirror.ok());

  ServeOptions options;
  options.mining = Options();
  options.window_rows = kWindow;
  RuleServer server(std::move(options));
  ASSERT_TRUE(server.SeedFromMatrix(seed).ok());
  ASSERT_TRUE(server.Start().ok());
  // The seed itself is over-full: the publish-1 snapshot already
  // reflects the trimmed window.
  EXPECT_EQ(server.index().snapshot()->TopK(1u << 20),
            RuleIndexSnapshot::Build(mirror->rules(), 1)->TopK(1u << 20));

  RuleClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  for (size_t b = 0; b < kBatches; ++b) {
    ASSERT_TRUE(mirror->AppendBatch(
                    BinaryMatrix::FromRows(kColumns, batches[b])).ok());
    ASSERT_TRUE(client.AppendRows(kColumns, batches[b]).ok());
    StatusOr<Reply> top = client.TopK(1u << 20);
    ASSERT_TRUE(top.ok());
    while (top->generation < b + 2) {
      top = client.TopK(1u << 20);
      ASSERT_TRUE(top.ok());
    }
    EXPECT_EQ(top->rules,
              RuleIndexSnapshot::Build(mirror->rules(), b + 2)->TopK(1u << 20))
        << "batch " << b;
  }

  const StatusOr<serve::ServeStats> stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rows_mined, kWindow);
  // Every append overflowed the full window, so every ingest slid.
  EXPECT_EQ(stats->batches_evicted, kBatches);
  EXPECT_EQ(stats->rows_evicted, kBatches * kBatchRows);

  server.Shutdown();
}

TEST_F(ServeDifferentialTest, AppendOverWireMatchesDirectAppendBatch) {
  // The wire encode/decode of a batch must hand the miner exactly the
  // same matrix a direct AppendBatch would see: compare the full rule
  // sets after one round trip.
  const BinaryMatrix seed = MakeSeed(41, 300);
  Rng rng(43);
  const std::vector<std::vector<ColumnId>> batch_rows =
      RandomRows(rng, 200, kColumns);
  const BinaryMatrix batch = BinaryMatrix::FromRows(kColumns, batch_rows);

  auto mirror = IncrementalImplicationMiner::FromBatchMine(seed, Options());
  ASSERT_TRUE(mirror.ok());
  ASSERT_TRUE(mirror->AppendBatch(batch).ok());

  ServeOptions options;
  options.mining = Options();
  RuleServer server(std::move(options));
  ASSERT_TRUE(server.SeedFromMatrix(seed).ok());
  ASSERT_TRUE(server.Start().ok());

  RuleClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.AppendRows(kColumns, batch_rows).ok());

  // Wait for the publish (generation 2), then compare everything.
  StatusOr<Reply> top = client.TopK(1u << 20);
  ASSERT_TRUE(top.ok());
  while (top->generation < 2) {
    top = client.TopK(1u << 20);
    ASSERT_TRUE(top.ok());
  }
  const auto oracle = RuleIndexSnapshot::Build(mirror->rules(), 2);
  EXPECT_EQ(top->rules, oracle->TopK(1u << 20));

  server.Shutdown();
}

}  // namespace
}  // namespace dmc
