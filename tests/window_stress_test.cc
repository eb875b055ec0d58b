// Concurrency stress for the sliding-window ingest path, built to run
// under TSan (tools/check.sh runs every test whose name matches
// "WindowStress" in its TSan stage): wire-reader threads race a
// publisher that interleaves AppendRows and EvictRows, so the event
// thread, the ingest thread's EvictBatch/AppendBatch mutations, and
// the RuleIndex snapshot swap are all exercised against each other.
//
// The second test drives the auto-slide path instead: a window-capped
// server absorbs rapid over-full appends, so every publish is preceded
// by an internal eviction while the readers keep querying.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/random.h"

namespace dmc {
namespace {

using serve::Reply;
using serve::RuleClient;

constexpr ColumnId kColumns = 24;

BinaryMatrix MakeMatrix(uint32_t seed, size_t rows) {
  Rng rng(seed);
  std::vector<std::vector<ColumnId>> out(rows);
  for (auto& row : out) {
    const ColumnId base = static_cast<ColumnId>(rng.Uniform(kColumns - 1));
    row.push_back(base);
    row.push_back(base + 1);
  }
  return BinaryMatrix::FromRows(kColumns, out);
}

std::vector<std::vector<ColumnId>> MatrixRows(const BinaryMatrix& m) {
  std::vector<std::vector<ColumnId>> rows(m.num_rows());
  for (RowId r = 0; r < m.num_rows(); ++r) {
    const auto row = m.Row(r);
    rows[r].assign(row.begin(), row.end());
  }
  return rows;
}

// What the reader threads share with the test body.
struct ReaderState {
  std::atomic<bool> stop{false};
  /// Readers that have had a query answered.
  std::atomic<uint64_t> ready{0};
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> errors{0};
};

// Launches `count` reader threads that hammer point queries until
// `state.stop`, counting successes and flagging any error or generation
// regression (generations are monotone per connection: one publish per
// op, replies in request order). Each reader counts itself ready after
// its first answered query.
std::vector<std::thread> StartReaders(RuleServer& server, size_t count,
                                      ReaderState& state) {
  std::vector<std::thread> readers;
  readers.reserve(count);
  for (size_t t = 0; t < count; ++t) {
    readers.emplace_back([&server, &state, t] {
      RuleClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) {
        state.errors.fetch_add(1);
        return;
      }
      Rng rng(static_cast<uint32_t>(700 + t));
      uint64_t last_generation = 0;
      bool ready = false;
      while (!state.stop.load(std::memory_order_relaxed)) {
        const ColumnId c = static_cast<ColumnId>(rng.Uniform(kColumns));
        const StatusOr<Reply> reply = rng.Uniform(2) == 0
                                          ? client.QueryByAntecedent(c)
                                          : client.QueryByConsequent(c);
        if (!reply.ok() || reply->generation < last_generation) {
          state.errors.fetch_add(1);
          return;
        }
        last_generation = reply->generation;
        state.queries.fetch_add(1, std::memory_order_relaxed);
        if (!ready) {
          ready = true;
          state.ready.fetch_add(1);
        }
      }
    });
  }
  return readers;
}

// Blocks until every reader has had a query answered, or one has
// failed, so that the publishes race live readers.
void AwaitReaders(const ReaderState& state, size_t count) {
  while (state.ready.load() < count && state.errors.load() == 0) {
    std::this_thread::yield();
  }
}

TEST(WindowStressTest, ReadersRaceInterleavedAppendEvictPublishes) {
  constexpr size_t kReaders = 4;
  constexpr size_t kRounds = 15;  // each round = one append + one evict

  ServeOptions options;
  options.mining.min_confidence = 0.5;
  RuleServer server(std::move(options));
  ASSERT_TRUE(server.SeedFromMatrix(MakeMatrix(31, 400)).ok());
  ASSERT_TRUE(server.Start().ok());

  ReaderState state;
  std::vector<std::thread> readers = StartReaders(server, kReaders, state);

  // Publisher: interleaved appends and evicts over the wire, no pacing.
  // Evicting less than each append's row count keeps the request-time
  // window validation satisfiable at every step.
  RuleClient publisher;
  ASSERT_TRUE(publisher.Connect("127.0.0.1", server.port()).ok());
  AwaitReaders(state, kReaders);
  for (size_t round = 0; round < kRounds; ++round) {
    const auto rows =
        MatrixRows(MakeMatrix(static_cast<uint32_t>(800 + round), 100));
    const StatusOr<uint64_t> append_depth =
        publisher.AppendRows(kColumns, rows);
    ASSERT_TRUE(append_depth.ok()) << append_depth.status();
    const StatusOr<uint64_t> evict_depth = publisher.EvictRows(60);
    ASSERT_TRUE(evict_depth.ok()) << evict_depth.status();
  }
  // Wait until every op is applied and published (seed + 2 per round).
  StatusOr<serve::ServeStats> stats = publisher.Stats();
  ASSERT_TRUE(stats.ok());
  while (stats->snapshots_published < 2 * kRounds + 1) {
    stats = publisher.Stats();
    ASSERT_TRUE(stats.ok());
  }

  state.stop.store(true);
  for (std::thread& r : readers) r.join();

  EXPECT_EQ(state.errors.load(), 0u);
  EXPECT_GE(state.queries.load(), kReaders);
  EXPECT_EQ(stats->batches_ingested, kRounds);
  EXPECT_EQ(stats->batches_evicted, kRounds);
  EXPECT_EQ(stats->rows_evicted, 60 * kRounds);
  EXPECT_EQ(stats->rows_mined, 400 + kRounds * (100 - 60));
  EXPECT_EQ(stats->evicts_dropped, 0u);
  EXPECT_EQ(stats->protocol_errors, 0u);

  server.Shutdown();
  const serve::ServeStats final_stats = server.StatsSnapshot();
  EXPECT_EQ(final_stats.connections_active, 0u);
  EXPECT_EQ(final_stats.generation, 2 * kRounds + 1);
}

TEST(WindowStressTest, ReadersRaceAutoSlidingWindowPublishes) {
  constexpr size_t kReaders = 3;
  constexpr size_t kBatches = 20;
  constexpr uint64_t kWindow = 250;

  ServeOptions options;
  options.mining.min_confidence = 0.5;
  options.window_rows = kWindow;
  RuleServer server(std::move(options));
  ASSERT_TRUE(server.SeedFromMatrix(MakeMatrix(41, 200)).ok());
  ASSERT_TRUE(server.Start().ok());

  ReaderState state;
  std::vector<std::thread> readers = StartReaders(server, kReaders, state);

  // Every append past the first overfills the window, so each publish
  // is preceded by an internal slide (EvictPrefix + regeneration) that
  // races the readers' snapshot loads.
  RuleClient publisher;
  ASSERT_TRUE(publisher.Connect("127.0.0.1", server.port()).ok());
  AwaitReaders(state, kReaders);
  for (size_t b = 0; b < kBatches; ++b) {
    const auto rows =
        MatrixRows(MakeMatrix(static_cast<uint32_t>(1300 + b), 100));
    const StatusOr<uint64_t> depth = publisher.AppendRows(kColumns, rows);
    ASSERT_TRUE(depth.ok()) << depth.status();
  }
  StatusOr<serve::ServeStats> stats = publisher.Stats();
  ASSERT_TRUE(stats.ok());
  while (stats->snapshots_published < kBatches + 1) {
    stats = publisher.Stats();
    ASSERT_TRUE(stats.ok());
  }

  state.stop.store(true);
  for (std::thread& r : readers) r.join();

  EXPECT_EQ(state.errors.load(), 0u);
  EXPECT_GE(state.queries.load(), kReaders);
  EXPECT_EQ(stats->batches_ingested, kBatches);
  EXPECT_EQ(stats->rows_mined, kWindow);
  // 200 seed + 2000 appended, window holds 250: 1950 rows slid out.
  EXPECT_EQ(stats->rows_evicted, 200 + 100 * kBatches - kWindow);
  EXPECT_GT(stats->batches_evicted, 0u);
  EXPECT_EQ(stats->protocol_errors, 0u);

  server.Shutdown();
  EXPECT_EQ(server.StatsSnapshot().connections_active, 0u);
}

}  // namespace
}  // namespace dmc
