#include "core/parallel_dmc.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <numeric>
#include <thread>

#include "core/streaming_pass.h"
#include "observe/progress.h"
#include "observe/stats_export.h"
#include "observe/trace.h"
#include "util/failpoint.h"
#include "util/stopwatch.h"

namespace dmc {

std::vector<std::vector<uint8_t>> MakeColumnShards(
    const std::vector<uint32_t>& column_ones, uint64_t num_shards) {
  num_shards = std::min<uint64_t>(num_shards,
                                  std::max<size_t>(1, column_ones.size()));
  std::vector<std::vector<uint8_t>> shards(
      num_shards, std::vector<uint8_t>(column_ones.size(), 0));
  // Greedy balanced partition by 1-count (longest-processing-time rule).
  std::vector<ColumnId> order(column_ones.size());
  std::iota(order.begin(), order.end(), ColumnId{0});
  std::stable_sort(order.begin(), order.end(),
                   [&column_ones](ColumnId a, ColumnId b) {
                     return column_ones[a] > column_ones[b];
                   });
  std::vector<uint64_t> load(num_shards, 0);
  for (ColumnId c : order) {
    const uint32_t target = static_cast<uint32_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    shards[target][c] = 1;
    load[target] += column_ones[c] + 1;
  }
  return shards;
}

namespace {

uint32_t ResolveThreads(const ParallelOptions& parallel) {
  if (parallel.num_threads > 0) return parallel.num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 2 : hw;
}

// Per-shard observability context: spans land on lane t+1, progress
// updates are stamped with the shard index, and one shard's cancel
// request (or the user callback returning false) stops every shard at
// its next progress interval via the shared flag.
ObserveContext ShardContext(const ObserveContext& base, int shard,
                            const std::shared_ptr<std::atomic<bool>>& cancel) {
  ObserveContext ctx = base;
  ctx.shard = shard;
  ctx.trace_lane = shard + 1;
  if (base.has_progress()) {
    ProgressCallback inner = base.progress;
    ctx.progress = [inner, cancel](const ProgressUpdate& update) {
      if (cancel->load(std::memory_order_relaxed)) return false;
      if (inner(update)) return true;
      cancel->store(true, std::memory_order_relaxed);
      return false;
    };
  }
  return ctx;
}

// One antecedent shard per thread over the shared matrix, then the
// merge of the disjoint canonical shard sets. A shard whose thread
// cannot start — std::thread throws (std::system_error, EAGAIN under a
// thread or pid limit; or std::bad_alloc), or the parallel.thread.start
// failpoint fires — is mined on the calling thread after the join
// (parallel_dmc.h), so no exception unwinds past a joinable thread.
template <typename Kind>
StatusOr<typename Kind::RuleSet> MineParallel(
    const BinaryMatrix& matrix, const typename Kind::Options& options,
    const ParallelOptions& parallel, ParallelMiningStats* stats) {
  using RuleSet = typename Kind::RuleSet;
  const uint32_t num_threads = ResolveThreads(parallel);
  if (num_threads <= 1 || matrix.num_columns() < 2) {
    MiningStats serial;
    auto out = MineMatrix<Kind>(matrix, options, nullptr, &serial);
    if (out.ok() && stats != nullptr) {
      *stats = ParallelMiningStats{};
      stats->shards = 1;
      stats->total_seconds = serial.total_seconds;
      stats->max_shard_seconds = serial.total_seconds;
      stats->sum_shard_seconds = serial.total_seconds;
      stats->sum_peak_counter_bytes = serial.peak_counter_bytes;
      stats->max_peak_counter_bytes = serial.peak_counter_bytes;
      stats->per_shard.push_back(serial);
    }
    return out;
  }

  ParallelMiningStats local;
  if (stats == nullptr) stats = &local;
  *stats = ParallelMiningStats{};
  Stopwatch total_sw;
  const ObserveContext& obs = options.policy.observe;
  const auto shards = MakeColumnShards(matrix.column_ones(), num_threads);
  const uint32_t num_shards = static_cast<uint32_t>(shards.size());
  stats->shards = num_shards;

  auto cancel = std::make_shared<std::atomic<bool>>(false);
  std::vector<StatusOr<RuleSet>> results(num_shards, RuleSet{});
  std::vector<MiningStats> shard_stats(num_shards);
  const auto mine = [&](uint32_t t) {
    typename Kind::Options shard_options = options;
    shard_options.policy.observe =
        ShardContext(obs, static_cast<int>(t), cancel);
    results[t] =
        MineMatrix<Kind>(matrix, shard_options, &shards[t], &shard_stats[t]);
  };

  std::vector<uint32_t> unstarted;
  unstarted.reserve(num_shards);
  {
    // Parent span on lane 0; per-shard engine spans use lanes 1..N.
    ScopedSpan parent(obs.trace, "parallel/mine", 0);
    std::vector<std::thread> workers;
    workers.reserve(num_shards);
    for (uint32_t t = 0; t < num_shards; ++t) {
      if (fail::Enabled() &&
          !fail::InjectStatus("parallel.thread.start").ok()) {
        unstarted.push_back(t);
        continue;
      }
      try {
        workers.emplace_back(mine, t);
      } catch (const std::exception&) {
        unstarted.push_back(t);
      }
    }
    for (auto& w : workers) w.join();
  }
  for (const uint32_t t : unstarted) {
    ScopedSpan span(obs.trace, "parallel/degraded_shard", 0);
    mine(t);
  }
  stats->shards_degraded = static_cast<uint32_t>(unstarted.size());

  std::vector<RuleSet> parts;
  parts.reserve(num_shards);
  Status first_error = Status::OK();
  for (uint32_t t = 0; t < num_shards; ++t) {
    if (!results[t].ok()) {
      ++stats->shards_failed;
      // Prefer a non-Cancelled error; with cooperative cancellation
      // every shard reports kCancelled, and any one of them will do.
      if (first_error.ok() ||
          (first_error.code() == StatusCode::kCancelled &&
           results[t].status().code() != StatusCode::kCancelled)) {
        first_error = results[t].status();
      }
      continue;
    }
    parts.push_back(std::move(*results[t]));
    stats->max_shard_seconds =
        std::max(stats->max_shard_seconds, shard_stats[t].total_seconds);
    stats->sum_shard_seconds += shard_stats[t].total_seconds;
    stats->sum_peak_counter_bytes += shard_stats[t].peak_counter_bytes;
    stats->max_peak_counter_bytes = std::max(
        stats->max_peak_counter_bytes, shard_stats[t].peak_counter_bytes);
  }
  if (!first_error.ok()) return first_error;
  stats->per_shard = std::move(shard_stats);
  RuleSet merged = MergeCanonical(std::move(parts));
  stats->total_seconds = total_sw.ElapsedSeconds();
  RecordToRegistry(obs.metrics, "parallel", *stats);
  return merged;
}

}  // namespace

StatusOr<ImplicationRuleSet> MineImplicationsParallel(
    const BinaryMatrix& matrix, const ImplicationMiningOptions& options,
    const ParallelOptions& parallel, ParallelMiningStats* stats) {
  return MineParallel<ImplicationKind>(matrix, options, parallel, stats);
}

StatusOr<SimilarityRuleSet> MineSimilaritiesParallel(
    const BinaryMatrix& matrix, const SimilarityMiningOptions& options,
    const ParallelOptions& parallel, ParallelMiningStats* stats) {
  return MineParallel<SimilarityKind>(matrix, options, parallel, stats);
}

}  // namespace dmc
