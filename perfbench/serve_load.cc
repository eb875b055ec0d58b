#include "serve_load.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "core/engine.h"
#include "incr/window_miner.h"
#include "rules/rule_index.h"

namespace perfbench {

namespace {

using dmc::serve::Op;

constexpr uint32_t kTopK = 16;
/// Longest wait for the last batch of a slice to become visible.
constexpr double kDrainTimeoutSeconds = 5.0;

double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return SecondsBetween(a, b) * 1e3;
}

Clock::duration ToDuration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

struct QueryPick {
  Op op = Op::kTopK;
  uint32_t arg = 0;
};

// 45% antecedent, 45% consequent, 10% top-k; the same draw sequence in
// the live client and the replay.
QueryPick PickQuery(dmc::Rng& rng, dmc::ColumnId num_columns) {
  const uint64_t kind = rng.Uniform(20);
  if (kind >= 18) return {Op::kTopK, kTopK};
  const auto column = static_cast<uint32_t>(rng.Uniform(num_columns));
  return {kind < 9 ? Op::kQueryByAntecedent : Op::kQueryByConsequent, column};
}

std::vector<dmc::ImplicationRule> QuerySnapshot(
    const dmc::RuleIndexSnapshot& snapshot, const QueryPick& pick) {
  switch (pick.op) {
    case Op::kQueryByAntecedent: return snapshot.QueryByAntecedent(pick.arg);
    case Op::kQueryByConsequent: return snapshot.QueryByConsequent(pick.arg);
    default: return snapshot.TopK(pick.arg);
  }
}

// A reply is right when it answers the question asked, in exact
// confidence order, from a generation no older than the last one seen.
std::string CheckReply(const QueryPick& pick, const dmc::serve::Reply& reply,
                       uint64_t* last_generation) {
  if (!reply.status.ok()) return "query: " + reply.status.ToString();
  if (reply.op != pick.op) return "query: reply op differs from request";
  if (reply.generation < *last_generation) {
    return "query: generation went backwards";
  }
  *last_generation = reply.generation;
  const auto& rules = reply.rules;
  for (size_t i = 0; i < rules.size(); ++i) {
    if (pick.op == Op::kQueryByAntecedent && rules[i].lhs != pick.arg) {
      return "query: antecedent reply holds a foreign rule";
    }
    if (pick.op == Op::kQueryByConsequent && rules[i].rhs != pick.arg) {
      return "query: consequent reply holds a foreign rule";
    }
    if (i > 0 && dmc::HigherConfidence(rules[i], rules[i - 1])) {
      return "query: reply not in confidence order";
    }
  }
  if (pick.op == Op::kTopK && rules.size() > pick.arg) {
    return "query: top-k reply too long";
  }
  return "";
}

dmc::StatusOr<dmc::serve::Reply> SendQuery(dmc::serve::RuleClient* client,
                                           const QueryPick& pick) {
  switch (pick.op) {
    case Op::kQueryByAntecedent: return client->QueryByAntecedent(pick.arg);
    case Op::kQueryByConsequent: return client->QueryByConsequent(pick.arg);
    default: return client->TopK(pick.arg);
  }
}

std::string ServerErrors(const dmc::serve::ServeStats& s) {
  if (s.batches_dropped == 0 && s.evicts_dropped == 0 && s.io_errors == 0 &&
      s.protocol_errors == 0) {
    return "";
  }
  return "server reports batches_dropped=" + std::to_string(s.batches_dropped) +
         " evicts_dropped=" + std::to_string(s.evicts_dropped) +
         " io_errors=" + std::to_string(s.io_errors) +
         " protocol_errors=" + std::to_string(s.protocol_errors);
}

uint64_t QuerySeed(uint64_t seed) { return seed * 0x9E3779B97F4A7C15ULL + 7; }

}  // namespace

ServeLoad::ServeLoad(const RowStream& stream, ServeConfig config,
                     uint64_t seed)
    : stream_(stream), config_(config), query_rng_(QuerySeed(seed)) {}

ServeLoad::~ServeLoad() { Stop(); }

dmc::Status ServeLoad::Start() {
  dmc::ServeOptions options;
  options.mining.min_confidence = config_.min_confidence;
  options.window_rows = config_.window_rows;
  server_ = std::make_unique<dmc::RuleServer>(std::move(options));
  const dmc::BinaryMatrix window = stream_.Window();
  DMC_RETURN_IF_ERROR(server_->SeedFromMatrix(window));
  DMC_RETURN_IF_ERROR(server_->Start());
  seed_generation_ = server_->index().snapshot()->generation();
  for (dmc::serve::RuleClient* client : {&appender_, &querier_, &watcher_}) {
    DMC_RETURN_IF_ERROR(client->Connect("127.0.0.1", server_->port()));
  }
  for (dmc::RowId r = 0; r < window.num_rows(); ++r) {
    const auto row = window.Row(r);
    window_.emplace_back(row.begin(), row.end());
  }
  return dmc::Status::OK();
}

void ServeLoad::RunSlice(double seconds, ServeSamples* samples,
                         Outcome* outcome) {
  const uint64_t n = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::llround(seconds * config_.batches_per_second)));
  std::vector<std::vector<std::vector<dmc::ColumnId>>> batches;
  batches.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    batches.push_back(stream_.Batch(batches_sent_ + i, config_.batch_rows));
  }
  const dmc::ColumnId num_columns = stream_.num_columns();
  const uint64_t first_generation = seed_generation_ + batches_sent_ + 1;
  const Clock::duration period = ToDuration(1.0 / config_.batches_per_second);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  const Clock::time_point deadline = start + ToDuration(seconds);

  // Open-loop appender: batch i is due at start + i * period, whatever
  // happened to the batches before it.
  std::vector<Clock::time_point> due(n);
  std::vector<double> ack_ms;
  std::vector<double> late_ms;
  uint64_t pending_max = 0;
  std::string appender_error;
  std::atomic<uint64_t> acked{0};
  std::atomic<bool> appender_done{false};
  std::thread appender([&] {
    for (uint64_t i = 0; i < n; ++i) {
      due[i] = start + period * static_cast<int64_t>(i);
      std::this_thread::sleep_until(due[i]);
      const Clock::time_point sent = Clock::now();
      const auto reply = appender_.AppendRows(num_columns, batches[i]);
      const Clock::time_point acked_at = Clock::now();
      if (!reply.ok()) {
        appender_error = "append: " + reply.status().ToString();
        break;
      }
      late_ms.push_back(MillisBetween(due[i], sent));
      ack_ms.push_back(MillisBetween(due[i], acked_at));
      pending_max = std::max(pending_max, *reply);
      acked.fetch_add(1, std::memory_order_release);
    }
    appender_done.store(true, std::memory_order_release);
  });

  // Closed-loop query client; it stops at the first wrong reply.
  std::vector<double> query_ms;
  std::string query_error;
  std::thread querier([&] {
    while (Clock::now() < deadline && query_error.empty()) {
      const QueryPick pick = PickQuery(query_rng_, num_columns);
      const Clock::time_point t0 = Clock::now();
      const auto reply = SendQuery(&querier_, pick);
      const Clock::time_point t1 = Clock::now();
      query_ms.push_back(MillisBetween(t0, t1));
      query_error = reply.ok()
                        ? CheckReply(pick, *reply, &last_query_generation_)
                        : "query: " + reply.status().ToString();
    }
  });

  // Closed-loop watcher on a fixed cadence: records when each new
  // generation first shows, until the slice's last acked batch is
  // visible.
  std::vector<std::pair<uint64_t, Clock::time_point>> seen;
  std::string watcher_error;
  std::thread watcher([&] {
    const Clock::duration cadence = ToDuration(config_.watcher_period_s);
    const Clock::time_point give_up =
        deadline + ToDuration(kDrainTimeoutSeconds);
    uint64_t last_generation = 0;
    Clock::time_point next = start;
    while (true) {
      const auto stats = watcher_.Stats();
      const Clock::time_point now = Clock::now();
      if (!stats.ok()) {
        watcher_error = "stats: " + stats.status().ToString();
        break;
      }
      if (stats->generation > last_generation) {
        last_generation = stats->generation;
        seen.push_back({last_generation, now});
      }
      watcher_error = ServerErrors(*stats);
      if (!watcher_error.empty()) break;
      if (appender_done.load(std::memory_order_acquire) &&
          last_generation + 1 >=
              first_generation + acked.load(std::memory_order_acquire)) {
        break;
      }
      if (now > give_up) {
        watcher_error = "slice drain timed out";
        break;
      }
      next = std::max(next + cadence, now);
      std::this_thread::sleep_until(next);
    }
  });

  appender.join();
  querier.join();
  watcher.join();

  const uint64_t sent = acked.load();
  std::vector<double> lag_ms;
  for (uint64_t i = 0; i < n; ++i) {
    std::string error;
    if (i >= sent) {
      error = appender_error.empty() ? "append not sent" : appender_error;
    } else {
      const auto visible = std::find_if(
          seen.begin(), seen.end(),
          [&](const auto& s) { return s.first >= first_generation + i; });
      if (visible == seen.end()) {
        error = "append never became visible";
      } else {
        lag_ms.push_back(MillisBetween(due[i], visible->second));
      }
    }
    outcome->Record("serve.append", error);
  }
  // The slice's thousands of queries count as one operation, as does its
  // watcher, so their kinds weigh like the appends in success_rate.
  outcome->Record("serve.query", query_error);
  outcome->Record("serve.watch", watcher_error);

  samples->visible_lag_ms.insert(samples->visible_lag_ms.end(), lag_ms.begin(),
                                 lag_ms.end());
  samples->append_ack_ms.insert(samples->append_ack_ms.end(), ack_ms.begin(),
                                ack_ms.end());
  samples->generator_late_ms.insert(samples->generator_late_ms.end(),
                                    late_ms.begin(), late_ms.end());
  samples->query_ms.insert(samples->query_ms.end(), query_ms.begin(),
                           query_ms.end());
  samples->pending_batches_max =
      std::max(samples->pending_batches_max, pending_max);

  for (uint64_t i = 0; i < sent; ++i) {
    for (auto& row : batches[i]) window_.push_back(std::move(row));
  }
  while (window_.size() > config_.window_rows) window_.pop_front();
  batches_sent_ += sent;
}

std::string ServeLoad::FinalError() const {
  const std::string errors = ServerErrors(server_->StatsSnapshot());
  if (!errors.empty()) return errors;
  const uint64_t generation = seed_generation_ + batches_sent_;
  const auto served = server_->index().snapshot();
  if (served->generation() != generation) {
    return "final generation " + std::to_string(served->generation()) +
           ", expected " + std::to_string(generation);
  }
  dmc::ImplicationMiningOptions options;
  options.min_confidence = config_.min_confidence;
  const auto fresh = dmc::MineImplications(
      dmc::BinaryMatrix::FromRows(stream_.num_columns(),
                                  {window_.begin(), window_.end()}),
      options);
  if (!fresh.ok()) {
    return "reference window mine: " + fresh.status().ToString();
  }
  if (dmc::RuleIndexSnapshot::Build(*fresh, generation)->TopK(0) !=
      served->TopK(0)) {
    return "final snapshot differs from a fresh mine of the window";
  }
  return "";
}

void ServeLoad::Stop() {
  appender_.Close();
  querier_.Close();
  watcher_.Close();
  if (server_ != nullptr) server_->Shutdown();
}

uint64_t ServeLoad::snapshots_published() const {
  return server_ == nullptr ? 0
                            : server_->StatsSnapshot().snapshots_published;
}

ReplayResult ReplayServe(const RowStream& stream, const ServeConfig& config,
                         uint64_t seed, uint64_t batches,
                         uint64_t queries_per_batch, SpanLog* spans) {
  ReplayResult result;
  dmc::ImplicationMiningOptions options;
  options.min_confidence = config.min_confidence;
  auto miner = dmc::WindowedImplicationMiner::FromBatchMine(
      stream.Window(), options, config.window_rows);
  if (!miner.ok()) {
    result.failure = "replay seed: " + miner.status().ToString();
    return result;
  }
  dmc::RuleIndex index;
  index.Publish(miner->rules());
  dmc::Rng rng(QuerySeed(seed));
  auto& counts = result.counts;
  for (const char* name :
       {"incr.rules_updated", "incr.candidates_killed",
        "incr.candidates_revived", "incr.delta_pairs_examined",
        "incr.regen_pairs_examined"}) {
    counts[name] = 0;
  }
  for (uint64_t b = 0; b < batches; ++b) {
    const int op = spans->NewOp();
    const dmc::BinaryMatrix delta = dmc::BinaryMatrix::FromRows(
        stream.num_columns(), stream.Batch(b, config.batch_rows));
    dmc::IncrAppendStats append;
    dmc::IncrEvictStats evict;
    const Clock::time_point t0 = Clock::now();
    const dmc::Status st = miner->AppendBatch(delta, &append, &evict);
    const Clock::time_point t1 = Clock::now();
    if (!st.ok()) {
      result.failure = "replay append: " + st.ToString();
      return result;
    }
    index.Publish(miner->rules());
    const Clock::time_point t2 = Clock::now();
    spans->Add("incr.append_batch", t0, t1, -1, op);
    spans->Add("rules.publish", t1, t2, -1, op);
    result.append_ms.push_back(append.seconds * 1e3);
    result.evict_ms.push_back(evict.seconds * 1e3);
    result.publish_ms.push_back(MillisBetween(t1, t2));
    counts["incr.rules_updated"] += append.rules_updated + evict.rules_updated;
    counts["incr.candidates_killed"] +=
        append.candidates_killed + evict.candidates_killed;
    counts["incr.candidates_revived"] +=
        append.candidates_revived + evict.candidates_regenerated;
    counts["incr.delta_pairs_examined"] += append.delta_pairs_examined;
    counts["incr.regen_pairs_examined"] += evict.regen_pairs_examined;
    for (uint64_t q = 0; q < queries_per_batch; ++q) {
      const QueryPick pick = PickQuery(rng, stream.num_columns());
      const Clock::time_point q0 = Clock::now();
      const auto snapshot = index.snapshot();
      const auto rules = QuerySnapshot(*snapshot, pick);
      const Clock::time_point q1 = Clock::now();
      spans->Add("rules.query", q0, q1, -1, op);
      result.query_us.push_back(SecondsBetween(q0, q1) * 1e6);
    }
  }
  counts["incr.state_bytes"] = miner->MemoryBytes();
  return result;
}

}  // namespace perfbench
