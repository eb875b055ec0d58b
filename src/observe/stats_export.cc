#include "observe/stats_export.h"

#include <sstream>
#include <tuple>

#include "core/external_miner.h"
#include "core/mining_stats.h"
#include "core/parallel_dmc.h"
#include "observe/json_writer.h"
#include "observe/metrics.h"
#include "shard/shard_stats.h"
#include "util/atomic_io.h"

namespace dmc {

namespace {

/// How RecordToRegistry mirrors one field (stats_export.h).
enum class Mirror { kNone, kTimer, kCounter, kCounterIfTrue, kGauge,
                    kMaxGauge };

template <typename Stats, typename T>
struct Field {
  const char* name;
  T Stats::*member;
  Mirror mirror;
};

// One row per exported scalar member; the JSON key and the registry
// suffix are the member's own name.
#define DMC_FIELD(Stats, member, mirror) \
  Field<Stats, decltype(Stats::member)>{#member, &Stats::member, Mirror::mirror}

constexpr auto kMiningFields = std::make_tuple(
    DMC_FIELD(MiningStats, prescan_seconds, kTimer),
    DMC_FIELD(MiningStats, hundred_base_seconds, kTimer),
    DMC_FIELD(MiningStats, hundred_bitmap_seconds, kTimer),
    DMC_FIELD(MiningStats, sub_base_seconds, kTimer),
    DMC_FIELD(MiningStats, sub_bitmap_seconds, kTimer),
    DMC_FIELD(MiningStats, total_seconds, kTimer),
    DMC_FIELD(MiningStats, peak_counter_bytes, kMaxGauge),
    DMC_FIELD(MiningStats, peak_candidates, kMaxGauge),
    DMC_FIELD(MiningStats, hundred_bitmap_triggered, kCounterIfTrue),
    DMC_FIELD(MiningStats, sub_bitmap_triggered, kCounterIfTrue),
    DMC_FIELD(MiningStats, sub_bitmap_rows, kNone),
    DMC_FIELD(MiningStats, rules_from_hundred_phase, kCounter),
    DMC_FIELD(MiningStats, rules_from_sub_phase, kCounter),
    DMC_FIELD(MiningStats, columns_cut_off, kCounter));

constexpr auto kParallelFields = std::make_tuple(
    DMC_FIELD(ParallelMiningStats, total_seconds, kTimer),
    DMC_FIELD(ParallelMiningStats, max_shard_seconds, kTimer),
    DMC_FIELD(ParallelMiningStats, sum_shard_seconds, kTimer),
    DMC_FIELD(ParallelMiningStats, sum_peak_counter_bytes, kMaxGauge),
    DMC_FIELD(ParallelMiningStats, max_peak_counter_bytes, kMaxGauge),
    DMC_FIELD(ParallelMiningStats, shards, kGauge),
    DMC_FIELD(ParallelMiningStats, shards_failed, kCounter),
    DMC_FIELD(ParallelMiningStats, shards_degraded, kCounter));

constexpr auto kExternalFields = std::make_tuple(
    DMC_FIELD(ExternalMiningStats, pass1_seconds, kTimer),
    DMC_FIELD(ExternalMiningStats, partition_seconds, kTimer),
    DMC_FIELD(ExternalMiningStats, mine_seconds, kTimer),
    DMC_FIELD(ExternalMiningStats, total_seconds, kTimer),
    DMC_FIELD(ExternalMiningStats, rows, kCounter),
    DMC_FIELD(ExternalMiningStats, columns, kGauge),
    DMC_FIELD(ExternalMiningStats, bucket_files, kGauge),
    DMC_FIELD(ExternalMiningStats, resumed, kGauge),
    DMC_FIELD(ExternalMiningStats, io_retries, kCounter));

constexpr auto kShardFields = std::make_tuple(
    DMC_FIELD(shard::ShardMiningStats, tasks_total, kGauge),
    DMC_FIELD(shard::ShardMiningStats, workers_spawned, kCounter),
    DMC_FIELD(shard::ShardMiningStats, workers_died, kCounter),
    DMC_FIELD(shard::ShardMiningStats, tasks_reassigned, kCounter),
    DMC_FIELD(shard::ShardMiningStats, heartbeats, kCounter),
    DMC_FIELD(shard::ShardMiningStats, checkpoint_hits, kCounter),
    DMC_FIELD(shard::ShardMiningStats, degraded_tasks, kCounter),
    DMC_FIELD(shard::ShardMiningStats, pass1_seconds, kTimer),
    DMC_FIELD(shard::ShardMiningStats, mine_seconds, kTimer),
    DMC_FIELD(shard::ShardMiningStats, total_seconds, kTimer),
    DMC_FIELD(shard::ShardMiningStats, resumed, kNone));

#undef DMC_FIELD

// Each binding lists its struct's members in declaration order: the
// rows above, and by name the special cases (kernel, the histories and
// per_shard, which WriteJson writes by hand; mining, which callers
// export as their "mining" section). A member added to a struct breaks
// its binding until it has a row or is named here.
[[maybe_unused]] void EveryMemberHasARowOrIsNamed(
    const MiningStats& m, const ParallelMiningStats& p,
    const ExternalMiningStats& e, const shard::ShardMiningStats& s) {
  [[maybe_unused]] const auto& [m1, m2, m3, m4, m5, m6, m7, m8,
                                memory_history, candidate_history, m9, m10,
                                m11, kernel, m12, m13, m14] = m;
  static_assert(std::tuple_size_v<decltype(kMiningFields)> == 14);
  [[maybe_unused]] const auto& [p1, p2, p3, p4, p5, p6, p7, p8, per_shard] =
      p;
  static_assert(std::tuple_size_v<decltype(kParallelFields)> == 8);
  [[maybe_unused]] const auto& [e1, e2, e3, e4, e5, e6, e7, e8, e9, mining] =
      e;
  static_assert(std::tuple_size_v<decltype(kExternalFields)> == 9);
  [[maybe_unused]] const auto& [s1, s2, s3, s4, s5, s6, s7, s8, s9, s10,
                                s11] = s;
  static_assert(std::tuple_size_v<decltype(kShardFields)> == 11);
}

template <typename Stats, typename Fields>
void WriteFields(JsonWriter& w, const Stats& stats, const Fields& fields) {
  std::apply(
      [&](const auto&... f) {
        ((w.Key(f.name), w.Value(stats.*f.member)), ...);
      },
      fields);
}

template <typename T>
void MirrorField(MetricsRegistry* registry, const std::string& name, T value,
                 Mirror mirror) {
  const double v = static_cast<double>(value);
  switch (mirror) {
    case Mirror::kNone: break;
    case Mirror::kTimer: registry->RecordTimer(name, v); break;
    case Mirror::kCounter: registry->IncrCounter(name, value); break;
    case Mirror::kCounterIfTrue: if (value) registry->IncrCounter(name); break;
    case Mirror::kGauge: registry->SetGauge(name, v); break;
    case Mirror::kMaxGauge: registry->MaxGauge(name, v); break;
  }
}

template <typename Stats, typename Fields>
void MirrorFields(MetricsRegistry* registry, const std::string& prefix,
                  const Stats& stats, const Fields& fields) {
  if (registry == nullptr) return;
  std::apply(
      [&](const auto&... f) {
        (MirrorField(registry, prefix + "." + f.name, stats.*f.member,
                     f.mirror),
         ...);
      },
      fields);
}

void WriteHistory(JsonWriter& w, const char* key,
                  const std::vector<size_t>& history) {
  if (history.empty()) return;
  w.Key(key);
  w.BeginArray();
  for (size_t v : history) w.Value(v);
  w.EndArray();
}

}  // namespace

void WriteJson(JsonWriter& w, const MiningStats& stats) {
  w.BeginObject();
  WriteFields(w, stats, kMiningFields);
  if (!stats.kernel.empty()) {
    w.Key("kernel");
    w.Value(stats.kernel);
  }
  WriteHistory(w, "memory_history", stats.memory_history);
  WriteHistory(w, "candidate_history", stats.candidate_history);
  w.EndObject();
}

void WriteJson(JsonWriter& w, const ParallelMiningStats& stats) {
  w.BeginObject();
  WriteFields(w, stats, kParallelFields);
  if (!stats.per_shard.empty()) {
    w.Key("per_shard");
    w.BeginArray();
    for (const MiningStats& s : stats.per_shard) WriteJson(w, s);
    w.EndArray();
  }
  w.EndObject();
}

void WriteJson(JsonWriter& w, const ExternalMiningStats& stats) {
  w.BeginObject();
  WriteFields(w, stats, kExternalFields);
  w.EndObject();
}

void WriteJson(JsonWriter& w, const shard::ShardMiningStats& stats) {
  w.BeginObject();
  WriteFields(w, stats, kShardFields);
  w.EndObject();
}

Status ExportMetricsJson(const MetricsReport& report, std::ostream& os) {
  JsonWriter w(os, /*indent=*/2);
  w.BeginObject();
  w.Key("schema_version");
  w.Value(1);
  w.Key("tool");
  w.Value(report.tool);
  w.Key("dataset");
  w.Value(report.dataset);
  w.Key("labels");
  w.BeginObject();
  for (const auto& [k, v] : report.labels) {
    w.Key(k);
    w.Value(v);
  }
  w.EndObject();
  if (report.rules_total >= 0) {
    w.Key("rules_total");
    w.Value(report.rules_total);
  }
  const auto section = [&w](const char* key, const auto* stats) {
    if (stats == nullptr) return;
    w.Key(key);
    WriteJson(w, *stats);
  };
  section("mining", report.mining);
  section("parallel", report.parallel);
  section("external", report.external);
  section("shard", report.shard);
  if (report.metrics != nullptr) {
    w.Key("metrics");
    report.metrics->WriteJson(w);
  }
  w.EndObject();
  os << '\n';
  if (!os.good()) return IOError("metrics export stream write failed");
  return Status::OK();
}

Status ExportMetricsJsonFile(const MetricsReport& report,
                             const std::string& path) {
  // Serialize to memory first so the on-disk file is replaced atomically:
  // a crash mid-export leaves the previous document (or none), never a
  // truncated one.
  std::ostringstream buffer;
  DMC_RETURN_IF_ERROR(ExportMetricsJson(report, buffer));
  return AtomicWriteFile(path, buffer.str());
}

void RecordToRegistry(MetricsRegistry* registry, const std::string& prefix,
                      const MiningStats& stats) {
  MirrorFields(registry, prefix, stats, kMiningFields);
}

void RecordToRegistry(MetricsRegistry* registry, const std::string& prefix,
                      const ParallelMiningStats& stats) {
  MirrorFields(registry, prefix, stats, kParallelFields);
}

void RecordToRegistry(MetricsRegistry* registry, const std::string& prefix,
                      const ExternalMiningStats& stats) {
  MirrorFields(registry, prefix, stats, kExternalFields);
}

void RecordToRegistry(MetricsRegistry* registry, const std::string& prefix,
                      const shard::ShardMiningStats& stats) {
  MirrorFields(registry, prefix, stats, kShardFields);
}

}  // namespace dmc
