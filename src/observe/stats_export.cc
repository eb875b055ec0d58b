#include "observe/stats_export.h"

#include <sstream>

#include "core/external_miner.h"
#include "core/mining_stats.h"
#include "core/parallel_dmc.h"
#include "observe/json_writer.h"
#include "observe/metrics.h"
#include "shard/shard_stats.h"
#include "util/atomic_io.h"

namespace dmc {

void WriteJson(JsonWriter& w, const MiningStats& stats) {
  w.BeginObject();
  w.Key("prescan_seconds");
  w.Value(stats.prescan_seconds);
  w.Key("hundred_base_seconds");
  w.Value(stats.hundred_base_seconds);
  w.Key("hundred_bitmap_seconds");
  w.Value(stats.hundred_bitmap_seconds);
  w.Key("sub_base_seconds");
  w.Value(stats.sub_base_seconds);
  w.Key("sub_bitmap_seconds");
  w.Value(stats.sub_bitmap_seconds);
  w.Key("total_seconds");
  w.Value(stats.total_seconds);
  w.Key("peak_counter_bytes");
  w.Value(stats.peak_counter_bytes);
  w.Key("peak_candidates");
  w.Value(stats.peak_candidates);
  w.Key("hundred_bitmap_triggered");
  w.Value(stats.hundred_bitmap_triggered);
  w.Key("sub_bitmap_triggered");
  w.Value(stats.sub_bitmap_triggered);
  w.Key("sub_bitmap_rows");
  w.Value(stats.sub_bitmap_rows);
  w.Key("rules_from_hundred_phase");
  w.Value(stats.rules_from_hundred_phase);
  w.Key("rules_from_sub_phase");
  w.Value(stats.rules_from_sub_phase);
  w.Key("columns_cut_off");
  w.Value(stats.columns_cut_off);
  if (!stats.kernel.empty()) {
    w.Key("kernel");
    w.Value(stats.kernel);
  }
  if (!stats.memory_history.empty()) {
    w.Key("memory_history");
    w.BeginArray();
    for (size_t v : stats.memory_history) w.Value(v);
    w.EndArray();
  }
  if (!stats.candidate_history.empty()) {
    w.Key("candidate_history");
    w.BeginArray();
    for (size_t v : stats.candidate_history) w.Value(v);
    w.EndArray();
  }
  w.EndObject();
}

void WriteJson(JsonWriter& w, const ParallelMiningStats& stats) {
  w.BeginObject();
  w.Key("total_seconds");
  w.Value(stats.total_seconds);
  w.Key("max_shard_seconds");
  w.Value(stats.max_shard_seconds);
  w.Key("sum_shard_seconds");
  w.Value(stats.sum_shard_seconds);
  w.Key("sum_peak_counter_bytes");
  w.Value(stats.sum_peak_counter_bytes);
  w.Key("max_peak_counter_bytes");
  w.Value(stats.max_peak_counter_bytes);
  w.Key("shards");
  w.Value(stats.shards);
  w.Key("shards_failed");
  w.Value(stats.shards_failed);
  w.Key("shards_degraded");
  w.Value(stats.shards_degraded);
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
  w.Key("pass1_seconds");
  w.Value(stats.pass1_seconds);
  w.Key("partition_seconds");
  w.Value(stats.partition_seconds);
  w.Key("mine_seconds");
  w.Value(stats.mine_seconds);
  w.Key("total_seconds");
  w.Value(stats.total_seconds);
  w.Key("rows");
  w.Value(stats.rows);
  w.Key("columns");
  w.Value(stats.columns);
  w.Key("bucket_files");
  w.Value(stats.bucket_files);
  w.Key("resumed");
  w.Value(stats.resumed);
  w.Key("io_retries");
  w.Value(stats.io_retries);
  w.EndObject();
}

void WriteJson(JsonWriter& w, const shard::ShardMiningStats& stats) {
  w.BeginObject();
  w.Key("tasks_total");
  w.Value(stats.tasks_total);
  w.Key("workers_spawned");
  w.Value(stats.workers_spawned);
  w.Key("workers_died");
  w.Value(stats.workers_died);
  w.Key("tasks_reassigned");
  w.Value(stats.tasks_reassigned);
  w.Key("heartbeats");
  w.Value(stats.heartbeats);
  w.Key("checkpoint_hits");
  w.Value(stats.checkpoint_hits);
  w.Key("degraded_tasks");
  w.Value(stats.degraded_tasks);
  w.Key("pass1_seconds");
  w.Value(stats.pass1_seconds);
  w.Key("mine_seconds");
  w.Value(stats.mine_seconds);
  w.Key("total_seconds");
  w.Value(stats.total_seconds);
  w.Key("resumed");
  w.Value(stats.resumed);
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
  if (report.mining != nullptr) {
    w.Key("mining");
    WriteJson(w, *report.mining);
  }
  if (report.parallel != nullptr) {
    w.Key("parallel");
    WriteJson(w, *report.parallel);
  }
  if (report.external != nullptr) {
    w.Key("external");
    WriteJson(w, *report.external);
  }
  if (report.shard != nullptr) {
    w.Key("shard");
    WriteJson(w, *report.shard);
  }
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
  if (registry == nullptr) return;
  registry->RecordTimer(prefix + ".prescan_seconds", stats.prescan_seconds);
  registry->RecordTimer(prefix + ".hundred_base_seconds",
                        stats.hundred_base_seconds);
  registry->RecordTimer(prefix + ".hundred_bitmap_seconds",
                        stats.hundred_bitmap_seconds);
  registry->RecordTimer(prefix + ".sub_base_seconds", stats.sub_base_seconds);
  registry->RecordTimer(prefix + ".sub_bitmap_seconds",
                        stats.sub_bitmap_seconds);
  registry->RecordTimer(prefix + ".total_seconds", stats.total_seconds);
  registry->MaxGauge(prefix + ".peak_counter_bytes",
                     static_cast<double>(stats.peak_counter_bytes));
  registry->MaxGauge(prefix + ".peak_candidates",
                     static_cast<double>(stats.peak_candidates));
  registry->IncrCounter(prefix + ".rules_from_hundred_phase",
                        stats.rules_from_hundred_phase);
  registry->IncrCounter(prefix + ".rules_from_sub_phase",
                        stats.rules_from_sub_phase);
  registry->IncrCounter(prefix + ".columns_cut_off", stats.columns_cut_off);
  if (stats.hundred_bitmap_triggered) {
    registry->IncrCounter(prefix + ".hundred_bitmap_triggered");
  }
  if (stats.sub_bitmap_triggered) {
    registry->IncrCounter(prefix + ".sub_bitmap_triggered");
  }
}

void RecordToRegistry(MetricsRegistry* registry, const std::string& prefix,
                      const ParallelMiningStats& stats) {
  if (registry == nullptr) return;
  registry->RecordTimer(prefix + ".total_seconds", stats.total_seconds);
  registry->RecordTimer(prefix + ".max_shard_seconds",
                        stats.max_shard_seconds);
  registry->RecordTimer(prefix + ".sum_shard_seconds",
                        stats.sum_shard_seconds);
  registry->MaxGauge(prefix + ".sum_peak_counter_bytes",
                     static_cast<double>(stats.sum_peak_counter_bytes));
  registry->MaxGauge(prefix + ".max_peak_counter_bytes",
                     static_cast<double>(stats.max_peak_counter_bytes));
  registry->SetGauge(prefix + ".shards", stats.shards);
  registry->IncrCounter(prefix + ".shards_failed", stats.shards_failed);
  registry->IncrCounter(prefix + ".shards_degraded", stats.shards_degraded);
}

void RecordToRegistry(MetricsRegistry* registry, const std::string& prefix,
                      const ExternalMiningStats& stats) {
  if (registry == nullptr) return;
  registry->RecordTimer(prefix + ".pass1_seconds", stats.pass1_seconds);
  registry->RecordTimer(prefix + ".partition_seconds",
                        stats.partition_seconds);
  registry->RecordTimer(prefix + ".mine_seconds", stats.mine_seconds);
  registry->RecordTimer(prefix + ".total_seconds", stats.total_seconds);
  registry->IncrCounter(prefix + ".rows", stats.rows);
  registry->SetGauge(prefix + ".columns", stats.columns);
  registry->SetGauge(prefix + ".bucket_files",
                     static_cast<double>(stats.bucket_files));
  registry->SetGauge(prefix + ".resumed", stats.resumed ? 1.0 : 0.0);
  registry->IncrCounter(prefix + ".io_retries", stats.io_retries);
}

}  // namespace dmc
