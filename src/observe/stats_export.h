// One export path for every stats struct the engines emit.
//
// The exported document (schema_version 1) is:
//
//   {
//     "schema_version": 1,
//     "tool":    "<producer, e.g. dmc_cli>",
//     "dataset": "<input name>",
//     "labels":  { "<k>": "<v>", ... },          // free-form run labels
//     "rules_total": <n>,                        // omitted when < 0
//     "mining":   { ...MiningStats... },         // present when supplied
//     "parallel": { ...ParallelMiningStats...,   // --threads
//                   "per_shard": [ {MiningStats}, ... ] },
//     "external": { ...ExternalMiningStats... },
//     "shard":    { ...shard::ShardMiningStats... },  // --shard-workers
//     "metrics":  { "counters": {...}, "gauges": {...},
//                   "timers": {...}, "histograms": {...} }
//   }
//
// Field names inside each section match the struct members one-to-one,
// so the schema is documented by mining_stats.h / parallel_dmc.h /
// external_miner.h / shard/shard_stats.h. Timing fields all end in
// "seconds"; golden tests mask exactly those.
//
// A new scalar member gets one row in its struct's field list in
// stats_export.cc, at its JSON position. The row names the member (its
// JSON key and registry suffix) and how RecordToRegistry mirrors it:
// kTimer records one sample, kCounter adds the value, kCounterIfTrue
// adds 1 when the flag is set, kGauge sets and kMaxGauge raises a
// gauge, kNone is JSON only. A member without a row must be named there
// as a special case (kernel, the histories, per_shard, mining).
//
// "parallel" and "shard" report the two executors of one antecedent-
// shard plan, threads and worker processes. They share one failure
// rule — the caller mines what a worker cannot run — which each section
// counts in its own field: shards_degraded (a thread did not start) and
// degraded_tasks (no worker could take the task).

#ifndef DMC_OBSERVE_STATS_EXPORT_H_
#define DMC_OBSERVE_STATS_EXPORT_H_

#include <map>
#include <ostream>
#include <string>

#include "util/status.h"

namespace dmc {

class JsonWriter;
class MetricsRegistry;
struct MiningStats;
struct ParallelMiningStats;
struct ExternalMiningStats;
namespace shard {
struct ShardMiningStats;
}  // namespace shard

/// Writers for the individual sections, exposed so tests can check one
/// struct's serialization in isolation.
void WriteJson(JsonWriter& w, const MiningStats& stats);
void WriteJson(JsonWriter& w, const ParallelMiningStats& stats);
void WriteJson(JsonWriter& w, const ExternalMiningStats& stats);
void WriteJson(JsonWriter& w, const shard::ShardMiningStats& stats);

/// Everything one metrics document can carry; null pointers omit their
/// section. The pointed-to objects must outlive the export call.
struct MetricsReport {
  std::string tool;
  std::string dataset;
  std::map<std::string, std::string> labels;
  /// Total rules in the produced rule set; negative = omit.
  int64_t rules_total = -1;
  const MiningStats* mining = nullptr;
  const ParallelMiningStats* parallel = nullptr;
  const ExternalMiningStats* external = nullptr;
  const shard::ShardMiningStats* shard = nullptr;
  const MetricsRegistry* metrics = nullptr;
};

/// Writes the full document to `os` (pretty-printed, trailing newline).
Status ExportMetricsJson(const MetricsReport& report, std::ostream& os);

/// Opens `path`, writes the document, and closes it.
Status ExportMetricsJsonFile(const MetricsReport& report,
                             const std::string& path);

/// Mirrors a stats struct into registry gauges/counters under
/// "<prefix>.<field>" (e.g. "imp.peak_counter_bytes"), so ad-hoc
/// instrumentation and the engine stats land in one namespace. Each
/// executor calls it once, at the end of a successful run.
void RecordToRegistry(MetricsRegistry* registry, const std::string& prefix,
                      const MiningStats& stats);
void RecordToRegistry(MetricsRegistry* registry, const std::string& prefix,
                      const ParallelMiningStats& stats);
void RecordToRegistry(MetricsRegistry* registry, const std::string& prefix,
                      const ExternalMiningStats& stats);
void RecordToRegistry(MetricsRegistry* registry, const std::string& prefix,
                      const shard::ShardMiningStats& stats);

}  // namespace dmc

#endif  // DMC_OBSERVE_STATS_EXPORT_H_
