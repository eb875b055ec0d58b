// dmc_cli — command-line front end for the whole library.
//
//   dmc_cli mine-imp  --input=FILE --minconf=0.9 [options]
//   dmc_cli mine-sim  --input=FILE --minsim=0.8  [options]
//   dmc_cli stats     --input=FILE
//   dmc_cli generate  --kind=weblog|linkgraph|news|dictionary|quest
//                     --output=FILE [--rows=N] [--cols=N] [--seed=N]
//                     [--stream]  (quest only: stream rows straight to
//                     disk in bounded memory — the scale mode for
//                     100M+-row matrices; output is byte-identical to
//                     the in-memory path)
//
// Common mining options:
//   --order=buckets|identity|sort   row order for the second pass
//   --no-hundred-phase              disable the 100%-rule pre-phase
//   --no-bitmap                     disable the DMC-bitmap fallback
//   --min-support=N --max-support=N support window (column pruning)
//   --threads=N                     parallel divide-and-conquer shards
//   --external --workdir=DIR        disk-based two-pass
//   --top=N                         print only the N strongest rules
//   --output=FILE                   write all rules to FILE
//
// Incremental mining & serving options (mine-imp / mine-sim):
//   --append=FILE[,FILE...]         mine --input as the initial batch,
//                                   then absorb each FILE as an append
//                                   batch with the incremental engine
//                                   (src/incr/; exact — the final rule
//                                   set equals a fresh mine of the
//                                   concatenation). Single-threaded,
//                                   in-memory path only.
//   --evict=N[,N...]                interleave explicit evictions with
//                                   the appends: after append batch i,
//                                   evict the oldest N_i rows; leftover
//                                   counts run after the last append.
//                                   Usable alone (evict straight from
//                                   the initial mine) — exact either
//                                   way, like --append.
//   --window-rows=N                 cap the mined window at the newest
//                                   N rows: the initial mine is trimmed
//                                   to N and every append auto-evicts
//                                   its overflow (the sliding-window
//                                   mode of src/incr/window_miner.h)
//   --serve-index=FILE              mine-imp: publish the mined rules
//                                   into a RuleIndex and save its
//                                   checksummed snapshot to FILE
//                                   (mine-sim exits 2 on it and on the
//                                   --query-* flags: a RuleIndex holds
//                                   implications only)
//   --query-lhs=COL                 with --serve-index: reload the saved
//                                   index and print rules COL => *
//   --query-rhs=COL                 with --serve-index: reload the saved
//                                   index and print rules * => COL
//
// Sharded (multi-process) mining options (mine-imp / mine-sim):
//   --shard-workers=N               mine across N worker processes over
//                                   the disk-based two-pass pipeline
//                                   (src/shard/); byte-identical to a
//                                   single-process mine
//   --shard-tasks-per-worker=N      over-partitioning factor (default 2):
//                                   finer tasks reassign with less waste
//                                   when a worker dies
//   --shard-checkpoint-dir=DIR      write per-task result checkpoints;
//                                   with --resume, finished tasks are
//                                   loaded instead of re-mined
//   --shard-worker-metrics-dir=DIR  per-worker metrics JSONL, merged into
//                                   the --metrics-out document
//   --shard-no-degrade              fail cleanly instead of mining
//                                   leftover tasks in-process when the
//                                   worker fleet gives out
//   --shard-heartbeat-timeout=SECS  declare a silent worker dead after
//                                   this long (default 30)
//
// Observability options (mine-imp / mine-sim):
//   --metrics-out=FILE              write the run's metrics document
//                                   (schema_version 1 JSON; see
//                                   src/observe/stats_export.h)
//   --trace-out=FILE                write a Chrome-tracing JSON of the
//                                   input parse (in memory only) and the
//                                   mining phases (load in ui.perfetto.dev)
//   --progress[=ROWS]               print progress to stderr every ROWS
//                                   rows (default 65536)
//
// Robustness options:
//   --checkpoint=FILE               external mining: write a pass-1
//                                   checkpoint and keep bucket files
//   --resume                        external mining: skip pass 1 when the
//                                   checkpoint validates against the input
//   --io-retries=N                  retry transient file-open failures up
//                                   to N times (default 3)
//   --failpoints=SPEC               arm fault-injection sites, e.g.
//                                   "matrix.text.row=error@2" (testing)
//   --failpoint-seed=N              seed for probabilistic failpoints
//
// All file outputs (--output, --metrics-out, --trace-out, generate
// --output) are written atomically: a crash mid-write leaves the old
// file (or no file), never a torn one.
//
// A malformed value of an integer flag (a sign, trailing text, or more
// than the flag's consumer holds), of an --evict entry, of
// --shard-heartbeat-timeout (a positive number of seconds) or of --order
// exits 2 with a message naming the flag, before any work starts.

#include <charconv>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "core/external_miner.h"
#include "shard/coordinator.h"
#include "incr/incr_miner.h"
#include "incr/window_miner.h"
#include "rules/rule_index.h"
#include "observe/metrics.h"
#include "observe/stats_export.h"
#include "observe/trace.h"
#include "util/atomic_io.h"
#include "util/failpoint.h"
#include "datagen/dictionary_gen.h"
#include "datagen/linkgraph_gen.h"
#include "datagen/news_gen.h"
#include "datagen/quest_gen.h"
#include "datagen/weblog_gen.h"
#include "matrix/column_stats.h"
#include "matrix/matrix_io.h"

namespace dmc {
namespace {

// Parses all of `text` as a decimal integer no larger than `max`; a
// sign, trailing text or overflow fails.
bool ParseUint(std::string_view text, uint64_t max, uint64_t* out) {
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value > max) return false;
  *out = value;
  return true;
}

// Minimal flag parsing: --name=value and boolean --name. CheckFlags
// validates every value GetInt and the --evict list read.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      // Build key/value as named locals: assigning substr() temporaries
      // straight into the map trips a GCC 12 -Wrestrict false positive
      // (inlined basic_string::operator= self-overlap check).
      const size_t eq = arg.find('=');
      std::string key = arg.substr(2, eq == std::string::npos
                                          ? std::string::npos
                                          : eq - 2);
      std::string value = eq == std::string::npos ? "1" : arg.substr(eq + 1);
      values_[std::move(key)] = std::move(value);
    }
  }

  std::string Get(const std::string& name, const std::string& def = "") const {
    const auto it = values_.find(name);
    return it == values_.end() ? def : it->second;
  }
  double GetDouble(const std::string& name, double def) const {
    const auto it = values_.find(name);
    return it == values_.end() ? def : std::atof(it->second.c_str());
  }
  /// `name` must be listed in kIntFlags.
  uint64_t GetInt(const std::string& name, uint64_t def) const {
    const auto it = values_.find(name);
    uint64_t value = def;
    if (it != values_.end()) {
      ParseUint(it->second, std::numeric_limits<uint64_t>::max(), &value);
    }
    return value;
  }
  bool GetBool(const std::string& name) const {
    return values_.count(name) > 0;
  }

 private:
  std::map<std::string, std::string> values_;
};

// Every integer flag, with the largest value its consumer holds.
constexpr struct {
  const char* name;
  uint64_t max;
} kIntFlags[] = {
    {"threads", UINT32_MAX},
    {"shard-workers", INT_MAX},
    {"shard-tasks-per-worker", INT_MAX},
    {"io-retries", INT_MAX},
    {"top", UINT64_MAX},
    {"min-support", UINT64_MAX},
    {"max-support", UINT64_MAX},
    {"window-rows", UINT64_MAX},
    {"query-lhs", UINT32_MAX},
    {"query-rhs", UINT32_MAX},
    {"progress", UINT64_MAX},
    {"rows", UINT32_MAX},
    {"cols", UINT32_MAX},
    {"seed", UINT64_MAX},
};

constexpr struct {
  const char* name;
  RowOrderPolicy order;
} kRowOrders[] = {
    {"identity", RowOrderPolicy::kIdentity},
    {"buckets", RowOrderPolicy::kDensityBuckets},
    {"sort", RowOrderPolicy::kExactSort},
};

std::vector<std::string> SplitCsv(const std::string& list) {
  std::vector<std::string> out;
  std::istringstream in(list);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

// The first malformed flag value, as a message naming the flag; empty
// when every value parses.
std::string CheckFlags(const Flags& flags) {
  uint64_t unused = 0;
  for (const auto& f : kIntFlags) {
    if (flags.GetBool(f.name) &&
        !ParseUint(flags.Get(f.name), f.max, &unused)) {
      return "--" + std::string(f.name) + "=" + flags.Get(f.name) +
             ": expected an integer from 0 to " + std::to_string(f.max);
    }
  }
  for (const std::string& entry : SplitCsv(flags.Get("evict"))) {
    if (!ParseUint(entry, UINT64_MAX, &unused)) {
      return "--evict=" + flags.Get("evict") + ": \"" + entry +
             "\" is not a row count";
    }
  }
  if (flags.GetBool("shard-heartbeat-timeout")) {
    const std::string text = flags.Get("shard-heartbeat-timeout");
    double seconds = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), seconds);
    if (ec != std::errc() || ptr != text.data() + text.size() ||
        !(seconds > 0.0) || !std::isfinite(seconds)) {
      return "--shard-heartbeat-timeout=" + text +
             ": expected a positive number of seconds";
    }
  }
  if (flags.GetBool("order")) {
    const std::string order = flags.Get("order");
    bool known = false;
    for (const auto& o : kRowOrders) known = known || order == o.name;
    if (!known) {
      return "--order=" + order + ": expected identity, buckets or sort";
    }
  }
  return "";
}

int Usage() {
  std::fprintf(stderr,
               "usage: dmc_cli <mine-imp|mine-sim|stats|generate> "
               "[--flag=value ...]\n(see the header of tools/dmc_cli.cc "
               "for the full flag list)\n");
  return 2;
}

DmcPolicy PolicyFromFlags(const Flags& flags) {
  DmcPolicy policy;
  const std::string order = flags.Get("order", "buckets");
  for (const auto& o : kRowOrders) {
    if (order == o.name) policy.row_order = o.order;
  }
  policy.hundred_percent_phase = !flags.GetBool("no-hundred-phase");
  policy.bitmap_fallback = !flags.GetBool("no-bitmap");
  return policy;
}

// Owns the registry/sink behind --metrics-out / --trace-out and hooks
// them (plus --progress) into the policy's ObserveContext.
class Observability {
 public:
  void Configure(const Flags& flags, DmcPolicy* policy) {
    metrics_out_ = flags.Get("metrics-out");
    trace_out_ = flags.Get("trace-out");
    if (!metrics_out_.empty()) policy->observe.metrics = &registry_;
    if (!trace_out_.empty()) policy->observe.trace = &trace_;
    if (flags.GetBool("progress")) {
      const uint64_t interval = flags.GetInt("progress", 1);
      policy->observe.progress_interval_rows =
          interval > 1 ? interval : 65536;
      policy->observe.progress = [](const ProgressUpdate& u) {
        std::fprintf(stderr,
                     "progress: %s %llu/%llu rows, %llu candidates, "
                     "%.2f MB%s\n",
                     u.phase, (unsigned long long)u.rows_processed,
                     (unsigned long long)u.total_rows,
                     (unsigned long long)u.live_candidates,
                     u.counter_bytes / (1024.0 * 1024.0),
                     u.shard >= 0 ? " (shard)" : "");
        return true;
      };
    }
  }

  /// Writes the requested output files; returns non-zero on failure.
  int Finish(MetricsReport report) {
    if (!metrics_out_.empty()) {
      report.metrics = &registry_;
      const Status st = ExportMetricsJsonFile(report, metrics_out_);
      if (!st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 1;
      }
      std::fprintf(stderr, "wrote metrics to %s\n", metrics_out_.c_str());
    }
    if (!trace_out_.empty()) {
      std::ostringstream buffer;
      trace_.WriteChromeJson(buffer);
      const Status st = AtomicWriteFile(trace_out_, buffer.str());
      if (!st.ok()) {
        std::fprintf(stderr, "trace write failed: %s\n",
                     st.ToString().c_str());
        return 1;
      }
      std::fprintf(stderr, "wrote trace to %s\n", trace_out_.c_str());
    }
    return 0;
  }

 private:
  MetricsRegistry registry_;
  TraceSink trace_;
  std::string metrics_out_;
  std::string trace_out_;
};

StatusOr<BinaryMatrix> LoadInput(const Flags& flags) {
  const std::string input = flags.Get("input");
  if (input.empty()) {
    return InvalidArgumentError("--input=FILE is required");
  }
  DMC_ASSIGN_OR_RETURN(BinaryMatrix m, ReadMatrixTextFile(input));
  const uint64_t min_support = flags.GetInt("min-support", 0);
  const uint64_t max_support =
      flags.GetInt("max-support", std::numeric_limits<uint64_t>::max());
  if (min_support > 0 ||
      max_support != std::numeric_limits<uint64_t>::max()) {
    PrunedMatrix pruned = SupportPruneColumns(m, min_support, max_support);
    std::fprintf(stderr, "support window [%llu, %llu]: %u of %u columns\n",
                 (unsigned long long)min_support,
                 (unsigned long long)max_support,
                 pruned.matrix.num_columns(), m.num_columns());
    m = std::move(pruned.matrix);
  }
  return m;
}

void ReportStats(const MiningStats& stats) {
  std::fprintf(stderr,
               "pre-scan %.3fs | 100%% phase %.3fs | sub-100%% %.3fs | "
               "total %.3fs\npeak counter memory %.2f MB (%zu candidates); "
               "bitmap fallback: %s\n",
               stats.prescan_seconds, stats.hundred_seconds(),
               stats.sub_seconds(), stats.total_seconds,
               stats.peak_counter_bytes / (1024.0 * 1024.0),
               stats.peak_candidates,
               stats.hundred_bitmap_triggered || stats.sub_bitmap_triggered
                   ? "used"
                   : "not needed");
}

template <typename RuleSetT>
int EmitRules(const RuleSetT& sorted, const Flags& flags) {
  const uint64_t top = flags.GetInt("top", 20);
  sorted.Print(std::cout, top);
  const std::string output = flags.Get("output");
  if (!output.empty()) {
    std::ostringstream buffer;
    sorted.Print(buffer, 0);
    const Status st = AtomicWriteFile(output, buffer.str());
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %zu rules to %s\n", sorted.size(),
                 output.c_str());
  }
  return 0;
}

// Narrates one EvictBatch (explicit --evict entry or window slide).
template <typename MinerT>
int EvictOnce(uint64_t k, MinerT* miner) {
  IncrEvictStats estats;
  const Status st = miner->EvictBatch(k, &estats);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "evict -%llu rows | %llu updated, %llu killed, "
               "%llu regenerated | %llu regen pairs | %.3fs\n",
               (unsigned long long)estats.rows_evicted,
               (unsigned long long)estats.rules_updated,
               (unsigned long long)estats.candidates_killed,
               (unsigned long long)estats.candidates_regenerated,
               (unsigned long long)estats.regen_pairs_examined,
               estats.seconds);
  return 0;
}

// Folds each --append file into `miner`, interleaved with the --evict
// counts (append batch i, then evict count i; leftover counts run after
// the last append), narrating per-op work.
template <typename MinerT>
int AppendBatches(const std::string& append_list,
                  const std::string& evict_list, MinerT* miner) {
  const std::vector<std::string> appends = SplitCsv(append_list);
  const std::vector<std::string> evicts = SplitCsv(evict_list);
  for (size_t i = 0; i < appends.size() || i < evicts.size(); ++i) {
    if (i < appends.size()) {
      const std::string& path = appends[i];
      auto delta = ReadMatrixTextFile(path);
      if (!delta.ok()) {
        std::fprintf(stderr, "%s\n", delta.status().ToString().c_str());
        return 1;
      }
      IncrAppendStats astats;
      IncrEvictStats slide;
      const Status st = miner->AppendBatch(*delta, &astats, &slide);
      if (!st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 1;
      }
      std::fprintf(stderr,
                   "append %s: +%llu rows | %llu updated, %llu killed, "
                   "%llu revived | %llu delta pairs | %.3fs\n",
                   path.c_str(), (unsigned long long)astats.rows_appended,
                   (unsigned long long)astats.rules_updated,
                   (unsigned long long)astats.candidates_killed,
                   (unsigned long long)astats.candidates_revived,
                   (unsigned long long)astats.delta_pairs_examined,
                   astats.seconds);
      if (slide.rows_evicted > 0) {
        std::fprintf(stderr,
                     "  window slide: -%llu rows | %llu killed, "
                     "%llu regenerated\n",
                     (unsigned long long)slide.rows_evicted,
                     (unsigned long long)slide.candidates_killed,
                     (unsigned long long)slide.candidates_regenerated);
      }
    }
    if (i < evicts.size()) {
      uint64_t k = 0;
      ParseUint(evicts[i], UINT64_MAX, &k);  // CheckFlags validated it
      const int rc = EvictOnce(k, miner);
      if (rc != 0) return rc;
    }
  }
  std::fprintf(stderr,
               "incremental totals: %llu batches, %llu rows, "
               "%llu killed, %llu revived, %llu evict batches, "
               "%llu rows evicted, %.2f MB postings\n",
               (unsigned long long)miner->cumulative().batches,
               (unsigned long long)miner->cumulative().rows_total,
               (unsigned long long)miner->cumulative().candidates_killed,
               (unsigned long long)miner->cumulative().candidates_revived,
               (unsigned long long)miner->cumulative().evict_batches,
               (unsigned long long)miner->cumulative().rows_evicted,
               miner->MemoryBytes() / (1024.0 * 1024.0));
  return 0;
}

// --serve-index=FILE: publish `rules` into a RuleIndex, persist its
// snapshot, then answer any --query-lhs / --query-rhs probes from a
// fresh Load of the saved file — the full save/load/query round trip.
int ServeIndex(const ImplicationRuleSet& rules, const Flags& flags) {
  const std::string path = flags.Get("serve-index");
  RuleIndex index;
  index.Publish(rules);
  Status st = index.Save(path);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote rule index (%zu rules, generation %llu) to %s\n",
               index.snapshot()->size(),
               (unsigned long long)index.snapshot()->generation(),
               path.c_str());
  if (!flags.GetBool("query-lhs") && !flags.GetBool("query-rhs")) return 0;
  RuleIndex served;
  st = served.Load(path);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  const auto snapshot = served.snapshot();
  if (flags.GetBool("query-lhs")) {
    const ColumnId lhs = static_cast<ColumnId>(flags.GetInt("query-lhs", 0));
    for (const ImplicationRule& r : snapshot->QueryByAntecedent(lhs)) {
      std::printf("%s\n", r.ToString().c_str());
    }
  }
  if (flags.GetBool("query-rhs")) {
    const ColumnId rhs = static_cast<ColumnId>(flags.GetInt("query-rhs", 0));
    for (const ImplicationRule& r : snapshot->QueryByConsequent(rhs)) {
      std::printf("%s\n", r.ToString().c_str());
    }
  }
  return 0;
}

// --checkpoint, --resume and --io-retries: pass-1 I/O of the external
// pipeline, for --external and --shard-workers alike.
ExternalIoOptions IoFromFlags(const Flags& flags) {
  ExternalIoOptions io;
  io.checkpoint_path = flags.Get("checkpoint");
  io.resume = flags.GetBool("resume");
  io.retry.max_attempts = static_cast<int>(flags.GetInt("io-retries", 3));
  return io;
}

shard::ShardOptions ShardOptionsFromFlags(const Flags& flags) {
  shard::ShardOptions s;
  s.num_workers = static_cast<int>(flags.GetInt("shard-workers", 2));
  s.tasks_per_worker =
      static_cast<int>(flags.GetInt("shard-tasks-per-worker", 2));
  s.heartbeat_timeout_seconds =
      flags.GetDouble("shard-heartbeat-timeout", 30.0);
  s.degrade_to_in_process = !flags.GetBool("shard-no-degrade");
  s.checkpoint_dir = flags.Get("shard-checkpoint-dir");
  // --resume covers both checkpoint layers: the external miner's pass-1
  // checkpoint (--checkpoint=FILE) and the per-task result checkpoints.
  s.resume = flags.GetBool("resume") && !s.checkpoint_dir.empty();
  s.worker_metrics_dir = flags.Get("shard-worker-metrics-dir");
  s.io = IoFromFlags(flags);
  return s;
}

void ReportShardStats(const shard::ShardMiningStats& s) {
  std::fprintf(stderr,
               "sharded: %d tasks, %d workers spawned, pass1 %.3fs%s, "
               "mine %.3fs, total %.3fs\n"
               "fleet: %d died, %llu reassigned, %llu heartbeats, "
               "%d checkpoint hits, %d degraded to in-process\n",
               s.tasks_total, s.workers_spawned, s.pass1_seconds,
               s.resumed ? " (resumed)" : "", s.mine_seconds,
               s.total_seconds, s.workers_died,
               (unsigned long long)s.tasks_reassigned,
               (unsigned long long)s.heartbeats, s.checkpoint_hits,
               s.degraded_tasks);
}

// What mine-imp and mine-sim differ in: the threshold flag, the words
// the narration uses, the library entry point of each mining path and
// whether the rules can be served (RuleIndex holds implications only).
// Every flag check and every path is MineCommand<Kind>, once.
template <typename Kind>
struct Command;

template <>
struct Command<ImplicationKind> {
  static constexpr const char* kName = "mine-imp";
  static constexpr const char* kThresholdFlag = "minconf";
  static constexpr double kDefaultThreshold = 0.9;
  static constexpr const char* kNoun = "rules";
  static constexpr const char* kMeasure = "confidence";
  static constexpr bool kServesIndex = true;
  using Options = ImplicationMiningOptions;

  static auto Sorted(const ImplicationRuleSet& r) {
    return r.SortedByConfidence();
  }
  static auto Mine(const BinaryMatrix& m, const Options& o, MiningStats* s) {
    return MineImplications(m, o, s);
  }
  static auto Parallel(const BinaryMatrix& m, const Options& o,
                       const ParallelOptions& p, ParallelMiningStats* s) {
    return MineImplicationsParallel(m, o, p, s);
  }
  static auto External(const std::string& in, const Options& o,
                       const std::string& dir, const ExternalIoOptions& io,
                       ExternalMiningStats* s) {
    return MineImplicationsFromFile(in, o, dir, io, s);
  }
  static auto Sharded(const std::string& in, const Options& o,
                      const std::string& dir, const shard::ShardOptions& so,
                      shard::ShardMiningStats* s) {
    return shard::MineImplicationsSharded(in, o, dir, so, s);
  }
};

template <>
struct Command<SimilarityKind> {
  static constexpr const char* kName = "mine-sim";
  static constexpr const char* kThresholdFlag = "minsim";
  static constexpr double kDefaultThreshold = 0.8;
  static constexpr const char* kNoun = "pairs";
  static constexpr const char* kMeasure = "similarity";
  static constexpr bool kServesIndex = false;
  using Options = SimilarityMiningOptions;

  static auto Sorted(const SimilarityRuleSet& r) {
    return r.SortedBySimilarity();
  }
  static auto Mine(const BinaryMatrix& m, const Options& o, MiningStats* s) {
    return MineSimilarities(m, o, s);
  }
  static auto Parallel(const BinaryMatrix& m, const Options& o,
                       const ParallelOptions& p, ParallelMiningStats* s) {
    return MineSimilaritiesParallel(m, o, p, s);
  }
  static auto External(const std::string& in, const Options& o,
                       const std::string& dir, const ExternalIoOptions& io,
                       ExternalMiningStats* s) {
    return MineSimilaritiesFromFile(in, o, dir, io, s);
  }
  static auto Sharded(const std::string& in, const Options& o,
                      const std::string& dir, const shard::ShardOptions& so,
                      shard::ShardMiningStats* s) {
    return shard::MineSimilaritiesSharded(in, o, dir, so, s);
  }
};

template <typename Kind>
int MineCommand(const Flags& flags) {
  using Cmd = Command<Kind>;
  typename Cmd::Options options;
  options.*Kind::kThreshold =
      flags.GetDouble(Cmd::kThresholdFlag, Cmd::kDefaultThreshold);
  options.policy = PolicyFromFlags(flags);
  Observability observe;
  observe.Configure(flags, &options.policy);
  // Sorts, prints and writes the rules under one span.
  const auto emit = [&](const typename Kind::RuleSet& rules) {
    ScopedSpan span(options.policy.observe.trace, "rules/emit");
    return EmitRules(Cmd::Sorted(rules), flags);
  };

  MetricsReport report;
  report.tool = "dmc_cli";
  report.dataset = flags.Get("input");
  report.labels["command"] = Cmd::kName;

  if ((flags.GetBool("append") || flags.GetBool("evict") ||
       flags.GetBool("window-rows")) &&
      (flags.GetBool("external") || flags.GetBool("shard-workers") ||
       flags.GetInt("threads", 1) > 1)) {
    std::fprintf(stderr,
                 "--append/--evict/--window-rows use the in-memory "
                 "incremental engine; they are incompatible with "
                 "--external, --shard-workers and --threads\n");
    return 2;
  }
  if (!Cmd::kServesIndex &&
      (flags.GetBool("serve-index") || flags.GetBool("query-lhs") ||
       flags.GetBool("query-rhs"))) {
    std::fprintf(stderr,
                 "--serve-index/--query-lhs/--query-rhs serve implication "
                 "rules; %s has none to serve\n",
                 Cmd::kName);
    return 2;
  }

  // The file pipelines: sharded across worker processes, or the
  // disk-based two-pass miner. Neither loads the matrix.
  if (flags.GetBool("shard-workers") || flags.GetBool("external")) {
    const std::string input = flags.Get("input");
    const std::string work_dir = flags.Get("workdir", "/tmp");
    shard::ShardMiningStats sstats;
    ExternalMiningStats estats;
    StatusOr<typename Kind::RuleSet> rules = typename Kind::RuleSet{};
    if (flags.GetBool("shard-workers")) {
      if (flags.GetInt("threads", 1) > 1) {
        std::fprintf(stderr,
                     "--shard-workers and --threads are incompatible; the "
                     "sharded pipeline parallelizes across processes\n");
        return 2;
      }
      rules = Cmd::Sharded(input, options, work_dir,
                           ShardOptionsFromFlags(flags), &sstats);
      if (rules.ok()) ReportShardStats(sstats);
      report.shard = &sstats;
    } else {
      rules = Cmd::External(input, options, work_dir, IoFromFlags(flags),
                            &estats);
      if (rules.ok()) {
        std::fprintf(stderr,
                     "external: pass1 %.3fs%s, partition %.3fs (%zu "
                     "buckets), mine %.3fs\n",
                     estats.pass1_seconds, estats.resumed ? " (resumed)" : "",
                     estats.partition_seconds, estats.bucket_files,
                     estats.mine_seconds);
      }
      report.external = &estats;
      report.mining = &estats.mining;
    }
    if (!rules.ok()) {
      std::fprintf(stderr, "%s\n", rules.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "%zu %s\n", rules->size(), Cmd::kNoun);
    report.rules_total = static_cast<int64_t>(rules->size());
    const int rc = emit(*rules);
    const int observe_rc = observe.Finish(report);
    return rc != 0 ? rc : observe_rc;
  }

  auto matrix = [&] {
    ScopedSpan span(options.policy.observe.trace, "matrix/parse");
    return LoadInput(flags);
  }();
  if (!matrix.ok()) {
    std::fprintf(stderr, "%s\n", matrix.status().ToString().c_str());
    return 1;
  }
  const uint32_t threads =
      static_cast<uint32_t>(flags.GetInt("threads", 1));
  MiningStats stats;
  ParallelMiningStats pstats;
  StatusOr<typename Kind::RuleSet> rules = typename Kind::RuleSet{};
  const std::string append = flags.Get("append");
  const std::string evict = flags.Get("evict");
  const uint64_t window_rows = flags.GetInt("window-rows", 0);
  if (!append.empty() || !evict.empty() || window_rows > 0) {
    auto miner = WindowedMiner<Kind>::FromBatchMine(*matrix, options,
                                                    window_rows, &stats);
    if (!miner.ok()) {
      std::fprintf(stderr, "%s\n", miner.status().ToString().c_str());
      return 1;
    }
    if (window_rows > 0) {
      std::fprintf(stderr, "window: newest %llu rows (holding %llu)\n",
                   (unsigned long long)window_rows,
                   (unsigned long long)miner->num_rows());
    }
    ReportStats(stats);
    report.mining = &stats;
    const int append_rc = AppendBatches(append, evict, &*miner);
    if (append_rc != 0) return append_rc;
    rules = miner->rules();
  } else if (threads > 1) {
    ParallelOptions p;
    p.num_threads = threads;
    rules = Cmd::Parallel(*matrix, options, p, &pstats);
    std::fprintf(stderr, "parallel: %u shards, wall %.3fs (work %.3fs)\n",
                 pstats.shards, pstats.total_seconds,
                 pstats.sum_shard_seconds);
    report.parallel = &pstats;
  } else {
    rules = Cmd::Mine(*matrix, options, &stats);
    if (rules.ok()) ReportStats(stats);
    report.mining = &stats;
  }
  if (!rules.ok()) {
    std::fprintf(stderr, "%s\n", rules.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "%zu %s at %s >= %.3f\n", rules->size(), Cmd::kNoun,
               Cmd::kMeasure, options.*Kind::kThreshold);
  report.rules_total = static_cast<int64_t>(rules->size());
  int rc = emit(*rules);
  if constexpr (Cmd::kServesIndex) {
    if (rc == 0 && flags.GetBool("serve-index")) {
      rc = ServeIndex(*rules, flags);
    }
  }
  const int observe_rc = observe.Finish(report);
  return rc != 0 ? rc : observe_rc;
}

int Stats(const Flags& flags) {
  auto matrix = LoadInput(flags);
  if (!matrix.ok()) {
    std::fprintf(stderr, "%s\n", matrix.status().ToString().c_str());
    return 1;
  }
  const MatrixSummary s = Summarize(*matrix);
  std::printf("rows: %u\ncolumns: %u\nones: %zu\n", s.rows, s.columns,
              s.ones);
  std::printf("row density: mean %.2f, max %zu\n", s.mean_row_density,
              s.max_row_density);
  std::printf("column ones: mean %.2f, max %zu\n", s.mean_column_ones,
              s.max_column_ones);
  const auto hist = ComputeColumnDensityHistogram(*matrix);
  std::printf("columns with >= 2 ones: %llu, >= 10: %llu, >= 100: %llu\n",
              (unsigned long long)hist.ColumnsWithAtLeast(2),
              (unsigned long long)hist.ColumnsWithAtLeast(10),
              (unsigned long long)hist.ColumnsWithAtLeast(100));
  return 0;
}

int Generate(const Flags& flags) {
  const std::string kind = flags.Get("kind", "quest");
  const std::string output = flags.Get("output");
  if (output.empty()) {
    std::fprintf(stderr, "--output=FILE is required\n");
    return 2;
  }
  const uint64_t rows = flags.GetInt("rows", 10000);
  const uint64_t cols = flags.GetInt("cols", 2000);
  const uint64_t seed = flags.GetInt("seed", 42);

  if (flags.GetBool("stream")) {
    if (kind != "quest") {
      std::fprintf(stderr, "--stream supports --kind=quest only\n");
      return 2;
    }
    QuestOptions o;
    o.num_transactions = static_cast<uint32_t>(rows);
    o.num_items = static_cast<uint32_t>(cols);
    o.seed = seed;
    const Status st = GenerateQuestFile(o, output);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "streamed %llu x %llu quest matrix to %s\n",
                 (unsigned long long)rows, (unsigned long long)cols,
                 output.c_str());
    return 0;
  }

  BinaryMatrix m;
  if (kind == "weblog") {
    WebLogOptions o;
    o.num_clients = static_cast<uint32_t>(rows);
    o.num_urls = static_cast<uint32_t>(cols);
    o.seed = seed;
    m = GenerateWebLog(o);
  } else if (kind == "linkgraph") {
    LinkGraphOptions o;
    o.num_pages = static_cast<uint32_t>(rows);
    o.seed = seed;
    m = GenerateLinkGraph(o);
  } else if (kind == "news") {
    NewsOptions o;
    o.num_docs = static_cast<uint32_t>(rows);
    o.background_vocab = static_cast<uint32_t>(cols);
    o.seed = seed;
    m = GenerateNews(o).matrix;
  } else if (kind == "dictionary") {
    DictionaryOptions o;
    o.num_head_words = static_cast<uint32_t>(cols);
    o.num_definition_words = static_cast<uint32_t>(rows);
    o.seed = seed;
    m = GenerateDictionary(o).matrix;
  } else if (kind == "quest") {
    QuestOptions o;
    o.num_transactions = static_cast<uint32_t>(rows);
    o.num_items = static_cast<uint32_t>(cols);
    o.seed = seed;
    m = GenerateQuest(o);
  } else {
    std::fprintf(stderr, "unknown --kind=%s\n", kind.c_str());
    return 2;
  }
  const Status st = WriteMatrixTextFile(m, output);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %u x %u matrix (%zu ones) to %s\n",
               m.num_rows(), m.num_columns(), m.num_ones(), output.c_str());
  return 0;
}

int Run(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Flags flags(argc, argv);
  const std::string malformed = CheckFlags(flags);
  if (!malformed.empty()) {
    std::fprintf(stderr, "%s\n", malformed.c_str());
    return 2;
  }
  if (flags.GetBool("failpoints")) {
    std::string spec = flags.Get("failpoints");
    if (spec == "1") spec.clear();  // bare --failpoints: record-only mode
    if (flags.GetBool("failpoint-seed")) {
      if (!spec.empty()) spec += ';';
      spec += "seed=" + flags.Get("failpoint-seed");
    }
    const Status st = fail::Configure(spec);
    if (!st.ok()) {
      std::fprintf(stderr, "--failpoints: %s\n", st.ToString().c_str());
      return 2;
    }
  }
  if (command == "mine-imp") return MineCommand<ImplicationKind>(flags);
  if (command == "mine-sim") return MineCommand<SimilarityKind>(flags);
  if (command == "stats") return Stats(flags);
  if (command == "generate") return Generate(flags);
  return Usage();
}

}  // namespace
}  // namespace dmc

int main(int argc, char** argv) { return dmc::Run(argc, argv); }
