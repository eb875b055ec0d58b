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
// Common mining options (every mining path):
//   --order=buckets|identity|sort   row order for the second pass
//                                   (sort needs the in-memory matrix:
//                                   --external and --shard-workers exit 2
//                                   on it)
//   --no-hundred-phase              disable the 100%-rule pre-phase
//   --no-bitmap                     disable the DMC-bitmap fallback
//   --top=N                         print only the N strongest rules
//   --output=FILE                   write all rules to FILE
//   --query-lhs=COL                 mine-imp: then print the rules
//                                   COL => *, strongest first
//   --query-rhs=COL                 mine-imp: then print the rules
//                                   * => COL, strongest first (both
//                                   answer from an in-memory RuleIndex
//                                   snapshot of the mined rules; mine-sim
//                                   exits 2 on them)
//
// Mining paths. The flags given pick one path, the first of these that
// applies: --shard-workers, --external, incremental (--append, --evict
// or --window-rows), --threads, in memory. A path reads the common
// options plus its own below; any other flag exits 2, naming the flag
// and the path (or the command, for a flag only the other mine command
// reads).
//
// In memory (no path flag):
//   --min-support=N --max-support=N support window: mine only the columns
//                                   whose 1-count lies in [N, M]; rules
//                                   keep the input's column ids
// --threads:
//   --threads=N                     parallel divide-and-conquer shards
//                                   (N <= 1 mines serially)
//   --min-support, --max-support    as in memory
// Incremental (in memory, single-threaded):
//   --append=FILE[,FILE...]         mine --input as the initial batch,
//                                   then absorb each FILE as an append
//                                   batch with the incremental engine
//                                   (src/incr/; exact — the final rule
//                                   set equals a fresh mine of the
//                                   concatenation)
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
//                                   its overflow (the row budget of
//                                   src/incr/incr_miner.h)
// --external (disk-based two-pass; the matrix is never loaded):
//   --external --workdir=DIR        bucket spills go under DIR (/tmp)
//   --checkpoint=FILE               write a pass-1 checkpoint and keep
//                                   the bucket files
//   --resume                        skip pass 1 when the checkpoint
//                                   validates against the input
//   --io-retries=N                  retry transient file-open failures up
//                                   to N times (default 3)
// --shard-workers (multi-process, over the disk-based pipeline):
//   --shard-workers=N               mine across N worker processes
//                                   (src/shard/); byte-identical to a
//                                   single-process mine
//   --shard-tasks-per-worker=N      over-partitioning factor (default 2):
//                                   finer tasks reassign with less waste
//                                   when a worker dies
//   --shard-checkpoint-dir=DIR      write per-task result checkpoints;
//                                   with --resume, finished tasks are
//                                   loaded instead of re-mined
//   --shard-no-degrade              fail cleanly instead of mining
//                                   leftover tasks in-process when the
//                                   worker fleet gives out
//   --shard-heartbeat-timeout=SECS  declare a silent worker dead after
//                                   this long (default 30)
//   --workdir, --checkpoint, --resume, --io-retries  as with --external
//
// Observability options (every mining path):
//   --metrics-out=FILE              write the run's metrics document
//                                   (schema_version 1 JSON; see
//                                   src/observe/stats_export.h); with
//                                   --shard-workers it also holds the
//                                   dmc.shard.worker.* metrics, which the
//                                   coordinator records
//   --trace-out=FILE                write a Chrome-tracing JSON of the
//                                   input parse (in memory only) and the
//                                   mining phases (load in ui.perfetto.dev)
//   --progress[=ROWS]               print progress to stderr every ROWS
//                                   rows (default 65536)
//
// Fault injection (every command):
//   --failpoints=SPEC               arm fault-injection sites, e.g.
//                                   "matrix.text.row=error@2" (testing)
//   --failpoint-seed=N              seed for probabilistic failpoints;
//                                   alone, reseeds the DMC_FAILPOINTS
//                                   spec (exit 2 when none is armed)
//
// All file outputs (--output, --metrics-out, --trace-out, generate
// --output) are written atomically: a crash mid-write leaves the old
// file (or no file), never a torn one.
//
// Each command reads the flags of its rows in the tables below. Any
// other argument, a malformed value (an integer with a sign, trailing
// text or more than the flag's consumer holds; a --minconf or --minsim
// outside (0, 1]; a --shard-heartbeat-timeout that is not a positive
// number of seconds; an unknown --order; a bad --evict entry) and
// --order=sort on a file pipeline exit 2 with a message naming the
// argument, before any work starts. tools/cli_flags.h holds the parser
// dmc_serve shares.

#include <climits>
#include <cstdio>
#include <iostream>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/engine.h"
#include "core/external_miner.h"
#include "shard/coordinator.h"
#include "incr/incr_miner.h"
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
#include "tools/cli_flags.h"

namespace dmc {
namespace {

using cli::FlagKind;
using cli::FlagSpec;
using cli::Flags;
using cli::ParseUint;

// The flags each command reads, one table per group of commands that
// share them; Flags::Check refuses every other argument. A mine command
// reads the common tables plus the table of the one path it runs.
constexpr FlagSpec kFailpointFlags[] = {  // every command
    {"failpoints", FlagKind::kText, 0, /*bare_ok=*/true},
    {"failpoint-seed", FlagKind::kUint, UINT64_MAX},
};
constexpr FlagSpec kInputFlags[] = {  // mine-imp, mine-sim, stats
    {"input", FlagKind::kText},
};
constexpr FlagSpec kMineFlags[] = {  // mine-imp, mine-sim: every path
    {"order", FlagKind::kText},
    {"no-hundred-phase", FlagKind::kSwitch},
    {"no-bitmap", FlagKind::kSwitch},
    {"top", FlagKind::kUint, UINT64_MAX},
    {"output", FlagKind::kText},
    {"metrics-out", FlagKind::kText},
    {"trace-out", FlagKind::kText},
    {"progress", FlagKind::kUint, UINT64_MAX, /*bare_ok=*/true},
};
constexpr FlagSpec kImpFlags[] = {  // mine-imp
    {"minconf", FlagKind::kFraction},
    {"query-lhs", FlagKind::kUint, UINT32_MAX},
    {"query-rhs", FlagKind::kUint, UINT32_MAX},
};
constexpr FlagSpec kSimFlags[] = {  // mine-sim
    {"minsim", FlagKind::kFraction},
};
constexpr FlagSpec kSupportFlags[] = {  // stats; the in-memory mine
    {"min-support", FlagKind::kUint, UINT64_MAX},
    {"max-support", FlagKind::kUint, UINT64_MAX},
};
constexpr FlagSpec kThreadsFlags[] = {
    {"threads", FlagKind::kUint, UINT32_MAX},
    {"min-support", FlagKind::kUint, UINT64_MAX},
    {"max-support", FlagKind::kUint, UINT64_MAX},
};
constexpr FlagSpec kIncrementalFlags[] = {
    {"append", FlagKind::kText},
    {"evict", FlagKind::kText},
    {"window-rows", FlagKind::kUint, UINT64_MAX},
};
constexpr FlagSpec kExternalFlags[] = {
    {"external", FlagKind::kSwitch},
    {"workdir", FlagKind::kText},
    {"checkpoint", FlagKind::kText},
    {"resume", FlagKind::kSwitch},
    {"io-retries", FlagKind::kUint, INT_MAX},
};
constexpr FlagSpec kShardFlags[] = {
    {"shard-workers", FlagKind::kUint, INT_MAX},
    {"shard-tasks-per-worker", FlagKind::kUint, INT_MAX},
    {"shard-checkpoint-dir", FlagKind::kText},
    {"shard-no-degrade", FlagKind::kSwitch},
    {"shard-heartbeat-timeout", FlagKind::kSeconds},
    {"workdir", FlagKind::kText},
    {"checkpoint", FlagKind::kText},
    {"resume", FlagKind::kSwitch},
    {"io-retries", FlagKind::kUint, INT_MAX},
};
constexpr FlagSpec kGenerateFlags[] = {  // generate
    {"kind", FlagKind::kText},
    {"output", FlagKind::kText},
    {"rows", FlagKind::kUint, UINT32_MAX},
    {"cols", FlagKind::kUint, UINT32_MAX},
    {"seed", FlagKind::kUint, UINT64_MAX},
    {"stream", FlagKind::kSwitch},
};

// The mining paths, indexed by Path: the name messages give each and
// the table of the flags it reads beyond the common ones.
enum class Path { kMemory, kThreads, kIncremental, kExternal, kShard };
constexpr struct {
  const char* name;
  std::span<const FlagSpec> flags;
} kPaths[] = {
    {"in-memory", kSupportFlags},
    {"--threads", kThreadsFlags},
    {"incremental", kIncrementalFlags},
    {"--external", kExternalFlags},
    {"--shard-workers", kShardFlags},
};

// The path a mine command runs: the first whose flag is given.
Path PickPath(const Flags& flags) {
  if (flags.Has("shard-workers")) return Path::kShard;
  if (flags.Has("external")) return Path::kExternal;
  if (flags.Has("append") || flags.Has("evict") || flags.Has("window-rows")) {
    return Path::kIncremental;
  }
  if (flags.Has("threads")) return Path::kThreads;
  return Path::kMemory;
}

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

// The first argument `command` does not admit, as a message naming it;
// empty when every argument is admitted. Unknown commands pass here and
// fail in Run.
std::string CheckFlags(const std::string& command, const Flags& flags) {
  const Path path = PickPath(flags);
  std::string malformed;
  if (command == "mine-imp" || command == "mine-sim") {
    const auto& [path_name, path_flags] = kPaths[static_cast<int>(path)];
    const std::span<const FlagSpec> kinds[] = {kImpFlags, kSimFlags};
    const bool imp = command == "mine-imp";
    const std::span<const FlagSpec> kind_flags = kinds[imp ? 0 : 1];
    // A flag only the other mine command reads is refused by command,
    // once the rest passes: the first check admits it with any value.
    std::vector<FlagSpec> other_kind;
    for (const FlagSpec& row : kinds[imp ? 1 : 0]) {
      other_kind.push_back({row.name, FlagKind::kText, 0, /*bare_ok=*/true});
    }
    malformed = flags.Check(
        {kFailpointFlags, kInputFlags, kMineFlags, kind_flags, path_flags,
         other_kind},
        std::string("not read by the ") + path_name + " path");
    if (malformed.empty()) {
      malformed = flags.Check(
          {kFailpointFlags, kInputFlags, kMineFlags, kind_flags, path_flags},
          "not read by " + command);
    }
  } else if (command == "stats") {
    malformed = flags.Check({kFailpointFlags, kInputFlags, kSupportFlags});
  } else if (command == "generate") {
    malformed = flags.Check({kFailpointFlags, kGenerateFlags});
  }
  if (!malformed.empty()) return malformed;
  // The two text flags with a grammar of their own.
  uint64_t unused = 0;
  for (const std::string& entry : SplitCsv(flags.Get("evict"))) {
    if (!ParseUint(entry, UINT64_MAX, &unused)) {
      return "--evict=" + flags.Get("evict") + ": \"" + entry +
             "\" is not a row count";
    }
  }
  if (flags.Has("order")) {
    const std::string order = flags.Get("order");
    bool known = false;
    for (const auto& o : kRowOrders) known = known || order == o.name;
    if (!known) {
      return "--order=" + order + ": expected identity, buckets or sort";
    }
    if (order == "sort" && (path == Path::kExternal || path == Path::kShard)) {
      return "--order=sort needs the in-memory matrix; --external and "
             "--shard-workers replay density buckets (--order=buckets) or "
             "input order (--order=identity)";
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
  policy.hundred_percent_phase = !flags.Has("no-hundred-phase");
  policy.bitmap_fallback = !flags.Has("no-bitmap");
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
    if (flags.Has("progress")) {
      const uint64_t interval = flags.GetUint("progress", 1);
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

// The --input matrix, narrowed to the --min-support/--max-support window
// when one is given. original_column then maps the kept columns back to
// the input's ids; it is empty when no window is given.
StatusOr<PrunedMatrix> LoadInput(const Flags& flags) {
  const std::string input = flags.Get("input");
  if (input.empty()) {
    return InvalidArgumentError("--input=FILE is required");
  }
  DMC_ASSIGN_OR_RETURN(BinaryMatrix m, ReadMatrixTextFile(input));
  const uint64_t min_support = flags.GetUint("min-support", 0);
  const uint64_t max_support =
      flags.GetUint("max-support", std::numeric_limits<uint64_t>::max());
  if (min_support == 0 &&
      max_support == std::numeric_limits<uint64_t>::max()) {
    return PrunedMatrix{std::move(m), {}};
  }
  PrunedMatrix pruned = SupportPruneColumns(m, min_support, max_support);
  std::fprintf(stderr, "support window [%llu, %llu]: %u of %u columns\n",
               (unsigned long long)min_support,
               (unsigned long long)max_support, pruned.matrix.num_columns(),
               m.num_columns());
  return pruned;
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
  const uint64_t top = flags.GetUint("top", 20);
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

// --query-lhs / --query-rhs: the rules with that antecedent or
// consequent, strongest first, from an index snapshot of `rules`.
void PrintQueries(const ImplicationRuleSet& rules, const Flags& flags) {
  if (!flags.Has("query-lhs") && !flags.Has("query-rhs")) return;
  const auto snapshot = RuleIndexSnapshot::Build(rules, 1);
  if (flags.Has("query-lhs")) {
    const ColumnId lhs = static_cast<ColumnId>(flags.GetUint("query-lhs", 0));
    for (const ImplicationRule& r : snapshot->QueryByAntecedent(lhs)) {
      std::printf("%s\n", r.ToString().c_str());
    }
  }
  if (flags.Has("query-rhs")) {
    const ColumnId rhs = static_cast<ColumnId>(flags.GetUint("query-rhs", 0));
    for (const ImplicationRule& r : snapshot->QueryByConsequent(rhs)) {
      std::printf("%s\n", r.ToString().c_str());
    }
  }
}

// --checkpoint, --resume and --io-retries: pass-1 I/O of the external
// pipeline, for --external and --shard-workers alike.
ExternalIoOptions IoFromFlags(const Flags& flags) {
  ExternalIoOptions io;
  io.checkpoint_path = flags.Get("checkpoint");
  io.resume = flags.Has("resume");
  io.retry.max_attempts = static_cast<int>(flags.GetUint("io-retries", 3));
  return io;
}

shard::ShardOptions ShardOptionsFromFlags(const Flags& flags) {
  shard::ShardOptions s;
  s.num_workers = static_cast<int>(flags.GetUint("shard-workers", 2));
  s.tasks_per_worker =
      static_cast<int>(flags.GetUint("shard-tasks-per-worker", 2));
  s.heartbeat_timeout_seconds =
      flags.GetDouble("shard-heartbeat-timeout", 30.0);
  s.degrade_to_in_process = !flags.Has("shard-no-degrade");
  s.checkpoint_dir = flags.Get("shard-checkpoint-dir");
  // --resume covers both checkpoint layers: the external miner's pass-1
  // checkpoint (--checkpoint=FILE) and the per-task result checkpoints.
  s.resume = flags.Has("resume") && !s.checkpoint_dir.empty();
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
// the column ids a rule names. Every flag check and every path is
// MineCommand<Kind>, once.
template <typename Kind>
struct Command;

template <>
struct Command<ImplicationKind> {
  static constexpr const char* kName = "mine-imp";
  static constexpr const char* kThresholdFlag = "minconf";
  static constexpr double kDefaultThreshold = 0.9;
  static constexpr const char* kNoun = "rules";
  static constexpr const char* kMeasure = "confidence";
  using Options = ImplicationMiningOptions;

  static auto Sorted(const ImplicationRuleSet& r) {
    return r.SortedByConfidence();
  }
  // Renames the columns of rules mined on a support-pruned matrix to the
  // input's ids. The map is increasing, so every order is kept.
  static ImplicationRuleSet ToInputColumns(
      ImplicationRuleSet rules, const std::vector<ColumnId>& input_id) {
    std::vector<ImplicationRule> renamed = rules.TakeRules();
    for (ImplicationRule& r : renamed) {
      r.lhs = input_id[r.lhs];
      r.rhs = input_id[r.rhs];
    }
    return ImplicationRuleSet(std::move(renamed));
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
  using Options = SimilarityMiningOptions;

  static auto Sorted(const SimilarityRuleSet& r) {
    return r.SortedBySimilarity();
  }
  static SimilarityRuleSet ToInputColumns(
      SimilarityRuleSet pairs, const std::vector<ColumnId>& input_id) {
    std::vector<SimilarityPair> renamed = pairs.TakePairs();
    for (SimilarityPair& p : renamed) {
      p.a = input_id[p.a];
      p.b = input_id[p.b];
    }
    return SimilarityRuleSet(std::move(renamed));
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

  MetricsReport report;
  report.tool = "dmc_cli";
  report.dataset = flags.Get("input");
  report.labels["command"] = Cmd::kName;

  const Path path = PickPath(flags);
  MiningStats stats;
  ParallelMiningStats pstats;
  ExternalMiningStats estats;
  shard::ShardMiningStats sstats;
  StatusOr<typename Kind::RuleSet> rules = typename Kind::RuleSet{};
  if (path == Path::kShard || path == Path::kExternal) {
    // The file pipelines: sharded across worker processes, or the
    // disk-based two-pass miner. Neither loads the matrix.
    const std::string input = flags.Get("input");
    const std::string work_dir = flags.Get("workdir", "/tmp");
    if (path == Path::kShard) {
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
    if (rules.ok()) std::fprintf(stderr, "%zu %s\n", rules->size(), Cmd::kNoun);
  } else {
    auto input = [&] {
      ScopedSpan span(options.policy.observe.trace, "matrix/parse");
      return LoadInput(flags);
    }();
    if (!input.ok()) {
      std::fprintf(stderr, "%s\n", input.status().ToString().c_str());
      return 1;
    }
    const BinaryMatrix& matrix = input->matrix;
    const uint32_t threads =
        static_cast<uint32_t>(flags.GetUint("threads", 1));
    if (path == Path::kIncremental) {
      const uint64_t window_rows = flags.GetUint("window-rows", 0);
      auto miner = IncrementalMiner<Kind>::FromBatchMine(matrix, options,
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
      const int append_rc =
          AppendBatches(flags.Get("append"), flags.Get("evict"), &*miner);
      if (append_rc != 0) return append_rc;
      rules = miner->rules();
    } else if (threads > 1) {
      ParallelOptions p;
      p.num_threads = threads;
      rules = Cmd::Parallel(matrix, options, p, &pstats);
      std::fprintf(stderr, "parallel: %u shards, wall %.3fs (work %.3fs)\n",
                   pstats.shards, pstats.total_seconds,
                   pstats.sum_shard_seconds);
      report.parallel = &pstats;
    } else {
      rules = Cmd::Mine(matrix, options, &stats);
      if (rules.ok()) ReportStats(stats);
      report.mining = &stats;
    }
    if (rules.ok()) {
      if (!input->original_column.empty()) {
        rules = Cmd::ToInputColumns(std::move(*rules), input->original_column);
      }
      std::fprintf(stderr, "%zu %s at %s >= %.3f\n", rules->size(),
                   Cmd::kNoun, Cmd::kMeasure, options.*Kind::kThreshold);
    }
  }
  if (!rules.ok()) {
    std::fprintf(stderr, "%s\n", rules.status().ToString().c_str());
    return 1;
  }
  report.rules_total = static_cast<int64_t>(rules->size());
  int rc = 0;
  {
    // Sorts, prints and writes the rules under one span.
    ScopedSpan span(options.policy.observe.trace, "rules/emit");
    rc = EmitRules(Cmd::Sorted(*rules), flags);
  }
  if constexpr (std::is_same_v<Kind, ImplicationKind>) {
    if (rc == 0) PrintQueries(*rules, flags);
  }
  const int observe_rc = observe.Finish(report);
  return rc != 0 ? rc : observe_rc;
}

int Stats(const Flags& flags) {
  auto input = LoadInput(flags);
  if (!input.ok()) {
    std::fprintf(stderr, "%s\n", input.status().ToString().c_str());
    return 1;
  }
  const BinaryMatrix& matrix = input->matrix;
  const MatrixSummary s = Summarize(matrix);
  std::printf("rows: %u\ncolumns: %u\nones: %zu\n", s.rows, s.columns,
              s.ones);
  std::printf("row density: mean %.2f, max %zu\n", s.mean_row_density,
              s.max_row_density);
  std::printf("column ones: mean %.2f, max %zu\n", s.mean_column_ones,
              s.max_column_ones);
  const auto hist = ComputeColumnDensityHistogram(matrix);
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
  const uint64_t rows = flags.GetUint("rows", 10000);
  const uint64_t cols = flags.GetUint("cols", 2000);
  const uint64_t seed = flags.GetUint("seed", 42);

  if (flags.Has("stream")) {
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
  const std::string malformed = CheckFlags(command, flags);
  if (!malformed.empty()) {
    std::fprintf(stderr, "dmc_cli %s: %s\n", command.c_str(),
                 malformed.c_str());
    return 2;
  }
  if (flags.Has("failpoints") || flags.Has("failpoint-seed")) {
    // Bare --failpoints reads as an empty spec: record-only mode. A
    // --failpoint-seed without --failpoints reseeds the spec that
    // DMC_FAILPOINTS armed.
    std::string spec = flags.Has("failpoints") ? flags.Get("failpoints")
                                               : fail::CurrentSpec();
    if (!flags.Has("failpoints") && spec.empty()) {
      std::fprintf(stderr,
                   "--failpoint-seed: no failpoint spec to seed (give "
                   "--failpoints or set DMC_FAILPOINTS)\n");
      return 2;
    }
    if (flags.Has("failpoint-seed")) {
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
