#include "mine_paths.h"

#include <sstream>

#include "core/engine.h"
#include "core/external_miner.h"
#include "matrix/matrix_io.h"
#include "shard/coordinator.h"
#include "util/atomic_io.h"

namespace perfbench {

namespace {

// Mining options keep dmc_cli's defaults (density-bucket row order, the
// 100% phase, the DMC-bitmap tail); only the threshold is set.
using dmc::ImplicationMiningOptions;
using dmc::SimilarityMiningOptions;

// Clock readings at the layer boundaries of one op, turned into spans
// (when recording) and into the PathRun's layer split.
class OpTimer {
 public:
  OpTimer(const char* name, SpanLog* spans, PathRun* run)
      : name_(name), spans_(spans), run_(run), start_(Clock::now()),
        last_(start_) {
    op_id_ = spans_->NewOp();
  }

  /// Closes the call that ran since the previous mark.
  double Mark(const std::string& span_name) {
    const Clock::time_point now = Clock::now();
    marks_.push_back({span_name, last_, now});
    const double seconds = SecondsBetween(last_, now);
    last_ = now;
    return seconds;
  }

  /// Ends the op: wall time, span records and the residual.
  void Finish(const std::string& residual_name) {
    run_->wall_s = SecondsBetween(start_, last_);
    const int top = spans_->Add(name_, start_, last_, -1, op_id_);
    for (const auto& m : marks_) {
      spans_->Add(m.name, m.start, m.end, top, op_id_);
    }
    double sum = 0.0;
    for (const auto& layer : run_->layers) sum += layer.second;
    run_->residual_name = residual_name;
    run_->residual_s = run_->wall_s - sum;
  }

 private:
  struct MarkRec {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
  };
  const char* name_;
  SpanLog* spans_;
  PathRun* run_;
  Clock::time_point start_;
  Clock::time_point last_;
  int op_id_ = 0;
  std::vector<MarkRec> marks_;
};

dmc::ExternalIoOptions CliIo(bool keep_artifacts) {
  dmc::ExternalIoOptions io;
  io.retry.max_attempts = 3;  // --io-retries default
  io.keep_artifacts = keep_artifacts;
  return io;
}

// SortedBy*().Print into a buffer, then AtomicWriteFile — dmc_cli's
// --output. Returns the failure text, "" on success.
template <typename SortedT>
std::string Emit(const SortedT& sorted, const std::string& path,
                 PathRun* run) {
  std::ostringstream buffer;
  sorted.Print(buffer, 0);
  run->emitted = buffer.str();
  const dmc::Status st = dmc::AtomicWriteFile(path, run->emitted);
  return st.ok() ? "" : st.ToString();
}

void AddMiningLayers(const std::string& prefix, const dmc::MiningStats& st,
                     PathRun* run) {
  run->layers.push_back({prefix + ".prescan_s", st.prescan_seconds});
  // Each phase includes its DMC-bitmap tail, which fires only past the
  // 50 MB counter threshold; bitmap_rows counts the rows it took.
  run->layers.push_back({prefix + ".hundred_s", st.hundred_seconds()});
  run->layers.push_back({prefix + ".sub_s", st.sub_seconds()});
  run->counts.push_back({prefix + ".peak_candidates", st.peak_candidates});
  run->counts.push_back({prefix + ".columns_cut_off", st.columns_cut_off});
  run->counts.push_back({prefix + ".bitmap_rows", st.sub_bitmap_rows});
  run->counts.push_back(
      {prefix + ".peak_counter_bytes", st.peak_counter_bytes});
}

std::string OutputPath(const MineConfig& config, Path path) {
  return config.work_dir + "/rules_" + PathName(path) + ".txt";
}

// mine-imp / mine-sim, with or without --threads=2.
template <bool kSim>
void RunInMemory(Path path, const MineConfig& config, SpanLog* spans,
                 PathRun* run) {
  const char* k = kSim ? "sim" : "imp";
  const bool threads = path == Path::kImpThreads;
  OpTimer timer(PathName(path), spans, run);
  auto matrix = dmc::ReadMatrixTextFile(config.input_path);
  run->layers.push_back({"matrix.parse_s", timer.Mark("matrix.parse")});
  if (!matrix.ok()) {
    run->failure = matrix.status().ToString();
    return;
  }
  dmc::MiningStats stats;
  dmc::ParallelMiningStats pstats;
  auto rules = [&] {
    if constexpr (kSim) {
      SimilarityMiningOptions options;
      options.min_similarity = config.min_similarity;
      return dmc::MineSimilarities(*matrix, options, &stats);
    } else {
      ImplicationMiningOptions options;
      options.min_confidence = config.min_confidence;
      if (!threads) return dmc::MineImplications(*matrix, options, &stats);
      dmc::ParallelOptions parallel;
      parallel.num_threads = 2;
      return dmc::MineImplicationsParallel(*matrix, options, parallel,
                                           &pstats);
    }
  }();
  timer.Mark(threads ? "parallel.mine" : "core.mine");
  if (!rules.ok()) {
    run->failure = rules.status().ToString();
    return;
  }
  std::string residual_name = std::string("core.") + k + ".residual_s";
  if (threads) {
    const double overhead = pstats.total_seconds - pstats.max_shard_seconds;
    run->layers.push_back(
        {"parallel.imp.max_shard_s", pstats.max_shard_seconds});
    run->layers.push_back({"parallel.imp.overhead_s", overhead});
    run->extras.push_back(
        {"parallel.imp.sum_shard_s", pstats.sum_shard_seconds});
    const double mean = pstats.shards > 0
                            ? pstats.sum_shard_seconds / pstats.shards
                            : 0.0;
    run->extras.push_back(
        {"parallel.imp.imbalance",
         mean > 0.0 ? pstats.max_shard_seconds / mean : 0.0});
    run->counts.push_back({"parallel.imp.shards", pstats.shards});
    residual_name = "parallel.imp.residual_s";
    if (pstats.shards_failed > 0 || pstats.shards_degraded > 0) {
      run->failure = "threads: " + std::to_string(pstats.shards_failed) +
                     " shards failed, " +
                     std::to_string(pstats.shards_degraded) + " degraded";
    }
  } else {
    AddMiningLayers(std::string("core.") + k, stats, run);
  }
  std::string emit_failure;
  if constexpr (kSim) {
    emit_failure = Emit(rules->SortedBySimilarity(), OutputPath(config, path),
                        run);
  } else {
    emit_failure = Emit(rules->SortedByConfidence(), OutputPath(config, path),
                        run);
  }
  run->layers.push_back(
      {std::string("rules.") + k + ".emit_s", timer.Mark("rules.emit")});
  run->counts.push_back({std::string("rules.") + k + ".count", rules->size()});
  if (!emit_failure.empty()) run->failure = emit_failure;
  timer.Finish(residual_name);
}

// mine-imp --external and MineSimilaritiesFromFile.
template <bool kSim>
void RunExternal(Path path, const MineConfig& config, SpanLog* spans,
                 PathRun* run) {
  const std::string prefix = kSim ? "external.sim" : "external.imp";
  OpTimer timer(PathName(path), spans, run);
  dmc::ExternalMiningStats stats;
  const dmc::ExternalIoOptions io = CliIo(config.keep_artifacts);
  auto rules = [&] {
    if constexpr (kSim) {
      SimilarityMiningOptions options;
      options.min_similarity = config.min_similarity;
      return dmc::MineSimilaritiesFromFile(config.input_path, options,
                                           config.work_dir, io, &stats);
    } else {
      ImplicationMiningOptions options;
      options.min_confidence = config.min_confidence;
      return dmc::MineImplicationsFromFile(config.input_path, options,
                                           config.work_dir, io, &stats);
    }
  }();
  timer.Mark("external.mine_file");
  if (!rules.ok()) {
    run->failure = rules.status().ToString();
    return;
  }
  run->layers.push_back({prefix + ".pass1_s", stats.pass1_seconds});
  run->layers.push_back({prefix + ".partition_s", stats.partition_seconds});
  run->layers.push_back({prefix + ".mine_s", stats.mine_seconds});
  run->counts.push_back({"external.bucket_files", stats.bucket_files});
  std::string emit_failure;
  if constexpr (kSim) {
    emit_failure = Emit(rules->SortedBySimilarity(), OutputPath(config, path),
                        run);
  } else {
    emit_failure = Emit(rules->SortedByConfidence(), OutputPath(config, path),
                        run);
  }
  run->layers.push_back({std::string("rules.") + (kSim ? "sim" : "imp") +
                             ".emit_s",
                         timer.Mark("rules.emit")});
  if (!emit_failure.empty()) run->failure = emit_failure;
  timer.Finish(prefix + ".residual_s");
}

// mine-imp --shard-workers=2 with every other shard flag at its default.
void RunShard(const MineConfig& config, SpanLog* spans, PathRun* run) {
  OpTimer timer(PathName(Path::kImpShard), spans, run);
  ImplicationMiningOptions options;
  options.min_confidence = config.min_confidence;
  dmc::shard::ShardOptions shard;
  shard.num_workers = 2;
  shard.tasks_per_worker = 2;
  shard.io = CliIo(false);
  dmc::shard::ShardMiningStats stats;
  auto rules = dmc::shard::MineImplicationsSharded(
      config.input_path, options, config.work_dir, shard, &stats);
  timer.Mark("shard.mine_sharded");
  if (!rules.ok()) {
    run->failure = rules.status().ToString();
    return;
  }
  run->layers.push_back({"shard.imp.pass1_s", stats.pass1_seconds});
  run->layers.push_back({"shard.imp.mine_s", stats.mine_seconds});
  run->layers.push_back(
      {"shard.imp.overhead_s",
       stats.total_seconds - stats.pass1_seconds - stats.mine_seconds});
  run->counts.push_back(
      {"shard.imp.tasks", static_cast<uint64_t>(stats.tasks_total)});
  run->counts.push_back({"shard.imp.workers_spawned",
                         static_cast<uint64_t>(stats.workers_spawned)});
  run->counts.push_back({"shard.imp.heartbeats", stats.heartbeats});
  run->counts.push_back({"shard.imp.degraded_tasks",
                         static_cast<uint64_t>(stats.degraded_tasks)});
  const std::string emit_failure = Emit(
      rules->SortedByConfidence(), OutputPath(config, Path::kImpShard), run);
  run->layers.push_back({"rules.imp.emit_s", timer.Mark("rules.emit")});
  if (!emit_failure.empty()) run->failure = emit_failure;
  // A fleet that lost workers or fell back to in-process mining timed
  // something other than the sharded path.
  if (stats.workers_died > 0 || stats.degraded_tasks > 0) {
    run->failure = "shard: " + std::to_string(stats.workers_died) +
                   " workers died, " + std::to_string(stats.degraded_tasks) +
                   " tasks degraded to in-process";
  }
  timer.Finish("shard.imp.residual_s");
}

}  // namespace

const char* PathName(Path path) {
  switch (path) {
    case Path::kImp: return "imp";
    case Path::kSim: return "sim";
    case Path::kImpThreads: return "imp_threads";
    case Path::kImpExternal: return "imp_external";
    case Path::kSimExternal: return "sim_external";
    case Path::kImpShard: return "imp_shard";
  }
  return "?";
}

bool IsSimilarity(Path path) {
  return path == Path::kSim || path == Path::kSimExternal;
}

PathRun RunPath(Path path, const MineConfig& config, SpanLog* spans) {
  PathRun run;
  switch (path) {
    case Path::kImp:
    case Path::kImpThreads:
      RunInMemory<false>(path, config, spans, &run);
      break;
    case Path::kSim:
      RunInMemory<true>(path, config, spans, &run);
      break;
    case Path::kImpExternal:
      RunExternal<false>(path, config, spans, &run);
      break;
    case Path::kSimExternal:
      RunExternal<true>(path, config, spans, &run);
      break;
    case Path::kImpShard:
      RunShard(config, spans, &run);
      break;
  }
  return run;
}

}  // namespace perfbench
