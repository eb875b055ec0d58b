// dmc_perfbench — the repository benchmark (README.md in this directory).
//
//   dmc_perfbench --workload=mine-sparse|mine-dense --seed=N --seconds=S
//                 --trace=0|1 --workdir=DIR [--trace-out=FILE]
//
// One run: set up (generate and write the inputs, warm every timed path
// and start the rule server) three times, then measure for S seconds in
// rounds. Each round runs the six file-mining paths once each, so a
// slowdown of the host hits every path alike. The four single-thread
// paths each run right after the reference miner (reference_miner.h),
// and their gated metric is the op's wall time over the reference's.
// Every output is checked; every timed value is the median over the run.
//
// --trace=0 prints the end-to-end metrics and runs the serve phase once,
// after the rounds, for its checks. --trace=1 additionally times each
// mining path with its layers split out, runs a serve slice every round,
// replays the serve phase in-process, and prints the per-layer metrics
// instead. Detail goes to stderr; the last line of stdout is the result
// object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "core/engine.h"
#include "inputs.h"
#include "matrix/matrix_io.h"
#include "mine_paths.h"
#include "reference_miner.h"
#include "rules/verifier.h"
#include "serve_load.h"
#include "util/atomic_io.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

struct WorkloadSpec {
  const char* name;
  MatrixSpec matrix;
  double min_confidence;
  double min_similarity;
};

constexpr int kSetupRepeats = 3;
/// The reference miner's input: the workload's family and size at this
/// fixed seed, so the yardstick does the same work in every run. Mined on
/// the run's own input instead, its time ranged over 27% across seeds
/// 1-10 of mine-dense, the in-memory imp op's over 11%.
constexpr uint64_t kRefMinerSeed = 1000;
constexpr int kMinRounds = 5;
/// The serve phase slides a 4000-row window over rows of the workload's
/// own family and width (100-row batches at 10/s, minconf 0.6), so the
/// incr and serve layers see a sparse and a dense window. kServeRows is
/// the window the server starts from plus the pool the batches come from.
constexpr ServeConfig kServe;
constexpr uint32_t kServeRows = kServe.window_rows + 40000;
/// The untraced run checks the serve phase in one slice after the
/// rounds. A traced round times every mining path twice and runs a slice
/// each round, to gather the 100 lag samples a p90 needs.
constexpr double kCheckSliceSeconds = 1.0;
constexpr double kTracedSliceSeconds = 2.4;
constexpr double kWarmupSliceSeconds = 0.3;
constexpr uint64_t kReplayBatches = 100;
constexpr uint64_t kReplayQueriesPerBatch = 20;
/// Layers may overshoot an op's wall time by clock granularity only.
constexpr double kResidualToleranceSeconds = 1e-3;

std::vector<WorkloadSpec> Workloads() {
  return {
      {"mine-sparse", {Family::kQuest, 60000, 2000}, 0.7, 0.4},
      {"mine-dense", {Family::kBlocks, 6000, 300}, 0.6, 0.5},
  };
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      args->workload = value;
    } else if (key == "seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "trace") {
      args->trace = value == "1";
    } else if (key == "workdir") {
      args->work_dir = value;
    } else if (key == "trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return have_seed && !args->workload.empty() && !args->work_dir.empty() &&
         args->seconds > 0.0;
}

std::string CheckRun(const PathRun& run, const std::string& reference,
                     CountLedger* ledger) {
  if (!run.failure.empty()) return run.failure;
  if (run.emitted != reference) {
    return "rules differ from the in-memory reference";
  }
  if (run.residual_s < -kResidualToleranceSeconds) {
    return "layers exceed the op's wall time";
  }
  for (const auto& [count, value] : run.counts) {
    const std::string error = ledger->Check(count, value);
    if (!error.empty()) return error;
  }
  return "";
}

// The in-memory reference itself: every rule's counts must match the
// matrix and clear the threshold, and the mine must print the exact
// reference text.
void VerifyReference(const dmc::BinaryMatrix& matrix, const WorkloadSpec& spec,
                     const std::string reference[2], Outcome* outcome) {
  const dmc::RuleVerifier verifier(matrix);
  dmc::ImplicationMiningOptions imp_options;
  imp_options.min_confidence = spec.min_confidence;
  const auto imp = dmc::MineImplications(matrix, imp_options);
  dmc::SimilarityMiningOptions sim_options;
  sim_options.min_similarity = spec.min_similarity;
  const auto sim = dmc::MineSimilarities(matrix, sim_options);
  if (!imp.ok() || !sim.ok()) {
    outcome->Fail("reference mine failed");
    return;
  }
  const dmc::Status imp_ok =
      verifier.VerifyImplications(*imp, spec.min_confidence);
  const dmc::Status sim_ok =
      verifier.VerifySimilarities(*sim, spec.min_similarity);
  if (!imp_ok.ok()) outcome->Fail("imp reference: " + imp_ok.ToString());
  if (!sim_ok.ok()) outcome->Fail("sim reference: " + sim_ok.ToString());
  std::ostringstream imp_text;
  imp->SortedByConfidence().Print(imp_text, 0);
  std::ostringstream sim_text;
  sim->SortedBySimilarity().Print(sim_text, 0);
  if (imp_text.str() != reference[0] || sim_text.str() != reference[1]) {
    outcome->Fail("reference text differs between repetitions");
  }
  if (imp->empty() || sim->empty()) outcome->Fail("reference rule set empty");
}

// Files and bytes the external miner spills for one imp run, from a run
// that keeps its bucket files.
std::pair<uint64_t, uint64_t> MeasureSpill(const MineConfig& config,
                                           Outcome* outcome) {
  MineConfig spill = config;
  spill.work_dir = config.work_dir + "/spill";
  spill.keep_artifacts = true;
  std::error_code ec;
  fs::create_directories(spill.work_dir, ec);
  SpanLog off(false, Clock::now());
  const PathRun run = RunPath(Path::kImpExternal, spill, &off);
  if (!run.failure.empty()) outcome->Fail("spill run: " + run.failure);
  uint64_t files = 0;
  uint64_t bytes = 0;
  for (const auto& entry : fs::directory_iterator(spill.work_dir, ec)) {
    if (entry.path().filename().string().rfind("rules_", 0) == 0) continue;
    ++files;
    bytes += entry.file_size();
  }
  fs::remove_all(spill.work_dir, ec);
  return {files, bytes};
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// The two-thread and two-worker paths need two or three vCPUs at once, so
// a slow phase of a shared host stretches them about twice as much as the
// others (one ten-run set spread them by 42% and 37%, past any bound a
// gate may hold), and the single-thread reference miner cannot stand in
// for that. Every run still times and checks them; their medians are
// per-layer metrics.
bool IsGated(Path path) {
  return path != Path::kImpThreads && path != Path::kImpShard;
}

class Benchmark {
 public:
  Benchmark(const WorkloadSpec& spec, const Args& args)
      : spec_(spec), args_(args), origin_(Clock::now()),
        spans_(args.trace, origin_) {
    config_.input_path = args.work_dir + "/input.txt";
    ref_miner_input_ = args.work_dir + "/ref_miner_input.txt";
    config_.work_dir = args.work_dir;
    config_.min_confidence = spec.min_confidence;
    config_.min_similarity = spec.min_similarity;
  }

  int Run() {
    if (!SetUp()) return Finish();
    Measure();
    if (args_.trace) TraceExtras();
    return Finish();
  }

 private:
  // Generate + write the inputs, warm every path, start the server and
  // warm it; repeated so setup_s is a median.
  bool SetUp() {
    SpanLog off(false, origin_);
    dmc::BinaryMatrix matrix;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      serve_.reset();
      const Clock::time_point t0 = Clock::now();
      auto generated = Generate(spec_.matrix, args_.seed);
      auto serve_rows = Generate(
          {spec_.matrix.family, kServeRows, spec_.matrix.cols}, args_.seed + 1);
      auto ref_miner_matrix = Generate(spec_.matrix, kRefMinerSeed);
      if (!generated.ok() || !serve_rows.ok() || !ref_miner_matrix.ok()) {
        outcome_.Fail("generating the inputs failed");
        return false;
      }
      matrix = *std::move(generated);
      dmc::Status written =
          dmc::WriteMatrixTextFile(matrix, config_.input_path);
      if (written.ok()) {
        written = dmc::WriteMatrixTextFile(*ref_miner_matrix, ref_miner_input_);
      }
      if (!written.ok()) {
        outcome_.Fail("writing the inputs: " + written.ToString());
        return false;
      }
      stream_ = std::make_unique<RowStream>(*serve_rows, kServe.window_rows);
      TimeRefMiner();
      for (const Path path : kAllPaths) {
        const PathRun run = RunPath(path, config_, &off);
        std::string& reference = reference_[IsSimilarity(path) ? 1 : 0];
        if (rep == 0 && (path == Path::kImp || path == Path::kSim)) {
          reference = run.emitted;
        }
        const std::string error = CheckRun(run, reference, &ledger_);
        if (!error.empty()) {
          outcome_.Fail(std::string("warm-up ") + PathName(path) + ": " +
                        error);
        }
      }
      serve_ = std::make_unique<ServeLoad>(*stream_, kServe, args_.seed);
      const dmc::Status started = serve_->Start();
      if (!started.ok()) {
        outcome_.Fail("starting the server: " + started.ToString());
        return false;
      }
      Outcome warm;
      ServeSamples warm_samples;
      serve_->RunSlice(kWarmupSliceSeconds, &warm_samples, &warm);
      for (const std::string& e : warm.errors) outcome_.Fail("warm-up " + e);
      setup_seconds_.push_back(SecondsBetween(t0, Clock::now()));
    }
    VerifyReference(matrix, spec_, reference_, &outcome_);
    std::fprintf(stderr,
                 "%s seed %llu: %u x %u, %zu ones; serve window %llu x %u\n",
                 spec_.name, static_cast<unsigned long long>(args_.seed),
                 matrix.num_rows(), matrix.num_columns(), matrix.num_ones(),
                 static_cast<unsigned long long>(kServe.window_rows),
                 stream_->num_columns());
    std::fprintf(stderr,
                 "generators: appender open loop, %.1f batches/s x %llu "
                 "rows; query client closed loop, 1 connection; watcher "
                 "closed loop, kStats every %.1f ms\n",
                 kServe.batches_per_second,
                 static_cast<unsigned long long>(kServe.batch_rows),
                 kServe.watcher_period_s * 1e3);
    return outcome_.correct;
  }

  void RecordLayers(const PathRun& run) {
    for (const auto& [name, value] : run.layers) layers_[name].push_back(value);
    for (const auto& [name, value] : run.extras) layers_[name].push_back(value);
    layers_[run.residual_name].push_back(run.residual_s);
    if (run.residual_name == "core.imp.residual_s") {
      // Shares of the op's own wall time, so the two workloads compare.
      for (const auto& [name, value] : run.layers) {
        if (name == "matrix.parse_s" || name == "core.imp.sub_s") {
          layers_[name.substr(0, name.size() - 2) + "_share"].push_back(
              Ratio(value, run.wall_s));
        }
      }
      layers_["core.imp.residual_share"].push_back(
          Ratio(run.residual_s, run.wall_s));
    }
  }

  // Runs the reference miner once and returns its wall time (0 when it
  // failed or did other work than before).
  double TimeRefMiner() {
    const ReferenceRun ref =
        RunReferenceMiner(ref_miner_input_, spec_.min_confidence);
    std::string error = ref.failure;
    if (error.empty()) error = ledger_.Check("ref.survivors", ref.survivors);
    if (!error.empty()) {
      outcome_.Fail("reference miner: " + error);
      return 0.0;
    }
    ref_miner_walls_.push_back(ref.wall_s);
    return ref.wall_s;
  }

  // An untraced gated op runs right after the reference miner, so both
  // see the same phase of the host; the pair's ratio is its gated sample.
  void TimePath(Path path, bool traced) {
    const double ref_miner_s = !traced && IsGated(path) ? TimeRefMiner() : 0.0;
    SpanLog off(false, origin_);
    const PathRun run = RunPath(path, config_, traced ? &spans_ : &off);
    outcome_.Record(
        PathName(path),
        CheckRun(run, reference_[IsSimilarity(path) ? 1 : 0], &ledger_));
    (traced ? traced_walls_ : walls_)[path].push_back(run.wall_s);
    if (ref_miner_s > 0.0) vs_ref_[path].push_back(run.wall_s / ref_miner_s);
    if (traced) RecordLayers(run);
  }

  // One stderr line per round: the latest wall of every path and of the
  // reference, to see drift within a run.
  void ReportRound(int round) const {
    std::string line = "round " + std::to_string(round) + ":";
    char buffer[64];
    for (const Path path : kAllPaths) {
      std::snprintf(buffer, sizeof(buffer), " %s %.4f", PathName(path),
                    walls_.at(path).back());
      line += buffer;
    }
    std::snprintf(buffer, sizeof(buffer), " ref %.4f",
                  ref_miner_walls_.empty() ? 0.0 : ref_miner_walls_.back());
    std::fprintf(stderr, "%s%s\n", line.c_str(), buffer);
  }

  // Round-robin over the paths (plus a serve slice per traced round)
  // until the budget is spent, but at least kMinRounds rounds; then the
  // untraced run's one serve slice and the serve phase's final check.
  void Measure() {
    // The traced run keeps room for the replay and spill accounting.
    const double budget =
        std::max(1.0, args_.seconds - (args_.trace ? 3.0
                                                   : kCheckSliceSeconds + 0.5));
    const Clock::time_point start = Clock::now();
    int rounds = 0;
    while (true) {
      for (const Path path : kAllPaths) {
        TimePath(path, false);
        if (args_.trace) TimePath(path, true);
      }
      if (args_.trace) {
        serve_->RunSlice(kTracedSliceSeconds, &serve_samples_, &outcome_);
      }
      ++rounds;
      ReportRound(rounds);
      const double elapsed = SecondsBetween(start, Clock::now());
      if (rounds >= kMinRounds && elapsed * (rounds + 1) / rounds > budget) {
        break;
      }
    }
    if (!args_.trace) {
      serve_->RunSlice(kCheckSliceSeconds, &serve_samples_, &outcome_);
    }
    outcome_.Record("serve.final", serve_->FinalError());
    snapshots_published_ = serve_->snapshots_published();
    serve_->Stop();
    std::fprintf(stderr,
                 "measured %d rounds in %.1f s; appender ran late by "
                 "p50 %.3f ms, max %.3f ms\n",
                 rounds, SecondsBetween(start, Clock::now()),
                 Median(serve_samples_.generator_late_ms),
                 Quantile(serve_samples_.generator_late_ms, 1.0));
  }

  void TraceExtras() {
    replay_ = ReplayServe(*stream_, kServe, args_.seed, kReplayBatches,
                          kReplayQueriesPerBatch, &spans_);
    SpanLog off(false, origin_);
    const ReplayResult again = ReplayServe(*stream_, kServe, args_.seed,
                                           kReplayBatches, 0, &off);
    if (!replay_.failure.empty()) outcome_.Fail(replay_.failure);
    if (again.counts != replay_.counts) {
      outcome_.Fail("serve replay counts differ between two replays");
    }
    spill_ = MeasureSpill(config_, &outcome_);
  }

  double WallMedian(Path path) const {
    const auto it = walls_.find(path);
    return it == walls_.end() ? 0.0 : Median(it->second);
  }
  double Layer(const std::string& name) const {
    const auto it = layers_.find(name);
    return it == layers_.end() ? 0.0 : Median(it->second);
  }
  double Count(const std::string& name) const {
    const auto it = ledger_.values().find(name);
    return it == ledger_.values().end() ? 0.0
                                        : static_cast<double>(it->second);
  }

  void EndToEndMetrics() {
    metrics_.Set("setup_s", Median(setup_seconds_), "s");
    metrics_.Set("success_rate", outcome_.SuccessRate(), "ratio");
    metrics_.Set("peak_counter_bytes",
                 std::max(Count("core.imp.peak_counter_bytes"),
                          Count("core.sim.peak_counter_bytes")),
                 "bytes");
    for (const Path path : kAllPaths) {
      if (!IsGated(path)) continue;
      const auto it = vs_ref_.find(path);
      metrics_.Set(std::string(PathName(path)) + "_vs_ref",
                   it == vs_ref_.end() ? 0.0 : Median(it->second), "ratio");
    }
  }

  void PerLayerMetrics() {
    MetricSink& m = metrics_;
    // The raw walls the gated ratios divide, and the divisor.
    for (const Path path : kAllPaths) {
      if (!IsGated(path)) continue;
      m.Set(std::string("op.") + PathName(path) + "_s", WallMedian(path), "s");
    }
    m.Set("ref.miner_s", Median(ref_miner_walls_), "s");
    m.Set("matrix.parse_s", Layer("matrix.parse_s"), "s");
    m.Set("matrix.parse_share", Layer("matrix.parse_share"), "ratio");
    for (const char* k : {"imp", "sim"}) {
      const std::string core = std::string("core.") + k;
      m.Set(core + ".prescan_s", Layer(core + ".prescan_s"), "s");
      m.Set(core + ".hundred_s", Layer(core + ".hundred_s"), "s");
      m.Set(core + ".sub_s", Layer(core + ".sub_s"), "s");
      m.Set(core + ".residual_s", Layer(core + ".residual_s"), "s");
      if (std::strcmp(k, "imp") == 0) {
        m.Set("core.imp.sub_share", Layer("core.imp.sub_share"), "ratio");
        m.Set("core.imp.residual_share", Layer("core.imp.residual_share"),
              "ratio");
      }
      for (const char* c : {".peak_candidates", ".columns_cut_off",
                            ".bitmap_rows"}) {
        m.Set(core + c, Count(core + c), "count");
      }
    }
    for (const char* k : {"imp", "sim"}) {
      const std::string rules = std::string("rules.") + k;
      m.Set(rules + ".emit_s", Layer(rules + ".emit_s"), "s");
      m.Set(rules + ".count", Count(rules + ".count"), "count");
    }
    m.Set("rules.publish_ms", Median(replay_.publish_ms), "ms");
    m.Set("rules.query_us", Median(replay_.query_us), "us");

    const double imp_s = WallMedian(Path::kImp);
    const double threads_s = WallMedian(Path::kImpThreads);
    m.Set("parallel.imp.wall_s", threads_s, "s");
    for (const char* name : {"max_shard_s", "sum_shard_s", "overhead_s",
                             "residual_s"}) {
      const std::string full = std::string("parallel.imp.") + name;
      m.Set(full, Layer(full), "s");
    }
    m.Set("parallel.imp.imbalance", Layer("parallel.imp.imbalance"), "ratio");
    m.Set("parallel.imp.speedup", Ratio(imp_s, threads_s), "ratio");

    for (const char* k : {"imp", "sim"}) {
      const std::string ext = std::string("external.") + k;
      for (const char* name : {".pass1_s", ".partition_s", ".mine_s",
                               ".residual_s"}) {
        m.Set(ext + name, Layer(ext + name), "s");
      }
      const bool sim = std::strcmp(k, "sim") == 0;
      m.Set(ext + ".vs_memory",
            Ratio(WallMedian(sim ? Path::kSimExternal : Path::kImpExternal),
                  WallMedian(sim ? Path::kSim : Path::kImp)),
            "ratio");
    }
    m.Set("external.bucket_files", Count("external.bucket_files"), "count");
    m.Set("external.spill_bytes", static_cast<double>(spill_.second), "bytes");

    m.Set("shard.imp.wall_s", WallMedian(Path::kImpShard), "s");
    for (const char* name : {"pass1_s", "mine_s", "overhead_s", "residual_s"}) {
      const std::string full = std::string("shard.imp.") + name;
      m.Set(full, Layer(full), "s");
    }
    const double single_pass1 =
        Layer("external.imp.pass1_s") + Layer("external.imp.partition_s");
    m.Set("shard.imp.pass1_vs_single",
          Ratio(Layer("shard.imp.pass1_s"), single_pass1), "ratio");
    for (const char* name : {"tasks", "workers_spawned", "heartbeats",
                             "degraded_tasks"}) {
      const std::string full = std::string("shard.imp.") + name;
      m.Set(full, Count(full), "count");
    }

    m.Set("incr.append_ms_p50", Quantile(replay_.append_ms, 0.5), "ms");
    m.Set("incr.append_ms_p90", Quantile(replay_.append_ms, 0.9), "ms");
    m.Set("incr.evict_ms_p50", Quantile(replay_.evict_ms, 0.5), "ms");
    for (const char* name :
         {"incr.rules_updated", "incr.candidates_killed",
          "incr.candidates_revived", "incr.delta_pairs_examined",
          "incr.regen_pairs_examined"}) {
      m.Set(name, static_cast<double>(replay_.counts[name]), "count");
    }
    m.Set("incr.state_bytes",
          static_cast<double>(replay_.counts["incr.state_bytes"]), "bytes");

    const ServeSamples& s = serve_samples_;
    const double query_p50_ms = Quantile(s.query_ms, 0.5);
    m.Set("serve.query_overhead_us",
          query_p50_ms * 1e3 - Median(replay_.query_us), "us");
    const double ingest_ms = Median(replay_.append_ms) +
                             Median(replay_.evict_ms) +
                             Median(replay_.publish_ms);
    m.Set("serve.ingest_wait_ms",
          Quantile(s.visible_lag_ms, 0.5) - ingest_ms, "ms");
    m.Set("serve.pending_batches_max",
          static_cast<double>(s.pending_batches_max), "count");
    m.Set("serve.generator_late_ms_p50", Quantile(s.generator_late_ms, 0.5),
          "ms");
    m.Set("serve.generator_late_ms_max", Quantile(s.generator_late_ms, 1.0),
          "ms");
    // The serve latencies are per-layer only: in runs that land in a busy
    // phase of the host they swing by 25-45% (tails by up to 70%), past
    // the largest bound a gate may hold. Their correctness still counts
    // in success_rate.
    m.Set("serve.query_p50_ms", query_p50_ms, "ms");
    m.Set("serve.query_p90_ms", Quantile(s.query_ms, 0.9), "ms");
    m.Set("serve.query_p99_ms", Quantile(s.query_ms, 0.99), "ms");
    m.Set("serve.append_ack_p50_ms", Median(s.append_ack_ms), "ms");
    m.Set("serve.visible_lag_p50_ms", Quantile(s.visible_lag_ms, 0.5), "ms");
    m.Set("serve.visible_lag_p90_ms", Quantile(s.visible_lag_ms, 0.9), "ms");
    m.Set("serve.queries", static_cast<double>(s.query_ms.size()), "count");
    m.Set("serve.lag_samples", static_cast<double>(s.visible_lag_ms.size()),
          "count");
    m.Set("serve.snapshots_published",
          static_cast<double>(snapshots_published_), "count");
    m.Set("serve.errors", static_cast<double>(outcome_.Failed("serve.")),
          "count");

    // Geometric mean over the paths of traced / untraced median.
    double log_sum = 0.0;
    int n = 0;
    for (const Path path : kAllPaths) {
      const auto it = traced_walls_.find(path);
      if (it == traced_walls_.end() || WallMedian(path) <= 0.0) continue;
      log_sum += std::log(Median(it->second) / WallMedian(path));
      ++n;
    }
    m.Set("trace.overhead", n > 0 ? std::exp(log_sum / n) : 0.0, "ratio");
  }

  // The ROADMAP gap ratios, each with its base, plus the layer split of
  // every timed op kind.
  void ReportTrace() const {
    const double imp_s = WallMedian(Path::kImp);
    std::fprintf(stderr,
                 "ratios: external.imp.vs_memory %.3f (imp_external_s %.4f / "
                 "imp_s %.4f); shard.imp.pass1_vs_single %.3f (shard pass1 "
                 "%.4f / external pass1+partition %.4f); core.imp.residual "
                 "%.1f%% of imp_s %.4f; parallel.imp.speedup %.3f (imp_s %.4f "
                 "/ parallel.imp.wall_s %.4f)\n",
                 Ratio(WallMedian(Path::kImpExternal), imp_s),
                 WallMedian(Path::kImpExternal), imp_s,
                 Ratio(Layer("shard.imp.pass1_s"),
                       Layer("external.imp.pass1_s") +
                           Layer("external.imp.partition_s")),
                 Layer("shard.imp.pass1_s"),
                 Layer("external.imp.pass1_s") +
                     Layer("external.imp.partition_s"),
                 100.0 * Layer("core.imp.residual_share"), imp_s,
                 Ratio(imp_s, WallMedian(Path::kImpThreads)), imp_s,
                 WallMedian(Path::kImpThreads));
    for (const auto& [name, value] : ledger_.values()) {
      std::fprintf(stderr, "count %s = %llu\n", name.c_str(),
                   static_cast<unsigned long long>(value));
    }
    for (const auto& [name, value] : replay_.counts) {
      std::fprintf(stderr, "count %s = %llu\n", name.c_str(),
                   static_cast<unsigned long long>(value));
    }
  }

  int Finish() {
    if (args_.trace) {
      PerLayerMetrics();
      ReportTrace();
      if (!args_.trace_out.empty()) {
        const dmc::Status st =
            dmc::AtomicWriteFile(args_.trace_out, spans_.ToJsonLines());
        if (!st.ok()) outcome_.Fail("writing spans: " + st.ToString());
      }
    } else {
      EndToEndMetrics();
    }
    for (const std::string& e : outcome_.errors) {
      std::fprintf(stderr, "FAILED: %s\n", e.c_str());
    }
    std::printf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": %s}\n",
        outcome_.correct ? "true" : "false",
        static_cast<unsigned long long>(outcome_.Attempted()),
        static_cast<unsigned long long>(outcome_.Failed()),
        metrics_.ToJson().c_str());
    return 0;
  }

  const WorkloadSpec& spec_;
  const Args& args_;
  const Clock::time_point origin_;
  SpanLog spans_;
  MineConfig config_;
  std::string ref_miner_input_;
  Outcome outcome_;
  CountLedger ledger_;
  MetricSink metrics_;
  std::string reference_[2];
  std::vector<double> setup_seconds_;
  std::unique_ptr<RowStream> stream_;
  std::unique_ptr<ServeLoad> serve_;
  std::map<Path, std::vector<double>> walls_;
  std::map<Path, std::vector<double>> traced_walls_;
  /// Untraced op wall ÷ the reference miner's wall just before it.
  std::map<Path, std::vector<double>> vs_ref_;
  std::vector<double> ref_miner_walls_;
  std::map<std::string, std::vector<double>> layers_;
  ServeSamples serve_samples_;
  uint64_t snapshots_published_ = 0;
  ReplayResult replay_;
  std::pair<uint64_t, uint64_t> spill_{0, 0};
};

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: dmc_perfbench --workload=NAME --seed=N --seconds=S "
                 "--trace=0|1 --workdir=DIR [--trace-out=FILE]\n");
    return 2;
  }
  for (const WorkloadSpec& spec : Workloads()) {
    if (args.workload == spec.name) {
      Benchmark benchmark(spec, args);
      return benchmark.Run();
    }
  }
  std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
