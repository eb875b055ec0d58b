// The six file-mining paths a user runs, each called exactly the way
// tools/dmc_cli.cc calls it: open the input, mine, sort, print, write
// the rules atomically. Every run takes clock readings at the layer
// boundaries and keeps the stats struct the library call returns, so a
// traced run can split its wall time into layers plus a residual.

#ifndef DMC_PERFBENCH_MINE_PATHS_H_
#define DMC_PERFBENCH_MINE_PATHS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace perfbench {

enum class Path {
  kImp,          ///< mine-imp
  kSim,          ///< mine-sim
  kImpThreads,   ///< mine-imp --threads=2
  kImpExternal,  ///< mine-imp --external
  kSimExternal,  ///< MineSimilaritiesFromFile, the scan shard workers replay
  kImpShard,     ///< mine-imp --shard-workers=2
};

inline constexpr Path kAllPaths[] = {Path::kImp,         Path::kSim,
                                     Path::kImpThreads,  Path::kImpExternal,
                                     Path::kSimExternal, Path::kImpShard};

/// "imp", "sim", "imp_threads", ...; the end-to-end metric is name + "_s".
const char* PathName(Path path);
bool IsSimilarity(Path path);

struct MineConfig {
  std::string input_path;  ///< transaction text file
  std::string work_dir;    ///< bucket files and rule outputs
  double min_confidence = 0.0;
  double min_similarity = 0.0;
  /// Keep the external miner's bucket files (spill accounting only).
  bool keep_artifacts = false;
};

/// One run of one path.
struct PathRun {
  /// Empty when the call succeeded and no silent degrade was detected.
  std::string failure;
  /// The rule file's exact bytes.
  std::string emitted;
  double wall_s = 0.0;
  /// Layer seconds in order; together with `residual_s` they sum to
  /// wall_s exactly.
  std::vector<std::pair<std::string, double>> layers;
  double residual_s = 0.0;
  /// Name of the residual layer ("core.imp.residual_s", ...).
  std::string residual_name;
  /// Deterministic work counts of this run.
  std::vector<std::pair<std::string, uint64_t>> counts;
  /// Per-layer values outside the wall-time split (shard-time sum,
  /// imbalance).
  std::vector<std::pair<std::string, double>> extras;
};

/// Runs `path` once. When `spans` records, the op and its layer calls
/// are logged under a fresh op id.
PathRun RunPath(Path path, const MineConfig& config, SpanLog* spans);

}  // namespace perfbench

#endif  // DMC_PERFBENCH_MINE_PATHS_H_
