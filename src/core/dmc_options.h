// Tuning knobs shared by the DMC engines.

#ifndef DMC_CORE_DMC_OPTIONS_H_
#define DMC_CORE_DMC_OPTIONS_H_

#include <cstddef>

#include "observe/progress.h"

namespace dmc {

/// Which order the second pass visits rows in (§4.1).
enum class RowOrderPolicy {
  /// Original row order (re-ordering disabled; ablation baseline).
  kIdentity,
  /// The paper's density buckets [2^i, 2^{i+1}), sparsest bucket first.
  kDensityBuckets,
  /// Exact sparsest-first sort (upper bound for the bucket approximation).
  kExactSort,
};

/// Which merge kernel the hot-path scan uses (core/kernels.h). All
/// choices produce byte-identical rule sets and accounting; the knob
/// exists for hardware portability and for the differential parity tests.
enum class MergeKernel {
  /// Runtime dispatch: kSimd when the CPU supports AVX2, else kScalar.
  kAuto,
  /// The pre-arena merge that rebuilds each list into scratch on every
  /// row. Shares no code with the others; kept as the differential
  /// reference.
  kLegacy,
  /// The in-place row-mask merge and never the vector sweep: what kSimd
  /// runs on a CPU without AVX2, selectable on any CPU.
  kScalar,
  /// kScalar's row-mask merge on sparse input and the block-typed AVX2
  /// vector sweep on dense input, chosen once per pass from its row, one
  /// and column counts (kernels::PreferVectorSweep). Falls back to
  /// kScalar on hardware without AVX2.
  kSimd,
};

/// Policy knobs common to DMC-imp and DMC-sim. Defaults reproduce the
/// paper's configuration (§4.4): density-bucket re-ordering, a 100%-rule
/// pre-phase, and a switch to DMC-bitmap when <= 64 rows remain and the
/// counter array exceeds 50 MB.
struct DmcPolicy {
  RowOrderPolicy row_order = RowOrderPolicy::kDensityBuckets;

  /// The step-3 cutoff (§4.3, DMC-imp/DMC-sim): a column that can only
  /// be in 100% rules (resp. identical pairs) is mined by the id-only
  /// 100% phase alone, which runs only when there is such a column; the
  /// sub-100% phase mines the rest, their 100% rules included. Off
  /// (ablation): one sub-100% pass mines every column.
  bool hundred_percent_phase = true;

  /// Allow switching to the low-memory DMC-bitmap algorithm (§4.2).
  bool bitmap_fallback = true;
  /// Counter-array bytes above which the switch is considered.
  size_t memory_threshold_bytes = size_t{50} << 20;
  /// The switch happens only once this few rows remain, regardless of
  /// memory (§4.4: 64 rows).
  size_t bitmap_max_remaining_rows = 64;

  /// DMC-sim only: §5.1 column-density pruning (skip pairs whose 1-count
  /// ratio is below the similarity threshold).
  bool column_density_pruning = true;
  /// DMC-sim only: §5.2 maximum-hits pruning.
  bool max_hits_pruning = true;

  /// Hot-path merge kernel; kAuto picks the fastest one the CPU
  /// supports. Every choice yields identical rules and accounting.
  MergeKernel kernel = MergeKernel::kAuto;

  /// Record per-row memory/candidate history into MiningStats (Fig. 3 and
  /// the Example 3.1 traces). O(rows) extra memory; off by default.
  bool record_history = false;

  /// Observability hooks (metrics registry, trace sink, progress/cancel
  /// callback); all null/empty by default, i.e. fully disabled. Carried
  /// here so the hooks flow through the batch, streaming, external and
  /// parallel engines without any signature changes.
  ObserveContext observe;
};

/// Options for MineImplications.
struct ImplicationMiningOptions {
  /// minconf in (0, 1].
  double min_confidence = 0.9;
  DmcPolicy policy;
};

/// Options for MineSimilarities.
struct SimilarityMiningOptions {
  /// minsim in (0, 1].
  double min_similarity = 0.9;
  DmcPolicy policy;
};

}  // namespace dmc

#endif  // DMC_CORE_DMC_OPTIONS_H_
