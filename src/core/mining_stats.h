// Instrumentation emitted by the mining engines — the raw material for
// every plot in the paper's evaluation section.

#ifndef DMC_CORE_MINING_STATS_H_
#define DMC_CORE_MINING_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace dmc {

/// Timing/memory breakdown of one MineImplications / MineSimilarities
/// call. All times are wall-clock seconds.
struct MiningStats {
  // --- time breakdown (Fig. 6(c)-(f)) ---
  /// First pass: ones(c) counting + row bucketing.
  double prescan_seconds = 0.0;
  /// 100%-rule (or identical-column) phase, split into the in-memory scan
  /// and the bitmap fallback; 0 when the cutoff left it nothing to mine.
  double hundred_base_seconds = 0.0;
  double hundred_bitmap_seconds = 0.0;
  /// Sub-100% phase, same split.
  double sub_base_seconds = 0.0;
  double sub_bitmap_seconds = 0.0;
  double total_seconds = 0.0;

  double hundred_seconds() const {
    return hundred_base_seconds + hundred_bitmap_seconds;
  }
  double sub_seconds() const {
    return sub_base_seconds + sub_bitmap_seconds;
  }

  // --- memory (Fig. 3, Fig. 6(g,h)) ---
  /// Peak bytes of the counter array (candidate ids + miss counters).
  size_t peak_counter_bytes = 0;
  /// Peak number of live candidate entries.
  size_t peak_candidates = 0;
  /// Counter-array bytes after each processed row, when history recording
  /// is enabled (Fig. 3).
  std::vector<size_t> memory_history;
  /// Live candidate entries after each processed row, when history
  /// recording is enabled (validates Example 3.1 / §4.1).
  std::vector<size_t> candidate_history;

  // --- control flow ---
  /// Whether the DMC-bitmap fallback fired in each phase.
  bool hundred_bitmap_triggered = false;
  bool sub_bitmap_triggered = false;
  /// Rows handled by the bitmap fallback in the sub-100% phase.
  size_t sub_bitmap_rows = 0;

  // --- configuration echo ---
  /// Resolved hot-path kernel the scan ran with ("legacy", "scalar",
  /// "simd"); empty for engines that do not run the merge kernels.
  std::string kernel;

  // --- output ---
  /// The final rule set split into its 100% records (zero-miss
  /// implications, identical pairs; 0 with the 100% phase off) and the
  /// rest, whichever pass found them.
  size_t rules_from_hundred_phase = 0;
  size_t rules_from_sub_phase = 0;
  /// Columns the step-3 cutoff leaves to the 100% phase alone.
  size_t columns_cut_off = 0;
};

}  // namespace dmc

#endif  // DMC_CORE_MINING_STATS_H_
