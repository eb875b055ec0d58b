// Shared helpers for the reproduction benches: the six Table-1 data-set
// analogues at a configurable scale, the flag check, the baseline gate,
// plus small table-printing utilities.
//
// Every bench but bench_micro accepts `--scale=<positive number>`
// (default 1.0). Scale 1 keeps the whole suite in the minutes range on a
// laptop; larger scales approach the paper's sizes. A bench names its
// flags in FlagSpec tables and exits 2 on any other argument, before it
// generates data.

#ifndef DMC_BENCH_BENCH_COMMON_H_
#define DMC_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "datagen/news_gen.h"
#include "matrix/binary_matrix.h"
#include "tools/cli_flags.h"

namespace dmc {
namespace bench {

/// --scale, which every bench but bench_micro reads.
inline constexpr cli::FlagSpec kScaleFlag[] = {
    {"scale", cli::FlagKind::kPositive}};

/// The flags of argv[1..], checked against `tables`. On an argument they
/// do not admit, prints it to stderr and exits 2.
cli::Flags CheckFlags(int argc, char** argv,
                      std::initializer_list<std::span<const cli::FlagSpec>>
                          tables);

/// One machine-readable benchmark measurement for --json-out files.
struct BenchRecord {
  std::string bench;    ///< measurement name, e.g. "scan_imp_dense/simd"
  std::string params;   ///< free-form parameter echo, e.g. "scale=1"
  double seconds = 0.0;
  double rows_per_sec = 0.0;
  size_t peak_counter_bytes = 0;
  /// Hardware counters for the measured interval (see PerfCounters).
  /// Zero when the counters are unavailable on the host.
  uint64_t instructions = 0;
  uint64_t cache_misses = 0;
};

/// Atomically writes `records` to `path` as a stable JSON document:
///   {"schema_version": 1, "records": [{"bench", "params", "seconds",
///    "rows_per_sec", "peak_counter_bytes", "instructions",
///    "cache_misses"}, ...]}
/// No-op (returning true) when `path` is empty; false on IO failure.
bool WriteBenchJson(const std::vector<BenchRecord>& records,
                    const std::string& path);

/// The regression gate of tools/check.sh stages (i2) and (i3): every
/// record `gated` selects that has a positive rows_per_sec in the
/// WriteBenchJson document at `baseline_path` must reach 0.90x of it; a
/// record with no baseline entry is skipped. Prints one line per record.
/// False on a drop below the floor, when no record was comparable, or
/// when the file cannot be read.
bool MeetsBaseline(const std::vector<BenchRecord>& records,
                   const std::string& baseline_path,
                   const std::function<bool(const BenchRecord&)>& gated);

/// Hardware instruction / last-level-cache-miss counters over an
/// interval, via perf_event_open. Degrades gracefully: when the kernel
/// interface is unavailable (non-Linux build, seccomp'd container,
/// perf_event_paranoid lockdown) `available()` is false and the readings
/// stay zero, so benches always run and the JSON simply reports 0.
class PerfCounters {
 public:
  PerfCounters();
  ~PerfCounters();
  PerfCounters(const PerfCounters&) = delete;
  PerfCounters& operator=(const PerfCounters&) = delete;

  /// True when both counters opened successfully at construction.
  bool available() const { return instructions_fd_ >= 0; }

  /// Resets and enables the counters; pairs with Stop().
  void Start();
  /// Disables the counters and latches the readings for the interval
  /// since the matching Start(). Zero when !available().
  void Stop();

  uint64_t instructions() const { return instructions_; }
  uint64_t cache_misses() const { return cache_misses_; }

 private:
  int instructions_fd_ = -1;
  int cache_misses_fd_ = -1;
  uint64_t instructions_ = 0;
  uint64_t cache_misses_ = 0;
};

/// One benchmark data set.
struct Dataset {
  std::string name;
  BinaryMatrix matrix;
  /// The corresponding row of the paper's Table 1 (rows, columns), for
  /// side-by-side printing.
  uint64_t paper_rows = 0;
  uint64_t paper_columns = 0;
};

/// `base` * `scale`, but at least `min`: each builder clamps a size to
/// the smallest its generator accepts, so no positive --scale trips a
/// generator's checks (a tiny scale gives tiny, not empty, data).
uint32_t Scaled(double base, double scale, uint32_t min = 1);

// The six evaluation sets of §6.2 (synthetic analogues; see DESIGN.md).
Dataset MakeWlog(double scale);
Dataset MakeWlogP(double scale);   // Wlog with columns of <= 10 ones removed
Dataset MakePlinkF(double scale);
Dataset MakePlinkT(double scale);
Dataset MakeNewsSet(double scale);
Dataset MakeDicD(double scale);

/// All six, in the paper's Table-1 order.
std::vector<Dataset> MakeAllDatasets(double scale);

/// The NewsP preparation of §6.2: a smaller news corpus support-pruned to
/// the [0.2%, 20%] window so a-priori's counters fit in memory. Returns
/// the pruned matrix; `news_out`, when non-null, receives the unpruned
/// corpus metadata.
Dataset MakeNewsP(double scale, NewsData* news_out = nullptr);

/// printf-style row helpers keeping the bench outputs uniform.
void PrintHeader(const std::string& title);
void PrintSubHeader(const std::string& title);

}  // namespace bench
}  // namespace dmc

#endif  // DMC_BENCH_BENCH_COMMON_H_
