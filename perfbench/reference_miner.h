// The benchmark's yardstick for the speed of the host.
//
// A shared host slows memory-bound code by up to ~50% for minutes at a
// time (cache and memory contention from other tenants, with no steal
// time to show for it), so raw mining times of one commit drift between
// runs by more than any bound a gate may hold. Every timed mining op is
// therefore run right after this reference job on the same input, and
// the gated metric is the op's wall time divided by the reference's.
// The reference parses the same text file and runs a plain miss-counting
// implication scan, so the host's slow phases stretch it about as much
// as they stretch the ops. It uses the standard library only, never the
// dmc library, so no change to the program moves its time.

#ifndef DMC_PERFBENCH_REFERENCE_MINER_H_
#define DMC_PERFBENCH_REFERENCE_MINER_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct ReferenceRun {
  /// Empty when the input could be read.
  std::string failure;
  double wall_s = 0.0;
  /// Candidate pairs left after the scan; the same on every repetition
  /// of one input.
  uint64_t survivors = 0;
};

/// Reads the matrix text file at `path` (dmc's format: '#' header lines,
/// then one row of column ids per line) and scans it once: each column
/// keeps the columns of the row it first appears in as candidates, and
/// a candidate is dropped once the column's ones without it exceed
/// (1 - min_confidence) of the column's ones.
ReferenceRun RunReferenceMiner(const std::string& path, double min_confidence);

}  // namespace perfbench

#endif  // DMC_PERFBENCH_REFERENCE_MINER_H_
