// Input generators of the repository benchmark. Every input is a pure
// function of the workload seed: the same seed gives the same bytes.

#ifndef DMC_PERFBENCH_INPUTS_H_
#define DMC_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <vector>

#include "matrix/binary_matrix.h"
#include "util/statusor.h"

namespace perfbench {

enum class Family {
  /// IBM Quest market-basket transactions (datagen/quest_gen.h), from
  /// sixteen independently seeded generators of rows / 16 transactions
  /// each. One generator's 300-pattern pool makes the mining work swing
  /// by about 15% from seed to seed; pooling sixteen cuts the spread of
  /// the in-memory mine time over seeds 1-10 to ~3% (eight left ~8%).
  kQuest,
  /// Correlated column blocks: each row switches on about a quarter of
  /// the 20-column blocks, keeps each member column with p = 0.9, and
  /// adds background ones with p = 0.1 (the dense matrix of
  /// bench/bench_kernels.cc, seeded).
  kBlocks,
};

struct MatrixSpec {
  Family family = Family::kQuest;
  uint32_t rows = 0;
  uint32_t cols = 0;
};

dmc::StatusOr<dmc::BinaryMatrix> Generate(const MatrixSpec& spec,
                                          uint64_t seed);

/// The rows a serve run feeds: the first `window_rows` seed the server,
/// the rest are dealt out as append batches in order (wrapping around
/// when a long run exhausts them).
class RowStream {
 public:
  RowStream(const dmc::BinaryMatrix& rows, uint64_t window_rows);

  dmc::BinaryMatrix Window() const;
  /// The append batch with global index `batch` (0-based).
  std::vector<std::vector<dmc::ColumnId>> Batch(uint64_t batch,
                                                uint64_t batch_rows) const;
  dmc::ColumnId num_columns() const { return num_columns_; }

 private:
  dmc::ColumnId num_columns_ = 0;
  uint64_t window_rows_ = 0;
  std::vector<std::vector<dmc::ColumnId>> rows_;
};

}  // namespace perfbench

#endif  // DMC_PERFBENCH_INPUTS_H_
