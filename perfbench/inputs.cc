#include "inputs.h"

#include <algorithm>

#include "datagen/quest_gen.h"
#include "util/random.h"

namespace perfbench {

namespace {

dmc::BinaryMatrix GenerateBlocks(uint32_t rows, uint32_t cols, uint64_t seed) {
  const uint32_t block = 20;
  const uint32_t num_blocks = (cols + block - 1) / block;
  dmc::Rng rng(seed);
  dmc::MatrixBuilder builder(cols);
  std::vector<uint8_t> on(cols);
  std::vector<dmc::ColumnId> row;
  for (uint32_t r = 0; r < rows; ++r) {
    std::fill(on.begin(), on.end(), 0);
    for (uint32_t g = 0; g < num_blocks; ++g) {
      if (!rng.Bernoulli(0.25)) continue;
      const uint32_t hi = std::min(cols, (g + 1) * block);
      for (uint32_t c = g * block; c < hi; ++c) {
        if (rng.Bernoulli(0.9)) on[c] = 1;
      }
    }
    row.clear();
    for (uint32_t c = 0; c < cols; ++c) {
      if (on[c] || rng.Bernoulli(0.1)) row.push_back(c);
    }
    builder.AddRow(row);
  }
  return builder.Build();
}

dmc::StatusOr<dmc::BinaryMatrix> GenerateQuestMix(uint32_t rows,
                                                  uint32_t cols,
                                                  uint64_t seed) {
  const uint32_t parts = 16;
  dmc::MatrixBuilder builder(cols);
  for (uint32_t p = 0; p < parts; ++p) {
    dmc::QuestOptions options;
    options.num_transactions = rows / parts + (p < rows % parts ? 1 : 0);
    options.num_items = cols;
    options.seed = seed * parts + p;
    DMC_RETURN_IF_ERROR(dmc::GenerateQuestStream(
        options, [&](std::span<const dmc::ColumnId> row) {
          builder.AddRow({row.begin(), row.end()});
          return dmc::Status::OK();
        }));
  }
  return builder.Build();
}

}  // namespace

dmc::StatusOr<dmc::BinaryMatrix> Generate(const MatrixSpec& spec,
                                          uint64_t seed) {
  if (spec.family == Family::kBlocks) {
    return GenerateBlocks(spec.rows, spec.cols, seed);
  }
  return GenerateQuestMix(spec.rows, spec.cols, seed);
}

RowStream::RowStream(const dmc::BinaryMatrix& rows, uint64_t window_rows)
    : num_columns_(rows.num_columns()), window_rows_(window_rows) {
  rows_.reserve(rows.num_rows());
  for (dmc::RowId r = 0; r < rows.num_rows(); ++r) {
    const auto row = rows.Row(r);
    rows_.emplace_back(row.begin(), row.end());
  }
}

dmc::BinaryMatrix RowStream::Window() const {
  return dmc::BinaryMatrix::FromRows(
      num_columns_, {rows_.begin(), rows_.begin() + window_rows_});
}

std::vector<std::vector<dmc::ColumnId>> RowStream::Batch(
    uint64_t batch, uint64_t batch_rows) const {
  const uint64_t pool = rows_.size() - window_rows_;
  std::vector<std::vector<dmc::ColumnId>> out;
  out.reserve(batch_rows);
  for (uint64_t i = 0; i < batch_rows; ++i) {
    out.push_back(rows_[window_rows_ + (batch * batch_rows + i) % pool]);
  }
  return out;
}

}  // namespace perfbench
