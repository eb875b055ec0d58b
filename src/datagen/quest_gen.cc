#include "datagen/quest_gen.h"

#include <algorithm>
#include <string>
#include <vector>

#include "matrix/matrix_io.h"
#include "util/atomic_io.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/zipf.h"

namespace dmc {
namespace {

// The one row generator both output modes share. `fn` receives each
// transaction's raw item draw — possibly unsorted, possibly duplicated,
// exactly what MatrixBuilder::AddRow historically received — so the
// in-memory and streaming paths consume the RNG identically.
template <typename RowFn>
Status ForEachQuestRow(const QuestOptions& options, RowFn&& fn) {
  DMC_CHECK_GE(options.num_patterns, 1u);
  Rng rng(options.seed);

  // Pattern pool: Zipf-weighted popularity, Poisson lengths, items drawn
  // by Zipf so some items are shared across patterns (cross support).
  const ZipfSampler item_sampler(options.num_items, 0.8);
  const ZipfSampler pattern_sampler(options.num_patterns, 0.9);
  std::vector<std::vector<ColumnId>> patterns(options.num_patterns);
  for (auto& pattern : patterns) {
    const uint64_t len =
        1 + rng.Poisson(options.avg_pattern_len > 1
                            ? options.avg_pattern_len - 1
                            : 0);
    for (uint64_t i = 0; i < len; ++i) {
      pattern.push_back(static_cast<ColumnId>(item_sampler.Sample(rng)));
    }
  }

  std::vector<ColumnId> row;
  for (uint32_t t = 0; t < options.num_transactions; ++t) {
    row.clear();
    const uint64_t k =
        1 + rng.Poisson(options.avg_patterns_per_transaction > 1
                            ? options.avg_patterns_per_transaction - 1
                            : 0);
    for (uint64_t i = 0; i < k; ++i) {
      const auto& pattern = patterns[pattern_sampler.Sample(rng)];
      for (ColumnId item : pattern) {
        if (!rng.Bernoulli(options.corruption)) row.push_back(item);
      }
    }
    DMC_RETURN_IF_ERROR(fn(row));
  }
  return Status::OK();
}

}  // namespace

BinaryMatrix GenerateQuest(const QuestOptions& options) {
  MatrixBuilder builder(options.num_items);
  const Status st =
      ForEachQuestRow(options, [&](const std::vector<ColumnId>& row) {
        builder.AddRow(row);
        return Status::OK();
      });
  DMC_CHECK(st.ok());  // the builder sink never fails
  return builder.Build();
}

Status GenerateQuestStream(
    const QuestOptions& options,
    const std::function<Status(std::span<const ColumnId>)>& sink) {
  std::vector<ColumnId> sorted;
  return ForEachQuestRow(options, [&](const std::vector<ColumnId>& row) {
    sorted.assign(row.begin(), row.end());
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    return sink(std::span<const ColumnId>(sorted));
  });
}

Status GenerateQuestFile(const QuestOptions& options,
                         const std::string& path) {
  AtomicFileWriter writer;
  DMC_RETURN_IF_ERROR(writer.Open(path));
  // WriteMatrixText's bytes; the dimensions are known up front (the
  // builder's column count is fixed at num_items).
  constexpr size_t kFlushBytes = 1 << 20;
  std::string buffer =
      TextHeader(options.num_transactions, options.num_items);
  buffer.reserve(kFlushBytes + 4096);
  const Status gen = GenerateQuestStream(
      options, [&](std::span<const ColumnId> row) -> Status {
        AppendTextRow(row, &buffer);
        if (buffer.size() >= kFlushBytes) {
          DMC_RETURN_IF_ERROR(writer.Write(buffer));
          buffer.clear();
        }
        return Status::OK();
      });
  DMC_RETURN_IF_ERROR(gen);  // writer's destructor discards the temp file
  DMC_RETURN_IF_ERROR(writer.Write(buffer));
  return writer.Commit();
}

}  // namespace dmc
