#include "matrix/matrix_io.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>
#include <vector>

#include "util/atomic_io.h"
#include "util/byte_codec.h"
#include "util/failpoint.h"
#include "util/sealed_file.h"

namespace dmc {

namespace {

// Parses one text line into column ids. Returns false on malformed input
// and fills `error`.
bool ParseLine(std::string_view line, std::vector<ColumnId>* cols,
               std::string* error) {
  cols->clear();
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t' ||
                               line[i] == '\r')) {
      ++i;
    }
    if (i >= line.size()) break;
    const size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t' &&
           line[i] != '\r') {
      ++i;
    }
    uint32_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(line.data() + start, line.data() + i, value);
    if (ec != std::errc() || ptr != line.data() + i) {
      *error = "malformed column id '" +
               std::string(line.substr(start, i - start)) + "'";
      return false;
    }
    cols->push_back(value);
  }
  return true;
}

std::string LineContext(size_t line_no, uint64_t byte_offset) {
  return "line " + std::to_string(line_no) + " (byte " +
         std::to_string(byte_offset) + ")";
}

// Range check + strictness check (or sort/dedup when normalizing).
// `byte_offset` is the offset of the line start in the stream.
Status ValidateOrNormalizeRow(std::vector<ColumnId>* cols,
                              const TextReadOptions& options, size_t line_no,
                              uint64_t byte_offset) {
  for (ColumnId c : *cols) {
    if (c > options.max_column_id) {
      return InvalidArgumentError(
          LineContext(line_no, byte_offset) + ": column id " +
          std::to_string(c) + " exceeds the configured maximum " +
          std::to_string(options.max_column_id));
    }
  }
  if (options.normalize) {
    std::sort(cols->begin(), cols->end());
    cols->erase(std::unique(cols->begin(), cols->end()), cols->end());
    return Status::OK();
  }
  for (size_t i = 1; i < cols->size(); ++i) {
    const ColumnId prev = (*cols)[i - 1];
    const ColumnId cur = (*cols)[i];
    if (cur == prev) {
      return InvalidArgumentError(LineContext(line_no, byte_offset) +
                                  ": duplicate column id " +
                                  std::to_string(cur));
    }
    if (cur < prev) {
      return InvalidArgumentError(
          LineContext(line_no, byte_offset) + ": column ids not sorted (" +
          std::to_string(cur) + " after " + std::to_string(prev) + ")");
    }
  }
  return Status::OK();
}

// Shared line loop for the three text readers: handles comments, byte
// offsets, parse errors, validation and the per-row failpoint.
Status ForEachValidatedRow(
    std::istream& is, const TextReadOptions& options,
    const std::function<Status(std::vector<ColumnId>&)>& per_row) {
  std::string line;
  std::vector<ColumnId> cols;
  std::string error;
  size_t line_no = 0;
  uint64_t byte_offset = 0;
  const bool inject = fail::Enabled();
  while (std::getline(is, line)) {
    ++line_no;
    const uint64_t line_start = byte_offset;
    byte_offset += line.size() + 1;
    if (!line.empty() && line[0] == '#') continue;
    if (inject) {
      DMC_RETURN_IF_ERROR(fail::InjectStatus("matrix.text.row"));
    }
    if (!ParseLine(line, &cols, &error)) {
      return InvalidArgumentError(LineContext(line_no, line_start) + ": " +
                                  error);
    }
    DMC_RETURN_IF_ERROR(
        ValidateOrNormalizeRow(&cols, options, line_no, line_start));
    DMC_RETURN_IF_ERROR(per_row(cols));
  }
  if (is.bad()) {
    return IOError("read failed at " + LineContext(line_no, byte_offset));
  }
  return Status::OK();
}

constexpr std::string_view kBinaryMagic = "DMCBIN1\n";
constexpr std::string_view kBinaryWhat = "binary matrix";

std::string ByteContext(size_t offset) {
  return "byte " + std::to_string(offset);
}

}  // namespace

Status WriteMatrixText(const BinaryMatrix& m, std::ostream& os) {
  os << "# dmc matrix: rows=" << m.num_rows()
     << " columns=" << m.num_columns() << "\n";
  for (RowId r = 0; r < m.num_rows(); ++r) {
    bool first = true;
    for (ColumnId c : m.Row(r)) {
      if (!first) os << ' ';
      os << c;
      first = false;
    }
    os << '\n';
  }
  if (!os) return IOError("write failed");
  return Status::OK();
}

Status WriteMatrixTextFile(const BinaryMatrix& m, const std::string& path) {
  if (fail::Enabled()) {
    DMC_RETURN_IF_ERROR(fail::InjectStatus("matrix.text.write"));
  }
  std::ostringstream out;
  DMC_RETURN_IF_ERROR(WriteMatrixText(m, out));
  return AtomicWriteFile(path, out.str());
}

StatusOr<BinaryMatrix> ReadMatrixText(std::istream& is,
                                      const TextReadOptions& options) {
  MatrixBuilder builder;
  DMC_RETURN_IF_ERROR(
      ForEachValidatedRow(is, options, [&](std::vector<ColumnId>& cols) {
        builder.AddRow(cols);
        return Status::OK();
      }));
  return builder.Build();
}

StatusOr<BinaryMatrix> ReadMatrixTextFile(const std::string& path,
                                          const TextReadOptions& options) {
  if (fail::Enabled()) {
    DMC_RETURN_IF_ERROR(fail::InjectStatus("matrix.text.open"));
  }
  std::ifstream in(path);
  if (!in) return IOError("cannot open for read: " + path);
  return ReadMatrixText(in, options);
}

Status ForEachRowText(
    std::istream& is,
    const std::function<Status(std::span<const ColumnId>)>& callback,
    const TextReadOptions& options) {
  return ForEachValidatedRow(is, options,
                             [&](std::vector<ColumnId>& cols) {
                               return callback(cols);
                             });
}

void FirstPassStats::AddRow(std::span<const ColumnId> row) {
  if (!row.empty() && row.back() >= num_columns) {
    num_columns = row.back() + 1;
    column_ones.resize(num_columns, 0);
  }
  for (ColumnId c : row) ++column_ones[c];
  ++num_rows;
}

StatusOr<FirstPassStats> ScanMatrixText(std::istream& is,
                                        const TextReadOptions& options) {
  FirstPassStats stats;
  DMC_RETURN_IF_ERROR(
      ForEachValidatedRow(is, options, [&](std::vector<ColumnId>& cols) {
        stats.AddRow(cols);
        return Status::OK();
      }));
  return stats;
}

std::string SerializeMatrixBinary(const BinaryMatrix& m) {
  std::string out;
  out.reserve(kBinaryMagic.size() + 12 + m.num_ones() * sizeof(ColumnId) +
              m.num_rows() * sizeof(uint32_t) + kSealBytes);
  out.append(kBinaryMagic);
  AppendLE<uint32_t>(&out, m.num_columns());
  AppendLE<uint64_t>(&out, m.num_rows());
  for (RowId r = 0; r < m.num_rows(); ++r) {
    const auto row = m.Row(r);
    AppendLE<uint32_t>(&out, static_cast<uint32_t>(row.size()));
    for (ColumnId c : row) AppendLE<uint32_t>(&out, c);
  }
  AppendSeal(&out);
  return out;
}

Status WriteMatrixBinaryFile(const BinaryMatrix& m, const std::string& path) {
  if (fail::Enabled()) {
    DMC_RETURN_IF_ERROR(fail::InjectStatus("matrix.binary.write"));
  }
  return AtomicWriteFile(path, SerializeMatrixBinary(m));
}

StatusOr<BinaryMatrix> ReadMatrixBinary(std::string_view data) {
  DMC_RETURN_IF_ERROR(CheckSealedHeader(data, kBinaryMagic, 12, kBinaryWhat));
  size_t offset = kBinaryMagic.size();
  uint32_t num_columns = 0;
  uint64_t num_rows = 0;
  (void)ReadLE(data, &offset, &num_columns);  // length pre-checked above
  (void)ReadLE(data, &offset, &num_rows);
  if (num_columns > kMaxMatrixColumns) {
    return DataLossError("binary matrix header claims " +
                         std::to_string(num_columns) + " columns, above the " +
                         std::to_string(kMaxMatrixColumns) +
                         "-column cap (byte " +
                         std::to_string(kBinaryMagic.size()) + ")");
  }
  if (num_rows > static_cast<uint64_t>(UINT32_MAX)) {
    return DataLossError("binary matrix header claims " +
                         std::to_string(num_rows) +
                         " rows, beyond the 32-bit row-id space (byte " +
                         std::to_string(kBinaryMagic.size() + 4) + ")");
  }
  MatrixBuilder builder(num_columns);
  std::vector<ColumnId> cols;
  const bool inject = fail::Enabled();
  for (uint64_t r = 0; r < num_rows; ++r) {
    const size_t row_start = offset;
    if (inject) {
      DMC_RETURN_IF_ERROR(fail::InjectStatus("matrix.binary.row"));
    }
    uint32_t count = 0;
    if (!ReadLE(data, &offset, &count)) {
      return DataLossError("binary matrix truncated in row " +
                           std::to_string(r) + " at " +
                           ByteContext(row_start));
    }
    if (count > num_columns) {
      return DataLossError("binary matrix row " + std::to_string(r) + " at " +
                           ByteContext(row_start) + " claims " +
                           std::to_string(count) + " ids but there are only " +
                           std::to_string(num_columns) + " columns");
    }
    if (!CountFits(data, offset, count, sizeof(uint32_t))) {
      return DataLossError("binary matrix truncated in row " +
                           std::to_string(r) + " at " + ByteContext(offset));
    }
    cols.clear();
    cols.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      uint32_t id = 0;
      (void)ReadLE(data, &offset, &id);  // CountFits checked above
      if (id >= num_columns) {
        return DataLossError("binary matrix row " + std::to_string(r) +
                             " at " + ByteContext(offset - sizeof(uint32_t)) +
                             ": column id " + std::to_string(id) +
                             " out of range (columns=" +
                             std::to_string(num_columns) + ")");
      }
      if (!cols.empty() && id <= cols.back()) {
        return DataLossError("binary matrix row " + std::to_string(r) +
                             " at " + ByteContext(offset - sizeof(uint32_t)) +
                             ": column id " + std::to_string(id) +
                             " not strictly increasing after " +
                             std::to_string(cols.back()));
      }
      cols.push_back(id);
    }
    builder.AddRow(cols);
  }
  DMC_RETURN_IF_ERROR(CheckSeal(data, offset, kBinaryWhat));
  return builder.Build();
}

StatusOr<BinaryMatrix> ReadMatrixBinaryFile(const std::string& path) {
  if (fail::Enabled()) {
    DMC_RETURN_IF_ERROR(fail::InjectStatus("matrix.binary.open"));
  }
  DMC_ASSIGN_OR_RETURN(const std::string data,
                       ReadWholeFile(path, kBinaryWhat));
  return ReadMatrixBinary(data);
}

}  // namespace dmc
