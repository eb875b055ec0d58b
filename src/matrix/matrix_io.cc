#include "matrix/matrix_io.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <functional>
#include <vector>

#include "util/atomic_io.h"
#include "util/byte_codec.h"
#include "util/failpoint.h"
#include "util/sealed_file.h"

namespace dmc {

namespace {

// The text readers read the stream in blocks of this size. A line longer
// than a block doubles it until the line fits.
constexpr size_t kTextBlockBytes = size_t{64} << 10;

bool IsSeparator(char c) { return c == ' ' || c == '\t' || c == '\r'; }

// Parses the column ids of the line starting at `p` into `out`, which has
// room for one id per two bytes of the line plus one. The line ends at a
// '\n' (a sentinel for a last line without one), so no loop needs a bounds
// check. Returns the id count, or -1 with the first malformed token in
// `*bad`: a token is malformed unless it is all digits and fits in 32
// bits, exactly the tokens std::from_chars<uint32_t> accepts whole.
ptrdiff_t ParseIds(const char* p, ColumnId* out, std::string_view* bad) {
  ColumnId* const first = out;
  while (true) {
    while (IsSeparator(*p)) ++p;
    if (*p == '\n') return out - first;
    const char* const token = p;
    uint32_t value = 0;
    uint32_t digit;
    while ((digit = static_cast<uint8_t>(*p) - uint32_t{'0'}) <= 9) {
      value = value * 10 + digit;
      ++p;
    }
    // Nine digits cannot overflow; a longer token (zero-padded, or too
    // big) is re-read by from_chars, which rejects a value past 32 bits.
    const bool fits =
        p - token <= 9 || std::from_chars(token, p, value).ec == std::errc();
    if (p == token || !fits || !(IsSeparator(*p) || *p == '\n')) {
      while (!IsSeparator(*p) && *p != '\n') ++p;
      *bad = std::string_view(token, static_cast<size_t>(p - token));
      return -1;
    }
    *out++ = value;
  }
}

std::string LineContext(size_t line_no, uint64_t byte_offset) {
  return "line " + std::to_string(line_no) + " (byte " +
         std::to_string(byte_offset) + ")";
}

// Range check, then the strictness check (or sort/dedup when
// normalizing), reporting the first out-of-range id ahead of any order
// error. `line_start` is the stream offset of the line. A strictly
// increasing row in range — the common case — costs one pass.
Status ValidateOrNormalizeRow(std::span<ColumnId>* row,
                              const TextReadOptions& options, size_t line_no,
                              uint64_t line_start) {
  const auto cols = *row;
  if (std::adjacent_find(cols.begin(), cols.end(), std::greater_equal<>()) ==
          cols.end() &&
      (cols.empty() || cols.back() <= options.max_column_id)) {
    return Status::OK();
  }
  for (ColumnId c : cols) {
    if (c > options.max_column_id) {
      return InvalidArgumentError(
          LineContext(line_no, line_start) + ": column id " +
          std::to_string(c) + " exceeds the configured maximum " +
          std::to_string(options.max_column_id));
    }
  }
  if (options.normalize) {
    std::sort(cols.begin(), cols.end());
    *row = cols.first(static_cast<size_t>(
        std::unique(cols.begin(), cols.end()) - cols.begin()));
    return Status::OK();
  }
  for (size_t i = 1; i < cols.size(); ++i) {
    const ColumnId prev = cols[i - 1];
    const ColumnId cur = cols[i];
    if (cur == prev) {
      return InvalidArgumentError(LineContext(line_no, line_start) +
                                  ": duplicate column id " +
                                  std::to_string(cur));
    }
    if (cur < prev) {
      return InvalidArgumentError(
          LineContext(line_no, line_start) + ": column ids not sorted (" +
          std::to_string(cur) + " after " + std::to_string(prev) + ")");
    }
  }
  return Status::OK();
}

// The block tokenizer behind the three text readers. It reads the stream
// in kTextBlockBytes blocks, carries a line cut by a block's end over to
// the next block, and hands every data row to `per_row` as validated,
// strictly increasing ids. Its memory is the block, grown only for a line
// longer than it, plus one row of ids. Line rules: only '\n' ends a line
// (a last line without one is still a row), a blank line is an empty row
// and '#' in column 0 starts a comment; ' ', '\t' and '\r' separate ids.
template <typename PerRow>
Status ForEachValidatedRow(std::istream& is, const TextReadOptions& options,
                           PerRow&& per_row) {
  std::vector<char> block(kTextBlockBytes);
  std::vector<ColumnId> ids;
  size_t line_no = 0;
  uint64_t byte_offset = 0;  // stream offset of the next line
  const bool inject = fail::Enabled();
  // One line, [begin, end) with *end == '\n'.
  const auto parse_line = [&](const char* begin, const char* end) -> Status {
    ++line_no;
    const uint64_t line_start = byte_offset;
    byte_offset += static_cast<uint64_t>(end - begin) + 1;
    if (*begin == '#') return Status::OK();
    if (inject) {
      DMC_RETURN_IF_ERROR(fail::InjectStatus("matrix.text.row"));
    }
    const size_t room = static_cast<size_t>(end - begin) / 2 + 1;
    if (ids.size() < room) ids.resize(room);
    std::string_view bad;
    const ptrdiff_t count = ParseIds(begin, ids.data(), &bad);
    if (count < 0) {
      return InvalidArgumentError(LineContext(line_no, line_start) +
                                  ": malformed column id '" +
                                  std::string(bad) + "'");
    }
    std::span<ColumnId> row(ids.data(), static_cast<size_t>(count));
    DMC_RETURN_IF_ERROR(
        ValidateOrNormalizeRow(&row, options, line_no, line_start));
    return per_row(std::span<const ColumnId>(row));
  };
  size_t carry = 0;  // block[0, carry) is a line the last block cut
  while (true) {
    if (carry == block.size()) block.resize(2 * block.size());
    is.read(block.data() + carry,
            static_cast<std::streamsize>(block.size() - carry));
    char* const end = block.data() + carry + is.gcount();
    char* line = block.data();
    char* scan = block.data() + carry;  // the carried part holds no '\n'
    while (char* nl = static_cast<char*>(
               std::memchr(scan, '\n', static_cast<size_t>(end - scan)))) {
      DMC_RETURN_IF_ERROR(parse_line(line, nl));
      line = scan = nl + 1;
    }
    carry = static_cast<size_t>(end - line);
    if (is.bad()) {
      return IOError("read failed at " + LineContext(line_no, byte_offset));
    }
    if (!is) {  // end of stream: a short read leaves room for a sentinel
      if (carry == 0) return Status::OK();
      *end = '\n';
      return parse_line(line, end);
    }
    std::memmove(block.data(), line, carry);
  }
}

constexpr std::string_view kBinaryMagic = "DMCBIN1\n";
constexpr std::string_view kBinaryWhat = "binary matrix";

std::string ByteContext(size_t offset) {
  return "byte " + std::to_string(offset);
}

}  // namespace

std::string TextHeader(uint64_t num_rows, ColumnId num_columns) {
  return "# dmc matrix: rows=" + std::to_string(num_rows) +
         " columns=" + std::to_string(num_columns) + "\n";
}

void AppendTextRow(std::span<const ColumnId> row, std::string* out) {
  const size_t start = out->size();
  // At most ten digits and a separator per id, and the newline.
  out->resize(start + row.size() * 11 + 1);
  char* p = out->data() + start;
  char* const limit = out->data() + out->size();
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) *p++ = ' ';
    p = std::to_chars(p, limit, row[i]).ptr;
  }
  *p++ = '\n';
  out->resize(static_cast<size_t>(p - out->data()));
}

Status WriteMatrixText(const BinaryMatrix& m, std::ostream& os) {
  std::string buffer = TextHeader(m.num_rows(), m.num_columns());
  for (RowId r = 0; r < m.num_rows(); ++r) {
    AppendTextRow(m.Row(r), &buffer);
    if (buffer.size() >= kTextBlockBytes) {
      os.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
      buffer.clear();
    }
  }
  os.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  if (!os) return IOError("write failed");
  return Status::OK();
}

Status WriteMatrixTextFile(const BinaryMatrix& m, const std::string& path) {
  if (fail::Enabled()) {
    DMC_RETURN_IF_ERROR(fail::InjectStatus("matrix.text.write"));
  }
  std::string text = TextHeader(m.num_rows(), m.num_columns());
  for (RowId r = 0; r < m.num_rows(); ++r) AppendTextRow(m.Row(r), &text);
  return AtomicWriteFile(path, text);
}

StatusOr<BinaryMatrix> ReadMatrixText(std::istream& is,
                                      const TextReadOptions& options) {
  MatrixBuilder builder;
  DMC_RETURN_IF_ERROR(
      ForEachValidatedRow(is, options, [&](std::span<const ColumnId> row) {
        builder.AddSortedRow(row);
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
  return ForEachValidatedRow(is, options, callback);
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
      ForEachValidatedRow(is, options, [&](std::span<const ColumnId> row) {
        stats.AddRow(row);
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
    builder.AddSortedRow(cols);
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
