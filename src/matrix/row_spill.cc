#include "matrix/row_spill.h"

#include <algorithm>
#include <cstring>

#include "util/checksum.h"

namespace dmc {

namespace {

constexpr char kSpillMagic[8] = {'D', 'M', 'C', 'S', 'P', 'L', '1', '\n'};
constexpr size_t kBlockHeaderBytes = 16;
constexpr size_t kMaxVarintBytes = 5;

// Longest encoding of a row of `count` ids: the count plus each id.
size_t MaxRowBytes(uint64_t count) { return kMaxVarintBytes * (count + 1); }

char* PutVarint(char* p, uint32_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<char>(v | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
  return p;
}

// Decodes one varint from [*p, end); false when it runs off the end or
// does not fit 32 bits.
bool GetVarint(const unsigned char** p, const unsigned char* end,
               uint32_t* v) {
  uint32_t value = 0;
  for (int shift = 0; shift < 35; shift += 7) {
    if (*p == end) return false;
    const uint32_t byte = *(*p)++;
    if (shift == 28 && byte > 0x0F) return false;
    value |= (byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *v = value;
      return true;
    }
  }
  return false;
}

// The checksum of a block header at `offset`, seeded with `h`; the block
// checksum folds the payload in after it.
uint64_t HeaderChecksum(uint64_t offset, uint32_t payload_bytes,
                        uint32_t rows, uint64_t h) {
  char head[16];
  std::memcpy(head, &offset, 8);
  std::memcpy(head + 8, &payload_bytes, 4);
  std::memcpy(head + 12, &rows, 4);
  return Fnv1a(head, sizeof(head), h);
}

// Reads up to `n` bytes; returns how many arrived.
size_t ReadUpTo(std::istream& in, char* out, size_t n) {
  in.read(out, static_cast<std::streamsize>(n));
  return static_cast<size_t>(in.gcount());
}

// Reads a payload of `n` bytes into `out`, growing it only as bytes
// arrive, so a corrupt length cannot allocate more than the file holds.
bool ReadPayload(std::istream& in, size_t n, std::string* out) {
  out->clear();
  while (out->size() < n) {
    const size_t old = out->size();
    const size_t step = std::min(n - old, kSpillBlockBytes);
    out->resize(old + step);
    const size_t got = ReadUpTo(in, out->data() + old, step);
    if (got < step) return false;
  }
  return true;
}

// Decodes and checks every row of one payload into `ids`/`ends`. Returns
// an empty string, or what is wrong with it.
std::string DecodeBlock(const std::string& payload, uint32_t rows,
                        ColumnId num_columns, std::vector<ColumnId>* ids,
                        std::vector<size_t>* ends) {
  const auto* p = reinterpret_cast<const unsigned char*>(payload.data());
  const auto* end = p + payload.size();
  ids->clear();
  ends->clear();
  for (uint32_t r = 0; r < rows; ++r) {
    const auto row = [r] {
      return "row " + std::to_string(r) + " of the block";
    };
    uint32_t count = 0;
    if (!GetVarint(&p, end, &count)) return row() + " has a bad id count";
    if (count > num_columns) {
      return row() + " claims " + std::to_string(count) + " ids for " +
             std::to_string(num_columns) + " columns";
    }
    uint64_t id = 0;
    for (uint32_t i = 0; i < count; ++i) {
      uint32_t v = 0;
      if (!GetVarint(&p, end, &v)) return row() + " has a bad id varint";
      if (i > 0 && v == 0) return row() + " has ids out of order";
      id = i == 0 ? v : id + v;
      if (id >= num_columns) {
        return row() + " has column id " + std::to_string(id) +
               " out of range (columns=" + std::to_string(num_columns) + ")";
      }
      ids->push_back(static_cast<ColumnId>(id));
    }
    ends->push_back(ids->size());
  }
  if (p != end) {
    return "payload runs past its " + std::to_string(rows) + " rows";
  }
  return std::string();
}

}  // namespace

Status RowSpillWriter::Open(const std::string& path) {
  path_ = path;
  if (out_.is_open()) out_.close();
  out_.clear();
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_) return IOError("cannot create spill file " + path);
  out_.write(kSpillMagic, sizeof(kSpillMagic));
  offset_ = sizeof(kSpillMagic);
  block_bytes_ = 0;
  block_rows_ = 0;
  rows_ = 0;
  chain_ = kFnv1aBasis;
  return out_ ? Status::OK() : WriteFailed();
}

Status RowSpillWriter::AppendRow(std::span<const ColumnId> row) {
  const size_t worst = MaxRowBytes(row.size());
  if (block_rows_ > 0 && block_bytes_ + worst > kSpillBlockBytes) {
    DMC_RETURN_IF_ERROR(FlushBlock());
  }
  if (block_.size() < block_bytes_ + worst) {
    block_.resize(std::max(kSpillBlockBytes, block_bytes_ + worst));
  }
  char* p = PutVarint(block_.data() + block_bytes_,
                      static_cast<uint32_t>(row.size()));
  ColumnId prev = 0;
  for (size_t i = 0; i < row.size(); ++i) {
    p = PutVarint(p, i == 0 ? row[i] : row[i] - prev);
    prev = row[i];
  }
  block_bytes_ = static_cast<size_t>(p - block_.data());
  ++block_rows_;
  ++rows_;
  return Status::OK();
}

Status RowSpillWriter::FlushBlock() {
  const auto length = static_cast<uint32_t>(block_bytes_);
  const uint64_t checksum =
      Fnv1a(block_.data(), block_bytes_,
            HeaderChecksum(offset_, length, block_rows_, kFnv1aBasis));
  DMC_RETURN_IF_ERROR(WriteBlock(length, block_rows_, checksum));
  chain_ = Fnv1a(&checksum, sizeof(checksum), chain_);
  block_bytes_ = 0;
  block_rows_ = 0;
  return Status::OK();
}

Status RowSpillWriter::WriteBlock(uint32_t length, uint32_t rows,
                                  uint64_t checksum) {
  char head[kBlockHeaderBytes];
  std::memcpy(head, &length, 4);
  std::memcpy(head + 4, &rows, 4);
  std::memcpy(head + 8, &checksum, 8);
  out_.write(head, sizeof(head));
  out_.write(block_.data(), length);
  if (!out_) return WriteFailed();
  offset_ += kBlockHeaderBytes + length;
  return Status::OK();
}

StatusOr<RowSpillSummary> RowSpillWriter::Finish() {
  if (block_rows_ > 0) DMC_RETURN_IF_ERROR(FlushBlock());
  // The end block has no payload; its checksum seals the chain.
  const uint64_t digest = HeaderChecksum(offset_, 0, 0, chain_);
  DMC_RETURN_IF_ERROR(WriteBlock(0, 0, digest));
  out_.close();
  if (!out_) return WriteFailed();
  return RowSpillSummary{rows_, offset_, digest};
}

Status RowSpillWriter::WriteFailed() const {
  return IOError("write failed for spill file " + path_ + " at byte " +
                 std::to_string(offset_));
}

StatusOr<RowSpillSummary> ReadRowSpill(
    std::istream& in, const std::string& name, ColumnId num_columns,
    const std::function<Status(std::span<const ColumnId>)>& sink) {
  const auto lost = [&name](uint64_t offset, const std::string& what) {
    return DataLossError("spill " + name + ": " + what + " at byte " +
                         std::to_string(offset));
  };
  const auto read_failed = [&name](uint64_t offset) {
    return IOError("read failed for spill " + name + " at byte " +
                   std::to_string(offset));
  };
  char magic[sizeof(kSpillMagic)];
  if (ReadUpTo(in, magic, sizeof(magic)) != sizeof(magic) ||
      std::memcmp(magic, kSpillMagic, sizeof(magic)) != 0) {
    if (in.bad()) return read_failed(0);
    return lost(0, "bad magic");
  }

  RowSpillSummary summary;
  uint64_t offset = sizeof(kSpillMagic);
  uint64_t chain = kFnv1aBasis;
  std::string payload;
  std::vector<ColumnId> ids;
  std::vector<size_t> ends;
  for (;;) {
    char head[kBlockHeaderBytes];
    const size_t got = ReadUpTo(in, head, sizeof(head));
    if (in.bad()) return read_failed(offset);
    if (got < sizeof(head)) {
      return lost(offset, got == 0 ? "file ends without its end block"
                                   : "truncated block header");
    }
    uint32_t length = 0;
    uint32_t rows = 0;
    uint64_t stored = 0;
    std::memcpy(&length, head, 4);
    std::memcpy(&rows, head + 4, 4);
    std::memcpy(&stored, head + 8, 8);

    if (length == 0) {
      if (rows != 0 || stored != HeaderChecksum(offset, 0, 0, chain)) {
        return lost(offset, "end block does not seal the blocks before it");
      }
      char extra = 0;
      if (ReadUpTo(in, &extra, 1) != 0) {
        return lost(offset + kBlockHeaderBytes,
                    "trailing bytes after the end block");
      }
      if (in.bad()) return read_failed(offset + kBlockHeaderBytes);
      summary.bytes = offset + kBlockHeaderBytes;
      summary.digest = stored;
      return summary;
    }
    const bool fits = length <= kSpillBlockBytes ||
                      (rows == 1 && length <= MaxRowBytes(num_columns));
    if (rows == 0 || rows > length || !fits) {
      return lost(offset, "block header claims " + std::to_string(length) +
                              " bytes for " + std::to_string(rows) + " rows");
    }
    if (!ReadPayload(in, length, &payload)) {
      if (in.bad()) return read_failed(offset);
      return lost(offset, "truncated block");
    }
    const uint64_t actual =
        Fnv1a(payload, HeaderChecksum(offset, length, rows, kFnv1aBasis));
    if (actual != stored) {
      return lost(offset, "block checksum mismatch (stored " +
                              std::to_string(stored) + ", computed " +
                              std::to_string(actual) + ")");
    }
    const std::string bad = DecodeBlock(payload, rows, num_columns, &ids,
                                        &ends);
    if (!bad.empty()) return lost(offset, bad);

    chain = Fnv1a(&stored, sizeof(stored), chain);
    summary.rows += rows;
    if (sink) {
      size_t begin = 0;
      for (const size_t row_end : ends) {
        DMC_RETURN_IF_ERROR(sink(std::span<const ColumnId>(
            ids.data() + begin, row_end - begin)));
        begin = row_end;
      }
    }
    offset += kBlockHeaderBytes + length;
  }
}

}  // namespace dmc
