// Wire protocol for the dmc_serve rule-serving daemon (DESIGN §5.7).
//
// Every message — request or reply, either direction — is one frame:
//
//   u32  payload_len   little-endian, excludes the prefix itself
//   ...  payload       payload_len bytes
//
// and every payload starts with the same 4-byte header:
//
//   u16  version       kProtocolVersion (2)
//   u8   op            Op below (replies echo the request op)
//   u8   reserved      0 on requests; the Status code on replies
//
// Request bodies:
//   kQueryByAntecedent   u32 column          all rules column => *
//   kQueryByConsequent   u32 column          all rules * => column
//   kTopK                u32 k               k best rules (0 = all)
//   kStats               (empty)             server counters
//   kAppend              u32 num_columns, u32 num_rows,
//                        per row: u32 n, n ascending u32 column ids
//   kEvict               u64 rows (oldest rows to drop; must not
//                        exceed the rows the server logically holds)
//
// Reply bodies (reserved byte == 0, i.e. OK):
//   queries              u64 generation, u32 count,
//                        count x (u32 lhs, u32 rhs, u32 lhs_ones,
//                                 u32 misses) in confidence order
//   kStats               the ServeStats fields, each u64, in
//                        declaration order
//   kAppend              u64 pending_batches (ingest-queue depth after
//                        the enqueue — appends are acknowledged before
//                        they are mined; a batch the ingest thread
//                        later fails to mine is counted in the
//                        batches_dropped stat)
//   kEvict               u64 pending ops (same queue as kAppend;
//                        evicts are acknowledged before they are
//                        applied — a failed one is counted in the
//                        evicts_dropped stat)
// An error reply (reserved byte != 0) carries u32 msg_len + msg bytes
// instead; an unparseable request is answered with op kError and
// StatusCode::kInvalidArgument, after which the server closes the
// connection (the stream can no longer be trusted to be framed).
//
// Bounds: payload_len must be in [4, kMaxFramePayloadBytes]. A length
// prefix outside that range is a protocol error the receiver detects
// *before* buffering the body, so an adversarial 4 GiB announcement
// costs nothing. Append batches are additionally capped at
// kMaxAppendRows rows and kMaxAppendColumns columns — the column cap
// matters even for a zero-row batch, because num_columns alone sizes
// per-column state downstream (BinaryMatrix::FromRows and the miner's
// posting lists), so a 16-byte frame must never be able to announce a
// multi-GiB width.
//
// All encode/decode helpers are pure functions over std::string buffers
// shared by the server, the client, the fuzz battery and the bench — a
// frame either round-trips exactly or decodes to kInvalidArgument;
// nothing here does I/O. Frame, the payload header and FrameBuffer are
// also the shard protocol's (shard/shard_protocol.h); fields are written
// with util/byte_codec.h and rule records with rules/rule_codec.h.

#ifndef DMC_SERVE_PROTOCOL_H_
#define DMC_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "rules/rule.h"
#include "util/byte_codec.h"
#include "util/status.h"
#include "util/statusor.h"

namespace dmc {
namespace serve {

inline constexpr uint16_t kProtocolVersion = 2;
/// Hard cap on one frame's payload; covers a ~64k-row append batch.
inline constexpr uint32_t kMaxFramePayloadBytes = 4u << 20;
/// Smallest meaningful payload: the 4-byte payload header.
inline constexpr uint32_t kMinFramePayloadBytes = 4;
/// Per-batch row cap for kAppend (defense against hostile headers).
inline constexpr uint32_t kMaxAppendRows = 1u << 20;
/// Cap on kAppend's num_columns. Decode rejects anything wider before
/// the server allocates per-column state, bounding the allocation a
/// hostile header can force to a few MiB instead of ~16 GiB at the
/// u32 maximum.
inline constexpr uint32_t kMaxAppendColumns = 1u << 20;

enum class Op : uint8_t {
  kQueryByAntecedent = 1,
  kQueryByConsequent = 2,
  kTopK = 3,
  kStats = 4,
  kAppend = 5,
  kEvict = 6,
  /// Reply-only: the request could not be decoded far enough to echo
  /// its op.
  kError = 0x7F,
};

/// The 4-byte header every payload starts with, here and in the shard
/// protocol.
struct PayloadHeader {
  uint16_t version = 0;
  uint8_t op = 0;
  uint8_t reserved = 0;
};

/// A payload holding only `header`; the body is appended to it.
inline std::string BeginPayload(const PayloadHeader& header) {
  std::string payload;
  AppendLE<uint16_t>(&payload, header.version);
  AppendLE<uint8_t>(&payload, header.op);
  AppendLE<uint8_t>(&payload, header.reserved);
  return payload;
}

/// Reads the header at the start of `payload` and leaves *offset at the
/// body. A payload shorter than the header, or of another version than
/// `version`, is kInvalidArgument "<what>: ...".
[[nodiscard]] StatusOr<PayloadHeader> ReadPayloadHeader(
    std::string_view payload, uint16_t version, std::string_view what,
    size_t* offset);

/// Wraps a finished payload into a frame by prefixing its u32 length.
inline std::string Frame(std::string_view payload) {
  std::string out;
  out.reserve(payload.size() + sizeof(uint32_t));
  AppendLE<uint32_t>(&out, static_cast<uint32_t>(payload.size()));
  out += payload;
  return out;
}

/// Server counters served by kStats (and RuleServer::StatsSnapshot).
/// All fields ride the wire as u64 in declaration order (kStatsFields in
/// protocol.cc) — append new fields at the end and bump kProtocolVersion.
struct ServeStats {
  uint64_t generation = 0;
  uint64_t num_rules = 0;
  uint64_t rows_mined = 0;
  uint64_t batches_ingested = 0;
  uint64_t rows_ingested = 0;
  uint64_t pending_batches = 0;
  uint64_t snapshots_published = 0;
  uint64_t requests_served = 0;
  uint64_t connections_accepted = 0;
  uint64_t connections_active = 0;
  uint64_t protocol_errors = 0;
  uint64_t io_errors = 0;
  /// Acknowledged append batches the ingest thread later failed to
  /// mine (appends are acked at enqueue time, so this is how a client
  /// detects that acked data was lost).
  uint64_t batches_dropped = 0;
  /// kEvict requests applied (explicit plus automatic window slides).
  uint64_t batches_evicted = 0;
  /// Rows those evictions dropped from the front of the window.
  uint64_t rows_evicted = 0;
  /// Acknowledged evicts the ingest thread later failed to apply (the
  /// evict-side mirror of batches_dropped).
  uint64_t evicts_dropped = 0;

  friend bool operator==(const ServeStats&, const ServeStats&) = default;
};

/// One decoded request.
struct Request {
  Op op = Op::kStats;
  /// kQueryByAntecedent / kQueryByConsequent: the column; kTopK: k.
  uint32_t arg = 0;
  /// kAppend only.
  uint32_t append_num_columns = 0;
  std::vector<std::vector<ColumnId>> append_rows;
  /// kEvict only: oldest rows to drop.
  uint64_t evict_rows = 0;
};

/// One decoded reply. `status` carries the server-side verdict; the
/// transport succeeded either way.
struct Reply {
  Op op = Op::kError;
  Status status;
  uint64_t generation = 0;
  std::vector<ImplicationRule> rules;  // query replies
  ServeStats stats;                    // kStats replies
  uint64_t pending_batches = 0;        // kAppend / kEvict replies
};

// Requests. Encoders produce a complete frame (length prefix included).
std::string EncodeQueryRequest(Op op, uint32_t arg);
std::string EncodeStatsRequest();
std::string EncodeAppendRequest(uint32_t num_columns,
                                const std::vector<std::vector<ColumnId>>& rows);
std::string EncodeEvictRequest(uint64_t rows);

/// Decodes one request *payload* (frame prefix already stripped).
/// Version skew, unknown op, short/trailing bytes, or append bodies
/// violating the bounds yield kInvalidArgument.
[[nodiscard]] StatusOr<Request> DecodeRequestPayload(std::string_view payload);

// Replies (complete frames, as above).
std::string EncodeRulesReply(Op op, uint64_t generation,
                             const std::vector<ImplicationRule>& rules);
std::string EncodeStatsReply(const ServeStats& stats);
std::string EncodeAppendReply(uint64_t pending_batches);
std::string EncodeEvictReply(uint64_t pending_batches);
/// `op` is the request op when known, Op::kError otherwise. `status`
/// must not be OK.
std::string EncodeErrorReply(Op op, const Status& status);

/// Decodes one reply payload. Transport-level garbage decodes to
/// kInvalidArgument; a well-formed error reply decodes to OK with
/// `Reply::status` holding the server's error.
[[nodiscard]] StatusOr<Reply> DecodeReplyPayload(std::string_view payload);

/// Incremental splitter for a length-prefixed byte stream. Feed bytes as
/// they arrive; Next() hands back complete payloads. Shared by the
/// server's per-connection state machine and the client, and hammered
/// directly by the fuzz battery.
class FrameBuffer {
 public:
  /// What Next() found.
  enum class Poll {
    kFrame,     ///< *payload was filled with one complete payload
    kNeedMore,  ///< the buffered prefix is valid but incomplete
    kBadFrame,  ///< the length prefix violates the protocol bounds
  };

  explicit FrameBuffer(
      uint32_t max_payload_bytes = kMaxFramePayloadBytes)
      : max_payload_bytes_(max_payload_bytes) {}

  void Append(const char* data, size_t n) { buffer_.append(data, n); }

  /// Extracts the next complete payload. After kBadFrame the stream is
  /// unframed garbage; the caller must stop feeding and close.
  Poll Next(std::string* payload);

  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  uint32_t max_payload_bytes_;
  std::string buffer_;
  size_t consumed_ = 0;
};

}  // namespace serve
}  // namespace dmc

#endif  // DMC_SERVE_PROTOCOL_H_
