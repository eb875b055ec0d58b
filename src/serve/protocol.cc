#include "serve/protocol.h"

#include <iterator>
#include <utility>

#include "rules/rule_codec.h"

namespace dmc {
namespace serve {

namespace {

Status Malformed(const std::string& what) {
  return InvalidArgumentError("protocol: " + what);
}

/// A payload of this protocol holding only its header.
std::string Payload(Op op, uint8_t reserved = 0) {
  return BeginPayload({kProtocolVersion, static_cast<uint8_t>(op), reserved});
}

/// ServeStats on the wire: each field a u64, in declaration order.
constexpr uint64_t ServeStats::*kStatsFields[] = {
    &ServeStats::generation,           &ServeStats::num_rules,
    &ServeStats::rows_mined,           &ServeStats::batches_ingested,
    &ServeStats::rows_ingested,        &ServeStats::pending_batches,
    &ServeStats::snapshots_published,  &ServeStats::requests_served,
    &ServeStats::connections_accepted, &ServeStats::connections_active,
    &ServeStats::protocol_errors,      &ServeStats::io_errors,
    &ServeStats::batches_dropped,      &ServeStats::batches_evicted,
    &ServeStats::rows_evicted,         &ServeStats::evicts_dropped};
static_assert(std::size(kStatsFields) * sizeof(uint64_t) == sizeof(ServeStats),
              "kStatsFields must list every ServeStats field");

bool IsRequestOp(uint8_t op) {
  switch (static_cast<Op>(op)) {
    case Op::kQueryByAntecedent:
    case Op::kQueryByConsequent:
    case Op::kTopK:
    case Op::kStats:
    case Op::kAppend:
    case Op::kEvict:
      return true;
    case Op::kError:
      return false;
  }
  return false;
}

}  // namespace

StatusOr<PayloadHeader> ReadPayloadHeader(std::string_view payload,
                                          uint16_t version,
                                          std::string_view what,
                                          size_t* offset) {
  PayloadHeader header;
  if (!ReadLE(payload, offset, &header.version) ||
      !ReadLE(payload, offset, &header.op) ||
      !ReadLE(payload, offset, &header.reserved)) {
    return InvalidArgumentError(std::string(what) +
                                ": payload shorter than the 4-byte header");
  }
  if (header.version != version) {
    return InvalidArgumentError(std::string(what) + ": unsupported version " +
                                std::to_string(header.version));
  }
  return header;
}

std::string EncodeQueryRequest(Op op, uint32_t arg) {
  std::string payload = Payload(op);
  AppendLE<uint32_t>(&payload, arg);
  return Frame(payload);
}

std::string EncodeStatsRequest() {
  return Frame(Payload(Op::kStats));
}

std::string EncodeAppendRequest(
    uint32_t num_columns, const std::vector<std::vector<ColumnId>>& rows) {
  std::string payload = Payload(Op::kAppend);
  AppendLE<uint32_t>(&payload, num_columns);
  AppendLE<uint32_t>(&payload, static_cast<uint32_t>(rows.size()));
  for (const std::vector<ColumnId>& row : rows) {
    AppendLE<uint32_t>(&payload, static_cast<uint32_t>(row.size()));
    for (ColumnId c : row) AppendLE<uint32_t>(&payload, c);
  }
  return Frame(payload);
}

std::string EncodeEvictRequest(uint64_t rows) {
  std::string payload = Payload(Op::kEvict);
  AppendLE<uint64_t>(&payload, rows);
  return Frame(payload);
}

StatusOr<Request> DecodeRequestPayload(std::string_view payload) {
  size_t offset = 0;
  DMC_ASSIGN_OR_RETURN(
      const PayloadHeader header,
      ReadPayloadHeader(payload, kProtocolVersion, "protocol", &offset));
  if (!IsRequestOp(header.op)) {
    return Malformed("unknown request op " + std::to_string(header.op));
  }
  if (header.reserved != 0) {
    return Malformed("nonzero reserved byte on a request");
  }

  Request request;
  request.op = static_cast<Op>(header.op);
  switch (request.op) {
    case Op::kQueryByAntecedent:
    case Op::kQueryByConsequent:
    case Op::kTopK:
      if (!ReadLE(payload, &offset, &request.arg)) {
        return Malformed("query body truncated");
      }
      break;
    case Op::kStats:
      break;
    case Op::kAppend: {
      uint32_t num_rows = 0;
      if (!ReadLE(payload, &offset, &request.append_num_columns) ||
          !ReadLE(payload, &offset, &num_rows)) {
        return Malformed("append header truncated");
      }
      if (request.append_num_columns > kMaxAppendColumns) {
        return Malformed("append num_columns " +
                         std::to_string(request.append_num_columns) +
                         " exceeds the " +
                         std::to_string(kMaxAppendColumns) + "-column cap");
      }
      if (num_rows > kMaxAppendRows) {
        return Malformed("append batch of " + std::to_string(num_rows) +
                         " rows exceeds the " +
                         std::to_string(kMaxAppendRows) + "-row cap");
      }
      // Each announced row needs at least its 4-byte count, so a hostile
      // num_rows can never make us reserve more than the payload holds.
      if (!CountFits(payload, offset, num_rows, sizeof(uint32_t))) {
        return Malformed("append row count exceeds payload size");
      }
      request.append_rows.resize(num_rows);
      for (uint32_t r = 0; r < num_rows; ++r) {
        uint32_t n = 0;
        if (!ReadLE(payload, &offset, &n)) {
          return Malformed("append row " + std::to_string(r) + " truncated");
        }
        if (!CountFits(payload, offset, n, sizeof(uint32_t))) {
          return Malformed("append row " + std::to_string(r) +
                           " longer than the remaining payload");
        }
        std::vector<ColumnId>& row = request.append_rows[r];
        row.resize(n);
        for (uint32_t i = 0; i < n; ++i) {
          (void)ReadLE(payload, &offset, &row[i]);
          if (row[i] >= request.append_num_columns) {
            return Malformed("append row " + std::to_string(r) +
                             " references column " + std::to_string(row[i]) +
                             " outside num_columns");
          }
          if (i > 0 && row[i] <= row[i - 1]) {
            return Malformed("append row " + std::to_string(r) +
                             " not strictly ascending");
          }
        }
      }
      break;
    }
    case Op::kEvict:
      if (!ReadLE(payload, &offset, &request.evict_rows)) {
        return Malformed("evict body truncated");
      }
      break;
    case Op::kError:
      return Malformed("kError is reply-only");
  }
  if (offset != payload.size()) {
    return Malformed(std::to_string(payload.size() - offset) +
                     " trailing bytes after the request body");
  }
  return request;
}

std::string EncodeRulesReply(Op op, uint64_t generation,
                             const std::vector<ImplicationRule>& rules) {
  std::string payload = Payload(op);
  AppendLE<uint64_t>(&payload, generation);
  AppendLE<uint32_t>(&payload, static_cast<uint32_t>(rules.size()));
  for (const ImplicationRule& r : rules) AppendRecord(&payload, r);
  return Frame(payload);
}

std::string EncodeStatsReply(const ServeStats& stats) {
  std::string payload = Payload(Op::kStats);
  for (uint64_t ServeStats::*field : kStatsFields) {
    AppendLE<uint64_t>(&payload, stats.*field);
  }
  return Frame(payload);
}

std::string EncodeAppendReply(uint64_t pending_batches) {
  std::string payload = Payload(Op::kAppend);
  AppendLE<uint64_t>(&payload, pending_batches);
  return Frame(payload);
}

std::string EncodeEvictReply(uint64_t pending_batches) {
  std::string payload = Payload(Op::kEvict);
  AppendLE<uint64_t>(&payload, pending_batches);
  return Frame(payload);
}

std::string EncodeErrorReply(Op op, const Status& status) {
  std::string payload = Payload(op, static_cast<uint8_t>(status.code()));
  AppendString(&payload, status.message());
  return Frame(payload);
}

StatusOr<Reply> DecodeReplyPayload(std::string_view payload) {
  size_t offset = 0;
  DMC_ASSIGN_OR_RETURN(
      const PayloadHeader header,
      ReadPayloadHeader(payload, kProtocolVersion, "protocol", &offset));
  if (!IsRequestOp(header.op) && static_cast<Op>(header.op) != Op::kError) {
    return Malformed("unknown reply op " + std::to_string(header.op));
  }

  Reply reply;
  reply.op = static_cast<Op>(header.op);
  const uint8_t code = header.reserved;
  if (code != 0) {
    if (code > static_cast<uint8_t>(StatusCode::kDataLoss)) {
      return Malformed("unknown status code " + std::to_string(code));
    }
    std::string message;
    if (!ReadString(payload, &offset, &message) || offset != payload.size()) {
      return Malformed("error reply message truncated");
    }
    reply.status = Status(static_cast<StatusCode>(code), std::move(message));
    return reply;
  }

  switch (reply.op) {
    case Op::kQueryByAntecedent:
    case Op::kQueryByConsequent:
    case Op::kTopK: {
      uint32_t count = 0;
      if (!ReadLE(payload, &offset, &reply.generation) ||
          !ReadLE(payload, &offset, &count)) {
        return Malformed("rules reply header truncated");
      }
      if (!ReadRecords(payload, &offset, count, &reply.rules) ||
          offset != payload.size()) {
        return Malformed("rules reply count does not match payload size");
      }
      return reply;
    }
    case Op::kStats: {
      for (uint64_t ServeStats::*field : kStatsFields) {
        if (!ReadLE(payload, &offset, &(reply.stats.*field))) {
          return Malformed("stats reply truncated");
        }
      }
      if (offset != payload.size()) {
        return Malformed("trailing bytes after the stats reply");
      }
      reply.generation = reply.stats.generation;
      return reply;
    }
    case Op::kAppend:
    case Op::kEvict:
      if (!ReadLE(payload, &offset, &reply.pending_batches) ||
          offset != payload.size()) {
        return Malformed("append reply truncated");
      }
      return reply;
    case Op::kError:
      return Malformed("kError reply with OK status");
  }
  return Malformed("unreachable reply op");
}

FrameBuffer::Poll FrameBuffer::Next(std::string* payload) {
  // Reclaim consumed bytes once they dominate the buffer, so a
  // long-lived pipelining connection cannot grow the buffer unboundedly.
  if (consumed_ > 0 && consumed_ * 2 >= buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  const size_t available = buffer_.size() - consumed_;
  if (available < sizeof(uint32_t)) return Poll::kNeedMore;
  size_t at = consumed_;
  uint32_t len = 0;
  (void)ReadLE(buffer_, &at, &len);
  if (len < kMinFramePayloadBytes || len > max_payload_bytes_) {
    return Poll::kBadFrame;
  }
  if (available - sizeof(uint32_t) < len) return Poll::kNeedMore;
  payload->assign(buffer_, consumed_ + sizeof(uint32_t), len);
  consumed_ += sizeof(uint32_t) + len;
  return Poll::kFrame;
}

}  // namespace serve
}  // namespace dmc
