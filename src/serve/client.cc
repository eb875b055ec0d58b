#include "serve/client.h"

#include <utility>

#include "serve/net_socket.h"

namespace dmc {
namespace serve {

RuleClient::~RuleClient() { Close(); }

RuleClient::RuleClient(RuleClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

RuleClient& RuleClient::operator=(RuleClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

Status RuleClient::Connect(const std::string& address, uint16_t port,
                           double timeout_seconds) {
  Close();
  DMC_ASSIGN_OR_RETURN(fd_, net::ConnectTcp(address, port));
  const Status st = net::SetIoTimeout(fd_, timeout_seconds);
  if (!st.ok()) Close();
  return st;
}

void RuleClient::Close() {
  net::CloseFd(fd_);
  fd_ = -1;
}

Status RuleClient::SendRequest(const std::string& frame) {
  if (fd_ < 0) return FailedPreconditionError("client not connected");
  return net::SendAll(fd_, frame.data(), frame.size());
}

StatusOr<Reply> RuleClient::ReadReply() {
  if (fd_ < 0) return FailedPreconditionError("client not connected");
  char len_buf[sizeof(uint32_t)];
  DMC_RETURN_IF_ERROR(net::RecvAll(fd_, len_buf, sizeof(len_buf)));
  size_t offset = 0;
  uint32_t len = 0;
  (void)ReadLE(std::string_view(len_buf, sizeof(len_buf)), &offset, &len);
  if (len < kMinFramePayloadBytes || len > kMaxFramePayloadBytes) {
    return InvalidArgumentError("protocol: reply frame length " +
                                std::to_string(len) + " out of bounds");
  }
  std::string payload(len, '\0');
  DMC_RETURN_IF_ERROR(net::RecvAll(fd_, payload.data(), payload.size()));
  DMC_ASSIGN_OR_RETURN(Reply reply, DecodeReplyPayload(payload));
  if (!reply.status.ok()) return reply.status;
  return reply;
}

StatusOr<Reply> RuleClient::RoundTrip(const std::string& frame) {
  DMC_RETURN_IF_ERROR(SendRequest(frame));
  return ReadReply();
}

StatusOr<Reply> RuleClient::QueryByAntecedent(ColumnId lhs) {
  return RoundTrip(EncodeQueryRequest(Op::kQueryByAntecedent, lhs));
}

StatusOr<Reply> RuleClient::QueryByConsequent(ColumnId rhs) {
  return RoundTrip(EncodeQueryRequest(Op::kQueryByConsequent, rhs));
}

StatusOr<Reply> RuleClient::TopK(uint32_t k) {
  return RoundTrip(EncodeQueryRequest(Op::kTopK, k));
}

StatusOr<ServeStats> RuleClient::Stats() {
  DMC_ASSIGN_OR_RETURN(Reply reply, RoundTrip(EncodeStatsRequest()));
  if (reply.op != Op::kStats) {
    return InvalidArgumentError("protocol: expected a stats reply");
  }
  return reply.stats;
}

StatusOr<uint64_t> RuleClient::AppendRows(
    uint32_t num_columns, const std::vector<std::vector<ColumnId>>& rows) {
  DMC_ASSIGN_OR_RETURN(Reply reply,
                       RoundTrip(EncodeAppendRequest(num_columns, rows)));
  if (reply.op != Op::kAppend) {
    return InvalidArgumentError("protocol: expected an append reply");
  }
  return reply.pending_batches;
}

StatusOr<uint64_t> RuleClient::EvictRows(uint64_t rows) {
  DMC_ASSIGN_OR_RETURN(Reply reply, RoundTrip(EncodeEvictRequest(rows)));
  if (reply.op != Op::kEvict) {
    return InvalidArgumentError("protocol: expected an evict reply");
  }
  if (!reply.status.ok()) return reply.status;
  return reply.pending_batches;
}

}  // namespace serve
}  // namespace dmc
