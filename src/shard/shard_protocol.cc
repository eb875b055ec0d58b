#include "shard/shard_protocol.h"

#include "matrix/matrix_io.h"
#include "rules/rule_codec.h"
#include "serve/protocol.h"

namespace dmc {
namespace shard {

namespace {

using serve::BeginPayload;
using serve::Frame;

Status Malformed(const std::string& what) {
  return InvalidArgumentError("shard protocol: " + what);
}

/// A payload of this protocol holding only its header.
std::string Payload(Op op, uint8_t reserved = 0) {
  return BeginPayload(
      {kShardProtocolVersion, static_cast<uint8_t>(op), reserved});
}

}  // namespace

void AppendResultRecords(std::string* out, const ShardResult& result) {
  if (result.engine == Engine::kImplications) {
    AppendLE<uint32_t>(out, static_cast<uint32_t>(result.imp_rules.size()));
    for (const ImplicationRule& r : result.imp_rules) AppendRecord(out, r);
  } else {
    AppendLE<uint32_t>(out, static_cast<uint32_t>(result.sim_pairs.size()));
    for (const SimilarityPair& p : result.sim_pairs) AppendRecord(out, p);
  }
}

bool ReadResultRecords(std::string_view data, size_t* offset, uint32_t count,
                       ShardResult* result) {
  return result->engine == Engine::kImplications
             ? ReadRecords(data, offset, count, &result->imp_rules)
             : ReadRecords(data, offset, count, &result->sim_pairs);
}

std::string EncodeHello() {
  return Frame(Payload(Op::kHello));
}

std::string EncodeInit(const ShardPlan& plan) {
  std::string payload = Payload(Op::kInit);
  AppendLE<uint8_t>(&payload, static_cast<uint8_t>(plan.engine));
  AppendF64(&payload, plan.threshold);
  const DmcPolicy& policy = plan.policy;
  AppendLE<uint8_t>(&payload, static_cast<uint8_t>(policy.row_order));
  AppendLE<uint8_t>(&payload, policy.hundred_percent_phase ? 1 : 0);
  AppendLE<uint8_t>(&payload, policy.bitmap_fallback ? 1 : 0);
  AppendLE<uint8_t>(&payload, policy.column_density_pruning ? 1 : 0);
  AppendLE<uint8_t>(&payload, policy.max_hits_pruning ? 1 : 0);
  AppendLE<uint8_t>(&payload, static_cast<uint8_t>(policy.kernel));
  AppendLE<uint64_t>(&payload, policy.memory_threshold_bytes);
  AppendLE<uint64_t>(&payload, policy.bitmap_max_remaining_rows);
  AppendLE<uint64_t>(&payload, policy.observe.progress_interval_rows);
  AppendString(&payload, plan.input_path);
  AppendString(&payload, plan.work_dir);
  AppendLE<uint32_t>(&payload, plan.num_columns);
  AppendLE<uint64_t>(&payload, plan.num_rows);
  AppendLE<uint32_t>(&payload, static_cast<uint32_t>(plan.column_ones.size()));
  for (uint32_t v : plan.column_ones) AppendLE<uint32_t>(&payload, v);
  AppendLE<uint32_t>(&payload, static_cast<uint32_t>(plan.buckets.size()));
  for (int32_t b : plan.buckets) AppendLE<int32_t>(&payload, b);
  return Frame(payload);
}

std::string EncodeTask(uint32_t task_id,
                       const std::vector<uint8_t>& shard_mask) {
  std::string payload = Payload(Op::kTask);
  AppendLE<uint32_t>(&payload, task_id);
  AppendLE<uint32_t>(&payload, static_cast<uint32_t>(shard_mask.size()));
  payload.append(reinterpret_cast<const char*>(shard_mask.data()),
                 shard_mask.size());
  return Frame(payload);
}

std::string EncodeHeartbeat(uint32_t task_id, uint64_t rows_processed) {
  std::string payload = Payload(Op::kHeartbeat);
  AppendLE<uint32_t>(&payload, task_id);
  AppendLE<uint64_t>(&payload, rows_processed);
  return Frame(payload);
}

std::string EncodeResult(const ShardResult& result) {
  std::string payload = Payload(Op::kResult);
  AppendLE<uint32_t>(&payload, result.task_id);
  AppendLE<uint8_t>(&payload, static_cast<uint8_t>(result.engine));
  AppendF64(&payload, result.mine_seconds);
  AppendLE<uint64_t>(&payload, result.peak_counter_bytes);
  AppendResultRecords(&payload, result);
  return Frame(payload);
}

std::string EncodeTaskError(uint32_t task_id, const Status& status) {
  std::string payload =
      Payload(Op::kTaskError, static_cast<uint8_t>(status.code()));
  AppendLE<uint32_t>(&payload, task_id);
  AppendString(&payload, status.message());
  return Frame(payload);
}

std::string EncodeShutdown() {
  return Frame(Payload(Op::kShutdown));
}

StatusOr<Message> DecodeMessagePayload(std::string_view payload) {
  size_t offset = 0;
  DMC_ASSIGN_OR_RETURN(const serve::PayloadHeader header,
                       serve::ReadPayloadHeader(payload, kShardProtocolVersion,
                                                "shard protocol", &offset));

  Message msg;
  switch (static_cast<Op>(header.op)) {
    case Op::kHello:
    case Op::kShutdown: {
      msg.op = static_cast<Op>(header.op);
      break;
    }
    case Op::kInit: {
      msg.op = Op::kInit;
      ShardPlan& p = msg.plan;
      DmcPolicy& policy = p.policy;
      uint8_t engine = 0, row_order = 0, kernel = 0;
      uint8_t hundred = 0, bitmap = 0, density = 0, maxhits = 0;
      if (!ReadLE(payload, &offset, &engine) ||
          !ReadF64(payload, &offset, &p.threshold) ||
          !ReadLE(payload, &offset, &row_order) ||
          !ReadLE(payload, &offset, &hundred) ||
          !ReadLE(payload, &offset, &bitmap) ||
          !ReadLE(payload, &offset, &density) ||
          !ReadLE(payload, &offset, &maxhits) ||
          !ReadLE(payload, &offset, &kernel) ||
          !ReadLE<uint64_t>(payload, &offset,
                            &policy.memory_threshold_bytes) ||
          !ReadLE<uint64_t>(payload, &offset,
                            &policy.bitmap_max_remaining_rows) ||
          !ReadLE(payload, &offset, &policy.observe.progress_interval_rows) ||
          !ReadString(payload, &offset, &p.input_path) ||
          !ReadString(payload, &offset, &p.work_dir)) {
        return Malformed("truncated kInit body");
      }
      if (engine > 1) return Malformed("unknown engine");
      if (row_order > static_cast<uint8_t>(RowOrderPolicy::kExactSort)) {
        return Malformed("unknown row_order");
      }
      if (kernel > static_cast<uint8_t>(MergeKernel::kSimd)) {
        return Malformed("unknown kernel");
      }
      p.engine = static_cast<Engine>(engine);
      policy.row_order = static_cast<RowOrderPolicy>(row_order);
      policy.kernel = static_cast<MergeKernel>(kernel);
      policy.hundred_percent_phase = hundred != 0;
      policy.bitmap_fallback = bitmap != 0;
      policy.column_density_pruning = density != 0;
      policy.max_hits_pruning = maxhits != 0;
      uint32_t ones_count = 0;
      if (!ReadLE(payload, &offset, &p.num_columns) ||
          !ReadLE(payload, &offset, &p.num_rows) ||
          !ReadLE(payload, &offset, &ones_count)) {
        return Malformed("truncated kInit counts");
      }
      if (p.num_columns > kMaxMatrixColumns ||
          ones_count != p.num_columns ||
          !CountFits(payload, offset, ones_count, sizeof(uint32_t))) {
        return Malformed("kInit column count violates bounds");
      }
      // Each list passed CountFits, so none of its reads can fail.
      p.column_ones.resize(ones_count);
      for (uint32_t& ones : p.column_ones) {
        (void)ReadLE(payload, &offset, &ones);
      }
      uint32_t bucket_count = 0;
      if (!ReadLE(payload, &offset, &bucket_count) ||
          !CountFits(payload, offset, bucket_count, sizeof(int32_t))) {
        return Malformed("kInit bucket count violates bounds");
      }
      p.buckets.resize(bucket_count);
      for (int32_t& b : p.buckets) (void)ReadLE(payload, &offset, &b);
      break;
    }
    case Op::kTask: {
      msg.op = Op::kTask;
      uint32_t mask_len = 0;
      if (!ReadLE(payload, &offset, &msg.task_id) ||
          !ReadLE(payload, &offset, &mask_len)) {
        return Malformed("truncated kTask body");
      }
      if (mask_len > kMaxMatrixColumns ||
          !CountFits(payload, offset, mask_len, 1)) {
        return Malformed("kTask mask violates bounds");
      }
      msg.shard_mask.assign(
          reinterpret_cast<const uint8_t*>(payload.data()) + offset,
          reinterpret_cast<const uint8_t*>(payload.data()) + offset +
              mask_len);
      offset += mask_len;
      break;
    }
    case Op::kHeartbeat: {
      msg.op = Op::kHeartbeat;
      if (!ReadLE(payload, &offset, &msg.task_id) ||
          !ReadLE(payload, &offset, &msg.rows_processed)) {
        return Malformed("truncated kHeartbeat body");
      }
      break;
    }
    case Op::kResult: {
      msg.op = Op::kResult;
      ShardResult& r = msg.result;
      uint8_t engine = 0;
      uint32_t count = 0;
      if (!ReadLE(payload, &offset, &r.task_id) ||
          !ReadLE(payload, &offset, &engine) ||
          !ReadF64(payload, &offset, &r.mine_seconds) ||
          !ReadLE(payload, &offset, &r.peak_counter_bytes) ||
          !ReadLE(payload, &offset, &count)) {
        return Malformed("truncated kResult body");
      }
      if (engine > 1) return Malformed("unknown engine");
      r.engine = static_cast<Engine>(engine);
      if (!ReadResultRecords(payload, &offset, count, &r)) {
        return Malformed(r.engine == Engine::kImplications
                             ? "kResult rule count violates bounds"
                             : "kResult pair count violates bounds");
      }
      break;
    }
    case Op::kTaskError: {
      msg.op = Op::kTaskError;
      std::string message;
      if (!ReadLE(payload, &offset, &msg.task_id) ||
          !ReadString(payload, &offset, &message)) {
        return Malformed("truncated kTaskError body");
      }
      if (header.reserved == 0 ||
          header.reserved > static_cast<uint8_t>(StatusCode::kDataLoss)) {
        return Malformed("kTaskError carries an invalid status code");
      }
      msg.task_status =
          Status(static_cast<StatusCode>(header.reserved), message);
      break;
    }
    default:
      return Malformed("unknown op " + std::to_string(header.op));
  }
  if (offset != payload.size()) {
    return Malformed("trailing bytes after message body");
  }
  return msg;
}

}  // namespace shard
}  // namespace dmc
