#include "shard/shard_protocol.h"

#include <bit>
#include <cstring>

#include "core/dmc_options.h"

namespace dmc {
namespace shard {

namespace {

template <typename T>
void AppendLE(std::string* out, T value) {
  char buf[sizeof(T)];
  std::memcpy(buf, &value, sizeof(T));
  out->append(buf, sizeof(T));
}

template <typename T>
bool ReadLE(std::string_view data, size_t* offset, T* value) {
  if (data.size() - *offset < sizeof(T)) return false;
  std::memcpy(value, data.data() + *offset, sizeof(T));
  *offset += sizeof(T);
  return true;
}

void AppendF64(std::string* out, double value) {
  AppendLE<uint64_t>(out, std::bit_cast<uint64_t>(value));
}

bool ReadF64(std::string_view data, size_t* offset, double* value) {
  uint64_t bits = 0;
  if (!ReadLE(data, offset, &bits)) return false;
  *value = std::bit_cast<double>(bits);
  return true;
}

void AppendString(std::string* out, const std::string& s) {
  AppendLE<uint32_t>(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

bool ReadString(std::string_view data, size_t* offset, std::string* s) {
  uint32_t len = 0;
  if (!ReadLE(data, offset, &len)) return false;
  if (data.size() - *offset < len) return false;
  s->assign(data.data() + *offset, len);
  *offset += len;
  return true;
}

Status Malformed(const std::string& what) {
  return InvalidArgumentError("shard protocol: " + what);
}

std::string Frame(std::string payload) {
  std::string out;
  out.reserve(payload.size() + sizeof(uint32_t));
  AppendLE<uint32_t>(&out, static_cast<uint32_t>(payload.size()));
  out += payload;
  return out;
}

void AppendPayloadHeader(std::string* out, Op op, uint8_t reserved) {
  AppendLE<uint16_t>(out, kShardProtocolVersion);
  AppendLE<uint8_t>(out, static_cast<uint8_t>(op));
  AppendLE<uint8_t>(out, reserved);
}

/// Guard for count-prefixed vectors: true iff `count` records of
/// `record_bytes` each still fit in the unread payload suffix.
bool CountFits(std::string_view payload, size_t offset, uint64_t count,
               size_t record_bytes) {
  return count <= (payload.size() - offset) / record_bytes;
}

}  // namespace

std::string EncodeHello() {
  std::string payload;
  AppendPayloadHeader(&payload, Op::kHello, 0);
  return Frame(std::move(payload));
}

std::string EncodeInit(const ShardPlan& plan) {
  std::string payload;
  AppendPayloadHeader(&payload, Op::kInit, 0);
  AppendLE<uint8_t>(&payload, static_cast<uint8_t>(plan.engine));
  AppendF64(&payload, plan.threshold);
  AppendLE<uint8_t>(&payload, plan.row_order);
  AppendLE<uint8_t>(&payload, plan.hundred_percent_phase ? 1 : 0);
  AppendLE<uint8_t>(&payload, plan.bitmap_fallback ? 1 : 0);
  AppendLE<uint8_t>(&payload, plan.column_density_pruning ? 1 : 0);
  AppendLE<uint8_t>(&payload, plan.max_hits_pruning ? 1 : 0);
  AppendLE<uint8_t>(&payload, plan.kernel);
  AppendLE<uint64_t>(&payload, plan.memory_threshold_bytes);
  AppendLE<uint64_t>(&payload, plan.bitmap_max_remaining_rows);
  AppendLE<uint64_t>(&payload, plan.progress_interval_rows);
  AppendString(&payload, plan.input_path);
  AppendString(&payload, plan.work_dir);
  AppendLE<uint32_t>(&payload, plan.num_columns);
  AppendLE<uint64_t>(&payload, plan.num_rows);
  AppendLE<uint32_t>(&payload, static_cast<uint32_t>(plan.column_ones.size()));
  for (uint32_t v : plan.column_ones) AppendLE<uint32_t>(&payload, v);
  AppendLE<uint32_t>(&payload, static_cast<uint32_t>(plan.buckets.size()));
  for (int32_t b : plan.buckets) AppendLE<int32_t>(&payload, b);
  return Frame(std::move(payload));
}

std::string EncodeTask(uint32_t task_id,
                       const std::vector<uint8_t>& shard_mask) {
  std::string payload;
  AppendPayloadHeader(&payload, Op::kTask, 0);
  AppendLE<uint32_t>(&payload, task_id);
  AppendLE<uint32_t>(&payload, static_cast<uint32_t>(shard_mask.size()));
  payload.append(reinterpret_cast<const char*>(shard_mask.data()),
                 shard_mask.size());
  return Frame(std::move(payload));
}

std::string EncodeHeartbeat(uint32_t task_id, uint64_t rows_processed) {
  std::string payload;
  AppendPayloadHeader(&payload, Op::kHeartbeat, 0);
  AppendLE<uint32_t>(&payload, task_id);
  AppendLE<uint64_t>(&payload, rows_processed);
  return Frame(std::move(payload));
}

std::string EncodeResult(const ShardResult& result) {
  std::string payload;
  AppendPayloadHeader(&payload, Op::kResult, 0);
  AppendLE<uint32_t>(&payload, result.task_id);
  AppendLE<uint8_t>(&payload, static_cast<uint8_t>(result.engine));
  AppendF64(&payload, result.mine_seconds);
  AppendLE<uint64_t>(&payload, result.peak_counter_bytes);
  if (result.engine == Engine::kImplications) {
    AppendLE<uint32_t>(&payload,
                       static_cast<uint32_t>(result.imp_rules.size()));
    for (const auto& r : result.imp_rules) {
      AppendLE<uint32_t>(&payload, r.lhs);
      AppendLE<uint32_t>(&payload, r.rhs);
      AppendLE<uint32_t>(&payload, r.lhs_ones);
      AppendLE<uint32_t>(&payload, r.misses);
    }
  } else {
    AppendLE<uint32_t>(&payload,
                       static_cast<uint32_t>(result.sim_pairs.size()));
    for (const auto& p : result.sim_pairs) {
      AppendLE<uint32_t>(&payload, p.a);
      AppendLE<uint32_t>(&payload, p.b);
      AppendLE<uint32_t>(&payload, p.ones_a);
      AppendLE<uint32_t>(&payload, p.ones_b);
      AppendLE<uint32_t>(&payload, p.intersection);
    }
  }
  return Frame(std::move(payload));
}

std::string EncodeTaskError(uint32_t task_id, const Status& status) {
  std::string payload;
  AppendPayloadHeader(&payload, Op::kTaskError,
                      static_cast<uint8_t>(status.code()));
  AppendLE<uint32_t>(&payload, task_id);
  AppendString(&payload, status.message());
  return Frame(std::move(payload));
}

std::string EncodeShutdown() {
  std::string payload;
  AppendPayloadHeader(&payload, Op::kShutdown, 0);
  return Frame(std::move(payload));
}

StatusOr<Message> DecodeMessagePayload(std::string_view payload) {
  size_t offset = 0;
  uint16_t version = 0;
  uint8_t op_byte = 0;
  uint8_t reserved = 0;
  if (!ReadLE(payload, &offset, &version) ||
      !ReadLE(payload, &offset, &op_byte) ||
      !ReadLE(payload, &offset, &reserved)) {
    return Malformed("payload shorter than the 4-byte header");
  }
  if (version != kShardProtocolVersion) {
    return Malformed("unsupported version " + std::to_string(version));
  }

  Message msg;
  switch (static_cast<Op>(op_byte)) {
    case Op::kHello:
    case Op::kShutdown: {
      msg.op = static_cast<Op>(op_byte);
      break;
    }
    case Op::kInit: {
      msg.op = Op::kInit;
      ShardPlan& p = msg.plan;
      uint8_t engine = 0;
      uint8_t hundred = 0, bitmap = 0, density = 0, maxhits = 0;
      if (!ReadLE(payload, &offset, &engine) ||
          !ReadF64(payload, &offset, &p.threshold) ||
          !ReadLE(payload, &offset, &p.row_order) ||
          !ReadLE(payload, &offset, &hundred) ||
          !ReadLE(payload, &offset, &bitmap) ||
          !ReadLE(payload, &offset, &density) ||
          !ReadLE(payload, &offset, &maxhits) ||
          !ReadLE(payload, &offset, &p.kernel) ||
          !ReadLE(payload, &offset, &p.memory_threshold_bytes) ||
          !ReadLE(payload, &offset, &p.bitmap_max_remaining_rows) ||
          !ReadLE(payload, &offset, &p.progress_interval_rows) ||
          !ReadString(payload, &offset, &p.input_path) ||
          !ReadString(payload, &offset, &p.work_dir)) {
        return Malformed("truncated kInit body");
      }
      if (engine > 1) return Malformed("unknown engine");
      if (p.row_order > static_cast<uint8_t>(RowOrderPolicy::kExactSort)) {
        return Malformed("unknown row_order");
      }
      if (p.kernel > static_cast<uint8_t>(MergeKernel::kSimd)) {
        return Malformed("unknown kernel");
      }
      p.engine = static_cast<Engine>(engine);
      p.hundred_percent_phase = hundred != 0;
      p.bitmap_fallback = bitmap != 0;
      p.column_density_pruning = density != 0;
      p.max_hits_pruning = maxhits != 0;
      uint32_t ones_count = 0;
      if (!ReadLE(payload, &offset, &p.num_columns) ||
          !ReadLE(payload, &offset, &p.num_rows) ||
          !ReadLE(payload, &offset, &ones_count)) {
        return Malformed("truncated kInit counts");
      }
      if (p.num_columns > kShardMaxColumns ||
          ones_count != p.num_columns ||
          !CountFits(payload, offset, ones_count, sizeof(uint32_t))) {
        return Malformed("kInit column count violates bounds");
      }
      p.column_ones.resize(ones_count);
      for (uint32_t i = 0; i < ones_count; ++i) {
        if (!ReadLE(payload, &offset, &p.column_ones[i])) {
          return Malformed("truncated column_ones");
        }
      }
      uint32_t bucket_count = 0;
      if (!ReadLE(payload, &offset, &bucket_count) ||
          !CountFits(payload, offset, bucket_count, sizeof(int32_t))) {
        return Malformed("kInit bucket count violates bounds");
      }
      p.buckets.resize(bucket_count);
      for (uint32_t i = 0; i < bucket_count; ++i) {
        if (!ReadLE(payload, &offset, &p.buckets[i])) {
          return Malformed("truncated bucket list");
        }
      }
      break;
    }
    case Op::kTask: {
      msg.op = Op::kTask;
      uint32_t mask_len = 0;
      if (!ReadLE(payload, &offset, &msg.task_id) ||
          !ReadLE(payload, &offset, &mask_len)) {
        return Malformed("truncated kTask body");
      }
      if (mask_len > kShardMaxColumns ||
          payload.size() - offset < mask_len) {
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
      if (r.engine == Engine::kImplications) {
        if (!CountFits(payload, offset, count, 4 * sizeof(uint32_t))) {
          return Malformed("kResult rule count violates bounds");
        }
        r.imp_rules.resize(count);
        for (uint32_t i = 0; i < count; ++i) {
          auto& rule = r.imp_rules[i];
          if (!ReadLE(payload, &offset, &rule.lhs) ||
              !ReadLE(payload, &offset, &rule.rhs) ||
              !ReadLE(payload, &offset, &rule.lhs_ones) ||
              !ReadLE(payload, &offset, &rule.misses)) {
            return Malformed("truncated rule record");
          }
        }
      } else {
        if (!CountFits(payload, offset, count, 5 * sizeof(uint32_t))) {
          return Malformed("kResult pair count violates bounds");
        }
        r.sim_pairs.resize(count);
        for (uint32_t i = 0; i < count; ++i) {
          auto& pair = r.sim_pairs[i];
          if (!ReadLE(payload, &offset, &pair.a) ||
              !ReadLE(payload, &offset, &pair.b) ||
              !ReadLE(payload, &offset, &pair.ones_a) ||
              !ReadLE(payload, &offset, &pair.ones_b) ||
              !ReadLE(payload, &offset, &pair.intersection)) {
            return Malformed("truncated pair record");
          }
        }
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
      if (reserved == 0 ||
          reserved > static_cast<uint8_t>(StatusCode::kDataLoss)) {
        return Malformed("kTaskError carries an invalid status code");
      }
      msg.task_status = Status(static_cast<StatusCode>(reserved), message);
      break;
    }
    default:
      return Malformed("unknown op " + std::to_string(op_byte));
  }
  if (offset != payload.size()) {
    return Malformed("trailing bytes after message body");
  }
  return msg;
}

}  // namespace shard
}  // namespace dmc
