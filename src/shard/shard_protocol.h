// Wire protocol between the shard coordinator and its worker processes
// (DESIGN §5.8). Reuses the dmc_serve framing (serve/protocol.h: Frame,
// the payload header and FrameBuffer): every message is a u32-LE length
// prefix plus a payload starting with
//
//   u16  version       kShardProtocolVersion (1)
//   u8   op            Op below
//   u8   reserved      0 on requests; a Status code on kTaskError
//
// Conversation, in order:
//
//   worker -> coordinator   kHello        (empty) protocol handshake
//   coordinator -> worker   kInit         the ShardPlan: engine,
//                                         threshold, policy, first-pass
//                                         stats, bucket inventory
//   coordinator -> worker   kTask         u32 task_id + the antecedent
//                                         shard mask (u8 per column)
//   worker -> coordinator   kHeartbeat    u32 task_id, u64 rows — sent
//                                         from the progress callback so
//                                         liveness rides the same path
//                                         as cancellation
//   worker -> coordinator   kResult       u32 task_id + the shard's rule
//                                         set + per-task stats
//   worker -> coordinator   kTaskError    u32 task_id, status code + msg
//                                         (worker stays alive; the
//                                         coordinator requeues the task)
//   coordinator -> worker   kShutdown     (empty) worker exits 0
//
// Frames are capped at kShardMaxFramePayloadBytes (64 MiB — a kInit for
// a 2^24-column matrix or a multi-million-rule kResult fits; a hostile
// length prefix beyond the cap is rejected before buffering, exactly as
// in serve). Decoders validate every count against the remaining payload
// bytes before allocating (CountFits, util/byte_codec.h), and column
// counts against kMaxMatrixColumns (matrix/matrix_io.h), so a 16-byte
// frame can never announce a multi-GiB vector. Rule records use the
// shared codec of rules/rule_codec.h.
//
// All encode/decode helpers are pure functions over std::string buffers;
// a frame either round-trips exactly or decodes to kInvalidArgument.

#ifndef DMC_SHARD_SHARD_PROTOCOL_H_
#define DMC_SHARD_SHARD_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/dmc_options.h"
#include "matrix/binary_matrix.h"
#include "rules/rule_set.h"
#include "util/status.h"
#include "util/statusor.h"

namespace dmc {
namespace shard {

inline constexpr uint16_t kShardProtocolVersion = 1;
/// Frame cap; sized for wide matrices (column_ones in kInit) and large
/// per-shard rule sets (kResult).
inline constexpr uint32_t kShardMaxFramePayloadBytes = 64u << 20;

enum class Op : uint8_t {
  kHello = 1,
  kInit = 2,
  kTask = 3,
  kHeartbeat = 4,
  kResult = 5,
  kTaskError = 6,
  kShutdown = 7,
};

/// Which engine the run drives; rides the wire as u8.
enum class Engine : uint8_t {
  kImplications = 0,
  kSimilarities = 1,
};

/// Everything a worker needs to mine any shard of the run: the mining
/// configuration plus the coordinator's pass-1 result. Workers never
/// scan or partition the input themselves — they replay the bucket
/// files named here (one file, in input order, under identity order).
struct ShardPlan {
  Engine engine = Engine::kImplications;
  /// minconf (implications) or minsim (similarities).
  double threshold = 0.9;
  /// The run's policy. kInit carries the fields that affect mining
  /// results or replay order, plus observe.progress_interval_rows (the
  /// heartbeat cadence); record_history and the other observe hooks
  /// stay in the coordinator, and a decoded plan has their defaults.
  DmcPolicy policy;
  /// Original input; workers replay only the bucket files.
  std::string input_path;
  /// Directory holding the coordinator's bucket files.
  std::string work_dir;
  ColumnId num_columns = 0;
  uint64_t num_rows = 0;
  std::vector<uint32_t> column_ones;
  /// Ascending ids of the non-empty bucket files.
  std::vector<int32_t> buckets;
};

/// One task result: the rules whose antecedents fall in the task's
/// shard, canonicalized, plus the per-task accounting the coordinator
/// folds into its stats.
struct ShardResult {
  uint32_t task_id = 0;
  Engine engine = Engine::kImplications;
  std::vector<ImplicationRule> imp_rules;
  std::vector<SimilarityPair> sim_pairs;
  double mine_seconds = 0.0;
  uint64_t peak_counter_bytes = 0;
};

/// One decoded worker->coordinator or coordinator->worker message.
struct Message {
  Op op = Op::kHello;
  // kTask
  uint32_t task_id = 0;
  std::vector<uint8_t> shard_mask;
  // kHeartbeat
  uint64_t rows_processed = 0;
  // kInit
  ShardPlan plan;
  // kResult
  ShardResult result;
  // kTaskError
  Status task_status;
};

// Encoders produce a complete frame (length prefix included).
std::string EncodeHello();
std::string EncodeInit(const ShardPlan& plan);
std::string EncodeTask(uint32_t task_id,
                       const std::vector<uint8_t>& shard_mask);
std::string EncodeHeartbeat(uint32_t task_id, uint64_t rows_processed);
std::string EncodeResult(const ShardResult& result);
/// `status` must not be OK.
std::string EncodeTaskError(uint32_t task_id, const Status& status);
std::string EncodeShutdown();

/// A result's rule list as kResult and the task checkpoint
/// (shard/shard_checkpoint.h) both carry it: u32 count, then the records
/// of the result's engine.
void AppendResultRecords(std::string* out, const ShardResult& result);
/// Reads `count` records of `result->engine`'s kind at *offset; false,
/// with nothing allocated, when they overrun `data`.
bool ReadResultRecords(std::string_view data, size_t* offset, uint32_t count,
                       ShardResult* result);

/// Decodes one payload (frame prefix already stripped). Version skew,
/// unknown op, short/trailing bytes, counts that overrun the payload, or
/// an engine, row_order or kernel byte outside its enum yield
/// kInvalidArgument.
[[nodiscard]] StatusOr<Message> DecodeMessagePayload(
    std::string_view payload);

}  // namespace shard
}  // namespace dmc

#endif  // DMC_SHARD_SHARD_PROTOCOL_H_
