// Per-task result checkpoints for the shard coordinator.
//
// When a worker dies, its in-flight task is reassigned; tasks that had
// already *finished* should not be re-mined. The coordinator therefore
// persists each completed task's rule set, bound to a fingerprint of the
// whole run configuration (input fingerprint, engine, threshold, shard
// mask), and on resume loads any checkpoint that still matches instead
// of assigning the task — a reassigned shard resumes from its last
// durable result rather than restarting (core/checkpoint.h does the same
// for pass 1).
//
// On-disk format: a sealed file (util/sealed_file.h) like
// core/checkpoint.h, little-endian —
//
//   offset 0   8 bytes   magic "DMCSHRD\n"
//          8   u32       version (1)
//         12   u64       config fingerprint (see TaskFingerprint)
//         20   u32       task id
//         24   u8        engine (0 = implications, 1 = similarities)
//         25   u32       record count
//        ...   records   the engine's rule records (rules/rule_codec.h)
//        ...   12 bytes  seal: u64 FNV-1a of every byte above, "DMCE"
//
// Any structural problem, checksum mismatch, or unsupported version
// reads as kDataLoss; the coordinator treats every read failure as
// "mine it fresh" — a torn checkpoint can cost time, never correctness.

#ifndef DMC_SHARD_SHARD_CHECKPOINT_H_
#define DMC_SHARD_SHARD_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "shard/shard_protocol.h"
#include "util/status.h"
#include "util/statusor.h"

namespace dmc {
namespace shard {

/// Binds a task's checkpoint to the run configuration that produced it:
/// FNV-1a over the input fingerprint, engine, threshold bits, column
/// count, the task's shard mask, and the task id. Any drift — different
/// input, threshold, shard layout — changes the fingerprint and
/// invalidates the checkpoint.
uint64_t TaskFingerprint(const FileFingerprint& input, Engine engine,
                         double threshold, uint32_t num_columns,
                         const std::vector<uint8_t>& shard_mask,
                         uint32_t task_id);

/// Checkpoint path of `task_id` under `dir`.
std::string ShardCheckpointPath(const std::string& dir, uint32_t task_id);

/// Atomically writes the result (temp + fsync + rename via
/// AtomicFileWriter). `fingerprint` must come from TaskFingerprint.
[[nodiscard]] Status WriteShardCheckpoint(const ShardResult& result,
                                          uint64_t fingerprint,
                                          const std::string& path);

/// Reads and verifies one checkpoint. Corruption, truncation, checksum
/// mismatch or an unsupported (future) version yields kDataLoss; a
/// missing file yields kIOError. The caller must additionally compare
/// the returned fingerprint against TaskFingerprint of the current run.
struct LoadedShardCheckpoint {
  uint64_t fingerprint = 0;
  ShardResult result;
};
[[nodiscard]] StatusOr<LoadedShardCheckpoint> ReadShardCheckpoint(
    const std::string& path);

}  // namespace shard
}  // namespace dmc

#endif  // DMC_SHARD_SHARD_CHECKPOINT_H_
