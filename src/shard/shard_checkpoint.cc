#include "shard/shard_checkpoint.h"

#include "util/atomic_io.h"
#include "util/byte_codec.h"
#include "util/checksum.h"
#include "util/sealed_file.h"

namespace dmc {
namespace shard {

namespace {

constexpr std::string_view kMagic = "DMCSHRD\n";
constexpr uint32_t kVersion = 1;

}  // namespace

uint64_t TaskFingerprint(const FileFingerprint& input, Engine engine,
                         double threshold, uint32_t num_columns,
                         const std::vector<uint8_t>& shard_mask,
                         uint32_t task_id) {
  std::string blob;
  AppendLE<uint64_t>(&blob, input.bytes);
  AppendLE<uint64_t>(&blob, input.hash);
  AppendLE<uint8_t>(&blob, static_cast<uint8_t>(engine));
  AppendF64(&blob, threshold);
  AppendLE<uint32_t>(&blob, num_columns);
  AppendLE<uint32_t>(&blob, task_id);
  blob.append(reinterpret_cast<const char*>(shard_mask.data()),
              shard_mask.size());
  return Fnv1a(blob);
}

std::string ShardCheckpointPath(const std::string& dir, uint32_t task_id) {
  return dir + "/dmc_shard_task_" + std::to_string(task_id) + ".ckpt";
}

Status WriteShardCheckpoint(const ShardResult& result, uint64_t fingerprint,
                            const std::string& path) {
  std::string out(kMagic);
  AppendLE<uint32_t>(&out, kVersion);
  AppendLE<uint64_t>(&out, fingerprint);
  AppendLE<uint32_t>(&out, result.task_id);
  AppendLE<uint8_t>(&out, static_cast<uint8_t>(result.engine));
  AppendResultRecords(&out, result);
  AppendSeal(&out);
  return AtomicWriteFile(path, out);
}

StatusOr<LoadedShardCheckpoint> ReadShardCheckpoint(const std::string& path) {
  DMC_ASSIGN_OR_RETURN(const std::string data,
                       ReadWholeFile(path, "shard checkpoint"));
  const std::string what = "shard checkpoint " + path;
  // The fixed fields: version, fingerprint, task id, engine, count.
  DMC_RETURN_IF_ERROR(CheckSealedHeader(data, kMagic, 4 + 8 + 4 + 1 + 4, what));
  size_t offset = kMagic.size();
  uint32_t version = 0;
  (void)ReadLE(data, &offset, &version);
  if (version != kVersion) {
    return DataLossError(what + ": unsupported version " +
                         std::to_string(version));
  }

  LoadedShardCheckpoint loaded;
  uint8_t engine = 0;
  uint32_t count = 0;
  (void)ReadLE(data, &offset, &loaded.fingerprint);  // length pre-checked
  (void)ReadLE(data, &offset, &loaded.result.task_id);
  (void)ReadLE(data, &offset, &engine);
  (void)ReadLE(data, &offset, &count);
  if (engine > static_cast<uint8_t>(Engine::kSimilarities)) {
    return DataLossError(what + ": bad engine " + std::to_string(engine));
  }
  loaded.result.engine = static_cast<Engine>(engine);
  if (!ReadResultRecords(data, &offset, count, &loaded.result)) {
    return DataLossError(what + ": record count " + std::to_string(count) +
                         " exceeds file size");
  }
  DMC_RETURN_IF_ERROR(CheckSeal(data, offset, what));
  return loaded;
}

}  // namespace shard
}  // namespace dmc
