#include "shard/shard_checkpoint.h"

#include <cstring>
#include <fstream>
#include <sstream>

#include "util/atomic_io.h"
#include "util/checksum.h"

namespace dmc {
namespace shard {

namespace {

constexpr char kMagic[8] = {'D', 'M', 'C', 'S', 'H', 'R', 'D', '\n'};
constexpr char kEndMagic[4] = {'D', 'M', 'C', 'E'};
constexpr uint32_t kVersion = 1;

template <typename T>
void AppendLE(std::string* out, T value) {
  char buf[sizeof(T)];
  std::memcpy(buf, &value, sizeof(T));
  out->append(buf, sizeof(T));
}

template <typename T>
bool ReadLE(const std::string& data, size_t* offset, T* value) {
  if (data.size() - *offset < sizeof(T)) return false;
  std::memcpy(value, data.data() + *offset, sizeof(T));
  *offset += sizeof(T);
  return true;
}

Status Corrupt(const std::string& path, const std::string& what) {
  return DataLossError("shard checkpoint " + path + ": " + what);
}

}  // namespace

uint64_t TaskFingerprint(const FileFingerprint& input, Engine engine,
                         double threshold, uint32_t num_columns,
                         const std::vector<uint8_t>& shard_mask,
                         uint32_t task_id) {
  std::string blob;
  AppendLE<uint64_t>(&blob, input.bytes);
  AppendLE<uint64_t>(&blob, input.hash);
  AppendLE<uint8_t>(&blob, static_cast<uint8_t>(engine));
  uint64_t threshold_bits = 0;
  static_assert(sizeof(threshold_bits) == sizeof(threshold));
  std::memcpy(&threshold_bits, &threshold, sizeof(threshold));
  AppendLE<uint64_t>(&blob, threshold_bits);
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
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  AppendLE<uint32_t>(&out, kVersion);
  AppendLE<uint64_t>(&out, fingerprint);
  AppendLE<uint32_t>(&out, result.task_id);
  AppendLE<uint8_t>(&out, static_cast<uint8_t>(result.engine));
  if (result.engine == Engine::kImplications) {
    AppendLE<uint32_t>(&out, static_cast<uint32_t>(result.imp_rules.size()));
    for (const auto& r : result.imp_rules) {
      AppendLE<uint32_t>(&out, r.lhs);
      AppendLE<uint32_t>(&out, r.rhs);
      AppendLE<uint32_t>(&out, r.lhs_ones);
      AppendLE<uint32_t>(&out, r.misses);
    }
  } else {
    AppendLE<uint32_t>(&out, static_cast<uint32_t>(result.sim_pairs.size()));
    for (const auto& p : result.sim_pairs) {
      AppendLE<uint32_t>(&out, p.a);
      AppendLE<uint32_t>(&out, p.b);
      AppendLE<uint32_t>(&out, p.ones_a);
      AppendLE<uint32_t>(&out, p.ones_b);
      AppendLE<uint32_t>(&out, p.intersection);
    }
  }
  AppendLE<uint64_t>(&out, Fnv1a(out));
  out.append(kEndMagic, sizeof(kEndMagic));
  return AtomicWriteFile(path, out);
}

StatusOr<LoadedShardCheckpoint> ReadShardCheckpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return IOError("cannot open shard checkpoint: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return IOError("read failed for shard checkpoint: " + path);
  const std::string data = buffer.str();

  if (data.size() < sizeof(kMagic) + 4 + 8 + 4 + 1 + 4 + 8 + 4) {
    return Corrupt(path,
                   "truncated (" + std::to_string(data.size()) + " bytes)");
  }
  if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return Corrupt(path, "bad magic");
  }
  size_t offset = sizeof(kMagic);
  uint32_t version = 0;
  (void)ReadLE(data, &offset, &version);
  if (version != kVersion) {
    return Corrupt(path, "unsupported version " + std::to_string(version));
  }

  LoadedShardCheckpoint loaded;
  uint8_t engine = 0;
  uint32_t count = 0;
  if (!ReadLE(data, &offset, &loaded.fingerprint) ||
      !ReadLE(data, &offset, &loaded.result.task_id) ||
      !ReadLE(data, &offset, &engine) || !ReadLE(data, &offset, &count)) {
    return Corrupt(path, "truncated header");
  }
  if (engine > static_cast<uint8_t>(Engine::kSimilarities)) {
    return Corrupt(path, "bad engine " + std::to_string(engine));
  }
  loaded.result.engine = static_cast<Engine>(engine);
  const uint64_t record_bytes =
      loaded.result.engine == Engine::kImplications ? 16 : 20;
  // A corrupt count must not drive the resize: the header cannot claim
  // more records than bytes left in the file.
  if (static_cast<uint64_t>(count) * record_bytes > data.size() - offset) {
    return Corrupt(path, "record count " + std::to_string(count) +
                             " exceeds file size");
  }
  if (loaded.result.engine == Engine::kImplications) {
    loaded.result.imp_rules.resize(count);
    for (auto& r : loaded.result.imp_rules) {
      if (!ReadLE(data, &offset, &r.lhs) || !ReadLE(data, &offset, &r.rhs) ||
          !ReadLE(data, &offset, &r.lhs_ones) ||
          !ReadLE(data, &offset, &r.misses)) {
        return Corrupt(path, "truncated in rule records");
      }
    }
  } else {
    loaded.result.sim_pairs.resize(count);
    for (auto& p : loaded.result.sim_pairs) {
      if (!ReadLE(data, &offset, &p.a) || !ReadLE(data, &offset, &p.b) ||
          !ReadLE(data, &offset, &p.ones_a) ||
          !ReadLE(data, &offset, &p.ones_b) ||
          !ReadLE(data, &offset, &p.intersection)) {
        return Corrupt(path, "truncated in pair records");
      }
    }
  }
  const size_t body_end = offset;
  uint64_t stored = 0;
  if (!ReadLE(data, &offset, &stored)) {
    return Corrupt(path, "truncated before checksum");
  }
  const uint64_t actual = Fnv1a(data.data(), body_end);
  if (stored != actual) {
    return Corrupt(path, "checksum mismatch (stored " +
                             std::to_string(stored) + ", computed " +
                             std::to_string(actual) + ")");
  }
  if (data.size() - offset != sizeof(kEndMagic) ||
      std::memcmp(data.data() + offset, kEndMagic, sizeof(kEndMagic)) != 0) {
    return Corrupt(path, "missing end magic");
  }
  return loaded;
}

}  // namespace shard
}  // namespace dmc
