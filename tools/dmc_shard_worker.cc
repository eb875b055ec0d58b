// dmc_shard_worker: one mining worker process of the shard coordinator
// (src/shard/). Not meant to be run by hand — the coordinator fork/execs
// it with two pipe descriptors and speaks the shard protocol over them:
//
//   dmc_shard_worker --in-fd=3 --out-fd=4
//
// Exit code 0 on an orderly shutdown (kShutdown or coordinator EOF),
// 1 on a transport/protocol failure or an unknown flag. The worker keeps
// no metrics; the coordinator records them from the frames it decodes.
// Everything interesting happens in shard/shard_worker.cc.

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "shard/shard_worker.h"

namespace {

bool ParseIntFlag(const char* arg, const char* name, int* out) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = std::atoi(arg + n + 1);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  dmc::shard::WorkerOptions options;
  for (int i = 1; i < argc; ++i) {
    if (ParseIntFlag(argv[i], "--in-fd", &options.in_fd)) continue;
    if (ParseIntFlag(argv[i], "--out-fd", &options.out_fd)) continue;
    std::fprintf(stderr, "dmc_shard_worker: unknown flag %s\n", argv[i]);
    return 1;
  }
  if (options.in_fd < 0 || options.out_fd < 0) {
    std::fprintf(stderr,
                 "dmc_shard_worker: --in-fd and --out-fd are required\n");
    return 1;
  }
  const dmc::Status st = dmc::shard::RunShardWorker(options);
  if (!st.ok()) {
    std::fprintf(stderr, "dmc_shard_worker: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
