// dmc_shard_worker: one mining worker process of the shard coordinator
// (src/shard/). Not meant to be run by hand — the coordinator fork/execs
// it with two pipe descriptors and speaks the shard protocol over them:
//
//   dmc_shard_worker --in-fd=3 --out-fd=4
//
// Exit code 0 on an orderly shutdown (kShutdown or coordinator EOF), 1 on
// a transport/protocol failure. An argument tools/cli_flags.h refuses (an
// unknown flag, a stray word, a descriptor that is not a whole number up
// to INT_MAX) or a missing --in-fd/--out-fd exits 2, as in every other
// binary, before any frame is read. The worker keeps no metrics; the
// coordinator records them from the frames it decodes. Everything
// interesting happens in shard/shard_worker.cc.

#include <climits>
#include <cstdio>
#include <string>

// Relative: the benchmark build compiles this file with only src/ on the
// include path.
#include "cli_flags.h"
#include "shard/shard_worker.h"

namespace {

constexpr dmc::cli::FlagSpec kWorkerFlags[] = {
    {"in-fd", dmc::cli::FlagKind::kUint, INT_MAX},
    {"out-fd", dmc::cli::FlagKind::kUint, INT_MAX},
};

}  // namespace

int main(int argc, char** argv) {
  const dmc::cli::Flags flags(argc, argv, /*first=*/1);
  const std::string malformed = flags.Check({kWorkerFlags});
  if (!malformed.empty()) {
    std::fprintf(stderr, "dmc_shard_worker: %s\n", malformed.c_str());
    return 2;
  }
  if (!flags.Has("in-fd") || !flags.Has("out-fd")) {
    std::fprintf(stderr,
                 "dmc_shard_worker: --in-fd and --out-fd are required\n");
    return 2;
  }
  dmc::shard::WorkerOptions options;
  options.in_fd = static_cast<int>(flags.GetUint("in-fd", 0));
  options.out_fd = static_cast<int>(flags.GetUint("out-fd", 0));
  const dmc::Status st = dmc::shard::RunShardWorker(options);
  if (!st.ok()) {
    std::fprintf(stderr, "dmc_shard_worker: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
