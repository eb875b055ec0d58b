// Child-process plumbing for the shard coordinator. This is the one
// translation unit allowed to call fork/execve/waitpid/kill — dmc_lint's
// banned-raw-process rule confines the raw process API to
// src/shard/process_*, the way banned-raw-socket confines sockets to
// serve/net_*.
//
// A worker child is connected by two pipes; the child sees them as fixed
// descriptors 3 (coordinator -> worker) and 4 (worker -> coordinator),
// passed on the command line as --in-fd=3 --out-fd=4 so stdout stays
// clean for human-readable logs. Both coordinator-side descriptors are
// non-blocking: the poll loop owns all progress, so a stalled or dead
// child can never wedge the coordinator in read() or write().

#ifndef DMC_SHARD_PROCESS_CONTROL_H_
#define DMC_SHARD_PROCESS_CONTROL_H_

#include <string>
#include <vector>

#include "util/status.h"
#include "util/statusor.h"

namespace dmc {
namespace shard {

/// A spawned worker and the coordinator's ends of its pipes.
struct ChildProcess {
  int pid = -1;
  /// Coordinator reads worker frames here (non-blocking).
  int read_fd = -1;
  /// Coordinator writes frames to the worker here (non-blocking).
  int write_fd = -1;
};

/// fork/execs `binary --in-fd=3 --out-fd=4` with `extra_env`
/// ("KEY=VALUE" entries appended to the inherited environment —
/// DMC_FAILPOINTS propagation rides here). Checks failpoint site
/// "shard.spawn" so spawn failures are injectable.
[[nodiscard]] StatusOr<ChildProcess> SpawnWorker(
    const std::string& binary, const std::vector<std::string>& extra_env);

/// Sends `signum` to `pid`. Missing processes are not an error (the
/// child may have exited and been reaped already).
void SignalProcess(int pid, int signum);

/// Non-blocking reap. Returns true when the child has exited (and was
/// reaped); *exit_code holds the wait status interpretation: the exit
/// code for a normal exit, 128+signal for a signal death.
bool TryReap(int pid, int* exit_code);

/// Blocking reap; call only after SIGKILL (guaranteed to terminate).
void ReapBlocking(int pid);

/// Closes both coordinator-side descriptors (idempotent).
void CloseChannel(ChildProcess* child);

}  // namespace shard
}  // namespace dmc

#endif  // DMC_SHARD_PROCESS_CONTROL_H_
