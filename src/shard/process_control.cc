#include "shard/process_control.h"

#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <string.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>

#include "serve/net_socket.h"
#include "util/failpoint.h"

extern char** environ;

namespace dmc {
namespace shard {

namespace {

/// The descriptors the child sees, by convention of the worker CLI.
constexpr int kChildInFd = 3;
constexpr int kChildOutFd = 4;

void CloseQuietly(int fd) {
  if (fd >= 0) close(fd);
}

}  // namespace

StatusOr<ChildProcess> SpawnWorker(const std::string& binary,
                                   const std::vector<std::string>& extra_env) {
  // A worker that dies mid-frame leaves the coordinator writing into a
  // readerless pipe; without this, that write raises SIGPIPE and kills
  // the coordinator instead of surfacing EPIPE to the respawn logic.
  static const bool sigpipe_ignored = [] {
    signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)sigpipe_ignored;

  if (fail::Enabled()) {
    DMC_RETURN_IF_ERROR(fail::InjectStatus("shard.spawn"));
  }

  // to_child: coordinator writes [1], child reads [0] as fd 3.
  // from_child: child writes [1] as fd 4, coordinator reads [0].
  int to_child[2] = {-1, -1};
  int from_child[2] = {-1, -1};
  if (pipe(to_child) != 0) {
    return IOError(std::string("pipe: ") + strerror(errno));
  }
  if (pipe(from_child) != 0) {
    const int saved = errno;
    CloseQuietly(to_child[0]);
    CloseQuietly(to_child[1]);
    return IOError(std::string("pipe: ") + strerror(saved));
  }

  // argv/envp must be materialized before fork: only async-signal-safe
  // calls are allowed between fork and exec in a multithreaded parent.
  std::vector<std::string> argv_storage;
  argv_storage.push_back(binary);
  argv_storage.push_back("--in-fd=" + std::to_string(kChildInFd));
  argv_storage.push_back("--out-fd=" + std::to_string(kChildOutFd));
  std::vector<char*> argv;
  argv.reserve(argv_storage.size() + 1);
  for (auto& a : argv_storage) argv.push_back(a.data());
  argv.push_back(nullptr);

  std::vector<std::string> env_storage;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    env_storage.emplace_back(*e);
  }
  for (const auto& e : extra_env) env_storage.push_back(e);
  std::vector<char*> envp;
  envp.reserve(env_storage.size() + 1);
  for (auto& e : env_storage) envp.push_back(e.data());
  envp.push_back(nullptr);

  const pid_t pid = fork();
  if (pid < 0) {
    const int saved = errno;
    CloseQuietly(to_child[0]);
    CloseQuietly(to_child[1]);
    CloseQuietly(from_child[0]);
    CloseQuietly(from_child[1]);
    return IOError(std::string("fork: ") + strerror(saved));
  }

  if (pid == 0) {
    // Child: move the pipe ends onto the conventional descriptors and
    // exec. Everything here must be async-signal-safe.
    close(to_child[1]);
    close(from_child[0]);
    // The pipe ends can land anywhere — including on 3/4 themselves
    // when the parent's low descriptors are taken (ctest, daemons).
    // Naively dup2-ing both and then closing the originals can close a
    // descriptor just placed (e.g. to_child[0]==4: after from_child[1]
    // is dup2'ed onto 4, closing to_child[0] destroys it). Move any
    // end squatting on a target slot out of the way first, then
    // relocate one pipe at a time, closing its original before the
    // next dup2 can reuse that number.
    if (from_child[1] == kChildInFd) {
      const int moved = fcntl(from_child[1], F_DUPFD, kChildOutFd + 1);
      if (moved < 0) _exit(127);
      close(from_child[1]);
      from_child[1] = moved;
    }
    if (to_child[0] != kChildInFd) {
      if (dup2(to_child[0], kChildInFd) < 0) _exit(127);
      close(to_child[0]);
    }
    if (from_child[1] != kChildOutFd) {
      if (dup2(from_child[1], kChildOutFd) < 0) _exit(127);
      close(from_child[1]);
    }
    execve(binary.c_str(), argv.data(), envp.data());
    _exit(127);
  }

  // Parent.
  close(to_child[0]);
  close(from_child[1]);
  // The coordinator's event loop relies on these fds never blocking; a
  // blocking descriptor would stall the whole fleet, so an fcntl
  // failure here aborts the spawn instead of limping on.
  const Status nb_write = net::SetNonBlocking(to_child[1]);
  const Status nb_read =
      nb_write.ok() ? net::SetNonBlocking(from_child[0]) : nb_write;
  if (!nb_read.ok()) {
    kill(pid, SIGKILL);
    ReapBlocking(static_cast<int>(pid));
    CloseQuietly(to_child[1]);
    CloseQuietly(from_child[0]);
    return nb_read;
  }

  ChildProcess child;
  child.pid = static_cast<int>(pid);
  child.read_fd = from_child[0];
  child.write_fd = to_child[1];
  return child;
}

void SignalProcess(int pid, int signum) {
  if (pid > 0) kill(static_cast<pid_t>(pid), signum);
}

bool TryReap(int pid, int* exit_code) {
  if (pid <= 0) return false;
  int status = 0;
  const pid_t r = waitpid(static_cast<pid_t>(pid), &status, WNOHANG);
  if (r != pid) return false;
  if (exit_code != nullptr) {
    if (WIFEXITED(status)) {
      *exit_code = WEXITSTATUS(status);
    } else if (WIFSIGNALED(status)) {
      *exit_code = 128 + WTERMSIG(status);
    } else {
      *exit_code = -1;
    }
  }
  return true;
}

void ReapBlocking(int pid) {
  if (pid <= 0) return;
  int status = 0;
  while (waitpid(static_cast<pid_t>(pid), &status, 0) < 0 &&
         errno == EINTR) {
  }
}

void CloseChannel(ChildProcess* child) {
  CloseQuietly(child->read_fd);
  CloseQuietly(child->write_fd);
  child->read_fd = -1;
  child->write_fd = -1;
}

}  // namespace shard
}  // namespace dmc
