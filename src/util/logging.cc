#include "util/logging.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "util/thread_annotations.h"

namespace dmc {

namespace {
// The lowest level DMC_LOG writes.
constexpr LogLevel kMinLevel = LogLevel::kInfo;

// Serializes stderr emission so log lines from parallel shards can
// never interleave. Constant-initialized (std::mutex ctor is constexpr),
// so it is usable from any static destructor ordering.
Mutex g_stderr_mu;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

double SecondsSinceStart() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point start = Clock::now();
  return std::chrono::duration<double>(Clock::now() - start).count();
}
}  // namespace

namespace internal_logging {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  stream_ << "[" << LevelName(level) << " " << file << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  if (level_ < kMinLevel) return;
  const double elapsed = SecondsSinceStart();
  MutexLock lock(g_stderr_mu);
  std::fprintf(stderr, "%9.3f %s\n", elapsed, stream_.str().c_str());
}

FatalLogMessage::FatalLogMessage(const char* file, int line,
                                 const char* condition) {
  stream_ << "[FATAL " << file << ":" << line << "] Check failed: "
          << condition << " ";
}

FatalLogMessage::~FatalLogMessage() {
  {
    MutexLock lock(g_stderr_mu);
    std::fprintf(stderr, "%s\n", stream_.str().c_str());
  }
  std::abort();
}

}  // namespace internal_logging

}  // namespace dmc
