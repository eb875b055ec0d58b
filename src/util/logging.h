// Lightweight logging and assertion macros.
//
// DMC_CHECK(cond) aborts with a message when `cond` is false — used for
// programming-error invariants (never for data-dependent failures, which
// return Status). DMC_LOG(level) writes a timestamped line to stderr;
// kDebug lines are dropped.

#ifndef DMC_UTIL_LOGGING_H_
#define DMC_UTIL_LOGGING_H_

#include <cstdint>
#include <sstream>
#include <string>

namespace dmc {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

namespace internal_logging {

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

// Aborts the process in the destructor, after flushing the message.
class FatalLogMessage {
 public:
  FatalLogMessage(const char* file, int line, const char* condition);
  [[noreturn]] ~FatalLogMessage();

  FatalLogMessage(const FatalLogMessage&) = delete;
  FatalLogMessage& operator=(const FatalLogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

// Swallows the streamed expression when a log statement is disabled.
struct NullStream {
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

}  // namespace internal_logging

#define DMC_LOG(level)                                                \
  ::dmc::internal_logging::LogMessage(::dmc::LogLevel::k##level,      \
                                      __FILE__, __LINE__)             \
      .stream()

#define DMC_CHECK(condition)                                          \
  (condition) ? (void)0                                               \
              : ::dmc::internal_logging::Voidify() &                  \
                    ::dmc::internal_logging::FatalLogMessage(         \
                        __FILE__, __LINE__, #condition)               \
                        .stream()

#define DMC_CHECK_EQ(a, b) DMC_CHECK((a) == (b))
#define DMC_CHECK_NE(a, b) DMC_CHECK((a) != (b))
#define DMC_CHECK_LT(a, b) DMC_CHECK((a) < (b))
#define DMC_CHECK_LE(a, b) DMC_CHECK((a) <= (b))
#define DMC_CHECK_GT(a, b) DMC_CHECK((a) > (b))
#define DMC_CHECK_GE(a, b) DMC_CHECK((a) >= (b))

namespace internal_logging {

// Allows DMC_CHECK to appear where a void expression is required while
// still supporting `DMC_CHECK(x) << "detail"`.
struct Voidify {
  void operator&(std::ostream&) {}
};

}  // namespace internal_logging

}  // namespace dmc

#endif  // DMC_UTIL_LOGGING_H_
