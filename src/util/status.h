// Minimal Status / error-code type used across the DMC library.
//
// The library does not use exceptions (matching the style of large C++
// database codebases); fallible operations return Status or StatusOr<T>.

#ifndef DMC_UTIL_STATUS_H_
#define DMC_UTIL_STATUS_H_

#include <ostream>
#include <string>
#include <utility>

namespace dmc {

// Broad error categories, deliberately small. Mirrors the usual
// absl/leveldb vocabulary that downstream users expect.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kIOError = 3,
  kResourceExhausted = 4,
  kFailedPrecondition = 5,
  kInternal = 6,
  kUnimplemented = 7,
  kCancelled = 8,
  /// Unrecoverable corruption or truncation of persisted data (bad
  /// checksum, malformed checkpoint, torn file).
  kDataLoss = 9,
};

/// Returns a stable human-readable name for `code` ("OK", "InvalidArgument",
/// ...).
const char* StatusCodeToString(StatusCode code);

/// Value-type status: either OK, or an error code plus message.
///
/// Cheap to copy in the OK case (no allocation); error states carry a
/// std::string message.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }

  [[nodiscard]] bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

// Factory helpers, one per error category.
Status InvalidArgumentError(std::string message);
Status NotFoundError(std::string message);
Status IOError(std::string message);
Status ResourceExhaustedError(std::string message);
Status FailedPreconditionError(std::string message);
Status InternalError(std::string message);
Status CancelledError(std::string message);
Status DataLossError(std::string message);

/// Propagates a non-OK status to the caller. Usable only in functions
/// returning Status.
#define DMC_RETURN_IF_ERROR(expr)              \
  do {                                         \
    ::dmc::Status _dmc_status = (expr);        \
    if (!_dmc_status.ok()) return _dmc_status; \
  } while (false)

}  // namespace dmc

#endif  // DMC_UTIL_STATUS_H_
