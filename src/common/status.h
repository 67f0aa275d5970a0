// Lightweight status / result types used at fallible API boundaries
// (SQL parsing, binding, middleware entry points).  Internal engine code
// throws EngineError for invariant violations; the middleware converts
// escaped exceptions into a Status so that library consumers never see
// exceptions cross the public API (RocksDB-style Status discipline).
#ifndef PERIODK_COMMON_STATUS_H_
#define PERIODK_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace periodk {

/// Error taxonomy for the library.  kOk is represented by Status::OK().
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kParseError,
  kBindError,
  kNotFound,
  kAlreadyExists,
  kUnsupported,
  kResourceExhausted,
  kInternal,
};

/// Returns a human-readable name for a status code (e.g. "ParseError").
const char* StatusCodeName(StatusCode code);

/// Result of a fallible operation: a code plus a message.  Cheap to copy
/// in the OK case (empty message).  [[nodiscard]] at class level: a
/// dropped Status is a swallowed error, so every compiler flags the
/// discard site (tools/periodk_lint.py additionally enforces the
/// per-declaration markers as documentation).
class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  [[nodiscard]] static Status OK() { return Status(); }
  [[nodiscard]] static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  [[nodiscard]] static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  [[nodiscard]] static Status BindError(std::string msg) {
    return Status(StatusCode::kBindError, std::move(msg));
  }
  [[nodiscard]] static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  [[nodiscard]] static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  [[nodiscard]] static Status Unsupported(std::string msg) {
    return Status(StatusCode::kUnsupported, std::move(msg));
  }
  /// A per-query resource budget ran out (e.g. a SplitBudgetScope
  /// fragment budget); the benches report it as the paper's timeout.
  [[nodiscard]] static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  [[nodiscard]] static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// A value or an error.  Modeled after absl::StatusOr / arrow::Result.
/// [[nodiscard]] like Status: discarding a Result loses the error.
template <typename T>
class [[nodiscard]] Result {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor): implicit by design.
  Result(T value) : value_(std::move(value)) {}
  // NOLINTNEXTLINE(google-explicit-constructor): implicit by design.
  Result(Status status) : status_(std::move(status)) {
    assert(!status_.ok() && "Result(Status) requires a non-OK status");
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::optional<T> value_;
  Status status_;
};

/// Internal engine failure.  Thrown by execution code on invariant
/// violations (e.g. type mismatch that escaped binding); converted to
/// Status::Internal at the middleware boundary.
class EngineError : public std::runtime_error {
 public:
  explicit EngineError(const std::string& what) : std::runtime_error(what) {}
};

}  // namespace periodk

#endif  // PERIODK_COMMON_STATUS_H_
