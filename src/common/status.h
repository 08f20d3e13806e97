// Lightweight Status / StatusOr for fallible operations.
//
// The simulator does not use exceptions (Google style); operations that can fail in expected
// ways (corrupted payload detected, quarantine refused, resource exhausted) return Status or
// StatusOr<T>. Programming errors go through MERCURIAL_CHECK instead.

#ifndef MERCURIAL_SRC_COMMON_STATUS_H_
#define MERCURIAL_SRC_COMMON_STATUS_H_

#include <optional>
#include <string>
#include <utility>

#include "src/common/logging.h"

namespace mercurial {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kResourceExhausted,
  kDataLoss,   // A corruption was detected (the interesting case in this project).
  kAborted,    // Computation abandoned, e.g. crashed task or exceeded retry budget.
  kInternal,
};

// Human-readable code name, e.g. "DATA_LOSS".
const char* StatusCodeName(StatusCode code);

class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message) : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const {
    if (ok()) {
      return "OK";
    }
    return std::string(StatusCodeName(code_)) + ": " + message_;
  }

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline Status InvalidArgumentError(std::string msg) {
  return Status(StatusCode::kInvalidArgument, std::move(msg));
}
inline Status NotFoundError(std::string msg) { return Status(StatusCode::kNotFound, std::move(msg)); }
inline Status AlreadyExistsError(std::string msg) {
  return Status(StatusCode::kAlreadyExists, std::move(msg));
}
inline Status FailedPreconditionError(std::string msg) {
  return Status(StatusCode::kFailedPrecondition, std::move(msg));
}
inline Status ResourceExhaustedError(std::string msg) {
  return Status(StatusCode::kResourceExhausted, std::move(msg));
}
inline Status DataLossError(std::string msg) { return Status(StatusCode::kDataLoss, std::move(msg)); }
inline Status AbortedError(std::string msg) { return Status(StatusCode::kAborted, std::move(msg)); }
inline Status InternalError(std::string msg) { return Status(StatusCode::kInternal, std::move(msg)); }

// INVALID_ARGUMENT "<name> must be in [0, 1]" unless `p` is a probability; NaN is rejected too.
Status CheckProbability(double p, const char* name);

// Value-or-error. Accessing value() on an error status is a CHECK failure.
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    MERCURIAL_CHECK(!status_.ok()) << "StatusOr constructed from OK status without a value";
  }
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    MERCURIAL_CHECK(ok()) << status_.ToString();
    return *value_;
  }
  T& value() & {
    MERCURIAL_CHECK(ok()) << status_.ToString();
    return *value_;
  }
  T&& value() && {
    MERCURIAL_CHECK(ok()) << status_.ToString();
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace mercurial

#endif  // MERCURIAL_SRC_COMMON_STATUS_H_
