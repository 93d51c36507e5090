// Status and StatusOr: the library's error-handling model.
//
// libdsf does not use C++ exceptions. Every fallible operation returns a
// Status (or a StatusOr<T> when it also produces a value). The design
// follows the conventions of Arrow / RocksDB / Abseil status types.

#ifndef DSF_UTIL_STATUS_H_
#define DSF_UTIL_STATUS_H_

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <utility>

#include "util/check.h"

namespace dsf {

// Canonical error space for libdsf operations.
enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument = 1,   // caller passed a value outside the contract
  kNotFound = 2,          // key not present
  kAlreadyExists = 3,     // key already present
  kCapacityExceeded = 4,  // file already holds N = d*M records
  kOutOfRange = 5,        // address outside [1, M] or similar
  kFailedPrecondition = 6,  // object state does not permit the call
  kCorruption = 7,          // an internal invariant was found broken
  kInternal = 8,            // unexpected algorithmic state
  kIoError = 9,             // a page access failed (injected or device fault)
  kResourceExhausted = 10,  // a bounded resource (e.g. the staging
                            // buffer) is full and none can be reclaimed
};

// Returns the canonical spelling of `code` ("OK", "NotFound", ...).
const char* StatusCodeToString(StatusCode code);

// A Status is either OK (the common, cheap case) or an error code with a
// human-readable message. Copyable and movable; OK carries no allocation.
//
// The class itself is [[nodiscard]]: any function returning a Status by
// value warns (and fails the DSF_ANALYZE build) when the caller drops the
// result. The rare genuine don't-care sites say so explicitly with
// IgnoreStatus() below.
class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status CapacityExceeded(std::string msg) {
    return Status(StatusCode::kCapacityExceeded, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsAlreadyExists() const { return code_ == StatusCode::kAlreadyExists; }
  bool IsCapacityExceeded() const {
    return code_ == StatusCode::kCapacityExceeded;
  }
  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsIoError() const { return code_ == StatusCode::kIoError; }
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }

  // "OK" or "<Code>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

// StatusOr<T> holds either a T or a non-OK Status. Access to the value of
// a non-OK StatusOr aborts the process (there are no exceptions to throw).
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  // Intentionally implicit, so `return value;` and `return status;` both
  // work inside functions returning StatusOr<T>.
  StatusOr(T value)  // NOLINT(google-explicit-constructor)
      : status_(Status::OK()), value_(std::move(value)) {}
  StatusOr(Status status)  // NOLINT(google-explicit-constructor)
      : status_(std::move(status)) {
    DSF_CHECK(!status_.ok()) << "StatusOr constructed from OK status";
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    DSF_CHECK(ok()) << "value() on error StatusOr: " << status_.ToString();
    return *value_;
  }
  T& value() & {
    DSF_CHECK(ok()) << "value() on error StatusOr: " << status_.ToString();
    return *value_;
  }
  T&& value() && {
    DSF_CHECK(ok()) << "value() on error StatusOr: " << status_.ToString();
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

// Explicitly discards a Status (or StatusOr) at a genuine don't-care
// site: best-effort cleanup, a sweep whose outcome is checked elsewhere,
// an error already recorded through another channel. Grep-able, unlike a
// bare (void) cast, so the static-analysis linter can audit every site.
inline void IgnoreStatus(const Status& status) { (void)status; }
template <typename T>
void IgnoreStatus(const StatusOr<T>& status_or) {
  (void)status_or;
}

// Propagates a non-OK status out of the current function.
#define DSF_RETURN_IF_ERROR(expr)                \
  do {                                           \
    ::dsf::Status _dsf_status = (expr);          \
    if (!_dsf_status.ok()) return _dsf_status;   \
  } while (false)

}  // namespace dsf

#endif  // DSF_UTIL_STATUS_H_
