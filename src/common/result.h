// Error handling for the facility: an expected-style Result<T>.
//
// Services never throw across their public boundaries; every fallible
// operation returns Result<T> (or Result<void>). This mirrors the paper's
// message-based service interfaces, where every reply carries a status.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace rhodos {

// Error space of the facility. One flat enum keeps status codes uniform
// across layers, as the paper's uniform message semantics suggest.
enum class ErrorCode : std::uint16_t {
  kOk = 0,
  // Generic
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kPermissionDenied,
  kUnavailable,
  kInternal,
  kNotSupported,
  // Disk service
  kNoSpace,
  kBadAddress,
  kMediaError,
  kDiskCrashed,
  // File service
  kBadDescriptor,
  kFileTooLarge,
  kWrongServiceType,
  kStaleHandle,
  // Transaction service
  kLockTimeout,
  kTxnAborted,
  kTxnNotActive,
  kLockConflict,
  kDeadlockSuspected,
  kNotLocked,
  // Naming service
  kNameNotResolved,
  kAmbiguousName,
  // Network
  kMessageDropped,
  kNotConnected,
  kTimeout,  // retry/deadline budget exhausted without an answer
};

std::string_view ErrorCodeName(ErrorCode code);

// An error: code plus human-readable context.
struct Error {
  ErrorCode code{ErrorCode::kInternal};
  std::string message;

  Error() = default;
  Error(ErrorCode c, std::string msg) : code(c), message(std::move(msg)) {}

  std::string ToString() const {
    std::string out{ErrorCodeName(code)};
    if (!message.empty()) {
      out += ": ";
      out += message;
    }
    return out;
  }
};

// Result<T>: holds either a value or an Error. Minimal expected<> workalike
// (std::expected is C++23; this project targets C++20).
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : data_(std::in_place_index<0>, std::move(value)) {}
  Result(Error error) : data_(std::in_place_index<1>, std::move(error)) {}
  Result(ErrorCode code, std::string msg)
      : data_(std::in_place_index<1>, Error{code, std::move(msg)}) {}

  bool ok() const { return data_.index() == 0; }
  explicit operator bool() const { return ok(); }

  const T& value() const& {
    assert(ok());
    return std::get<0>(data_);
  }
  T& value() & {
    assert(ok());
    return std::get<0>(data_);
  }
  T&& value() && {
    assert(ok());
    return std::get<0>(std::move(data_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  const Error& error() const {
    assert(!ok());
    return std::get<1>(data_);
  }
  ErrorCode code() const { return ok() ? ErrorCode::kOk : error().code; }

  T value_or(T fallback) const& { return ok() ? value() : fallback; }

 private:
  std::variant<T, Error> data_;
};

// Result<void>: success, or an Error.
template <>
class [[nodiscard]] Result<void> {
 public:
  Result() = default;
  Result(Error error) : error_(std::move(error)) {}
  Result(ErrorCode code, std::string msg)
      : error_(Error{code, std::move(msg)}) {}

  static Result Ok() { return Result{}; }

  bool ok() const { return !error_.has_value(); }
  explicit operator bool() const { return ok(); }

  const Error& error() const {
    assert(!ok());
    return *error_;
  }
  ErrorCode code() const { return ok() ? ErrorCode::kOk : error_->code; }

 private:
  std::optional<Error> error_;
};

using Status = Result<void>;

inline Status OkStatus() { return Status{}; }

// Propagate-on-error helpers, used pervasively inside service bodies.
#define RHODOS_RETURN_IF_ERROR(expr)                \
  do {                                              \
    if (auto _st = (expr); !_st.ok()) {             \
      return ::rhodos::Error{_st.error()};          \
    }                                               \
  } while (0)

#define RHODOS_ASSIGN_OR_RETURN(lhs, expr)          \
  auto RHODOS_CONCAT_(_res_, __LINE__) = (expr);    \
  if (!RHODOS_CONCAT_(_res_, __LINE__).ok()) {      \
    return ::rhodos::Error{                         \
        RHODOS_CONCAT_(_res_, __LINE__).error()};   \
  }                                                 \
  lhs = std::move(RHODOS_CONCAT_(_res_, __LINE__)).value()

#define RHODOS_CONCAT_INNER_(a, b) a##b
#define RHODOS_CONCAT_(a, b) RHODOS_CONCAT_INNER_(a, b)

}  // namespace rhodos
