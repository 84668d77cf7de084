// Error-code result type for fallible operations.
//
// The attack tooling historically reported capture-file failures by
// throwing std::runtime_error from deep inside the pcap readers, which
// left callers (CLI tools, the inference pipeline) no way to distinguish
// "file missing" from "file corrupt" without string matching. Result<T>
// carries either the value or a typed Error, and the
// PacketSource implementations propagate it instead of throwing.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <variant>

namespace wm {

/// What went wrong, coarsely. Kept small on purpose: callers branch on
/// these, humans read Error::message.
enum class ErrorCode {
  kNone = 0,
  kNotFound,           // path does not exist / cannot be opened
  kUnsupportedFormat,  // file magic matches no supported capture format
  kMalformedCapture,   // recognized format, but a header/record is corrupt
  kIo,                 // read/write failure mid-operation
  kInvalidArgument,
};

inline std::string to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNone: return "ok";
    case ErrorCode::kNotFound: return "not-found";
    case ErrorCode::kUnsupportedFormat: return "unsupported-format";
    case ErrorCode::kMalformedCapture: return "malformed-capture";
    case ErrorCode::kIo: return "io-error";
    case ErrorCode::kInvalidArgument: return "invalid-argument";
  }
  return "?";
}

/// A typed failure: machine-readable code plus human-readable context.
struct Error {
  ErrorCode code = ErrorCode::kNone;
  std::string message;

  [[nodiscard]] std::string to_string() const {
    return wm::to_string(code) + ": " + message;
  }
};

/// Either a T or an Error. Implicitly constructible from both so
/// `return value;` and `return Error{...};` both work in a function
/// returning Result<T>. The class-level [[nodiscard]] makes every
/// discarded Result-returning call a compiler warning, and tools/
/// wm_lint additionally checks the attribute and known call sites.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : data_(std::in_place_index<0>, std::move(value)) {}  // NOLINT
  Result(Error error) : data_(std::in_place_index<1>, std::move(error)) {}  // NOLINT

  [[nodiscard]] static Result failure(ErrorCode code, std::string message) {
    return Result(Error{code, std::move(message)});
  }

  [[nodiscard]] bool ok() const { return data_.index() == 0; }
  explicit operator bool() const { return ok(); }

  /// Value access: only valid when ok().
  [[nodiscard]] T& value() & { return std::get<0>(data_); }
  [[nodiscard]] const T& value() const& { return std::get<0>(data_); }
  [[nodiscard]] T&& value() && { return std::get<0>(std::move(data_)); }
  T& operator*() { return value(); }
  const T& operator*() const { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  /// Error access: only valid when !ok().
  [[nodiscard]] const Error& error() const { return std::get<1>(data_); }

  [[nodiscard]] T value_or(T fallback) const& {
    return ok() ? std::get<0>(data_) : std::move(fallback);
  }

 private:
  std::variant<T, Error> data_;
};

/// Success-or-Error for fallible operations with no value to hand back.
/// Same consumption contract as Result<T>: a returned Status must be
/// inspected, never silently dropped.
class [[nodiscard]] Status {
 public:
  /// Default construction is success, so `return {};` reads naturally.
  Status() = default;
  Status(Error error) : error_(std::move(error)) {}  // NOLINT

  [[nodiscard]] static Status success() { return {}; }
  [[nodiscard]] static Status failure(ErrorCode code, std::string message) {
    return Status(Error{code, std::move(message)});
  }

  [[nodiscard]] bool ok() const { return !error_.has_value(); }
  explicit operator bool() const { return ok(); }

  /// Error access: only valid when !ok().
  [[nodiscard]] const Error& error() const { return *error_; }

 private:
  std::optional<Error> error_;
};

}  // namespace wm
