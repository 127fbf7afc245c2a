// Status: lightweight error propagation without exceptions.
//
// UniStore follows the Arrow/RocksDB idiom: fallible functions return a
// Status (or Result<T>, see result.h) instead of throwing. Exceptions are
// never thrown across module boundaries.
#ifndef UNISTORE_COMMON_STATUS_H_
#define UNISTORE_COMMON_STATUS_H_

#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace unistore {

/// Machine-readable classification of a failure.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kOutOfRange = 4,
  kUnavailable = 5,   ///< Peer dead, message lost, network partitioned.
  kTimeout = 6,       ///< A distributed operation exceeded its deadline.
  kParseError = 7,    ///< VQL text or a serialized payload was malformed.
  kCorruption = 8,    ///< Stored or received bytes failed to decode.
  kUnimplemented = 9,
  kCancelled = 10,
  kInternal = 11,
};

/// Returns a stable, human-readable name for a status code ("NotFound", ...).
std::string_view StatusCodeToString(StatusCode code);

/// \brief The result of an operation that can fail.
///
/// A Status is cheap to copy in the success case (a single pointer compare
/// against null); failure states carry a code plus a context message.
/// Typical use:
///
/// \code
///   Status DoThing() {
///     if (bad) return Status::InvalidArgument("bad thing: ", detail);
///     return Status::OK();
///   }
/// \endcode
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string message) {
    if (code != StatusCode::kOk) {
      rep_ = std::make_shared<Rep>(Rep{code, std::move(message)});
    }
  }

  /// Returns the success value.
  static Status OK() { return Status(); }

  template <typename... Args>
  static Status InvalidArgument(Args&&... args) {
    return Make(StatusCode::kInvalidArgument, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status NotFound(Args&&... args) {
    return Make(StatusCode::kNotFound, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status AlreadyExists(Args&&... args) {
    return Make(StatusCode::kAlreadyExists, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status OutOfRange(Args&&... args) {
    return Make(StatusCode::kOutOfRange, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status Unavailable(Args&&... args) {
    return Make(StatusCode::kUnavailable, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status Timeout(Args&&... args) {
    return Make(StatusCode::kTimeout, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status ParseError(Args&&... args) {
    return Make(StatusCode::kParseError, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status Corruption(Args&&... args) {
    return Make(StatusCode::kCorruption, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status Unimplemented(Args&&... args) {
    return Make(StatusCode::kUnimplemented, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status Cancelled(Args&&... args) {
    return Make(StatusCode::kCancelled, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status Internal(Args&&... args) {
    return Make(StatusCode::kInternal, std::forward<Args>(args)...);
  }

  /// True iff the operation succeeded.
  bool ok() const { return rep_ == nullptr; }

  StatusCode code() const { return rep_ ? rep_->code : StatusCode::kOk; }

  /// The context message; empty for OK statuses.
  const std::string& message() const {
    static const std::string kEmpty;
    return rep_ ? rep_->message : kEmpty;
  }

  bool IsNotFound() const { return code() == StatusCode::kNotFound; }
  bool IsTimeout() const { return code() == StatusCode::kTimeout; }
  bool IsUnavailable() const { return code() == StatusCode::kUnavailable; }
  bool IsInvalidArgument() const {
    return code() == StatusCode::kInvalidArgument;
  }

  /// "OK" or "<Code>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code() == other.code() && message() == other.message();
  }
  bool operator!=(const Status& other) const { return !(*this == other); }

 private:
  struct Rep {
    StatusCode code;
    std::string message;
  };

  template <typename... Args>
  static Status Make(StatusCode code, Args&&... args) {
    std::string message;
    (AppendToString(&message, std::forward<Args>(args)), ...);
    return Status(code, std::move(message));
  }

  static void AppendToString(std::string* out, std::string_view piece) {
    out->append(piece);
  }
  static void AppendToString(std::string* out, const char* piece) {
    out->append(piece);
  }
  static void AppendToString(std::string* out, const std::string& piece) {
    out->append(piece);
  }
  template <typename T>
  static void AppendToString(std::string* out, const T& value) {
    out->append(std::to_string(value));
  }

  // Null for OK; shared so copies are cheap.
  std::shared_ptr<const Rep> rep_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// Propagates a non-OK Status to the caller.
#define UNISTORE_RETURN_IF_ERROR(expr)               \
  do {                                               \
    ::unistore::Status _st = (expr);                 \
    if (!_st.ok()) return _st;                       \
  } while (false)

}  // namespace unistore

#endif  // UNISTORE_COMMON_STATUS_H_
