// Lightweight error-handling type used throughout L-Store.
//
// L-Store follows the convention of mature storage engines (RocksDB,
// Arrow): no exceptions on hot paths; every fallible operation returns
// a `Status` that callers must inspect.

#ifndef LSTORE_COMMON_STATUS_H_
#define LSTORE_COMMON_STATUS_H_

#include <string>
#include <string_view>
#include <utility>

namespace lstore {

/// Result of a fallible operation.
///
/// A default-constructed Status is OK. Error statuses carry a code and
/// a human-readable message. The class is cheap to copy for the OK
/// case (no allocation).
class Status {
 public:
  enum class Code : unsigned char {
    kOk = 0,
    kNotFound,        ///< key or version does not exist / not visible
    kAlreadyExists,   ///< duplicate primary key on insert
    kAborted,         ///< transaction aborted (write-write conflict,
                      ///< failed validation, or explicit abort)
    kInvalidArgument, ///< malformed request (bad column id, arity, ...)
    kIOError,         ///< log file I/O failure
    kCorruption,      ///< log replay / checksum failure
    kNotSupported,    ///< feature disabled by configuration
    kBusy,            ///< resource momentarily unavailable
  };

  Status() = default;

  static Status OK() { return Status(); }
  static Status NotFound(std::string_view msg = "") {
    return Status(Code::kNotFound, msg);
  }
  static Status AlreadyExists(std::string_view msg = "") {
    return Status(Code::kAlreadyExists, msg);
  }
  static Status Aborted(std::string_view msg = "") {
    return Status(Code::kAborted, msg);
  }
  static Status InvalidArgument(std::string_view msg = "") {
    return Status(Code::kInvalidArgument, msg);
  }
  static Status IOError(std::string_view msg = "") {
    return Status(Code::kIOError, msg);
  }
  static Status Corruption(std::string_view msg = "") {
    return Status(Code::kCorruption, msg);
  }
  static Status NotSupported(std::string_view msg = "") {
    return Status(Code::kNotSupported, msg);
  }
  static Status Busy(std::string_view msg = "") {
    return Status(Code::kBusy, msg);
  }
  /// Rebuild a status from its code and message (e.g. off the wire).
  static Status FromCode(Code code, std::string_view msg = "") {
    return Status(code, msg);
  }

  bool ok() const { return code_ == Code::kOk; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsAlreadyExists() const { return code_ == Code::kAlreadyExists; }
  bool IsAborted() const { return code_ == Code::kAborted; }
  bool IsInvalidArgument() const { return code_ == Code::kInvalidArgument; }
  bool IsIOError() const { return code_ == Code::kIOError; }
  bool IsCorruption() const { return code_ == Code::kCorruption; }
  bool IsBusy() const { return code_ == Code::kBusy; }

  Code code() const { return code_; }
  const std::string& message() const { return msg_; }

  /// Human-readable rendering, e.g. "Aborted: write-write conflict".
  std::string ToString() const {
    if (ok()) return "OK";
    std::string out = CodeName(code_);
    if (!msg_.empty()) {
      out += ": ";
      out += msg_;
    }
    return out;
  }

 private:
  Status(Code code, std::string_view msg) : code_(code), msg_(msg) {}

  static const char* CodeName(Code c) {
    switch (c) {
      case Code::kOk: return "OK";
      case Code::kNotFound: return "NotFound";
      case Code::kAlreadyExists: return "AlreadyExists";
      case Code::kAborted: return "Aborted";
      case Code::kInvalidArgument: return "InvalidArgument";
      case Code::kIOError: return "IOError";
      case Code::kCorruption: return "Corruption";
      case Code::kNotSupported: return "NotSupported";
      case Code::kBusy: return "Busy";
    }
    return "Unknown";
  }

  Code code_ = Code::kOk;
  std::string msg_;
};

/// Propagate a non-OK status to the caller.
#define LSTORE_RETURN_IF_ERROR(expr)            \
  do {                                          \
    ::lstore::Status _s = (expr);               \
    if (!_s.ok()) return _s;                    \
  } while (0)

}  // namespace lstore

#endif  // LSTORE_COMMON_STATUS_H_
