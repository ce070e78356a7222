// Lightweight Status/error-code type used across the engine.
//
// Serialization failures (SSI dangerous structures, first-updater-wins
// write conflicts, S2PL deadlocks) all map to Code::kSerializationFailure,
// mirroring PostgreSQL's SQLSTATE 40001: the client is expected to retry.
#pragma once

#include <string>
#include <utility>

namespace pgssi {

enum class Code {
  kOk = 0,
  kNotFound,
  kAlreadyExists,
  kInvalidArgument,
  kSerializationFailure,
  kBusy,
  kIOError,
  kInternal,
  // Admission-control refusal: the server is at capacity (max_sessions)
  // and declined the connection/operation outright. Retryable after a
  // backoff; the wire response carries a retry-after hint (milliseconds)
  // in its payload. Mirrors PostgreSQL's 53300 too_many_connections.
  kOverloaded,
  // Transaction step API only (Try*, db/transaction_handle.h): the
  // operation cannot complete without waiting (row-lock conflict, WAL
  // fsync in flight, DEFERRABLE safe-snapshot wait). Nothing failed —
  // re-issue the same call when Transaction::wait_token() signals. Never
  // sent on the wire; the net server parks the session instead.
  kWouldBlock,
};

class Status {
 public:
  Status() = default;
  Status(Code code, std::string msg) : code_(code), msg_(std::move(msg)) {}

  static Status OK() { return Status(); }
  static Status NotFound(std::string m = "not found") {
    return Status(Code::kNotFound, std::move(m));
  }
  static Status AlreadyExists(std::string m = "already exists") {
    return Status(Code::kAlreadyExists, std::move(m));
  }
  static Status InvalidArgument(std::string m) {
    return Status(Code::kInvalidArgument, std::move(m));
  }
  static Status SerializationFailure(std::string m) {
    return Status(Code::kSerializationFailure, std::move(m));
  }
  static Status Busy(std::string m) { return Status(Code::kBusy, std::move(m)); }
  /// WAL append/fsync failures: the transaction was aborted (nothing it
  /// wrote is visible or durable); unlike 40001 the client should not
  /// blindly retry without checking the storage layer.
  static Status IOError(std::string m) {
    return Status(Code::kIOError, std::move(m));
  }
  static Status Internal(std::string m) {
    return Status(Code::kInternal, std::move(m));
  }
  static Status Overloaded(std::string m = "server overloaded") {
    return Status(Code::kOverloaded, std::move(m));
  }
  static Status WouldBlock(std::string m = "would block") {
    return Status(Code::kWouldBlock, std::move(m));
  }

  bool ok() const { return code_ == Code::kOk; }
  Code code() const { return code_; }
  const std::string& message() const { return msg_; }
  bool IsSerializationFailure() const {
    return code_ == Code::kSerializationFailure;
  }
  bool IsWouldBlock() const { return code_ == Code::kWouldBlock; }

  std::string ToString() const {
    switch (code_) {
      case Code::kOk:
        return "OK";
      case Code::kNotFound:
        return "NotFound: " + msg_;
      case Code::kAlreadyExists:
        return "AlreadyExists: " + msg_;
      case Code::kInvalidArgument:
        return "InvalidArgument: " + msg_;
      case Code::kSerializationFailure:
        return "SerializationFailure: " + msg_;
      case Code::kBusy:
        return "Busy: " + msg_;
      case Code::kIOError:
        return "IOError: " + msg_;
      case Code::kInternal:
        return "Internal: " + msg_;
      case Code::kOverloaded:
        return "Overloaded: " + msg_;
      case Code::kWouldBlock:
        return "WouldBlock: " + msg_;
    }
    return "Unknown";
  }

 private:
  Code code_ = Code::kOk;
  std::string msg_;
};

}  // namespace pgssi
