// Blocking wire client for the session server.
//
// WireClient owns one TCP connection = one server-side session. Call()
// is one round trip: it writes a request frame, then blocks for its
// response. Send()/Receive() pipeline: Send writes a whole flight of
// frames, and each Receive returns the next response in request order
// (the server answers in request order, and a parked session simply
// delays the response — the client never sees kWouldBlock). Responses
// are parsed out of large buffered reads. WireTxn queues a
// transaction's statements and sends each flight with one Send, so a
// DBT-2 new_order costs 3 round trips (Begin, its reads, its writes
// with the Commit) instead of 16. NOT thread-safe; one thread per
// client, which is exactly the shape the workload drivers use to put
// many connections over few server workers.
//
// Degradation behavior:
//  - a kOverloaded response (admission refusal) surfaces as
//    Status::Overloaded with the server's retry-after hint readable via
//    last_retry_after_ms(); the connection is spent (server closed it).
//  - WireDbClient::Begin auto-retries overload refusals and transport
//    failures with capped exponential backoff + jitter, reconnecting as
//    needed (safe: Begin carries no transaction state yet). Transaction
//    BODIES are retried by the workload driver's RetryPolicy, not here.
//
// Client-side chaos failpoints (util/failpoint.h), independent of the
// server's: "wireclient_write_err" (request write fails outright),
// "wireclient_torn_write" (half the frame reaches the server, then the
// socket dies — the server must cope with the truncated frame),
// "wireclient_read_err" (response lost after the server processed the
// request — for commits, the classic ambiguous-ack window).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "db/config.h"
#include "net/wire.h"
#include "util/status.h"
#include "util/types.h"
#include "workload/client.h"

namespace pgssi::net {

class WireClient {
 public:
  WireClient() = default;
  ~WireClient();
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  Status Connect(const std::string& host, uint16_t port);
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// One RPC: sends `req`, blocks for the matching response. On success
  /// `*payload` holds the op-specific result bytes; on engine error the
  /// returned Status carries the server's code and message. An IOError
  /// means the connection is dead (Close()d as a side effect).
  Status Call(const Request& req, std::string* payload);

  /// Pipelining: writes whole request frames (one round trip; responses
  /// that arrive while a long flight is still being written are
  /// buffered, since the server stops reading a connection whose
  /// responses go unread). Returns the transport status; on failure the
  /// connection is Close()d.
  Status Send(std::string_view frames);
  /// Reads the next response: `*reply` gets the server's status and, on
  /// success, `*payload` (optional) its result bytes. Returns the
  /// transport status; on failure the connection is Close()d.
  Status Receive(Status* reply, std::string* payload);

  /// Send() calls so far: every round trip, Call()s included.
  uint64_t round_trips() const {
    return round_trips_.load(std::memory_order_relaxed);
  }

  // ----- typed convenience wrappers -----
  Status Ping();
  /// Open-or-create: sets `*id` on both kOk and kAlreadyExists.
  Status CreateTable(const std::string& name, TableId* id);
  Status OpenTable(const std::string& name, TableId* id);
  Status Begin(const TxnOptions& opts = {});
  Status Get(TableId table, const std::string& key, std::string* value);
  Status Put(TableId table, const std::string& key, const std::string& value);
  Status Insert(TableId table, const std::string& key,
                const std::string& value);
  Status Delete(TableId table, const std::string& key);
  Status Scan(TableId table, const std::string& lo, const std::string& hi,
              std::vector<std::pair<std::string, std::string>>* out);
  Status Count(TableId table, const std::string& lo, const std::string& hi,
               uint64_t* n);
  Status Commit();
  Status Abort();

  /// Retry-after hint (ms) from the most recent kOverloaded response.
  uint32_t last_retry_after_ms() const { return last_retry_after_ms_; }

 private:
  // Reads once into the inbound buffer (blocking).
  Status Fill();
  Status Fail(Status st);  // Close()s, returns st

  int fd_ = -1;
  uint32_t last_retry_after_ms_ = 0;
  // Inbound bytes not yet parsed: in_[in_begin_, in_end_).
  std::vector<char> in_;
  size_t in_begin_ = 0;
  size_t in_end_ = 0;
  std::atomic<uint64_t> round_trips_{0};  // read by other threads
};

// ----- workload::DbClient over the wire -----

/// One server-side transaction on a borrowed connection. Destruction
/// sends kAbort unless Commit/Abort was called (matching EmbeddedTxn).
/// Queued statements are encoded into one outbound buffer and sent as
/// one flight by Sync(); a transport failure mid-flight reports kIOError
/// for every statement whose response had not arrived. A transaction
/// destroyed with statements still queued runs them first (the embedded
/// client ran them when they were queued), without delivering results.
class WireTxn final : public workload::DbTxn {
 public:
  explicit WireTxn(WireClient* c) : c_(c) {}
  ~WireTxn() override;

  Status Get(TableId table, const std::string& key,
             std::string* value) override {
    return c_->Get(table, key, value);
  }
  Status Put(TableId table, const std::string& key,
             const std::string& value) override {
    return c_->Put(table, key, value);
  }
  Status Insert(TableId table, const std::string& key,
                const std::string& value) override {
    return c_->Insert(table, key, value);
  }
  Status Delete(TableId table, const std::string& key) override {
    return c_->Delete(table, key);
  }
  Status Scan(TableId table, const std::string& lo, const std::string& hi,
              std::vector<std::pair<std::string, std::string>>* out) override {
    return c_->Scan(table, lo, hi, out);
  }
  Status Count(TableId table, const std::string& lo, const std::string& hi,
               uint64_t* n) override {
    return c_->Count(table, lo, hi, n);
  }
  Status Commit() override {
    finished_ = true;
    return c_->Commit();
  }
  Status Abort() override {
    finished_ = true;
    return c_->Abort();
  }
  Status Sync() override;
  bool pipelined() const override { return true; }

 protected:
  void Issue(const Stmt& s) override;

 private:
  struct Pending {
    Stmt::Kind kind;
    std::string* get_out;
    uint64_t* count_out;
    Status* status;
  };

  WireClient* c_;
  bool finished_ = false;
  std::string frames_;  // the unsent flight
  std::vector<Pending> pending_;
};

/// Connection-level retry shape for WireDbClient::Begin: capped
/// exponential backoff with jitter. Retries cover overload refusals
/// (waiting at least the server's retry-after hint) and transport
/// failures; max_attempts = 1 disables retrying entirely.
struct WireRetryPolicy {
  uint32_t max_attempts = 8;
  uint64_t base_backoff_us = 500;
  uint64_t max_backoff_us = 50'000;
};

/// Connection-per-driver-thread wire client: every thread that calls
/// Begin/CreateTable/GetTableId gets its own lazily-opened connection
/// (= its own server-side session), so a driver with 32 threads puts 32
/// connections over however few workers the server runs. A thread whose
/// connection died is transparently reconnected on the next Begin.
class WireDbClient final : public workload::DbClient {
 public:
  WireDbClient(std::string host, uint16_t port, WireRetryPolicy retry = {})
      : host_(std::move(host)), port_(port), retry_(retry) {}

  Status CreateTable(const std::string& name, TableId* id) override;
  TableId GetTableId(const std::string& name) override;
  /// Null only when every retry attempt was exhausted (connection
  /// cannot be established, refusals persisted) or Begin failed with a
  /// non-retryable engine error.
  std::unique_ptr<workload::DbTxn> Begin(const TxnOptions& opts) override;

  /// kOverloaded refusals absorbed by Begin's backoff loop.
  uint64_t overload_refusals() const {
    return overload_refusals_.load(std::memory_order_relaxed);
  }
  /// Re-Connect() calls after a dead or refused connection.
  uint64_t reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }
  /// Round trips over every connection this client opened.
  uint64_t round_trips();

 private:
  // This thread's connection, opened on first use (null on connect
  // failure). A cached-but-dead connection is re-dialed here.
  WireClient* Conn();

  std::string host_;
  uint16_t port_;
  WireRetryPolicy retry_;
  std::mutex mu_;
  std::unordered_map<std::thread::id, std::unique_ptr<WireClient>> conns_;
  std::atomic<uint64_t> overload_refusals_{0};
  std::atomic<uint64_t> reconnects_{0};
};

}  // namespace pgssi::net
