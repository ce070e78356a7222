// Async session server: epoll front end over a worker pool.
//
// Architecture — a connection is a state machine, not a thread:
//
//   epoll thread (exactly one)           worker pool (N threads)
//   ------------------------------       ---------------------------
//   accept / refuse                      pop conn from run queue
//   read sockets, parse frames     --->  execute queued ops via the
//   into per-conn op queues              Transaction step API (Try*)
//   flush per-conn write buffers   <---  append response frames,
//   parked-session deadline ticks        nudge the epoll thread once
//                                        the op queue drains or halves
//                                        (or on write pause / park /
//                                        close)
//
// Per-session state machine: idle -> in-txn -> awaiting-lock /
// committing -> in-txn -> idle. A session whose step returns
// kWouldBlock is PARKED: the worker registers a wake callback on the
// step's wait token (a lock-table release, a WAL fsync completion, or
// a read-write transaction finishing under a DEFERRABLE begin requeues
// the connection) and moves on to another session. The epoll thread's
// deadline tick enforces the lock-wait and commit-gate deadlines and
// recovers swallowed wakes — a wake is only permission to retry, so a
// spurious requeue costs one re-poll.
//
// Scheduling invariant: at most one worker executes a given session at
// a time (a Transaction is not internally synchronized). Conn::sched is a
// 4-state atomic (idle/queued/running/running-requeue): Enqueue CASes
// idle->queued and pushes; a wake hitting a RUNNING conn sets
// running-requeue and the worker loops the conn back itself.
//
// Backpressure — responses are never dropped:
//  - ops: more than `backpressure_ops` parsed-but-unexecuted ops stops
//    the epoll thread from reading that socket (EPOLLIN disarmed) until
//    the worker drains half the queue;
//  - bytes: a write buffer above `write_queue_bytes` (slow reader)
//    pauses op EXECUTION for that session; the epoll thread resumes it
//    once the buffer half-drains.
//
// Lock order (see README table): run-queue mutex and per-conn mutexes
// are LEAVES — no engine lock is ever taken while holding one, and
// wait-token callbacks (which take the run-queue mutex) are always
// invoked with every engine mutex released.
//
// Shutdown: Stop() stops intake, joins workers, joins the epoll
// thread, then single-threadedly aborts every in-flight transaction
// (parked sessions included) and closes the sockets — all before the
// Database may be destroyed.
//
// Degradation (see README "Degradation & retry"):
//  - over max_sessions, accept answers with a kOverloaded frame
//    carrying a retry-after hint (ms) and closes — a refusal is a
//    protocol message, not a silent RST;
//  - sessions idle inside a transaction past idle_in_txn_timeout_us are
//    sent a best-effort error frame, aborted, and torn down, so a
//    vanished client cannot pin OldestActiveSnapshot (off by default);
//  - every event mask carries EPOLLRDHUP, so a half-open connection is
//    caught even while read backpressure has EPOLLIN disarmed.
//
// Chaos failpoints (util/failpoint.h), all counted in
// Stats::faults_injected: "net_accept_refuse" (forced overload refusal),
// "net_read_err" (inbound read becomes a hangup), "net_write_short"
// (frame write truncated to 1 byte this pass — retried, never dropped),
// "net_flush_stall" (flush deferred one loop), "net_drop_before_exec" /
// "net_drop_parked" / "net_drop_after_commit" (connection killed before
// an op runs / instead of parking / after a commit succeeded but before
// its response is flushed — the ack-loss window), "net_wake_delay"
// (token wake swallowed; the deadline tick must recover the session).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "db/transaction_handle.h"
#include "net/wire.h"
#include "util/status.h"

namespace pgssi::net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; read the bound port via port()
  // 0 = the default: EngineConfig's net_workers / net_max_sessions, and
  // Server::kBackpressureOps / kWriteQueueBytes.
  uint32_t workers = 0;
  uint32_t max_sessions = 0;
  uint32_t backpressure_ops = 0;
  uint32_t write_queue_bytes = 0;
};

class Server {
 public:
  /// Per-connection backpressure defaults (see the header comment):
  /// parsed-but-unexecuted ops before the socket stops being read, and
  /// queued outbound bytes before op execution pauses (the kernel
  /// socket buffer plus this bound total memory per slow client).
  static constexpr uint32_t kBackpressureOps = 32;
  static constexpr uint32_t kWriteQueueBytes = 256 * 1024;

  /// `db` is borrowed and must outlive the server (destroy order:
  /// server first — its Stop() drains the sessions the Database's
  /// destruction contract requires gone).
  Server(Database* db, ServerOptions opts);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  Status Start();
  /// Idempotent. Safe with live parked sessions: their transactions are
  /// aborted during teardown.
  void Stop();

  /// Bound listen port (after Start).
  uint16_t port() const { return port_; }

  struct Stats {
    uint64_t accepted = 0;
    uint64_t refused = 0;        // over max_sessions (kOverloaded frame sent)
    uint64_t ops_executed = 0;   // completed ops (responses written)
    uint64_t would_blocks = 0;   // parks (lock waits + commit gate + def)
    uint64_t read_pauses = 0;    // op-queue backpressure engagements
    uint64_t write_pauses = 0;   // slow-reader backpressure engagements
    uint64_t shutdown_aborts = 0;  // in-flight txns aborted by Stop
    uint64_t idle_reaped = 0;    // idle-in-txn sessions torn down by sweep
    uint64_t rdhup_closes = 0;   // half-open conns caught by EPOLLRDHUP
                                 // while EPOLLIN was disarmed (backpressure)
    uint64_t faults_injected = 0;  // net_* failpoint fires inside the server
  };
  Stats stats() const;
  size_t active_sessions() const;

 private:
  struct Conn;
  using ConnPtr = std::shared_ptr<Conn>;

  void EpollLoop();
  void WorkerLoop();
  void Enqueue(const ConnPtr& c);
  void RunConn(const ConnPtr& c);
  // Executes one parsed request; returns false when the op would-block
  // (parked; do not pop it).
  bool ExecuteOp(const ConnPtr& c, const Request& req);
  void AcceptPending();
  void HandleReadable(const ConnPtr& c);
  void FlushWrites(const ConnPtr& c);
  void CloseConn(const ConnPtr& c);  // epoll thread only
  void NudgeEpoll(const ConnPtr& c);
  void TickParked();
  // idle_in_txn_timeout_us sweep: tears down connections that hold an
  // open transaction but have gone silent (epoll thread only).
  void ReapIdleInTxn(uint64_t now);
  // Failpoint wrapper that also counts the fire in faults_injected.
  bool NetFault(const char* name);

  Database* db_;
  ServerOptions opts_;
  uint64_t park_interval_us_ = 0;
  uint64_t idle_txn_timeout_us_ = 0;
  uint32_t overload_retry_after_ms_ = 0;
  uint64_t next_idle_sweep_us_ = 0;  // epoll thread only

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd mailbox: workers -> epoll thread
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::thread epoll_thread_;
  std::vector<std::thread> workers_;

  // Run queue (leaf mutex; wait-token callbacks push here).
  std::mutex run_mu_;
  std::condition_variable run_cv_;
  std::deque<ConnPtr> run_queue_;

  // Live connections, keyed by fd — O(1) event dispatch under
  // connection storms. Epoll thread only (no mutex) while running;
  // Stop() touches it only after the epoll thread is joined.
  std::unordered_map<int, ConnPtr> conns_;

  // Attention list: conns whose write buffers the epoll thread should
  // flush / whose EPOLLIN wants re-arming (leaf mutex).
  std::mutex attn_mu_;
  std::vector<std::weak_ptr<Conn>> attn_;

  // Parked sessions awaiting their deadline tick (leaf mutex).
  std::mutex parked_mu_;
  std::vector<std::weak_ptr<Conn>> parked_;

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> refused_{0};
  std::atomic<uint64_t> ops_executed_{0};
  std::atomic<uint64_t> would_blocks_{0};
  std::atomic<uint64_t> read_pauses_{0};
  std::atomic<uint64_t> write_pauses_{0};
  std::atomic<uint64_t> shutdown_aborts_{0};
  std::atomic<uint64_t> idle_reaped_{0};
  std::atomic<uint64_t> rdhup_closes_{0};
  std::atomic<uint64_t> faults_injected_{0};
};

}  // namespace pgssi::net
