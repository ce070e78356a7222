// Append-only redo-log writer with group-commit fsync batching on a
// dedicated fsync thread.
//
// One WalWriter per open Database. Appends are serialized by an
// internal mutex; the fsync itself runs on the writer's own syncer
// thread with the mutex RELEASED, so commits keep appending while a
// batch is being made durable — that is what forms the next batch.
//
// Group commit (Sync): a committer that needs offset E durable either
// finds durable_offset_ >= E already (a previous round's fsync covered
// it — free), or posts a sync request and waits. The syncer thread
// coalesces all posted requests into one round: it optionally dwells
// (bounded, cv-timed, and only when a caller said sibling commits are
// in flight — the commit_delay/commit_siblings analogue) until
// `batch_target` commit records are unsynced, snapshots the appended
// offset, fsyncs once, and publishes the new durable offset to every
// waiter at or below it. No committer thread ever runs the fsync
// syscall or the dwell — on the session server that used to pin a net
// worker for the whole batch window; now committers cv-wait for their
// own offset, a TryCommit step first parks a WaitToken on the gate
// while a round is in flight, and the syncer does the rest.
//
// Fsync-failure delivery: a failed round reports the error to every
// waiter whose offset the attempted fsync covered (their data is not
// durable); waiters beyond the attempted target re-post and a fresh
// round retries. The writer does NOT latch on a transient fsync error —
// per-commit handling (AppendCommit's abort-mark protocol) decides
// whether durability is permanently lost.
//
// Failure contract (the no-acked-but-not-durable ordering):
//  - Append failure: any partially written frame is rewound
//    (ftruncate back to the last good offset) so the log stays
//    well-formed; if even the rewind fails the writer latches failed_
//    and every later operation errors (durability can no longer be
//    promised).
//  - Commit fsync failure (AppendCommit): the commit record is already
//    in the log, so an ABORT MARK for its seq is appended and synced
//    before the error is returned — recovery must never replay a
//    commit its client saw fail. The mark itself gets a bounded retry
//    with backoff (a transient error on the mark's own append/fsync
//    must not escalate); only when every attempt fails does the writer
//    latch failed_. A lone transient fsync error therefore aborts one
//    transaction cleanly and the engine keeps committing.
//
// All of this runs inside the TxnManager stamp callback, BEFORE the
// commit seq is published through the completion ring: a failed
// append/fsync dooms the transaction while its versions are still
// invisible, and the seq is published unused so the watermark never
// sticks.
//
// Failpoint sites (util/failpoint.h): "wal_append" (before any bytes),
// "wal_append_partial" (crash after half the frame — a torn record),
// "wal_fsync" (the fsync call), "wal_after_fsync" (durable but
// unacknowledged), "wal_abort_mark" (the abort-mark append),
// "wal_fsync_stall" (each fire delays the syncer 1ms before the fsync —
// the arm-time repeat/chance budget shapes the stall; this is how chaos
// tests hold the commit gate closed).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "db/config.h"
#include "util/status.h"
#include "util/wait_token.h"

namespace pgssi::wal {

class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Opens (creating if absent) the log at `path` and truncates it to
  /// `keep_bytes` — the valid-prefix length recovery computed — so a
  /// torn tail is discarded before new records are appended after it.
  Status Open(const std::string& path, uint64_t keep_bytes);

  /// Appends one CRC-framed record. On success *end_offset is the file
  /// offset just past the frame (the argument to Sync).
  Status Append(std::string_view payload, uint64_t* end_offset);

  /// Durability barrier: returns once every byte below `end_offset` is
  /// fsynced. Posts a request to the syncer thread and waits.
  /// `batch_target`/`max_wait_us` shape the round's accumulation dwell
  /// (see file comment); pass 1/0 for an immediate fsync.
  Status Sync(uint64_t end_offset, uint32_t batch_target,
              uint32_t max_wait_us);

  /// Commit append + mode-appropriate barrier + abort-mark-on-failure,
  /// in one call (see the failure contract above). `payload` must be a
  /// kCommit record for `seq`.
  Status AppendCommit(std::string_view payload, uint64_t seq,
                      WalFsyncMode mode, uint32_t batch_target,
                      uint32_t max_wait_us);

  /// Final best-effort fsync + close. Idempotent.
  void Close();

  /// Non-blocking commit-gate probe for Transaction::TryCommit: if the
  /// syncer is running a group fsync right now, stores a fresh token in
  /// *token, queues it (signaled when that round completes, success or
  /// failure) and returns true — the caller should park and retry its
  /// commit, by which time the batch it joins is fresh. Returns false,
  /// allocating nothing, when no round is running (nothing to wait
  /// for). Purely an admission hint: correctness never depends on it.
  bool RegisterSyncWaiter(util::WaitTokenPtr* token);

  uint64_t appended_offset() const {
    return appended_.load(std::memory_order_acquire);
  }
  uint64_t durable_offset() const {
    return durable_.load(std::memory_order_acquire);
  }
  /// Total fsync calls issued — the bench's fsyncs-per-commit metric.
  uint64_t fsync_count() const {
    return fsyncs_.load(std::memory_order_relaxed);
  }

 private:
  // mu_ held.
  Status AppendLocked(std::string_view payload, uint64_t* end_offset);
  // The dedicated fsync thread's main loop.
  void SyncerLoop();

  std::mutex mu_;               // file appends + sync round state
  std::condition_variable cv_;  // append progress + fsync completion
  int fd_ = -1;
  std::atomic<uint64_t> appended_{0};  // bytes fully appended (mu_)
  std::atomic<uint64_t> durable_{0};   // bytes known fsynced
  uint64_t records_ = 0;               // frames appended (mu_)
  uint64_t synced_records_ = 0;        // frames covered by last fsync (mu_)
  bool sync_in_progress_ = false;      // a round's fsync is running (mu_)

  // ----- syncer thread state (mu_) -----
  std::thread syncer_;
  bool syncer_running_ = false;  // thread alive; waiters error when false
  bool stop_syncer_ = false;
  uint64_t sync_req_ = 0;        // highest offset any waiter needs durable
  uint32_t req_batch_target_ = 1;  // dwell shape for the pending round:
  uint32_t req_max_wait_us_ = 0;   // min() over the round's requesters
  // Failed-round error publication: waiters at or below err_upto_ whose
  // wait straddled the err_gen_ bump take err_status_; others re-post.
  uint64_t err_gen_ = 0;
  uint64_t err_upto_ = 0;
  Status err_status_;

  // Commit-gate tokens parked on the in-progress round (mu_); swapped
  // out and signaled outside mu_ when it completes.
  std::vector<util::WaitTokenPtr> sync_waiters_;
  std::atomic<bool> failed_{false};    // latched: durability broken
  std::atomic<uint64_t> fsyncs_{0};
};

}  // namespace pgssi::wal
