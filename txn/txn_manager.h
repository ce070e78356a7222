// Transaction manager: xid assignment, commit-sequence-based snapshots,
// and the active-transaction registry used for SIREAD cleanup and the
// Section 4 safe-snapshot (DEFERRABLE) machinery.
//
// Snapshots are commit sequence numbers: a transaction beginning at
// snapshot S sees exactly the versions stamped with commit_seq <= S.
//
// Concurrency design (no global mutex anywhere on Begin/Commit):
//  - xids and commit seqs come from atomic allocators;
//  - the active-transaction registry is sharded by xid hash, so Begin /
//    finish touch one shard mutex and only the registry scans
//    (OldestActiveSnapshot, ActiveSerializableRW) visit all shards;
//  - last_committed_seq_ is a published WATERMARK, advanced over
//    contiguously completed commits via a completion ring (epoch-batched
//    publication): each committer stamps its versions with its
//    pre-allocated seq, marks its ring slot done, and whoever observes
//    the contiguous prefix closed publishes for the whole batch with CAS
//    steps. Snapshot acquisition is one atomic load — a reader that
//    observes watermark S is guaranteed (by the release/acquire chain
//    through the ring and the watermark CASes) that every version with
//    commit_seq <= S is fully stamped.
// A commit whose predecessor is still stamping leaves its seq for the
// predecessor to publish (the gap-closer publishes the whole batch),
// then WAITS until its own seq is covered by the watermark before
// deregistering and returning. That wait preserves the invariant the
// safe-snapshot / DEFERRABLE machinery depends on: a transaction absent
// from the active registry is visible to every later snapshot.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "util/types.h"
#include "util/wait_token.h"

namespace pgssi::txn {

class TxnManager {
 public:
  struct BeginResult {
    XactId xid;
    uint64_t snapshot_seq;
  };

  /// Registers a new transaction. `serializable_rw` marks transactions
  /// that participate in SSI as potential writers (the set a DEFERRABLE
  /// read-only transaction must wait out).
  BeginResult Begin(bool serializable_rw);

  /// Commits `xid`: runs `stamp` with the pre-allocated next commit
  /// sequence number (which appends the WAL record and writes commit_seq
  /// into the transaction's versions), then publishes the sequence
  /// through the completion ring and wakes waiters. Returns the assigned
  /// sequence.
  ///
  /// `stamp` may FAIL (return false) — e.g. a WAL append or fsync error
  /// — in which case nothing was stamped and Commit returns 0: the
  /// caller must treat the transaction as aborted. The consumed sequence
  /// is still published through the ring as a no-op (no version carries
  /// it), because leaving its slot open would stall the watermark — and
  /// with it every later commit — forever. Failure ordering matters:
  /// stamp runs strictly BEFORE publication, so a transaction whose
  /// durability barrier failed is doomed while its writes are still
  /// invisible to every snapshot.
  uint64_t Commit(XactId xid, const std::function<bool(uint64_t)>& stamp);

  void Abort(XactId xid);

  /// Lock-free (one atomic load): read on every snapshot acquisition,
  /// SSI commit/cleanup, and read-only commit.
  uint64_t LastCommittedSeq() const {
    return last_committed_seq_.load(std::memory_order_acquire);
  }
  /// Smallest snapshot among active transactions; UINT64_MAX when none.
  /// Lock-free: one atomic load per shard (each shard caches its own
  /// minimum, maintained under the shard mutex on Begin/finish), so the
  /// SIREAD cleanup threshold and version-chain pruning no longer scan
  /// every shard's registry under its mutex.
  uint64_t OldestActiveSnapshot() const;
  /// The Section 5.3 cleanup threshold: min(LastCommittedSeq,
  /// OldestActiveSnapshot), with the loads ordered so the bound can
  /// never free state a concurrent Begin still depends on (see the
  /// implementation comment).
  uint64_t CleanupBound() const;
  std::vector<XactId> ActiveSerializableRW() const;
  /// Lock-free (one atomic counter read; seq_cst so it cannot reorder
  /// with the snapshot load that precedes it in the safe-snapshot check).
  bool AnyActiveSerializableRW() const {
    return active_serializable_rw_.load() > 0;
  }
  /// True while any of `xids` is still registered.
  bool AnyActive(const std::vector<XactId>& xids) const;
  /// The DEFERRABLE wait: AnyActive(xids), and when it is true, `*token`
  /// (replaced by a fresh one unless it is an unsignaled token from an
  /// earlier call, which is still registered) is signaled at the next
  /// deregistration of a serializable read-write transaction. The token
  /// is registered BEFORE the final AnyActive check, so a deregistration
  /// racing the call either shows in that check or signals the token.
  bool AwaitFinish(const std::vector<XactId>& xids, util::WaitTokenPtr* token);

  uint64_t next_xid() const {
    return next_xid_.load(std::memory_order_relaxed);
  }

  /// Crash recovery: restart the allocators past everything the WAL ever
  /// recorded. `last_seq` becomes the published watermark (every
  /// recovered version is stamped with a seq <= it) and the next commit
  /// gets last_seq + 1; xids resume at `next_xid`. Must be called before
  /// any Begin — the registry is assumed empty.
  void BootstrapRecovered(XactId next_xid, uint64_t last_seq);

 private:
  struct ActiveTxn {
    uint64_t snapshot_seq;
    bool serializable_rw;
  };
  // Power-of-two shard count: xids are dense, so low bits spread evenly.
  static constexpr size_t kShards = 16;
  // Completion-ring capacity: bounds the number of in-flight (allocated
  // but unpublished) commit seqs. Far above any realistic thread count;
  // a committer that laps the ring waits for the watermark to catch up.
  static constexpr size_t kCommitRing = 4096;

  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::unordered_map<XactId, ActiveTxn> active;
    // Cached min over active[*].snapshot_seq (UINT64_MAX when empty).
    // Written only under mu (lowered on Begin, recomputed when the
    // holder raises its snapshot or deregisters); read lock-free by
    // OldestActiveSnapshot. May transiently sit BELOW the true map
    // minimum (a Begin's provisional value), which only makes the
    // cleanup bound more conservative — never above it. seq_cst, paired
    // with the seq_cst watermark loads in Begin/CleanupBound.
    std::atomic<uint64_t> min_snapshot{UINT64_MAX};
  };
  Shard& ShardFor(XactId xid) const {
    return shards_[static_cast<size_t>(xid) & (kShards - 1)];
  }
  void Deregister(XactId xid);
  // Recomputes sh.min_snapshot from the map; sh.mu held.
  static void RecomputeMinLocked(Shard& sh);

  std::atomic<XactId> next_xid_{1};
  std::atomic<uint64_t> next_commit_seq_{0};
  // Published watermark: every seq <= this is fully stamped.
  std::atomic<uint64_t> last_committed_seq_{0};
  // Active SSI read-write transactions (see AnyActiveSerializableRW).
  std::atomic<int64_t> active_serializable_rw_{0};
  // ring_[s & (kCommitRing-1)] == s  <=>  seq s has finished stamping
  // and awaits (or has completed) publication. Slots are implicitly
  // reclaimed when the watermark passes them.
  std::array<std::atomic<uint64_t>, kCommitRing> ring_{};
  mutable std::array<Shard, kShards> shards_;
  // Watermark-wait rendezvous: a committer whose predecessor is still
  // inside stamp() (e.g. behind a slow WAL fsync) parks here instead of
  // spin-yielding (see Commit). publish_waiters_ lets publishers skip
  // the mutex entirely on the no-waiter fast path.
  std::mutex publish_mu_;
  std::condition_variable publish_cv_;
  std::atomic<int64_t> publish_waiters_{0};
  // AwaitFinish tokens, signaled and cleared by the next serializable
  // read-write Deregister. rw_waiter_count_ mirrors the vector's size,
  // so that Deregister's no-waiter fast path is one atomic load.
  std::mutex rw_waiters_mu_;
  std::vector<util::WaitTokenPtr> rw_waiters_;
  std::atomic<size_t> rw_waiter_count_{0};
};

}  // namespace pgssi::txn
