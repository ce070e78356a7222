// Row-lock waits and the S2PL lock table.
//
// SI/SSI writers take no lock here. First-updater-wins lives in the
// version chain, as PostgreSQL keeps it in the tuple header (xmax): a
// writer's version at the head of a chain is its claim on the row until
// the writer finishes: while the version is uncommitted,
// and while it is stamped with a commit seq the watermark has not
// published yet. A writer that finds another transaction's live claim
// calls WaitForClaim under that chain's heap stripe, which registers its
// wait on the holder's xid and hands back a token. The holder's commit
// or abort stamps or erases its versions under the same stripes, and
// publishes its seq, before ReleaseAll reads the waiter count. So a
// registration on an uncommitted head is always seen; one on a stamped
// head is followed by a fence and a re-read of the watermark, which
// pairs with the fence in ReleaseAll. No wake-up is lost. An uncontended
// write and a commit with no waiters therefore touch nothing in this
// file beyond a fence and one atomic load.
//
// In an S2PL database every writer, and every S2PL reader and scan,
// takes real shared/exclusive locks (plus the coarse table-gap lock of
// the phantom stub) in a table sharded by key hash, kLockPartitions
// ways. Locks are held to commit; the holder's list of granted locks
// lives in its Transaction and comes back in ReleaseAll.
//
// Both kinds of wait go into one wait-for graph behind its own mutex
// (a leaf under a shard mutex or a heap stripe). A registration records
// the xids the waiter is blocked by; a finishing transaction signals
// every waiter blocked by it (locks are only released at the end, so
// this is exactly the set a key-by-key wake would reach). A wake is
// permission to retry, not a grant: the re-issued step either proceeds
// or registers again. Deadlocks are detected at every registration: the
// registrant computes its strongly connected component of the graph,
// which covers every cycle it participates in, and the victim is the
// youngest (highest xid) member. A victim registrant fails with
// kSerializationFailure at once; any other victim has its token
// signaled, so its re-issue discovers victimhood. Callers enforce their
// own lock-wait deadline by passing `timed_out`, which turns a would-
// block into a serialization failure.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "db/config.h"
#include "util/status.h"
#include "util/types.h"
#include "util/wait_token.h"

namespace pgssi {

class LockTable {
 public:
  enum class Mode { kShared, kExclusive };

  /// One granted S2PL lock, as its holder keeps it.
  struct HeldLock {
    uint32_t shard;
    TableId table;
    std::string key;
  };

  LockTable();
  LockTable(const LockTable&) = delete;
  LockTable& operator=(const LockTable&) = delete;

  /// S2PL grant-or-register. Re-entrant; shared->exclusive upgrade is
  /// supported (sole sharer upgrades in place; otherwise waits for the
  /// other sharers). A lock newly granted to `xid` is appended to *held.
  /// When the lock cannot be granted, registers the wait, stores a fresh
  /// token in *token and returns kWouldBlock.
  Status AcquireAsync(XactId xid, TableId table, const std::string& key,
                      Mode mode, bool timed_out, util::WaitTokenPtr* token,
                      std::vector<HeldLock>* held);

  /// First-updater-wins wait: `xid` found `holder`'s unfinished version
  /// at the head of a chain. Call with that chain's heap stripe held, so
  /// an uncommitted holder cannot finish between the observation and the
  /// registration. If the version was already stamped, the caller fences
  /// (seq_cst) after this returns and re-reads the commit watermark: a
  /// holder that published meanwhile may not see the registration. Returns kWouldBlock with *token, or a serialization
  /// failure (deadlock victim, or `timed_out`). A deadlock victim other
  /// than `xid` comes back in *victim: signal it once the stripe is
  /// released (no token fires under an engine latch).
  Status WaitForClaim(XactId xid, XactId holder, bool timed_out,
                      util::WaitTokenPtr* token, util::WaitTokenPtr* victim);

  /// Transaction end (commit or abort, after its versions are stamped or
  /// erased and its seq published): releases `held`, drops xid's own
  /// wait registration, and signals every waiter blocked by xid. With
  /// nothing held and no registered waiter anywhere, this is a fence and
  /// one atomic load.
  void ReleaseAll(XactId xid, std::vector<HeldLock>* held);

  /// S2PL keys currently locked plus registered waits (a claim waiter
  /// blocks on a chain, not on an entry here). 0 at quiesce.
  size_t LockedKeyCount() const;

 private:
  struct Entry {
    XactId exclusive = 0;
    std::vector<XactId> sharers;
  };
  using Key = std::pair<TableId, std::string>;
  struct KeyHash {
    size_t operator()(const Key& k) const;
  };
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::unordered_map<Key, Entry, KeyHash> locks;
  };

  static bool CanGrant(const Entry& e, XactId xid, Mode mode);
  // Registers xid as blocked by `blockers` (replacing any earlier
  // registration) and runs the cycle test. Returns kWouldBlock with
  // *token, or the deadlock failure (registration dropped). Takes
  // graph_mu_.
  Status RegisterWait(XactId xid, std::vector<XactId> blockers,
                      util::WaitTokenPtr* token, util::WaitTokenPtr* victim);
  void DeregisterLocked(XactId xid);
  // Victim xid of the wait-for cycle through `self`, or 0 if `self` is
  // not on any cycle. Every member of a deadlock computes the same
  // victim (max xid of the strongly connected component). graph_mu_ held.
  XactId CycleVictim(XactId self) const;

  std::unique_ptr<Shard[]> shards_;

  struct Waiter {
    std::vector<XactId> blockers;
    util::WaitTokenPtr token;
  };
  mutable std::mutex graph_mu_;
  std::unordered_map<XactId, Waiter> waiters_;
  // waiters_.size(), written under graph_mu_: ReleaseAll's "anyone to
  // wake?" check.
  std::atomic<size_t> waiter_count_{0};
};

}  // namespace pgssi
