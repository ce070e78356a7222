// Row-lock table.
//
// Used two ways:
//  - SI/SSI writers take per-key exclusive locks, giving PostgreSQL-style
//    first-updater-wins *blocking* (the second writer waits; if the first
//    commits, the waiter then fails its version check with a
//    serialization failure rather than failing instantly).
//  - In S2PL mode, reads additionally take shared locks and scans take a
//    coarse table-gap lock, all held to commit — the strict two-phase
//    locking baseline of the paper's figures.
//
// There is one acquisition path, AcquireAsync: it grants, or registers
// the caller as a waiter with a fresh wake-up token. The caller's step
// returns kWouldBlock with that token; the net server parks on it, and a
// blocking Transaction call waits on it for at most
// deadlock_check_interval_us and then re-issues the step. Deadlocks are
// detected at every registration: the registrant computes its strongly
// connected component of the wait-for graph, which covers every cycle it
// participates in; the victim is the youngest (highest xid) member. A
// victim registrant fails with kSerializationFailure at once; any other
// victim has its token signaled, so its re-issue discovers victimhood.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/status.h"
#include "util/types.h"
#include "util/wait_token.h"

namespace pgssi {

class LockTable {
 public:
  enum class Mode { kShared, kExclusive };

  /// Non-blocking grant-or-register. Re-entrant; shared->exclusive
  /// upgrade is supported (sole sharer upgrades in place; otherwise waits
  /// for the other sharers). Grants immediately when possible; otherwise
  /// registers the caller as a waiter on the key, stores a fresh token
  /// in *token, and returns kWouldBlock. The token is signaled (once)
  /// when a holder releases the key or the caller becomes a deadlock
  /// victim — a wake is permission to retry, not a grant. Callers
  /// enforce their own lock-wait deadline by passing `timed_out`, which
  /// converts a would-block into a serialization failure.
  Status AcquireAsync(XactId xid, TableId table, const std::string& key,
                      Mode mode, bool timed_out, util::WaitTokenPtr* token);

  void ReleaseAll(XactId xid);

  size_t LockedKeyCount() const;

 private:
  struct Entry {
    XactId exclusive = 0;
    std::unordered_set<XactId> sharers;
    // Registered waiters (one op in flight per xact, so at most one
    // registration per xid engine-wide, tracked in wait_key_).
    std::unordered_map<XactId, util::WaitTokenPtr> waiters;
  };
  using Key = std::pair<TableId, std::string>;

  bool CanGrant(const Entry& e, XactId xid, Mode mode) const;
  // Blockers of `xid` on entry `e` right now.
  void Blockers(const Entry& e, XactId xid, std::vector<XactId>* out) const;
  // Victim xid of the wait-for cycle through `self`, or 0 if `self` is
  // not on any cycle. Every member of a deadlock computes the same
  // victim (max xid of the strongly connected component).
  XactId CycleVictim(XactId self) const;
  // Removes xid's waiter registration (entry waiter slot + index + wait
  // edges). Caller holds mu_.
  void DeregisterLocked(XactId xid);
  void MaybeEraseLocked(const Key& k);

  mutable std::mutex mu_;
  std::map<Key, Entry> locks_;
  std::unordered_map<XactId, std::vector<Key>> held_;
  std::unordered_map<XactId, std::vector<XactId>> waits_for_;
  // xid -> key it is registered as a waiter on (at most one per xid).
  std::unordered_map<XactId, Key> wait_key_;
};

}  // namespace pgssi
