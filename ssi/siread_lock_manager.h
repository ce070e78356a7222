// SIREAD lock manager + rw-antidependency (conflict) graph.
//
// This is the engine's implementation of the paper's core machinery:
//  - multi-granularity SIREAD locks (tuple -> page -> relation) with
//    promotion thresholds from EngineConfig (Section 5.1);
//  - ProbeHeapWrite: the check every heap write performs to discover
//    readers it creates an rw-antidependency with;
//  - the per-transaction conflict flags / edge lists and the
//    dangerous-structure test (two consecutive rw edges with the final
//    transaction committing first) run both eagerly when an edge forms and
//    at commit (Sections 3.1-3.3);
//  - SIREAD locks surviving commit, released only once every concurrent
//    transaction has finished (Section 5.3 cleanup);
//  - the Section 4 read-only optimization: an edge from a read-only
//    reader is only dangerous if the pivot's out-edge leads to a
//    transaction that committed before the reader's snapshot.
//
// Concurrency design (the multicore hot path, mirroring PostgreSQL's
// partitioned predicate-lock hash table):
//  - The lock tables are hashed into kLockPartitions (db/config.h)
//    independent partitions, each with its own mutex. Tuple and page
//    granules of the same (relation, page) hash to the same partition, so
//    AcquireTuple/AcquirePage/ProbeHeapWrite take exactly ONE partition
//    lock on the fast path. Relation granules live in a per-relation
//    partition; probes skip it entirely while no relation lock exists
//    anywhere (rel_lock_count_ == 0). Each partition additionally keeps
//    an atomic granule-entry count, so a probe of an EMPTY partition is
//    one atomic load — no lock at all (the probe-miss fast path).
//  - Each SerializableXact's held-lock bookkeeping is guarded by its own
//    spinlock (held_mu), always acquired AFTER the owning partition lock.
//  - The conflict graph scales with conflict rate, not read rate: each
//    SerializableXact's edge lists and sticky flags are guarded by its
//    own edge_mu (the analogue of PostgreSQL's per-SERIALIZABLEXACT
//    LWLock). Flagging an edge locks the two parties in ascending-xid
//    order; PreCommit's dangerous-structure test needs only the
//    committing xact's edge lock (neighbour lifecycle fields are
//    atomics, and a neighbour cannot be freed while its edge to the
//    pivot exists — dissolution requires the pivot's edge lock).
//  - Xact registry membership lives in 16 hashed shards, each with its
//    own mutex: registration, xid resolution and teardown touch one
//    shard. Each shard also queues its committed xacts in commit order
//    (PostgreSQL's FinishedSerializableTransactions), so Cleanup pops
//    what it frees and never walks the registry. Abort and Cleanup
//    unlink under the shard lock + the parties' edge locks and hand the
//    memory to a grace-period limbo (util/epoch.h); pointer liveness on
//    the conflict path comes from epoch pins, not from a registry-wide
//    lock.
//  - Lifecycle flags (committed/aborted/doomed/...) are atomics so the
//    hot path (Doomed(), probe holder filtering) reads them lock-free.
//
// Lock ordering (outermost first): xact shard mutex > per-xact edge_mu
// > ... > partition mutex > per-xact held_mu
// (conflict-graph locks and SIREAD-table locks are never actually
// nested; the order is total for safety). Two partition locks are only
// ever held together in canonical (index) order — OnPageSplit / gap
// transfers moving locks between leaves, never on the acquire/probe
// fast path. Two edge locks are only ever held together in
// ascending-xid order. Epoch pins are not locks and impose no order.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "db/config.h"
#include "util/dcheck.h"
#include "util/epoch.h"
#include "util/spinlock.h"
#include "util/status.h"
#include "util/types.h"

namespace pgssi::ssi {

/// "No sticky out-partner" sentinel for sticky_out_commit_seq. Must be
/// the max value, not 0: commit sequence numbers are compared with `<`
/// against snapshot bounds, and a 0 sentinel would make a partner that
/// committed at seq 0 indistinguishable from no partner at all.
inline constexpr uint64_t kNoStickySeq = std::numeric_limits<uint64_t>::max();

struct SerializableXact {
  XactId xid = 0;
  uint64_t snapshot_seq = 0;
  bool read_only = false;
  // Read-only with a safe snapshot: no tracking. Written by the owning
  // thread at Begin, read by writers flagging conflicts: atomic.
  std::atomic<bool> safe_snapshot{false};

  // Lifecycle. Written under the owner's edge lock or shard lock (or by
  // the releasing thread for `defunct`), read lock-free on the hot path.
  std::atomic<uint64_t> commit_seq{0};  // 0 while in flight
  std::atomic<bool> committed{false};
  std::atomic<bool> aborted{false};
  // Set when this transaction must abort with a serialization failure at
  // its next operation or commit (it is the chosen victim of a dangerous
  // structure it can no longer avoid).
  std::atomic<bool> doomed{false};
  // Final lock release has begun: no new SIREAD entries may be added for
  // this xact (page splits drop it instead) and probes skip it. Set under
  // held_mu, checked under held_mu by anyone about to add an entry. Edge
  // flagging also skips defunct parties (checked under the pair's edge
  // locks) — the barrier teardown relies on to freeze the edge lists.
  std::atomic<bool> defunct{false};

  // Conflict graph. `in_edges` holds T1 for each T1 -rw-> this edge
  // (T1 read a version this transaction overwrote); `out_edges` holds T3
  // for each this -rw-> T3 edge. Guarded by edge_mu (two edge locks
  // always nest in ascending-xid order).
  mutable CheckedMutex edge_mu;
  std::unordered_set<SerializableXact*> in_edges;
  std::unordered_set<SerializableXact*> out_edges;
  // Summary flags left behind when a committed partner is cleaned up.
  bool sticky_in = false;
  bool sticky_out = false;
  // Min commit seq of cleaned-up out-partners; kNoStickySeq when none.
  uint64_t sticky_out_commit_seq = kNoStickySeq;

  // SIREAD lock bookkeeping (which granules this xact holds), so release
  // and promotion are O(held locks). Guarded by held_mu, which is always
  // acquired after the partition lock owning the granule being changed.
  mutable SpinLock held_mu;
  std::map<std::pair<RelationId, PageId>, std::vector<uint32_t>> held_tuples;
  std::map<RelationId, std::unordered_set<PageId>> held_pages;
  std::unordered_set<RelationId> held_relations;
};

struct ProbeResult {
  std::vector<XactId> holder_xids;
};

class SireadLockManager {
 public:
  /// Torn-down xacts and granule holder sets retire through `epoch`,
  /// which must outlive the manager.
  SireadLockManager(const EngineConfig& cfg, util::EpochManager* epoch);
  ~SireadLockManager();

  // ----- xact registry (engine-managed transactions) -----
  SerializableXact* Register(XactId xid, uint64_t snapshot_seq, bool read_only);

  // ----- SIREAD acquisition (Section 5.1) -----
  void AcquireTuple(SerializableXact* x, RelationId rel, PageId page,
                    uint32_t slot);
  void AcquirePage(SerializableXact* x, RelationId rel, PageId page);
  void AcquireRelation(SerializableXact* x, RelationId rel);
  /// Section 7.3: drop x's own tuple-granularity SIREAD lock after x
  /// itself writes that tuple.
  void ReleaseOwnTuple(SerializableXact* x, RelationId rel, PageId page,
                       uint32_t slot);

  /// Every heap write probes for SIREAD locks (tuple, its page, and the
  /// relation) held by other transactions. Returns all holders' xids.
  /// Takes only the (rel, page) partition lock unless a relation-granule
  /// lock exists somewhere in the system — and not even that when the
  /// partition's granule count reads zero (one atomic load, no lock:
  /// equivalent to probing just before any in-flight acquisition).
  ProbeResult ProbeHeapWrite(RelationId rel, PageId page, uint32_t slot);

  /// Section 5.2.2: a B+-tree leaf split moved `moved_slots` from
  /// `old_page` to `new_page`; move the tuple locks and duplicate the
  /// page locks. May take two partition locks, in canonical index order.
  /// Called from the tree's split listener with the structure lock and
  /// both leaves' write locks held, so no granule it transfers can move
  /// again concurrently.
  void OnPageSplit(RelationId rel, PageId old_page, PageId new_page,
                   const std::vector<uint32_t>& moved_slots);

  /// Predicate-coverage transfer when an index entry subdivides or
  /// rejoins a gap (the Section 5.2 structural-change family, sibling of
  /// OnPageSplit):
  ///  - an insert lands inside a gap: every holder covering the old
  ///    next-key granule (`from`) must also cover the new entry's
  ///    granule (`to`), or a second insert into the lower sub-gap probes
  ///    the new entry and misses them;
  ///  - an aborted insert's index entry is removed: holders of the
  ///    erased granule must move onto the granule future inserts of that
  ///    key will probe (its new next-key entry, or — via the ...ToPage
  ///    variant — the leaf page when no successor entry exists).
  /// Copies (never moves: the old granule may still be a live entry)
  /// tuple-granule holders of (from_page, from_slot) plus, when the
  /// pages differ, page-granule holders of from_page — their page lock
  /// does not reach to_page. May take two partition locks, in canonical
  /// index order. The caller must hold the write locks of every leaf
  /// the gap spans (InsertHooks/EraseHooks run there) — readers follow
  /// acquire-then-validate, so a lock acquired against the
  /// pre-transfer granule is either visible to this copy or the
  /// reader's validation fails and it re-resolves.
  void OnGapTransfer(RelationId rel, PageId from_page, uint32_t from_slot,
                     PageId to_page, uint32_t to_slot);
  void OnGapTransferToPage(RelationId rel, PageId from_page,
                           uint32_t from_slot, PageId to_page);

  // ----- conflict flagging + dangerous structure (Sections 3.1-3.3) -----
  /// Record reader -rw-> writer. May doom one of the parties if this edge
  /// completes a dangerous structure that can no longer resolve safely.
  void FlagRwConflict(SerializableXact* reader, SerializableXact* writer);
  /// Same, resolving one side by xid (the pointer for a foreign xact may
  /// be freed concurrently, so callers outside the manager must not hold
  /// one across calls). Unknown xids are ignored. The whole flagging
  /// runs under an epoch pin, which keeps the resolved xact's memory
  /// live.
  void FlagRwConflictWithWriter(SerializableXact* reader, XactId writer_xid);
  void FlagRwConflictWithReader(XactId reader_xid, SerializableXact* writer);

  /// Commit-time dangerous-structure test. Returns a serialization
  /// failure if `x` is doomed or is a pivot whose abort is required.
  Status PreCommit(SerializableXact* x);

  /// Records x's commit and appends it to its shard's commit queue.
  void MarkCommitted(SerializableXact* x, uint64_t commit_seq);
  /// Abort: dissolve edges, release all SIREAD locks, unregister.
  void Abort(SerializableXact* x);

  /// Free committed xacts (and their SIREAD locks) that committed at or
  /// below `bound` (TxnManager::CleanupBound), popping each shard's
  /// commit queue from its head: one atomic load per shard with nothing
  /// freeable, plus O(freed) — never a registry walk. Edges to
  /// still-live partners become sticky summary flags; the freed memory
  /// goes to the epoch limbo. Also makes one epoch advance + sweep
  /// attempt when the limbo is not empty.
  void Cleanup(uint64_t bound);

  /// True if `x` (a committed concurrent txn) makes a candidate snapshot
  /// taken at `snapshot_seq` unsafe: it committed with an rw-out-edge to
  /// a transaction that committed before that snapshot (Section 4).
  bool CommittedWithDangerousOut(XactId xid, uint64_t snapshot_seq);

  /// Lock-free: one atomic load (called before every operation).
  bool Doomed(const SerializableXact* x) const {
    return x->doomed.load(std::memory_order_acquire);
  }

  // ----- introspection (tests, stats) -----
  bool HoldsTupleLock(const SerializableXact* x, RelationId rel, PageId page,
                      uint32_t slot) const;
  bool HoldsPageLock(const SerializableXact* x, RelationId rel,
                     PageId page) const;
  bool HoldsRelationLock(const SerializableXact* x, RelationId rel) const;
  size_t RegisteredCount() const;
  size_t TupleLockCount() const;
  size_t PageLockCount() const;
  size_t RelationLockCount() const;
  /// Tuple + page + relation lock-table entries across all partitions.
  size_t TotalLockCount() const;
  /// Cross-checks every partition map entry against its holder's held-lock
  /// bookkeeping and (for registered xacts) vice versa, plus the edge
  /// mirror invariants. Quiescent points only: it takes every shard and
  /// partition lock but reads edge lists without their edge locks.
  bool CheckConsistency() const;
  /// Cleanup calls, and the queued xacts they looked at, freed or not
  /// (the horizon-trigger and O(freed) regressions assert on these).
  uint64_t cleanup_runs() const {
    return cleanup_runs_.load(std::memory_order_relaxed);
  }
  uint64_t cleanup_visits() const {
    return cleanup_visits_.load(std::memory_order_relaxed);
  }
  uint64_t page_promotions() const {
    return page_promotions_.load(std::memory_order_relaxed);
  }
  uint64_t relation_promotions() const {
    return relation_promotions_.load(std::memory_order_relaxed);
  }
  uint64_t ssi_aborts() const {
    return ssi_aborts_.load(std::memory_order_relaxed);
  }

 private:
  struct TupleTag {
    RelationId rel;
    PageId page;
    uint32_t slot;
    bool operator<(const TupleTag& o) const {
      if (rel != o.rel) return rel < o.rel;
      if (page != o.page) return page < o.page;
      return slot < o.slot;
    }
  };

  /// Holder sets are heap objects so teardown can unlink one from the
  /// partition map under the partition lock and defer the free through
  /// the epoch limbo — the shape a future fully lock-free
  /// probe needs, and what keeps frees off the partition critical
  /// sections today.
  using HolderSet = std::unordered_set<SerializableXact*>;

  // One shard of the lock table. Tuple and page granules of a given
  // (relation, page) always live in the same partition; relation granules
  // live in the partition chosen by PartitionIndexForRelation.
  struct alignas(64) Partition {
    mutable CheckedMutex mu;
    std::map<TupleTag, HolderSet*> tuple_locks;
    std::map<std::pair<RelationId, PageId>, HolderSet*> page_locks;
    std::unordered_map<RelationId, HolderSet*> rel_locks;
    // Exact granule-entry count (tuple + page + rel map entries),
    // republished at the end of every mutating critical section. A probe
    // reading 0 can skip the lock: it linearizes before whichever
    // acquisition would make the count nonzero.
    std::atomic<int64_t> occupancy{0};
  };

  static constexpr size_t kPartitions = kLockPartitions;
  static_assert((kPartitions & (kPartitions - 1)) == 0, "power of two");

  // One shard of the xact registry. Registration, xid resolution, and
  // teardown unlinking touch one shard's mutex. `committed` holds the
  // shard's committed (still registered) xacts in MarkCommitted order;
  // head_seq mirrors its front's commit seq (kNoStickySeq when empty),
  // written under mu, so a Cleanup run skips a shard with nothing
  // freeable without taking the mutex.
  static constexpr size_t kXactShards = 16;
  struct alignas(64) XactShard {
    mutable CheckedMutex mu;
    std::unordered_map<XactId, SerializableXact*> map;
    std::deque<SerializableXact*> committed;
    std::atomic<uint64_t> head_seq{kNoStickySeq};
  };

  size_t PartitionIndex(RelationId rel, PageId page) const;
  size_t PartitionIndexForRelation(RelationId rel) const;
  Partition& PartitionFor(RelationId rel, PageId page) const {
    return partitions_[PartitionIndex(rel, page)];
  }
  Partition& PartitionForRelation(RelationId rel) const {
    return partitions_[PartitionIndexForRelation(rel)];
  }
  XactShard& ShardFor(XactId xid) const;

  /// Republish p.occupancy from the map sizes; p.mu must be held. Call
  /// before leaving any critical section that mutated the maps.
  void SyncOccupancy(Partition& p) const;
  /// Epoch-retire an emptied holder set just unlinked from a partition
  /// map.
  void FreeHolderSet(HolderSet* s);
  static HolderSet* GetOrCreate(std::map<TupleTag, HolderSet*>& m,
                                const TupleTag& k);
  static HolderSet* GetOrCreate(
      std::map<std::pair<RelationId, PageId>, HolderSet*>& m,
      const std::pair<RelationId, PageId>& k);
  static HolderSet* GetOrCreate(std::unordered_map<RelationId, HolderSet*>& m,
                                RelationId k);

  /// Replaces x's tuple locks on (rel, page) with one page lock; the
  /// owning partition lock and x's held_mu must be held. Returns true
  /// when x's page count in `rel` now exceeds the relation-promotion
  /// threshold (the caller decides whether escalation can be chained).
  bool PromoteTuplesToPageLocked(Partition& p, RelationId rel, PageId page,
                                 SerializableXact* x);

  // Map-entry erase helpers; the owning partition lock must be held.
  void EraseTupleHolder(Partition& p, RelationId rel, PageId page,
                        uint32_t slot, SerializableXact* x);
  void ErasePageHolder(Partition& p, RelationId rel, PageId page,
                       SerializableXact* x);
  void EraseRelationHolder(Partition& p, RelationId rel, SerializableXact* x);

  // Slow path: install the relation-granule lock, then retire x's finer
  // locks in `rel` partition by partition. `from_promotion` counts the
  // escalation in relation_promotions_.
  void AcquireRelationInternal(SerializableXact* x, RelationId rel,
                               bool from_promotion);

  // Shared core of OnGapTransfer / OnGapTransferToPage. When
  // `to_page_granule` is set the holders are installed as a page lock on
  // to_page and `to_slot` is ignored.
  void GapTransferInternal(RelationId rel, PageId from_page,
                           uint32_t from_slot, PageId to_page,
                           uint32_t to_slot, bool to_page_granule);

  /// Marks x defunct and removes every SIREAD entry it holds from the
  /// partition tables. After this returns, no other thread can reach x
  /// through the lock tables.
  void ReleaseAllLocks(SerializableXact* x);

  // Locks the edge_mu of both parties of an edge, in ascending-xid
  // order.
  class EdgePairLock;
  /// Idempotent doom + stats bump (the edge lock of x must be held, so
  /// two racing doomers cannot double-count).
  void Doom(SerializableXact* x);

  // Dangerous-structure predicate helpers; the caller must hold the
  // edge lock of the xact whose lists are read (asserted inside).
  bool HasIn(const SerializableXact* x) const;
  bool HasOutAny(const SerializableXact* x) const;
  bool HasOutCommittedBefore(const SerializableXact* x, uint64_t seq) const;
  bool DangerousPivot(const SerializableXact* x, uint64_t pivot_bound) const;
  void FlagRwConflictLocked(SerializableXact* reader, SerializableXact* writer);
  void MaybeDoomOnEdge(SerializableXact* reader, SerializableXact* writer);
  /// Dissolve every edge of x. The caller holds an epoch pin, and x
  /// must already be aborted or defunct — the flag paths skip such
  /// parties under the pair's edge locks, so after the snapshot of x's
  /// lists no new edge can land on x. Partner back-edges and
  /// sticky flags are always updated under the pair's edge locks
  /// because a partner's PreCommit reads its lists under only its own
  /// edge lock.
  void DissolveEdges(SerializableXact* x, bool make_sticky);
  /// Unlink x->xid from its registry shard. Returns true when x was the
  /// registered entry (i.e. the registry owned it).
  bool UnregisterFromShard(SerializableXact* x);
  /// Resolve an xid through its shard (takes the shard mutex). The
  /// returned pointer is only guaranteed live while the xact cannot be
  /// torn down: the caller holds an epoch pin taken before this call.
  SerializableXact* LookupXact(XactId xid) const;

  EngineConfig cfg_;
  util::EpochManager* epoch_;
  std::unique_ptr<Partition[]> partitions_;

  // Global count of relation-granule lock entries; probes skip the
  // relation partition lookup entirely while it is zero (the common case
  // under default promotion thresholds).
  std::atomic<int64_t> rel_lock_count_{0};

  // Xact registry: membership lives in the hashed shards (insertion and
  // unlinking take one shard mutex). Pointer liveness comes from epoch
  // pins, edge freezing from the defunct barrier.
  std::unique_ptr<XactShard[]> xact_shards_;

  // Stats: relaxed atomics, incremented from whichever lock context the
  // event occurs under and read lock-free by accessors.
  std::atomic<uint64_t> page_promotions_{0};
  std::atomic<uint64_t> relation_promotions_{0};
  std::atomic<uint64_t> ssi_aborts_{0};
  std::atomic<uint64_t> cleanup_runs_{0};
  std::atomic<uint64_t> cleanup_visits_{0};
};

}  // namespace pgssi::ssi
