// In-memory key-ordered B+-tree with optimistic lock coupling (OLC).
//
// Leaves carry a stable PageId and per-entry slot numbers: the pair
// (page, slot) is the granule the SIREAD lock manager locks and probes.
// When a leaf splits, the tree reports which slots moved to the new page
// so the lock manager can transfer predicate locks (the Section 5.2.2
// page-split problem).
//
// Concurrency design (version-stamped nodes, PostgreSQL-buffer-latch
// analogue for a main-memory tree):
//  - Every node carries an atomic version word (bit 0 = write-locked,
//    upper bits = modification counter). Readers descend LATCH-FREE:
//    read a node's version, read its contents (atomic entry slots),
//    validate the version, restart on mismatch. No reader ever blocks a
//    reader or holds a node lock.
//  - Writers lock only the touched leaf (CAS the version word). An
//    insert whose key's gap spans several leaves (erase can leave empty
//    leaves inside a gap) locks the whole span [landing leaf .. leaf of
//    the key's successor] in chain order, which serializes inserts into
//    the SAME gap while inserts into disjoint gaps run fully in
//    parallel. The SIREAD gap probe (InsertHooks::probe) runs under
//    those leaf locks, so a reader's predicate lock is either visible to
//    the probe or the reader's validation fails and it restarts.
//  - Splits (and empty-leaf recycling) additionally take structure_mu_,
//    which serializes all inner-node surgery; inner nodes are still
//    version-locked while mutated so optimistic descents validate.
//    A full leaf forces the insert to release its leaf locks and retry
//    pessimistically under structure_mu_ (lock order: structure_mu_
//    before leaf locks, leaf locks in chain order).
//  - Reclamation: erased entries, unlinked leaves, and spliced-out
//    inner nodes are handed to the grace-period limbo (util/epoch.h)
//    and freed once every thread has passed the epoch. Callers must
//    hold an EpochManager::Pin across any region that loads and
//    dereferences tree pointers — INCLUDING the span from a
//    ReadView-producing call to its final Validate(), which
//    dereferences the witnessed nodes. A parked reader detects an
//    unlink via the predecessor's version bump.
//
// Validation protocol for SIREAD correctness (used by the database
// layer): resolve coordinates optimistically, ACQUIRE the SIREAD lock,
// then Validate() the ReadView and restart on failure. Acquiring before
// validating guarantees a concurrent insert either sees the lock in its
// under-leaf-lock probe or bumped a version the reader checks. Locks
// acquired on attempts that fail validation are conservative leftovers
// (never lost coverage).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/epoch.h"
#include "util/types.h"

namespace pgssi {

class BTree {
 public:
  // Called after a leaf split, while the splitting insert holds
  // structure_mu_ and the write locks of both leaves: SIREAD locks on
  // (old_page, slot) for each moved slot must be transferred to
  // (new_page, slot) — slot numbers travel with their entries — and page
  // locks on old_page must also cover new_page.
  //
  // Reentrancy contract (OLC world): the listener fires from inside
  // Insert with the tree's structure lock and the affected leaf locks
  // held. It must not call back into the tree and may only take locks
  // that come *after* leaf locks in the engine's lock order (SIREAD
  // partition locks, per-xact spinlocks). It must NOT take heap stripes
  // or row locks.
  using SplitListener = std::function<void(
      PageId old_page, PageId new_page, const std::vector<uint32_t>& moved_slots)>;

  // Optimistic read witness: the chain of (node, version) pairs a read
  // operation depended on. Validate() returns true iff none of them has
  // been locked or modified since — i.e. the read's answer is still
  // current. Acquire SIREAD locks BEFORE validating (see file comment).
  struct ReadView {
    std::vector<std::pair<const void*, uint64_t>> nodes;
    void clear() { nodes.clear(); }
  };

  // Hooks a guarded insert runs while it holds every leaf lock of the
  // key's gap (the landing leaf through the leaf holding the key's
  // successor). Lock context: [structure lock,] leaf locks; the hooks
  // may take SIREAD partition locks (which order after leaf locks).
  struct InsertHooks {
    // Gap probe, run BEFORE any modification. probe_pages are the page
    // ids of every locked leaf the gap spans; (next_page, next_slot) is
    // the key's successor entry when has_next. Return false to abandon
    // the insert (tree unchanged). May run more than once: a descent
    // that raced a structural change restarts, and the probe runs again
    // on the retry — it must be idempotent.
    std::function<bool(const std::vector<PageId>& probe_pages, bool has_next,
                       PageId next_page, uint32_t next_slot)>
        probe;
    // Post-insert coverage transfer, run EXACTLY ONCE per successful
    // insert, still under the leaf locks: the new entry landed at
    // (new_page, new_slot); its successor — the granule whose holders'
    // gap coverage must now also reach the new entry — is at
    // (next_page, next_slot). Not called when the key has no successor.
    std::function<void(PageId next_page, uint32_t next_slot, PageId new_page,
                       uint32_t new_slot)>
        transfer;
  };

  // Hooks a guarded erase runs under the same leaf-lock regime.
  struct EraseHooks {
    // Coverage transfer for the erased granule, run while the gap's
    // leaf locks are held: holders of (erased_page, erased_slot) must
    // move onto the key's successor entry (has_next) or stay covered by
    // the landing page (the erased key still routes to erased_page).
    std::function<void(PageId erased_page, uint32_t erased_slot, bool has_next,
                       PageId next_page, uint32_t next_slot)>
        transfer;
    // A fully empty leaf was unlinked from the chain and recycled. Runs
    // under the structure lock and the locks of the dead leaf and its
    // predecessor: page-granule SIREAD coverage of dead_page must be
    // transferred onto prev_page and (when nonzero) next_page, because
    // future inserts' gap probes will no longer visit dead_page.
    std::function<void(PageId dead_page, PageId prev_page, PageId next_page)>
        recycled;
  };

  enum class InsertResult { kInserted, kExists, kAborted };

  // One leaf's worth of scan results (a consistent snapshot of that
  // leaf, witnessed by the accompanying ReadView).
  struct LeafBatch {
    PageId page = 0;
    std::vector<std::string> keys;
    std::vector<TupleId> tids;
    std::vector<uint32_t> slots;
    void clear() {
      page = 0;
      keys.clear();
      tids.clear();
      slots.clear();
    }
  };

  /// Erased entries and dead nodes retire through `epoch`'s
  /// grace-period limbo; see the reclamation notes in the file comment.
  BTree(uint32_t fanout, util::EpochManager* epoch);
  /// Frees every node reachable from the root (retired ones belong to
  /// the limbo).
  ~BTree();
  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  void SetSplitListener(SplitListener fn) { split_listener_ = std::move(fn); }

  /// Inserts key -> tid. Returns false (and fills *page/*slot with the
  /// existing entry's location) if the key is already present.
  /// Thread-safe; equivalent to InsertGuarded with no hooks.
  bool Insert(const std::string& key, TupleId tid, PageId* page,
              uint32_t* slot = nullptr);

  /// Insert with gap-probe / coverage-transfer hooks (see InsertHooks).
  InsertResult InsertGuarded(const std::string& key, TupleId tid, PageId* page,
                             uint32_t* slot, const InsertHooks& hooks);

  /// Returns true and fills outputs if the key exists. `rv` (when given)
  /// witnesses the landing leaf for acquire-then-validate callers.
  bool Lookup(const std::string& key, TupleId* tid, PageId* page,
              uint32_t* slot = nullptr, ReadView* rv = nullptr) const;

  /// Removes the entry for `key` iff it still maps to expected_tid;
  /// returns false otherwise. Runs the erase hooks under the gap's leaf
  /// locks, then — when the leaf became empty — unlinks and recycles it
  /// (EraseHooks::recycled). Surviving entries' (page, slot) granules
  /// stay stable; slot numbers are never reused within a page lifetime.
  bool Erase(const std::string& key, TupleId expected_tid,
             const EraseHooks& hooks = {});

  /// The leaf page where `key` lives or would be inserted. Used for
  /// index-gap (phantom) locking of empty ranges.
  PageId PageFor(const std::string& key, ReadView* rv = nullptr) const;

  /// True iff every node the view witnessed is unlocked and unmodified
  /// since the view was taken. An empty view is trivially valid.
  bool Validate(const ReadView& rv) const;

  /// Fills `out` with the entries of the first leaf at-or-after `lo`
  /// that intersects [lo, hi], hopping (and witnessing) empty leaves.
  /// Returns false when no entry in [lo, hi] remains at-or-after lo; the
  /// ReadView then still witnesses the boundary leaf (the one holding
  /// the range's successor, or the chain tail), so a caller can install
  /// gap coverage and validate that the range end was quiescent.
  bool ScanLeaf(const std::string& lo, const std::string& hi, LeafBatch* out,
                ReadView* rv) const;

  /// In-order scan of [lo, hi] (inclusive). fn returns false to stop
  /// early. Point-in-time consistent per leaf (built on ScanLeaf); for
  /// SIREAD-tracked scans use ScanLeaf directly with the validation
  /// protocol.
  void Scan(const std::string& lo, const std::string& hi,
            const std::function<bool(const std::string& key, TupleId tid,
                                     PageId page, uint32_t slot)>& fn) const;

  /// First entry with key strictly greater than `key` (next-key locking).
  bool NextKey(const std::string& key, std::string* next, TupleId* tid,
               PageId* page, uint32_t* slot, ReadView* rv = nullptr) const;

  size_t size() const { return size_.load(std::memory_order_acquire); }
  size_t LeafCount() const { return leaf_count_.load(std::memory_order_acquire); }

  /// Test-only: force the next `n` guarded-insert attempts to restart
  /// after running the probe hook, exercising the restart cleanup path
  /// (lock release, no double allocation, no double transfer).
  void TestForceInsertRestarts(int n) {
    test_force_restarts_.store(n, std::memory_order_release);
  }

 private:
  struct Entry;
  struct Node;
  struct Leaf;
  struct Inner;

  // --- version-word protocol ---
  static uint64_t AwaitStable(const Node* n);
  static bool IsStable(uint64_t v) { return (v & 1) == 0; }
  static bool NodeValid(const Node* n, uint64_t v);
  static bool TryLockFrom(Node* n, uint64_t v);
  // Blocking write lock; returns the pre-lock (stable) version so the
  // caller can release with UnlockUnchanged when it modified nothing.
  static uint64_t LockNode(Node* n);
  static void UnlockBump(Node* n);
  static void UnlockUnchanged(Node* n, uint64_t pre_lock_version);

  Leaf* DescendToLeaf(const std::string& key, uint64_t* version) const;

  static void UnlockAllUnchanged(const std::vector<Leaf*>& locked,
                                 const std::vector<uint64_t>& pre_versions);

  // Entry array editing; the leaf must be write-locked by the caller.
  static void LeafInsertAt(Leaf* l, uint32_t pos, Entry* e);
  static void LeafEraseAt(Leaf* l, uint32_t pos);

  Leaf* AllocLeafLocked();  // returns a new, LOCKED leaf
  // Splits the (over-full, locked) leaf `l`; the entry just inserted at
  // `pos` determines *out_page. *right_out is the new leaf, still LOCKED.
  void SplitAndInsert(Leaf* l, uint32_t pos, PageId* out_page,
                      Leaf** right_out);
  void InsertIntoParent(Node* left, Entry* sep, Node* right);
  void TryRecycleLeaf(Leaf* l, const EraseHooks& hooks);
  void RemoveChildFromParent(Node* child);
  Leaf* PrevLeafLocked(Leaf* l) const;  // structure_mu_ held
  void RetireEntry(Entry* e);
  void RetireNode(Node* n);
  // Typed deleters the limbo invokes after the grace period.
  static void FreeEntryFn(void* p);
  static void FreeLeafFn(void* p);
  static void FreeInnerFn(void* p);
  // Frees n, its subtree, and the entries they own (destruction only).
  void FreeSubtree(Node* n);

  const uint32_t fanout_;
  const uint32_t leaf_cap_;   // fanout_ + 1 (one transient overflow slot)
  const uint32_t inner_cap_;  // fanout_ + 1 separator slots
  util::EpochManager* const epoch_;

  std::atomic<Node*> root_;
  std::atomic<uint64_t> next_page_id_{1};
  std::atomic<size_t> size_{0};
  std::atomic<size_t> leaf_count_{1};
  SplitListener split_listener_;

  // Serializes all structural surgery: leaf splits, inner-node edits,
  // empty-leaf unlink/recycle. Ordered BEFORE leaf locks.
  mutable std::mutex structure_mu_;

  std::atomic<int> test_force_restarts_{0};
};

}  // namespace pgssi
