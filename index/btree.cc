#include "index/btree.h"

#include <algorithm>
#include <cassert>
#include <thread>

namespace pgssi {

// An index entry. Immutable once published into a leaf's entry array;
// retired through the epoch limbo on erase, so a pinned latch-free
// reader can always dereference a pointer it loaded from a slot.
struct BTree::Entry {
  std::string key;
  TupleId tid;
  uint32_t slot;
};

struct BTree::Node {
  // Bit 0 = write-locked; upper bits count modifications. A reader
  // validates by re-loading and comparing the full word, so both a held
  // lock and a completed modification invalidate.
  std::atomic<uint64_t> version{0};
  const bool leaf;
  Inner* parent = nullptr;  // maintained and read only under structure_mu_
  explicit Node(bool l) : leaf(l) {}
};

struct BTree::Leaf : Node {
  explicit Leaf(uint32_t cap)
      : Node(true), entries(new std::atomic<Entry*>[cap]) {
    for (uint32_t i = 0; i < cap; i++) {
      entries[i].store(nullptr, std::memory_order_relaxed);
    }
  }
  std::atomic<PageId> page_id{0};
  std::atomic<uint32_t> count{0};
  std::unique_ptr<std::atomic<Entry*>[]> entries;  // sorted [0, count)
  std::atomic<Leaf*> next{nullptr};
  // Unlinked from the chain and retired. Set under this leaf's write
  // lock + structure_mu_.
  std::atomic<bool> dead{false};
  // Next slot number to hand out; slot numbers are never reused within
  // one page lifetime. Written only under this leaf's write lock.
  uint32_t next_slot = 0;
};

struct BTree::Inner : Node {
  explicit Inner(uint32_t key_cap)
      : Node(false),
        keys(new std::atomic<Entry*>[key_cap]),
        children(new std::atomic<Node*>[key_cap + 1]) {
    for (uint32_t i = 0; i < key_cap; i++) {
      keys[i].store(nullptr, std::memory_order_relaxed);
      children[i].store(nullptr, std::memory_order_relaxed);
    }
    children[key_cap].store(nullptr, std::memory_order_relaxed);
  }
  std::atomic<uint32_t> count{0};  // separator keys; children = count + 1
  std::unique_ptr<std::atomic<Entry*>[]> keys;
  std::unique_ptr<std::atomic<Node*>[]> children;
};

// ---------------------------------------------------------------------------
// Version-word protocol
// ---------------------------------------------------------------------------

uint64_t BTree::AwaitStable(const Node* n) {
  uint64_t v = n->version.load(std::memory_order_acquire);
  int spins = 0;
  while (v & 1) {
    if (++spins > 128) {
      std::this_thread::yield();
      spins = 0;
    }
    v = n->version.load(std::memory_order_acquire);
  }
  return v;
}

bool BTree::NodeValid(const Node* n, uint64_t v) {
  return n->version.load(std::memory_order_acquire) == v;
}

bool BTree::TryLockFrom(Node* n, uint64_t v) {
  return n->version.compare_exchange_strong(
      v, v + 1, std::memory_order_acq_rel, std::memory_order_acquire);
}

uint64_t BTree::LockNode(Node* n) {
  for (;;) {
    uint64_t v = AwaitStable(n);
    if (TryLockFrom(n, v)) return v;
  }
}

void BTree::UnlockBump(Node* n) {
  // odd (locked) -> next even value: releases the lock AND invalidates
  // every outstanding optimistic read of this node.
  n->version.fetch_add(1, std::memory_order_release);
}

void BTree::UnlockUnchanged(Node* n, uint64_t pre_lock_version) {
  // The critical section modified nothing: restore the pre-lock value so
  // concurrent optimistic reads stay valid (no spurious restarts).
  n->version.store(pre_lock_version, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Construction / destruction
// ---------------------------------------------------------------------------

BTree::BTree(uint32_t fanout, util::EpochManager* epoch)
    : fanout_(fanout < 4 ? 4 : fanout),
      leaf_cap_(fanout_ + 1),
      inner_cap_(fanout_ + 1),
      epoch_(epoch) {
  Leaf* l = new Leaf(leaf_cap_);
  l->page_id.store(next_page_id_.fetch_add(1, std::memory_order_relaxed),
                   std::memory_order_relaxed);
  root_.store(l, std::memory_order_release);
}

BTree::~BTree() { FreeSubtree(root_.load(std::memory_order_relaxed)); }

void BTree::FreeSubtree(Node* n) {
  // Entries are uniquely owned by a live slot: [0, count) of some node
  // (split leftovers beyond count are stale duplicates). Unlinked nodes
  // and erased entries are the limbo's, never reachable from the root.
  if (n->leaf) {
    Leaf* l = static_cast<Leaf*>(n);
    const uint32_t c = l->count.load(std::memory_order_relaxed);
    for (uint32_t i = 0; i < c; i++) {
      delete l->entries[i].load(std::memory_order_relaxed);
    }
    delete l;
    return;
  }
  Inner* in = static_cast<Inner*>(n);
  const uint32_t c = in->count.load(std::memory_order_relaxed);
  for (uint32_t i = 0; i < c; i++) {
    delete in->keys[i].load(std::memory_order_relaxed);
  }
  for (uint32_t i = 0; i <= c; i++) {
    FreeSubtree(in->children[i].load(std::memory_order_relaxed));
  }
  delete in;
}

void BTree::FreeEntryFn(void* p) { delete static_cast<Entry*>(p); }
void BTree::FreeLeafFn(void* p) { delete static_cast<Leaf*>(p); }
void BTree::FreeInnerFn(void* p) { delete static_cast<Inner*>(p); }

void BTree::RetireEntry(Entry* e) {
  // Unlinked from its slot already; a pinned reader holding a stale
  // pointer stays safe until the grace period passes, then the entry is
  // freed for real.
  epoch_->Retire(e, FreeEntryFn);
}

void BTree::RetireNode(Node* n) {
  epoch_->Retire(n, n->leaf ? FreeLeafFn : FreeInnerFn);
}

// ---------------------------------------------------------------------------
// Optimistic descent + reads
// ---------------------------------------------------------------------------

BTree::Leaf* BTree::DescendToLeaf(const std::string& key,
                                  uint64_t* version) const {
restart:
  Node* n = root_.load(std::memory_order_acquire);
  uint64_t v = AwaitStable(n);
  // The root has no parent to validate against, so close the window where
  // we loaded the old root, waited out its split, and resumed with a
  // *post-split* stable version of a node that no longer covers the full
  // key space. The new root is published before the old one unlocks, so
  // re-checking the pointer after AwaitStable suffices; if the root later
  // moves off n, that always bumps n and downstream validation catches it.
  if (n != root_.load(std::memory_order_acquire)) goto restart;
  while (!n->leaf) {
    const Inner* in = static_cast<const Inner*>(n);
    uint32_t cnt = in->count.load(std::memory_order_acquire);
    if (cnt > inner_cap_) goto restart;  // torn
    uint32_t i = 0;
    while (i < cnt) {
      Entry* e = in->keys[i].load(std::memory_order_acquire);
      if (e == nullptr) break;  // torn; validation below catches it
      if (key < e->key) break;  // child i holds keys < keys[i]
      ++i;
    }
    Node* child = in->children[i].load(std::memory_order_acquire);
    if (child == nullptr || !NodeValid(n, v)) goto restart;
    // Read the child's version BEFORE validating the parent once more:
    // a child split updates the parent before the child unlocks, so a
    // stable child version + valid parent proves the route is current.
    uint64_t cv = AwaitStable(child);
    if (!NodeValid(n, v)) goto restart;
    n = child;
    v = cv;
  }
  *version = v;
  return static_cast<Leaf*>(n);
}

namespace {
// First index in [0, cnt) with arr[idx]->key >= key; `cnt` must be
// pre-clamped to capacity. Safe on a concurrently mutated leaf: a torn
// view (null slot, shifted duplicates) yields a garbage index that the
// caller's version validation rejects; it never dereferences an invalid
// pointer (the caller's epoch pin keeps retired entries allocated).
template <typename EntryT>
uint32_t LowerBound(std::atomic<EntryT*>* arr, uint32_t cnt,
                    const std::string& key) {
  uint32_t lo = 0, hi = cnt;
  while (lo < hi) {
    uint32_t mid = (lo + hi) / 2;
    EntryT* e = arr[mid].load(std::memory_order_acquire);
    if (e != nullptr && e->key < key) {
      lo = mid + 1;
    } else {
      hi = mid;  // null (torn) sorts high; validation rejects the view
    }
  }
  return lo;
}
}  // namespace

bool BTree::Lookup(const std::string& key, TupleId* tid, PageId* page,
                   uint32_t* slot, ReadView* rv) const {
  for (;;) {
    uint64_t v;
    Leaf* l = DescendToLeaf(key, &v);
    uint32_t cnt = std::min(l->count.load(std::memory_order_acquire), leaf_cap_);
    uint32_t i = LowerBound(l->entries.get(), cnt, key);
    bool found = false;
    TupleId t = 0;
    PageId pg = l->page_id.load(std::memory_order_acquire);
    uint32_t s = 0;
    if (i < cnt) {
      Entry* e = l->entries[i].load(std::memory_order_acquire);
      if (e != nullptr && e->key == key) {
        found = true;
        t = e->tid;
        s = e->slot;
      }
    }
    if (!NodeValid(l, v)) continue;
    if (rv) {
      rv->clear();
      rv->nodes.emplace_back(l, v);
    }
    if (found) {
      if (tid) *tid = t;
      if (page) *page = pg;
      if (slot) *slot = s;
    }
    return found;
  }
}

PageId BTree::PageFor(const std::string& key, ReadView* rv) const {
  for (;;) {
    uint64_t v;
    Leaf* l = DescendToLeaf(key, &v);
    PageId pg = l->page_id.load(std::memory_order_acquire);
    if (!NodeValid(l, v)) continue;
    if (rv) {
      rv->clear();
      rv->nodes.emplace_back(l, v);
    }
    return pg;
  }
}

bool BTree::Validate(const ReadView& rv) const {
  for (const auto& [n, v] : rv.nodes) {
    if (!NodeValid(static_cast<const Node*>(n), v)) return false;
  }
  return true;
}

bool BTree::ScanLeaf(const std::string& lo, const std::string& hi,
                     LeafBatch* out, ReadView* rv) const {
restart:
  out->clear();
  if (rv) rv->clear();
  uint64_t v;
  Leaf* l = DescendToLeaf(lo, &v);
  for (;;) {
    out->clear();
    uint32_t cnt = std::min(l->count.load(std::memory_order_acquire), leaf_cap_);
    bool past_hi = false;
    bool torn = false;
    for (uint32_t i = 0; i < cnt; i++) {
      Entry* e = l->entries[i].load(std::memory_order_acquire);
      if (e == nullptr) {
        torn = true;
        break;
      }
      if (e->key < lo) continue;
      if (e->key > hi) {
        past_hi = true;
        break;
      }
      out->keys.push_back(e->key);
      out->tids.push_back(e->tid);
      out->slots.push_back(e->slot);
    }
    Leaf* nxt = l->next.load(std::memory_order_acquire);
    PageId pg = l->page_id.load(std::memory_order_acquire);
    if (torn || !NodeValid(l, v)) goto restart;
    if (rv) rv->nodes.emplace_back(l, v);
    out->page = pg;
    if (!out->keys.empty()) return true;
    if (past_hi || nxt == nullptr) return false;
    // Empty in-range leaf: hop. Revalidating l after reading the next
    // leaf's version proves the hop target was still linked (an unlink
    // locks and bumps the predecessor), so an unlinked leaf can never be
    // mistaken for the successor.
    uint64_t nv = AwaitStable(nxt);
    if (!NodeValid(l, v)) goto restart;
    l = nxt;
    v = nv;
  }
}

void BTree::Scan(const std::string& lo, const std::string& hi,
                 const std::function<bool(const std::string&, TupleId, PageId,
                                          uint32_t)>& fn) const {
  std::string cur = lo;
  LeafBatch b;
  for (;;) {
    bool more = ScanLeaf(cur, hi, &b, nullptr);
    for (size_t i = 0; i < b.keys.size(); i++) {
      if (!fn(b.keys[i], b.tids[i], b.page, b.slots[i])) return;
    }
    if (!more || b.keys.empty()) return;
    cur = b.keys.back() + '\0';  // immediate successor in byte order
  }
}

bool BTree::NextKey(const std::string& key, std::string* next, TupleId* tid,
                    PageId* page, uint32_t* slot, ReadView* rv) const {
restart:
  if (rv) rv->clear();
  {
    uint64_t v;
    Leaf* l = DescendToLeaf(key, &v);
    for (;;) {
      uint32_t cnt = std::min(l->count.load(std::memory_order_acquire), leaf_cap_);
      // First entry strictly greater than key.
      uint32_t i = LowerBound(l->entries.get(), cnt, key);
      Entry* e = nullptr;
      if (i < cnt) {
        e = l->entries[i].load(std::memory_order_acquire);
        if (e != nullptr && e->key == key) {
          e = (i + 1 < cnt) ? l->entries[i + 1].load(std::memory_order_acquire)
                            : nullptr;
        }
      }
      if (e != nullptr) {
        std::string k = e->key;
        TupleId t = e->tid;
        uint32_t s = e->slot;
        PageId pg = l->page_id.load(std::memory_order_acquire);
        if (!NodeValid(l, v)) goto restart;
        if (rv) rv->nodes.emplace_back(l, v);
        if (next) *next = std::move(k);
        if (tid) *tid = t;
        if (page) *page = pg;
        if (slot) *slot = s;
        return true;
      }
      Leaf* nxt = l->next.load(std::memory_order_acquire);
      if (!NodeValid(l, v)) goto restart;
      if (rv) rv->nodes.emplace_back(l, v);
      if (nxt == nullptr) return false;
      uint64_t nv = AwaitStable(nxt);
      if (!NodeValid(l, v)) goto restart;
      l = nxt;
      v = nv;
    }
  }
}

// ---------------------------------------------------------------------------
// Leaf editing (write lock held)
// ---------------------------------------------------------------------------

void BTree::LeafInsertAt(Leaf* l, uint32_t pos, Entry* e) {
  uint32_t cnt = l->count.load(std::memory_order_relaxed);
  for (uint32_t j = cnt; j > pos; j--) {
    l->entries[j].store(l->entries[j - 1].load(std::memory_order_relaxed),
                        std::memory_order_release);
  }
  l->entries[pos].store(e, std::memory_order_release);
  l->count.store(cnt + 1, std::memory_order_release);
}

void BTree::LeafEraseAt(Leaf* l, uint32_t pos) {
  uint32_t cnt = l->count.load(std::memory_order_relaxed);
  for (uint32_t j = pos; j + 1 < cnt; j++) {
    l->entries[j].store(l->entries[j + 1].load(std::memory_order_relaxed),
                        std::memory_order_release);
  }
  l->count.store(cnt - 1, std::memory_order_release);
}

void BTree::UnlockAllUnchanged(const std::vector<Leaf*>& locked,
                               const std::vector<uint64_t>& pre_versions) {
  for (size_t i = locked.size(); i > 0; i--) {
    UnlockUnchanged(locked[i - 1], pre_versions[i - 1]);
  }
}

// ---------------------------------------------------------------------------
// Insert
// ---------------------------------------------------------------------------

bool BTree::Insert(const std::string& key, TupleId tid, PageId* page,
                   uint32_t* slot) {
  return InsertGuarded(key, tid, page, slot, {}) == InsertResult::kInserted;
}

namespace {
enum class Attempt { kDone, kNeedSplit, kRetry };
}  // namespace

BTree::InsertResult BTree::InsertGuarded(const std::string& key, TupleId tid,
                                         PageId* page, uint32_t* slot,
                                         const InsertHooks& hooks) {
  auto attempt = [&](Leaf* l, uint64_t lv, bool may_split,
                     InsertResult* out) -> Attempt {
    uint32_t cnt = l->count.load(std::memory_order_relaxed);
    uint32_t pos = LowerBound(l->entries.get(), cnt, key);
    if (pos < cnt) {
      Entry* e = l->entries[pos].load(std::memory_order_relaxed);
      if (e->key == key) {
        if (page) *page = l->page_id.load(std::memory_order_relaxed);
        if (slot) *slot = e->slot;
        UnlockUnchanged(l, lv);
        *out = InsertResult::kExists;
        return Attempt::kDone;
      }
    }

    // Lock the whole gap span: every leaf from the landing leaf through
    // the one holding the key's successor (chain order — deadlock-free).
    // This serializes inserts into the same gap and pins the granules
    // the gap probe and post-insert transfer touch.
    std::vector<Leaf*> locked{l};
    std::vector<uint64_t> prevs{lv};
    bool has_next = false;
    PageId next_page = 0;
    uint32_t next_slot_no = 0;
    if (pos < cnt) {
      Entry* se = l->entries[pos].load(std::memory_order_relaxed);
      has_next = true;
      next_page = l->page_id.load(std::memory_order_relaxed);
      next_slot_no = se->slot;
    } else {
      Leaf* last = l;
      for (;;) {
        Leaf* nxt = last->next.load(std::memory_order_relaxed);
        if (nxt == nullptr) break;
        uint64_t pre = LockNode(nxt);
        locked.push_back(nxt);
        prevs.push_back(pre);
        last = nxt;
        uint32_t lcnt = last->count.load(std::memory_order_relaxed);
        if (lcnt > 0) {
          Entry* se = last->entries[0].load(std::memory_order_relaxed);
          has_next = true;
          next_page = last->page_id.load(std::memory_order_relaxed);
          next_slot_no = se->slot;
          break;
        }
      }
    }

    // Test-only forced restart: exercises the release-and-retry path
    // (probe already ran; no allocation or transfer must have happened).
    if (test_force_restarts_.load(std::memory_order_relaxed) > 0 &&
        test_force_restarts_.fetch_sub(1, std::memory_order_acq_rel) > 0) {
      if (hooks.probe) {
        std::vector<PageId> pages;
        for (Leaf* lf : locked) {
          pages.push_back(lf->page_id.load(std::memory_order_relaxed));
        }
        (void)hooks.probe(pages, has_next, next_page, next_slot_no);
      }
      UnlockAllUnchanged(locked, prevs);
      return Attempt::kRetry;
    }

    if (hooks.probe) {
      std::vector<PageId> pages;
      for (Leaf* lf : locked) {
        pages.push_back(lf->page_id.load(std::memory_order_relaxed));
      }
      if (!hooks.probe(pages, has_next, next_page, next_slot_no)) {
        UnlockAllUnchanged(locked, prevs);
        *out = InsertResult::kAborted;
        return Attempt::kDone;
      }
    }

    if (cnt + 1 > fanout_ && !may_split) {
      UnlockAllUnchanged(locked, prevs);
      return Attempt::kNeedSplit;
    }

    Entry* e = new Entry{key, tid, l->next_slot++};
    LeafInsertAt(l, pos, e);
    size_.fetch_add(1, std::memory_order_release);
    PageId landing = l->page_id.load(std::memory_order_relaxed);
    Leaf* right = nullptr;
    if (cnt + 1 > fanout_) {
      // Split (structure_mu_ held by the caller): the successor entry may
      // move to the new right leaf, so recapture its coordinates.
      Entry* succ = nullptr;
      if (has_next && locked.size() == 1) {
        succ = l->entries[pos + 1].load(std::memory_order_relaxed);
      }
      SplitAndInsert(l, pos, &landing, &right);
      if (succ != nullptr) {
        next_page = l->page_id.load(std::memory_order_relaxed);
        uint32_t lcnt = l->count.load(std::memory_order_relaxed);
        bool in_left = false;
        for (uint32_t i = 0; i < lcnt; i++) {
          if (l->entries[i].load(std::memory_order_relaxed) == succ) {
            in_left = true;
            break;
          }
        }
        if (!in_left) next_page = right->page_id.load(std::memory_order_relaxed);
      }
    }
    if (page) *page = landing;
    if (slot) *slot = e->slot;
    if (hooks.transfer && has_next) {
      hooks.transfer(next_page, next_slot_no, landing, e->slot);
    }
    if (right != nullptr) UnlockBump(right);
    UnlockBump(l);
    for (size_t i = 1; i < locked.size(); i++) {
      UnlockUnchanged(locked[i], prevs[i]);
    }
    *out = InsertResult::kInserted;
    return Attempt::kDone;
  };

  for (;;) {
    uint64_t v;
    Leaf* l = DescendToLeaf(key, &v);
    if (!TryLockFrom(l, v)) continue;
    if (l->dead.load(std::memory_order_relaxed)) {
      UnlockUnchanged(l, v);
      continue;
    }
    InsertResult out;
    Attempt a = attempt(l, v, /*may_split=*/false, &out);
    if (a == Attempt::kDone) return out;
    if (a == Attempt::kRetry) continue;
    // Full leaf: retry pessimistically under the structure lock (lock
    // order: structure_mu_ strictly before leaf locks).
    std::lock_guard<std::mutex> sg(structure_mu_);
    for (;;) {
      uint64_t v2;
      Leaf* l2 = DescendToLeaf(key, &v2);
      if (!TryLockFrom(l2, v2)) continue;
      if (l2->dead.load(std::memory_order_relaxed)) {
        UnlockUnchanged(l2, v2);
        continue;
      }
      Attempt a2 = attempt(l2, v2, /*may_split=*/true, &out);
      if (a2 == Attempt::kDone) return out;
      // kRetry (test hook) — loop again under the structure lock.
    }
  }
}

BTree::Leaf* BTree::AllocLeafLocked() {
  Leaf* r = new Leaf(leaf_cap_);
  LockNode(r);
  // PageIds are never reused: granules of an unlinked leaf can never
  // alias a new one.
  r->page_id.store(next_page_id_.fetch_add(1, std::memory_order_relaxed),
                   std::memory_order_release);
  return r;
}

void BTree::SplitAndInsert(Leaf* l, uint32_t pos, PageId* out_page,
                           Leaf** right_out) {
  uint32_t cnt = l->count.load(std::memory_order_relaxed);  // fanout_ + 1
  uint32_t mid = cnt / 2;
  Leaf* r = AllocLeafLocked();
  for (uint32_t i = mid; i < cnt; i++) {
    r->entries[i - mid].store(l->entries[i].load(std::memory_order_relaxed),
                              std::memory_order_release);
  }
  r->count.store(cnt - mid, std::memory_order_release);
  r->next_slot = l->next_slot;
  r->next.store(l->next.load(std::memory_order_relaxed),
                std::memory_order_release);
  l->count.store(mid, std::memory_order_release);
  l->next.store(r, std::memory_order_release);
  leaf_count_.fetch_add(1, std::memory_order_release);

  *out_page = (pos >= mid) ? r->page_id.load(std::memory_order_relaxed)
                           : l->page_id.load(std::memory_order_relaxed);

  if (split_listener_) {
    std::vector<uint32_t> moved;
    uint32_t rcnt = cnt - mid;
    moved.reserve(rcnt);
    for (uint32_t i = 0; i < rcnt; i++) {
      moved.push_back(r->entries[i].load(std::memory_order_relaxed)->slot);
    }
    split_listener_(l->page_id.load(std::memory_order_relaxed),
                    r->page_id.load(std::memory_order_relaxed), moved);
  }

  Entry* sep =
      new Entry{r->entries[0].load(std::memory_order_relaxed)->key, 0, 0};
  InsertIntoParent(l, sep, r);
  *right_out = r;
}

void BTree::InsertIntoParent(Node* left, Entry* sep, Node* right) {
  if (left == root_.load(std::memory_order_relaxed)) {
    Inner* nr = new Inner(inner_cap_);
    nr->keys[0].store(sep, std::memory_order_relaxed);
    nr->children[0].store(left, std::memory_order_relaxed);
    nr->children[1].store(right, std::memory_order_relaxed);
    nr->count.store(1, std::memory_order_relaxed);
    left->parent = nr;
    right->parent = nr;
    root_.store(nr, std::memory_order_release);
    return;
  }
  Inner* p = left->parent;
  LockNode(p);
  uint32_t cnt = p->count.load(std::memory_order_relaxed);
  uint32_t i = 0;
  while (i < cnt &&
         !(sep->key < p->keys[i].load(std::memory_order_relaxed)->key)) {
    i++;
  }
  for (uint32_t j = cnt; j > i; j--) {
    p->keys[j].store(p->keys[j - 1].load(std::memory_order_relaxed),
                     std::memory_order_release);
  }
  p->keys[i].store(sep, std::memory_order_release);
  for (uint32_t j = cnt + 1; j > i + 1; j--) {
    p->children[j].store(p->children[j - 1].load(std::memory_order_relaxed),
                         std::memory_order_release);
  }
  p->children[i + 1].store(right, std::memory_order_release);
  p->count.store(cnt + 1, std::memory_order_release);
  right->parent = p;

  if (cnt + 1 > fanout_) {
    uint32_t pcnt = cnt + 1;  // == fanout_ + 1 == inner_cap_
    uint32_t mid = pcnt / 2;
    Inner* r = new Inner(inner_cap_);
    LockNode(r);
    Entry* up = p->keys[mid].load(std::memory_order_relaxed);
    for (uint32_t j = mid + 1; j < pcnt; j++) {
      r->keys[j - mid - 1].store(p->keys[j].load(std::memory_order_relaxed),
                                 std::memory_order_release);
    }
    for (uint32_t j = mid + 1; j <= pcnt; j++) {
      Node* c = p->children[j].load(std::memory_order_relaxed);
      r->children[j - mid - 1].store(c, std::memory_order_release);
      c->parent = r;
    }
    r->count.store(pcnt - mid - 1, std::memory_order_release);
    p->count.store(mid, std::memory_order_release);
    InsertIntoParent(p, up, r);
    UnlockBump(r);
  }
  UnlockBump(p);
}

// ---------------------------------------------------------------------------
// Erase + empty-leaf recycling
// ---------------------------------------------------------------------------

bool BTree::Erase(const std::string& key, TupleId expected_tid,
                  const EraseHooks& hooks) {
  for (;;) {
    uint64_t v;
    Leaf* l = DescendToLeaf(key, &v);
    if (!TryLockFrom(l, v)) continue;
    if (l->dead.load(std::memory_order_relaxed)) {
      UnlockUnchanged(l, v);
      continue;
    }
    uint32_t cnt = l->count.load(std::memory_order_relaxed);
    uint32_t pos = LowerBound(l->entries.get(), cnt, key);
    Entry* e = pos < cnt ? l->entries[pos].load(std::memory_order_relaxed)
                         : nullptr;
    if (e == nullptr || e->key != key || e->tid != expected_tid) {
      UnlockUnchanged(l, v);
      return false;
    }

    // Lock through the successor's leaf: the coverage transfer below and
    // any concurrent insert into the re-joined gap must serialize.
    std::vector<Leaf*> locked{l};
    std::vector<uint64_t> prevs{v};
    bool has_next = false;
    PageId next_page = 0;
    uint32_t next_slot_no = 0;
    if (pos + 1 < cnt) {
      Entry* se = l->entries[pos + 1].load(std::memory_order_relaxed);
      has_next = true;
      next_page = l->page_id.load(std::memory_order_relaxed);
      next_slot_no = se->slot;
    } else {
      Leaf* last = l;
      for (;;) {
        Leaf* nxt = last->next.load(std::memory_order_relaxed);
        if (nxt == nullptr) break;
        uint64_t pre = LockNode(nxt);
        locked.push_back(nxt);
        prevs.push_back(pre);
        last = nxt;
        uint32_t lcnt = last->count.load(std::memory_order_relaxed);
        if (lcnt > 0) {
          Entry* se = last->entries[0].load(std::memory_order_relaxed);
          has_next = true;
          next_page = last->page_id.load(std::memory_order_relaxed);
          next_slot_no = se->slot;
          break;
        }
      }
    }

    PageId erased_page = l->page_id.load(std::memory_order_relaxed);
    uint32_t erased_slot = e->slot;
    LeafEraseAt(l, pos);
    size_.fetch_sub(1, std::memory_order_release);
    RetireEntry(e);
    if (hooks.transfer) {
      hooks.transfer(erased_page, erased_slot, has_next, next_page,
                     next_slot_no);
    }
    bool now_empty = l->count.load(std::memory_order_relaxed) == 0;
    UnlockBump(l);
    for (size_t i = 1; i < locked.size(); i++) {
      UnlockUnchanged(locked[i], prevs[i]);
    }
    if (now_empty) TryRecycleLeaf(l, hooks);
    return true;
  }
}

BTree::Leaf* BTree::PrevLeafLocked(Leaf* l) const {
  Node* n = l;
  Inner* p = n->parent;
  while (p != nullptr) {
    uint32_t cnt = p->count.load(std::memory_order_relaxed);
    uint32_t i = 0;
    while (i <= cnt && p->children[i].load(std::memory_order_relaxed) != n) {
      i++;
    }
    if (i > cnt) return nullptr;  // inconsistent; skip recycling
    if (i > 0) {
      Node* c = p->children[i - 1].load(std::memory_order_relaxed);
      while (!c->leaf) {
        Inner* in = static_cast<Inner*>(c);
        c = in->children[in->count.load(std::memory_order_relaxed)].load(
            std::memory_order_relaxed);
      }
      return static_cast<Leaf*>(c);
    }
    n = p;
    p = n->parent;
  }
  return nullptr;  // l is the leftmost leaf
}

void BTree::TryRecycleLeaf(Leaf* l, const EraseHooks& hooks) {
  std::lock_guard<std::mutex> sg(structure_mu_);
  if (l->dead.load(std::memory_order_relaxed)) return;
  if (root_.load(std::memory_order_relaxed) == l) return;
  if (l->count.load(std::memory_order_acquire) != 0) return;  // refilled
  Leaf* prev = PrevLeafLocked(l);
  // The leftmost leaf is deliberately never recycled. It is the chain
  // anchor: every scan that starts below the first separator lands on
  // it, and the unlink protocol publishes an unlink by locking-and-
  // bumping the PREDECESSOR (that is how parked readers hopping the
  // chain detect it) — the head has no predecessor to publish through.
  // It is also the root's leftmost descent target, so splicing it out
  // would require re-seating children[0] along the whole left spine.
  // The cost of keeping it is one empty leaf per table, a constant; the
  // fanout-4 regression pins both properties (never recycled, bounded
  // leftover).
  if (prev == nullptr) return;
  uint64_t prev_pre = LockNode(prev);
  uint64_t l_pre = LockNode(l);
  if (l->count.load(std::memory_order_relaxed) != 0 ||
      prev->next.load(std::memory_order_relaxed) != l) {
    UnlockUnchanged(l, l_pre);
    UnlockUnchanged(prev, prev_pre);
    return;
  }
  Leaf* nxt = l->next.load(std::memory_order_relaxed);
  prev->next.store(nxt, std::memory_order_release);
  l->dead.store(true, std::memory_order_release);
  RemoveChildFromParent(l);
  leaf_count_.fetch_sub(1, std::memory_order_release);
  if (hooks.recycled) {
    hooks.recycled(l->page_id.load(std::memory_order_relaxed),
                   prev->page_id.load(std::memory_order_relaxed),
                   nxt != nullptr ? nxt->page_id.load(std::memory_order_relaxed)
                                  : 0);
  }
  UnlockBump(l);
  UnlockBump(prev);
  // Unlinked from the chain and the parent: hand it to the limbo. Parked
  // readers (pinned) may still traverse l->next until their pin passes;
  // the memory outlives them by the grace-period contract.
  RetireNode(l);
}

void BTree::RemoveChildFromParent(Node* child) {
  Inner* p = child->parent;
  if (p == nullptr) return;
  LockNode(p);
  uint32_t cnt = p->count.load(std::memory_order_relaxed);
  uint32_t i = 0;
  while (i <= cnt && p->children[i].load(std::memory_order_relaxed) != child) {
    i++;
  }
  if (i > cnt || cnt == 0) {
    UnlockBump(p);
    return;
  }
  uint32_t ki = i > 0 ? i - 1 : 0;
  Entry* removed_sep = p->keys[ki].load(std::memory_order_relaxed);
  for (uint32_t j = ki; j + 1 < cnt; j++) {
    p->keys[j].store(p->keys[j + 1].load(std::memory_order_relaxed),
                     std::memory_order_release);
  }
  for (uint32_t j = i; j < cnt; j++) {
    p->children[j].store(p->children[j + 1].load(std::memory_order_relaxed),
                         std::memory_order_release);
  }
  p->count.store(cnt - 1, std::memory_order_release);
  RetireEntry(removed_sep);
  bool collapse = (cnt - 1 == 0);
  UnlockBump(p);
  if (collapse) {
    // p routes a single child: splice it out so descents stay shallow.
    Node* only = p->children[0].load(std::memory_order_relaxed);
    if (root_.load(std::memory_order_relaxed) == p) {
      only->parent = nullptr;
      root_.store(only, std::memory_order_release);
    } else {
      Inner* gp = p->parent;
      LockNode(gp);
      uint32_t gcnt = gp->count.load(std::memory_order_relaxed);
      for (uint32_t j = 0; j <= gcnt; j++) {
        if (gp->children[j].load(std::memory_order_relaxed) == p) {
          gp->children[j].store(only, std::memory_order_release);
          break;
        }
      }
      only->parent = gp;
      UnlockBump(gp);
    }
    // Invalidate parked optimistic readers inside the spliced-out node.
    p->version.fetch_add(2, std::memory_order_release);
    // p holds no keys (collapse means count hit 0) and its only child was
    // re-seated above, so nothing live is reachable through it.
    RetireNode(p);
  }
}

}  // namespace pgssi
