#include "ssi/siread_lock_manager.h"

#include <algorithm>
#include <limits>

namespace pgssi::ssi {
namespace {
constexpr uint64_t kInf = std::numeric_limits<uint64_t>::max();

uint64_t MixHash(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

void DeleteXact(void* p) { delete static_cast<SerializableXact*>(p); }
void DeleteHolderSet(void* p) {
  delete static_cast<std::unordered_set<SerializableXact*>*>(p);
}
}  // namespace

SireadLockManager::SireadLockManager(const EngineConfig& cfg,
                                     util::EpochManager* epoch)
    : cfg_(cfg),
      epoch_(epoch),
      partitions_(new Partition[kPartitions]),
      xact_shards_(new XactShard[kXactShards]) {}

SireadLockManager::~SireadLockManager() {
  // Destruction contract: quiesced. Anything already handed to the
  // epoch limbo is freed by the EpochManager; everything still linked
  // here is freed directly.
  for (size_t i = 0; i < kPartitions; ++i) {
    Partition& p = partitions_[i];
    for (auto& [k, s] : p.tuple_locks) delete s;
    for (auto& [k, s] : p.page_locks) delete s;
    for (auto& [k, s] : p.rel_locks) delete s;
  }
  for (size_t i = 0; i < kXactShards; ++i) {
    for (auto& [xid, x] : xact_shards_[i].map) delete x;
  }
}

class SireadLockManager::EdgePairLock {
 public:
  EdgePairLock(SerializableXact* a, SerializableXact* b)
      : lo_(a->xid <= b->xid ? a : b), hi_(a->xid <= b->xid ? b : a) {
    lo_->edge_mu.lock();
    if (hi_ != lo_) hi_->edge_mu.lock();
  }
  ~EdgePairLock() {
    if (hi_ != lo_) hi_->edge_mu.unlock();
    lo_->edge_mu.unlock();
  }
  EdgePairLock(const EdgePairLock&) = delete;
  EdgePairLock& operator=(const EdgePairLock&) = delete;

 private:
  SerializableXact* lo_;
  SerializableXact* hi_;
};

size_t SireadLockManager::PartitionIndex(RelationId rel, PageId page) const {
  return static_cast<size_t>(MixHash(
             static_cast<uint64_t>(rel) * 0x9E3779B97F4A7C15ULL ^ page)) &
         (kPartitions - 1);
}

size_t SireadLockManager::PartitionIndexForRelation(RelationId rel) const {
  // Any deterministic partition works; spread relations with a distinct
  // stream so they don't pile onto the partition of some hot page.
  return static_cast<size_t>(
             MixHash(static_cast<uint64_t>(rel) + 0xC2B2AE3D27D4EB4FULL)) &
         (kPartitions - 1);
}

SireadLockManager::XactShard& SireadLockManager::ShardFor(XactId xid) const {
  return xact_shards_[MixHash(xid) & (kXactShards - 1)];
}

void SireadLockManager::SyncOccupancy(Partition& p) const {
  p.mu.AssertHeld();
  p.occupancy.store(
      static_cast<int64_t>(p.tuple_locks.size() + p.page_locks.size() +
                           p.rel_locks.size()),
      std::memory_order_seq_cst);
}

void SireadLockManager::FreeHolderSet(HolderSet* s) {
  epoch_->Retire(s, DeleteHolderSet);
}

SireadLockManager::HolderSet* SireadLockManager::GetOrCreate(
    std::map<TupleTag, HolderSet*>& m, const TupleTag& k) {
  auto [it, inserted] = m.try_emplace(k, nullptr);
  if (inserted) it->second = new HolderSet();
  return it->second;
}

SireadLockManager::HolderSet* SireadLockManager::GetOrCreate(
    std::map<std::pair<RelationId, PageId>, HolderSet*>& m,
    const std::pair<RelationId, PageId>& k) {
  auto [it, inserted] = m.try_emplace(k, nullptr);
  if (inserted) it->second = new HolderSet();
  return it->second;
}

SireadLockManager::HolderSet* SireadLockManager::GetOrCreate(
    std::unordered_map<RelationId, HolderSet*>& m, RelationId k) {
  auto [it, inserted] = m.try_emplace(k, nullptr);
  if (inserted) it->second = new HolderSet();
  return it->second;
}

SerializableXact* SireadLockManager::Register(XactId xid, uint64_t snapshot_seq,
                                              bool read_only) {
  auto* x = new SerializableXact();
  x->xid = xid;
  x->snapshot_seq = snapshot_seq;
  x->read_only = read_only;
  XactShard& sh = ShardFor(xid);
  std::lock_guard<CheckedMutex> sl(sh.mu);
  sh.map[xid] = x;
  return x;
}

SerializableXact* SireadLockManager::LookupXact(XactId xid) const {
  XactShard& sh = ShardFor(xid);
  std::lock_guard<CheckedMutex> sl(sh.mu);
  auto it = sh.map.find(xid);
  return it == sh.map.end() ? nullptr : it->second;
}

bool SireadLockManager::UnregisterFromShard(SerializableXact* x) {
  XactShard& sh = ShardFor(x->xid);
  std::lock_guard<CheckedMutex> sl(sh.mu);
  auto it = sh.map.find(x->xid);
  if (it == sh.map.end() || it->second != x) return false;
  sh.map.erase(it);
  return true;
}

// ---------------------------------------------------------------------------
// SIREAD acquisition with tuple -> page -> relation promotion (Section 5.1)
//
// Fast path: one partition lock (tuple and page granules of a (rel, page)
// share a partition) plus the xact's held_mu spinlock. Escalation to
// relation granularity leaves the fast path and takes the relation's
// partition, then retires the finer locks partition by partition — the
// relation lock is installed FIRST, so coverage is never lost, and map
// entries are only ever removed together with their held-list twin, so
// the bookkeeping invariant holds at every instant.
// ---------------------------------------------------------------------------

bool SireadLockManager::PromoteTuplesToPageLocked(Partition& p, RelationId rel,
                                                  PageId page,
                                                  SerializableXact* x) {
  p.mu.AssertHeld();
  auto ht = x->held_tuples.find({rel, page});
  if (ht != x->held_tuples.end()) {
    for (uint32_t s : ht->second) EraseTupleHolder(p, rel, page, s, x);
    x->held_tuples.erase(ht);
  }
  page_promotions_.fetch_add(1, std::memory_order_relaxed);
  auto& pages = x->held_pages[rel];
  if (pages.insert(page).second) {
    GetOrCreate(p.page_locks, {rel, page})->insert(x);
  }
  return pages.size() > cfg_.max_pages_per_relation;
}

void SireadLockManager::EraseTupleHolder(Partition& p, RelationId rel,
                                         PageId page, uint32_t slot,
                                         SerializableXact* x) {
  p.mu.AssertHeld();
  auto it = p.tuple_locks.find({rel, page, slot});
  if (it == p.tuple_locks.end()) return;
  it->second->erase(x);
  if (it->second->empty()) {
    HolderSet* s = it->second;
    p.tuple_locks.erase(it);
    FreeHolderSet(s);
  }
}

void SireadLockManager::ErasePageHolder(Partition& p, RelationId rel,
                                        PageId page, SerializableXact* x) {
  p.mu.AssertHeld();
  auto it = p.page_locks.find({rel, page});
  if (it == p.page_locks.end()) return;
  it->second->erase(x);
  if (it->second->empty()) {
    HolderSet* s = it->second;
    p.page_locks.erase(it);
    FreeHolderSet(s);
  }
}

void SireadLockManager::EraseRelationHolder(Partition& p, RelationId rel,
                                            SerializableXact* x) {
  p.mu.AssertHeld();
  auto it = p.rel_locks.find(rel);
  if (it == p.rel_locks.end()) return;
  if (it->second->erase(x)) {
    rel_lock_count_.fetch_sub(1, std::memory_order_acq_rel);
  }
  if (it->second->empty()) {
    HolderSet* s = it->second;
    p.rel_locks.erase(it);
    FreeHolderSet(s);
  }
}

void SireadLockManager::AcquireTuple(SerializableXact* x, RelationId rel,
                                     PageId page, uint32_t slot) {
  if (x == nullptr || x->safe_snapshot.load(std::memory_order_relaxed) ||
      x->aborted.load(std::memory_order_relaxed)) {
    return;
  }
  bool need_relation_promotion = false;
  {
    Partition& p = PartitionFor(rel, page);
    std::lock_guard<CheckedMutex> pl(p.mu);
    std::lock_guard<SpinLock> hl(x->held_mu);
    if (x->defunct.load(std::memory_order_relaxed)) return;
    if (x->held_relations.count(rel)) return;  // covered by coarser lock
    auto hp = x->held_pages.find(rel);
    if (hp != x->held_pages.end() && hp->second.count(page)) return;

    auto& slots = x->held_tuples[{rel, page}];
    if (std::find(slots.begin(), slots.end(), slot) != slots.end()) return;
    slots.push_back(slot);
    GetOrCreate(p.tuple_locks, {rel, page, slot})->insert(x);

    if (slots.size() > cfg_.max_locks_per_page) {
      // Promote: replace this xact's tuple locks on the page with one page
      // lock (escalation never loses information, only precision).
      need_relation_promotion = PromoteTuplesToPageLocked(p, rel, page, x);
    }
    SyncOccupancy(p);
  }
  if (need_relation_promotion) {
    AcquireRelationInternal(x, rel, /*from_promotion=*/true);
  }
}

void SireadLockManager::AcquirePage(SerializableXact* x, RelationId rel,
                                    PageId page) {
  if (x == nullptr || x->safe_snapshot.load(std::memory_order_relaxed) ||
      x->aborted.load(std::memory_order_relaxed)) {
    return;
  }
  bool need_relation_promotion = false;
  {
    Partition& p = PartitionFor(rel, page);
    std::lock_guard<CheckedMutex> pl(p.mu);
    std::lock_guard<SpinLock> hl(x->held_mu);
    if (x->defunct.load(std::memory_order_relaxed)) return;
    if (x->held_relations.count(rel)) return;
    auto& pages = x->held_pages[rel];
    if (!pages.insert(page).second) return;
    GetOrCreate(p.page_locks, {rel, page})->insert(x);
    // Drop now-redundant tuple locks on this page (same partition).
    auto ht = x->held_tuples.find({rel, page});
    if (ht != x->held_tuples.end()) {
      for (uint32_t s : ht->second) EraseTupleHolder(p, rel, page, s, x);
      x->held_tuples.erase(ht);
    }
    need_relation_promotion = pages.size() > cfg_.max_pages_per_relation;
    SyncOccupancy(p);
  }
  if (need_relation_promotion) {
    AcquireRelationInternal(x, rel, /*from_promotion=*/true);
  }
}

void SireadLockManager::AcquireRelation(SerializableXact* x, RelationId rel) {
  if (x == nullptr || x->safe_snapshot.load(std::memory_order_relaxed) ||
      x->aborted.load(std::memory_order_relaxed)) {
    return;
  }
  AcquireRelationInternal(x, rel, /*from_promotion=*/false);
}

void SireadLockManager::AcquireRelationInternal(SerializableXact* x,
                                                RelationId rel,
                                                bool from_promotion) {
  {
    // Install the relation-granule lock first: from this instant probes of
    // any page in `rel` see x, so retiring the finer locks below can never
    // open a coverage gap.
    Partition& rp = PartitionForRelation(rel);
    std::lock_guard<CheckedMutex> pl(rp.mu);
    std::lock_guard<SpinLock> hl(x->held_mu);
    if (x->defunct.load(std::memory_order_relaxed)) return;
    if (!x->held_relations.insert(rel).second) return;  // already held
    GetOrCreate(rp.rel_locks, rel)->insert(x);
    rel_lock_count_.fetch_add(1, std::memory_order_acq_rel);
    SyncOccupancy(rp);
  }
  if (from_promotion) {
    relation_promotions_.fetch_add(1, std::memory_order_relaxed);
  }

  // Retire x's finer-granularity locks in this relation. They are spread
  // across partitions, so snapshot the keys and then remove each map
  // entry together with its held-list twin under (partition, held_mu).
  std::vector<PageId> page_keys;
  std::vector<PageId> tuple_pages;
  {
    std::lock_guard<SpinLock> hl(x->held_mu);
    auto hp = x->held_pages.find(rel);
    if (hp != x->held_pages.end()) {
      page_keys.assign(hp->second.begin(), hp->second.end());
    }
    for (const auto& [key, slots] : x->held_tuples) {
      if (key.first == rel) tuple_pages.push_back(key.second);
    }
  }
  for (PageId pg : page_keys) {
    Partition& p = PartitionFor(rel, pg);
    std::lock_guard<CheckedMutex> pl(p.mu);
    std::lock_guard<SpinLock> hl(x->held_mu);
    auto hp = x->held_pages.find(rel);
    if (hp != x->held_pages.end() && hp->second.erase(pg)) {
      if (hp->second.empty()) x->held_pages.erase(hp);
      ErasePageHolder(p, rel, pg, x);
    }
    SyncOccupancy(p);
  }
  for (PageId pg : tuple_pages) {
    Partition& p = PartitionFor(rel, pg);
    std::lock_guard<CheckedMutex> pl(p.mu);
    std::lock_guard<SpinLock> hl(x->held_mu);
    auto ht = x->held_tuples.find({rel, pg});
    if (ht != x->held_tuples.end()) {
      for (uint32_t s : ht->second) EraseTupleHolder(p, rel, pg, s, x);
      x->held_tuples.erase(ht);
    }
    SyncOccupancy(p);
  }
}

void SireadLockManager::ReleaseOwnTuple(SerializableXact* x, RelationId rel,
                                        PageId page, uint32_t slot) {
  if (x == nullptr) return;
  Partition& p = PartitionFor(rel, page);
  std::lock_guard<CheckedMutex> pl(p.mu);
  std::lock_guard<SpinLock> hl(x->held_mu);
  auto ht = x->held_tuples.find({rel, page});
  if (ht == x->held_tuples.end()) return;
  auto& slots = ht->second;
  auto sit = std::find(slots.begin(), slots.end(), slot);
  if (sit == slots.end()) return;
  slots.erase(sit);
  if (slots.empty()) x->held_tuples.erase(ht);
  EraseTupleHolder(p, rel, page, slot, x);
  SyncOccupancy(p);
}

ProbeResult SireadLockManager::ProbeHeapWrite(RelationId rel, PageId page,
                                              uint32_t slot) {
  ProbeResult r;
  auto add = [&r](const HolderSet& holders) {
    for (SerializableXact* h : holders) {
      // Holders stay reachable while we hold their partition's lock: the
      // releasing thread must sweep this partition (taking its mutex)
      // before the xact can be retired — if the entry is still here, the
      // sweep (and therefore the retire) has not happened. Skip holders
      // already being torn down.
      if (!h->aborted.load(std::memory_order_acquire) &&
          !h->defunct.load(std::memory_order_acquire)) {
        r.holder_xids.push_back(h->xid);
      }
    }
  };
  {
    Partition& p = PartitionFor(rel, page);
    // Lock-free probe-miss fast path: an empty partition cannot hold a
    // conflicting granule. The occupancy counter is republished (seq_cst)
    // at the end of every mutating critical section, so reading 0 here
    // linearizes the probe before whichever acquisition would first make
    // it nonzero — indistinguishable from taking the lock just before
    // that acquisition, which is a legal (and handled) interleaving.
    if (p.occupancy.load(std::memory_order_seq_cst) != 0) {
      std::lock_guard<CheckedMutex> pl(p.mu);
      auto t = p.tuple_locks.find({rel, page, slot});
      if (t != p.tuple_locks.end()) add(*t->second);
      auto pg = p.page_locks.find({rel, page});
      if (pg != p.page_locks.end()) add(*pg->second);
    }
  }
  // Relation granules live in their own partition; skip the second lock
  // while no relation lock exists anywhere. A relation lock appearing
  // concurrently cannot be missed for a conflicting access: conflicting
  // accesses to one tuple are serialized by its heap stripe (gap reads
  // vs inserts by the leaf locks), and escalation installs the coarse
  // relation lock — and bumps the count — before retiring fine locks.
  if (rel_lock_count_.load(std::memory_order_acquire) > 0) {
    Partition& rp = PartitionForRelation(rel);
    std::lock_guard<CheckedMutex> pl(rp.mu);
    auto rl = rp.rel_locks.find(rel);
    if (rl != rp.rel_locks.end()) add(*rl->second);
  }
  std::sort(r.holder_xids.begin(), r.holder_xids.end());
  r.holder_xids.erase(std::unique(r.holder_xids.begin(), r.holder_xids.end()),
                      r.holder_xids.end());
  return r;
}

void SireadLockManager::OnPageSplit(RelationId rel, PageId old_page,
                                    PageId new_page,
                                    const std::vector<uint32_t>& moved_slots) {
  const size_t oi = PartitionIndex(rel, old_page);
  const size_t ni = PartitionIndex(rel, new_page);
  Partition& P = partitions_[oi];
  Partition& Q = partitions_[ni];
  // Two partition locks in canonical index order — the only place the
  // manager nests them — so concurrent splits cannot deadlock.
  std::unique_lock<CheckedMutex> l1(partitions_[std::min(oi, ni)].mu);
  std::unique_lock<CheckedMutex> l2;
  if (oi != ni) {
    l2 = std::unique_lock<CheckedMutex>(partitions_[std::max(oi, ni)].mu);
  }

  for (uint32_t s : moved_slots) {
    auto it = P.tuple_locks.find({rel, old_page, s});
    if (it == P.tuple_locks.end()) continue;
    // Move, don't duplicate: the entry now lives only on the new page and
    // writers probe the index-reported coordinates, so nothing consults
    // the old granule again; a retained copy would only bloat holders'
    // bookkeeping and drift from the lock table.
    HolderSet* holders = it->second;
    P.tuple_locks.erase(it);
    for (SerializableXact* h : *holders) {
      std::lock_guard<SpinLock> hl(h->held_mu);
      auto ht = h->held_tuples.find({rel, old_page});
      if (ht != h->held_tuples.end()) {
        auto& slots = ht->second;
        slots.erase(std::remove(slots.begin(), slots.end(), s), slots.end());
        if (slots.empty()) h->held_tuples.erase(ht);
      }
      // A holder whose final release has begun is dropped, not moved:
      // its release sweep may already be past the new page's partition.
      if (h->defunct.load(std::memory_order_relaxed)) continue;
      GetOrCreate(Q.tuple_locks, {rel, new_page, s})->insert(h);
      h->held_tuples[{rel, new_page}].push_back(s);
    }
    FreeHolderSet(holders);
  }
  auto p = P.page_locks.find({rel, old_page});
  if (p != P.page_locks.end()) {
    // The iterated set is never mutated below (only the NEW page's set
    // and holders' bookkeeping), so iterate it in place.
    for (SerializableXact* h : *p->second) {
      std::lock_guard<SpinLock> hl(h->held_mu);
      if (h->defunct.load(std::memory_order_relaxed)) continue;
      if (h->held_pages[rel].insert(new_page).second) {
        GetOrCreate(Q.page_locks, {rel, new_page})->insert(h);
      }
    }
  }
  SyncOccupancy(P);
  if (oi != ni) SyncOccupancy(Q);
}

void SireadLockManager::OnGapTransfer(RelationId rel, PageId from_page,
                                      uint32_t from_slot, PageId to_page,
                                      uint32_t to_slot) {
  GapTransferInternal(rel, from_page, from_slot, to_page, to_slot,
                      /*to_page_granule=*/false);
}

void SireadLockManager::OnGapTransferToPage(RelationId rel, PageId from_page,
                                            uint32_t from_slot,
                                            PageId to_page) {
  GapTransferInternal(rel, from_page, from_slot, to_page, /*to_slot=*/0,
                      /*to_page_granule=*/true);
}

void SireadLockManager::GapTransferInternal(RelationId rel, PageId from_page,
                                            uint32_t from_slot, PageId to_page,
                                            uint32_t to_slot,
                                            bool to_page_granule) {
  const size_t fi = PartitionIndex(rel, from_page);
  const size_t ti = PartitionIndex(rel, to_page);
  Partition& F = partitions_[fi];
  Partition& T = partitions_[ti];
  // Same canonical-index-order nesting as OnPageSplit, so concurrent
  // structural transfers (other tables' splits) cannot deadlock.
  std::unique_lock<CheckedMutex> l1(partitions_[std::min(fi, ti)].mu);
  std::unique_lock<CheckedMutex> l2;
  if (fi != ti) {
    l2 = std::unique_lock<CheckedMutex>(partitions_[std::max(fi, ti)].mu);
  }

  // Candidates: tuple-granule holders of the source entry, plus — only
  // when the target page differs — page-granule holders of the source
  // page, whose coverage would otherwise stop at the page boundary.
  std::vector<SerializableXact*> candidates;
  if (auto it = F.tuple_locks.find({rel, from_page, from_slot});
      it != F.tuple_locks.end()) {
    candidates.assign(it->second->begin(), it->second->end());
  }
  if (from_page != to_page) {
    if (auto it = F.page_locks.find({rel, from_page});
        it != F.page_locks.end()) {
      candidates.insert(candidates.end(), it->second->begin(),
                        it->second->end());
    }
  }
  // A holder can appear through both sources; process it once.
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  for (SerializableXact* h : candidates) {
    if (h->aborted.load(std::memory_order_acquire)) continue;
    // A doomed holder can never commit, so no serializable execution
    // depends on its coverage: skip it instead of growing its granules.
    if (h->doomed.load(std::memory_order_acquire)) continue;
    std::lock_guard<SpinLock> hl(h->held_mu);
    // A holder whose final release has begun is dropped, not copied: its
    // release sweep may already be past the target partition.
    if (h->defunct.load(std::memory_order_relaxed)) continue;
    if (h->held_relations.count(rel)) continue;  // coarser lock covers it
    auto hp = h->held_pages.find(rel);
    const bool has_to_page =
        hp != h->held_pages.end() && hp->second.count(to_page);
    if (to_page_granule) {
      if (has_to_page) continue;
      h->held_pages[rel].insert(to_page);
      GetOrCreate(T.page_locks, {rel, to_page})->insert(h);
    } else {
      if (has_to_page) continue;  // page granule already covers the slot
      auto& slots = h->held_tuples[{rel, to_page}];
      if (std::find(slots.begin(), slots.end(), to_slot) != slots.end()) {
        continue;
      }
      slots.push_back(to_slot);
      GetOrCreate(T.tuple_locks, {rel, to_page, to_slot})->insert(h);
      if (slots.size() > cfg_.max_locks_per_page) {
        // Bound the growth a long-lived scanner over a hot insert range
        // would otherwise suffer — every insert into its gap copies its
        // coverage onto a new granule. Escalate to one page lock exactly
        // as AcquireTuple does; the page partition is T (already held).
        // Page->relation escalation is NOT chained here: it would need a
        // third partition lock while two are held, and the per-relation
        // growth is already bounded by pages * max_locks_per_page.
        (void)PromoteTuplesToPageLocked(T, rel, to_page, h);
      }
    }
  }
  SyncOccupancy(T);
  if (fi != ti) SyncOccupancy(F);
}

// ---------------------------------------------------------------------------
// Conflict graph + dangerous structures (Sections 3.1-3.3, 4)
//
// Edges form once per conflict and the dangerous-structure tests run
// once per edge or commit — orders of magnitude rarer than SIREAD
// traffic, which never touches these locks. The path scales with
// CONFLICT rate: an edge only locks its <=2 parties (ascending xid), so
// edges on disjoint xact pairs proceed in parallel, and teardown does
// not serialize against them.
//
// Pointer-liveness argument: while a thread holds x's edge
// lock, every neighbour reachable through x's edge lists stays
// allocated — retiring or freeing a neighbour n requires dissolving the
// (n, x) edge first, and that dissolve takes x's edge lock. Neighbour
// lifecycle fields read during the dangerous-structure tests
// (committed, commit_seq, read_only, snapshot_seq) are atomics or
// immutable, so neighbours' edge locks are never needed. Pointers
// resolved by xid (not reached through an edge list) are kept live by
// an epoch pin.
// ---------------------------------------------------------------------------

void SireadLockManager::Doom(SerializableXact* x) {
  if (!x->doomed.exchange(true, std::memory_order_acq_rel)) {
    ssi_aborts_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool SireadLockManager::HasIn(const SerializableXact* x) const {
  x->edge_mu.AssertHeld();
  return x->sticky_in || !x->in_edges.empty();
}

bool SireadLockManager::HasOutAny(const SerializableXact* x) const {
  x->edge_mu.AssertHeld();
  return x->sticky_out || !x->out_edges.empty();
}

bool SireadLockManager::HasOutCommittedBefore(const SerializableXact* x,
                                              uint64_t seq) const {
  x->edge_mu.AssertHeld();
  if (x->sticky_out_commit_seq < seq) return true;  // kNoStickySeq: never
  for (const SerializableXact* o : x->out_edges) {
    if (o->committed.load(std::memory_order_relaxed) &&
        o->commit_seq.load(std::memory_order_relaxed) < seq) {
      return true;
    }
  }
  return false;
}

void SireadLockManager::FlagRwConflict(SerializableXact* reader,
                                       SerializableXact* writer) {
  if (reader == nullptr || writer == nullptr || reader == writer) return;
  util::EpochManager::Pin pin(epoch_);
  EdgePairLock el(reader, writer);
  FlagRwConflictLocked(reader, writer);
}

void SireadLockManager::FlagRwConflictWithWriter(SerializableXact* reader,
                                                 XactId writer_xid) {
  if (reader == nullptr) return;
  // The epoch pin keeps the resolved pointer live across the whole
  // flagging. It must cover the resolution itself — a pointer resolved
  // before pinning could already be past its grace period.
  util::EpochManager::Pin pin(epoch_);
  SerializableXact* writer = LookupXact(writer_xid);
  if (writer == nullptr) return;  // non-serializable or already cleaned
  if (writer == reader) return;
  EdgePairLock el(reader, writer);
  FlagRwConflictLocked(reader, writer);
}

void SireadLockManager::FlagRwConflictWithReader(XactId reader_xid,
                                                 SerializableXact* writer) {
  if (writer == nullptr) return;
  util::EpochManager::Pin pin(epoch_);
  SerializableXact* reader = LookupXact(reader_xid);
  if (reader == nullptr) return;
  if (reader == writer) return;
  EdgePairLock el(reader, writer);
  FlagRwConflictLocked(reader, writer);
}

void SireadLockManager::FlagRwConflictLocked(SerializableXact* reader,
                                             SerializableXact* writer) {
  if (reader == nullptr || writer == nullptr || reader == writer) return;
  reader->edge_mu.AssertHeld();
  writer->edge_mu.AssertHeld();
  if (reader->aborted.load(std::memory_order_relaxed) ||
      writer->aborted.load(std::memory_order_relaxed)) {
    return;
  }
  // A defunct party is mid-teardown: its edges are being dissolved (or
  // about to be), so adding one now could strand a dangling partner
  // pointer. Skipping is sound — it is observationally the interleaving
  // where this flagging ran after the teardown erased the xact from the
  // registry, which the xid-resolving paths already produce.
  if (reader->defunct.load(std::memory_order_acquire) ||
      writer->defunct.load(std::memory_order_acquire)) {
    return;
  }
  if (reader->safe_snapshot.load(std::memory_order_relaxed)) return;
  if (reader->out_edges.count(writer)) return;  // already recorded

  if (cfg_.enable_read_only_opt && reader->read_only &&
      writer->committed.load(std::memory_order_relaxed)) {
    // Section 4: an edge from a read-only reader matters only when the
    // writer (the would-be pivot) has an out-edge to a transaction that
    // committed before the reader's snapshot (i.e. visible to it — hence
    // the +1 on the exclusive bound). The skip is only sound once the
    // writer has committed — its out-edge set is final then; for an
    // in-flight writer the edge must be recorded and the per-reader
    // bound applied later by DangerousPivot.
    uint64_t bound = reader->snapshot_seq + 1;
    uint64_t wseq = writer->commit_seq.load(std::memory_order_relaxed);
    if (wseq != 0 && wseq < bound) {
      bound = wseq;  // T3 must also precede the pivot
    }
    if (!HasOutCommittedBefore(writer, bound)) return;
    // The committed pivot's structure is already dangerous for this
    // reader; the reader is the only abortable party left.
    Doom(reader);
    return;
  }

  reader->out_edges.insert(writer);
  writer->in_edges.insert(reader);
  MaybeDoomOnEdge(reader, writer);
}

bool SireadLockManager::DangerousPivot(const SerializableXact* x,
                                       uint64_t pivot_bound) const {
  x->edge_mu.AssertHeld();
  // x is a dangerous pivot if some in-neighbour R and some committed
  // out-neighbour exist with the out-commit preceding `pivot_bound`
  // (commit-ordering opt) — and, for a declared read-only R under the
  // Section 4 optimization, also preceding R's snapshot.
  if (x->sticky_in && HasOutCommittedBefore(x, pivot_bound)) return true;
  for (const SerializableXact* r : x->in_edges) {
    uint64_t bound = pivot_bound;
    if (cfg_.enable_read_only_opt && r->read_only) {
      bound = std::min(bound, r->snapshot_seq + 1);
    }
    if (HasOutCommittedBefore(x, bound)) return true;
  }
  return false;
}

void SireadLockManager::MaybeDoomOnEdge(SerializableXact* reader,
                                        SerializableXact* writer) {
  // Writer just gained an in-edge: is it a pivot whose dangerous structure
  // is already unavoidable (its out-neighbour committed first)?
  // A commit-pending xact (committed, seq still 0) is treated as having
  // committed "now": bound at infinity, conservatively.
  const bool writer_committed = writer->committed.load(std::memory_order_relaxed);
  const uint64_t writer_seq = writer->commit_seq.load(std::memory_order_relaxed);
  uint64_t writer_bound = writer_committed && writer_seq != 0 ? writer_seq : kInf;
  if (DangerousPivot(writer, writer_bound)) {
    if (!writer_committed) {
      Doom(writer);
    } else if (!reader->committed.load(std::memory_order_relaxed)) {
      // The pivot already committed; the only transaction still abortable
      // is the incoming reader.
      Doom(reader);
    }
    return;
  }
  if (!cfg_.enable_commit_ordering_opt &&
      reader->committed.load(std::memory_order_relaxed) && HasIn(reader) &&
      !writer_committed) {
    // Without the commit-ordering refinement, a committed pivot dooms the
    // overwriting transaction regardless of commit order.
    Doom(writer);
    return;
  }
  if (!cfg_.enable_safe_retry && !writer_committed && HasIn(writer) &&
      HasOutAny(writer)) {
    // Eager victim policy: abort the pivot as soon as the structure forms,
    // even though its partners are still in flight and a retry may hit the
    // same conflict again (Section 5.4 discusses why this is wasteful).
    Doom(writer);
  }
}

Status SireadLockManager::PreCommit(SerializableXact* x) {
  // Only x's own edge lock. The dangerous-structure test reads x's edge
  // lists (guarded by edge_mu) plus neighbour lifecycle atomics, and
  // neighbours cannot be freed from under us (see the liveness argument
  // at the top of this section — dissolution requires x's edge lock,
  // and retire follows dissolution). x is the caller's own transaction,
  // so it cannot be torn down here.
  std::lock_guard<CheckedMutex> el(x->edge_mu);
  if (x->doomed.load(std::memory_order_relaxed)) {
    return Status::SerializationFailure(
        "canceled due to rw-antidependency conflict (doomed)");
  }
  bool hazard;
  if (cfg_.enable_commit_ordering_opt) {
    hazard = DangerousPivot(x, kInf);
  } else {
    hazard = HasIn(x) && HasOutAny(x);
  }
  if (hazard) {
    ssi_aborts_.fetch_add(1, std::memory_order_relaxed);
    return Status::SerializationFailure(
        "canceled on commit: pivot in dangerous structure");
  }
  // Passed: mark commit-pending NOW, under the same lock as the check.
  // Without this, an edge formed between the check and MarkCommitted
  // could doom this xact after it is already past its last doomed-flag
  // inspection — and both sides of the dangerous structure would commit.
  // Marking it committed makes any such concurrent edge doom the other
  // party instead (this transaction is certain to commit first).
  //
  // Every edge formation involving x — as reader or writer — locks x's
  // edge_mu (EdgePairLock covers both parties), and this check-then-mark
  // runs entirely under that same lock. So any concurrent edge either
  // completed before the lock was taken (the test above sees it) or
  // starts after the store below (its MaybeDoomOnEdge observes
  // committed==true and dooms the other party).
  x->committed.store(true, std::memory_order_release);
  return Status::OK();
}

void SireadLockManager::MarkCommitted(SerializableXact* x,
                                      uint64_t commit_seq) {
  // The shard mutex orders the commit-seq store and the append against
  // Cleanup's pops of this shard (it holds the same mutex).
  XactShard& sh = ShardFor(x->xid);
  std::lock_guard<CheckedMutex> sl(sh.mu);
  x->committed.store(true, std::memory_order_relaxed);
  x->commit_seq.store(commit_seq, std::memory_order_release);
  if (sh.committed.empty()) sh.head_seq.store(commit_seq);
  sh.committed.push_back(x);
}

void SireadLockManager::DissolveEdges(SerializableXact* x, bool make_sticky) {
  // Snapshot x's lists under x's edge lock. x is aborted or defunct by
  // now, and FlagRwConflictLocked checks both flags under the pair's
  // edge locks — so any edge added concurrently either completed before
  // this snapshot (we see it) or its flagger, serialized after us on x's
  // edge_mu, observes the flag and backs off. After the snapshot the
  // lists can only shrink (partners dissolving themselves), which the
  // erase-checks below tolerate.
  std::vector<SerializableXact*> outs;
  std::vector<SerializableXact*> ins;
  {
    std::lock_guard<CheckedMutex> el(x->edge_mu);
    outs.assign(x->out_edges.begin(), x->out_edges.end());
    ins.assign(x->in_edges.begin(), x->in_edges.end());
  }
  const bool x_committed = x->committed.load(std::memory_order_relaxed);
  const uint64_t x_seq = x->commit_seq.load(std::memory_order_relaxed);
  for (SerializableXact* o : outs) {
    EdgePairLock el(x, o);
    if (x->out_edges.erase(o) == 0) continue;  // partner dissolved it first
    o->in_edges.erase(x);
    if (make_sticky && x_committed) o->sticky_in = true;
  }
  for (SerializableXact* i : ins) {
    EdgePairLock el(x, i);
    if (x->in_edges.erase(i) == 0) continue;
    i->out_edges.erase(x);
    if (make_sticky && x_committed) {
      PGSSI_DCHECK(x_seq != 0);  // only Cleanup makes sticky: seq assigned
      i->sticky_out = true;
      i->sticky_out_commit_seq = std::min(i->sticky_out_commit_seq, x_seq);
    }
  }
  std::lock_guard<CheckedMutex> el(x->edge_mu);
  x->out_edges.clear();
  x->in_edges.clear();
}

void SireadLockManager::ReleaseAllLocks(SerializableXact* x) {
  decltype(x->held_tuples) tuples;
  decltype(x->held_pages) pages;
  decltype(x->held_relations) rels;
  {
    // Marking defunct and emptying the held lists is one atomic step:
    // any page split that observed x NOT defunct finished its held-list
    // update before this (so the swap captures it); any later split sees
    // defunct and drops x instead of re-adding it.
    std::lock_guard<SpinLock> hl(x->held_mu);
    x->defunct.store(true, std::memory_order_release);
    tuples.swap(x->held_tuples);
    pages.swap(x->held_pages);
    rels.swap(x->held_relations);
  }
  for (const auto& [key, slots] : tuples) {
    Partition& p = PartitionFor(key.first, key.second);
    std::lock_guard<CheckedMutex> pl(p.mu);
    for (uint32_t s : slots) {
      EraseTupleHolder(p, key.first, key.second, s, x);
    }
    SyncOccupancy(p);
  }
  for (const auto& [rel, pgs] : pages) {
    for (PageId pg : pgs) {
      Partition& p = PartitionFor(rel, pg);
      std::lock_guard<CheckedMutex> pl(p.mu);
      ErasePageHolder(p, rel, pg, x);
      SyncOccupancy(p);
    }
  }
  for (RelationId rel : rels) {
    Partition& rp = PartitionForRelation(rel);
    std::lock_guard<CheckedMutex> pl(rp.mu);
    EraseRelationHolder(rp, rel, x);
    SyncOccupancy(rp);
  }
}

void SireadLockManager::Abort(SerializableXact* x) {
  x->aborted.store(true, std::memory_order_release);
  ReleaseAllLocks(x);
  // Unlink from the registry shard first (flaggers can no longer resolve
  // the xid; ones that already did are pinned and will observe
  // aborted/defunct under the edge locks), dissolve under a pin
  // (partners mid-teardown themselves stay dereferenceable), and retire
  // the memory.
  const bool registered = UnregisterFromShard(x);
  {
    util::EpochManager::Pin pin(epoch_);
    DissolveEdges(x, /*make_sticky=*/false);
  }
  if (registered) epoch_->Retire(x, DeleteXact);  // else caller-owned
}

void SireadLockManager::Cleanup(uint64_t bound) {
  // Drive the limbo on every run that has something in it: index GC and
  // granule sets wait on epoch advancement even when no xact is
  // freeable.
  if (epoch_->RetiredObjectCount() != 0) epoch_->TryAdvanceAndSweep();

  // Phase 1: pop each shard's commit-ordered queue while its head
  // committed at or below the bound. An append can land out of seq
  // order (a read-only MarkCommitted racing a writer's, or two writers
  // in one shard), so a freeable xact may sit behind a head that is
  // not: it is freed once a later bound passes that head. The queue
  // only ever delays a free; it never frees an xact above the bound.
  std::vector<SerializableXact*> dead;
  uint64_t visits = 0;
  for (size_t i = 0; i < kXactShards; ++i) {
    XactShard& sh = xact_shards_[i];
    if (sh.head_seq.load() > bound) continue;  // nothing freeable here
    std::lock_guard<CheckedMutex> sl(sh.mu);
    while (!sh.committed.empty()) {
      SerializableXact* x = sh.committed.front();
      ++visits;
      if (x->commit_seq.load(std::memory_order_relaxed) > bound) break;
      sh.committed.pop_front();
      sh.map.erase(x->xid);
      dead.push_back(x);
    }
    sh.head_seq.store(sh.committed.empty()
                          ? kNoStickySeq
                          : sh.committed.front()->commit_seq.load(
                                std::memory_order_relaxed));
  }
  cleanup_runs_.fetch_add(1, std::memory_order_relaxed);
  if (visits != 0) cleanup_visits_.fetch_add(visits, std::memory_order_relaxed);
  if (dead.empty()) return;

  // Phase 2: release SIREAD locks FIRST — this sets defunct, the
  // barrier that stops new edges from landing on a candidate — then
  // dissolve edges into sticky summaries under a pin (partners being
  // torn down concurrently stay dereferenceable), and hand the memory
  // to the limbo.
  for (SerializableXact* x : dead) ReleaseAllLocks(x);
  {
    util::EpochManager::Pin pin(epoch_);
    for (SerializableXact* x : dead) {
      DissolveEdges(x, /*make_sticky=*/true);
    }
  }
  for (SerializableXact* x : dead) epoch_->Retire(x, DeleteXact);
}

bool SireadLockManager::CommittedWithDangerousOut(XactId xid,
                                                  uint64_t snapshot_seq) {
  util::EpochManager::Pin pin(epoch_);
  SerializableXact* x = LookupXact(xid);
  if (x == nullptr) return false;  // cleaned up => no longer relevant
  if (!x->committed.load(std::memory_order_relaxed)) return false;
  std::lock_guard<CheckedMutex> el(x->edge_mu);
  return HasOutCommittedBefore(x, snapshot_seq + 1);
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

bool SireadLockManager::HoldsTupleLock(const SerializableXact* x,
                                       RelationId rel, PageId page,
                                       uint32_t slot) const {
  Partition& p = PartitionFor(rel, page);
  std::lock_guard<CheckedMutex> pl(p.mu);
  auto it = p.tuple_locks.find({rel, page, slot});
  return it != p.tuple_locks.end() &&
         it->second->count(const_cast<SerializableXact*>(x));
}

bool SireadLockManager::HoldsPageLock(const SerializableXact* x,
                                      RelationId rel, PageId page) const {
  Partition& p = PartitionFor(rel, page);
  std::lock_guard<CheckedMutex> pl(p.mu);
  auto it = p.page_locks.find({rel, page});
  return it != p.page_locks.end() &&
         it->second->count(const_cast<SerializableXact*>(x));
}

bool SireadLockManager::HoldsRelationLock(const SerializableXact* x,
                                          RelationId rel) const {
  Partition& rp = PartitionForRelation(rel);
  std::lock_guard<CheckedMutex> pl(rp.mu);
  auto it = rp.rel_locks.find(rel);
  return it != rp.rel_locks.end() &&
         it->second->count(const_cast<SerializableXact*>(x));
}

size_t SireadLockManager::RegisteredCount() const {
  size_t n = 0;
  for (size_t i = 0; i < kXactShards; ++i) {
    std::lock_guard<CheckedMutex> sl(xact_shards_[i].mu);
    n += xact_shards_[i].map.size();
  }
  return n;
}

size_t SireadLockManager::TupleLockCount() const {
  size_t n = 0;
  for (size_t i = 0; i < kPartitions; i++) {
    std::lock_guard<CheckedMutex> pl(partitions_[i].mu);
    n += partitions_[i].tuple_locks.size();
  }
  return n;
}

size_t SireadLockManager::PageLockCount() const {
  size_t n = 0;
  for (size_t i = 0; i < kPartitions; i++) {
    std::lock_guard<CheckedMutex> pl(partitions_[i].mu);
    n += partitions_[i].page_locks.size();
  }
  return n;
}

size_t SireadLockManager::RelationLockCount() const {
  size_t n = 0;
  for (size_t i = 0; i < kPartitions; i++) {
    std::lock_guard<CheckedMutex> pl(partitions_[i].mu);
    n += partitions_[i].rel_locks.size();
  }
  return n;
}

size_t SireadLockManager::TotalLockCount() const {
  size_t n = 0;
  for (size_t i = 0; i < kPartitions; i++) {
    std::lock_guard<CheckedMutex> pl(partitions_[i].mu);
    n += partitions_[i].tuple_locks.size() + partitions_[i].page_locks.size() +
         partitions_[i].rel_locks.size();
  }
  return n;
}

bool SireadLockManager::CheckConsistency() const {
  std::vector<std::unique_lock<CheckedMutex>> shard_locks;
  shard_locks.reserve(kXactShards);
  for (size_t i = 0; i < kXactShards; ++i) {
    shard_locks.emplace_back(xact_shards_[i].mu);
  }
  std::vector<std::unique_lock<CheckedMutex>> locks;
  locks.reserve(kPartitions);
  for (size_t i = 0; i < kPartitions; i++) {
    locks.emplace_back(partitions_[i].mu);
  }
  bool ok = true;
  int64_t rel_entries = 0;
  // Forward: every lock-table entry is mirrored in its holder's held
  // lists (and hashed to the right partition), and the published
  // occupancy matches the maps.
  for (size_t i = 0; i < kPartitions; i++) {
    const Partition& p = partitions_[i];
    const int64_t entries =
        static_cast<int64_t>(p.tuple_locks.size() + p.page_locks.size() +
                             p.rel_locks.size());
    if (p.occupancy.load(std::memory_order_relaxed) != entries) ok = false;
    for (const auto& [tag, holders] : p.tuple_locks) {
      if (PartitionIndex(tag.rel, tag.page) != i) ok = false;
      for (SerializableXact* h : *holders) {
        std::lock_guard<SpinLock> hl(h->held_mu);
        auto ht = h->held_tuples.find({tag.rel, tag.page});
        if (ht == h->held_tuples.end() ||
            std::find(ht->second.begin(), ht->second.end(), tag.slot) ==
                ht->second.end()) {
          ok = false;
        }
      }
    }
    for (const auto& [key, holders] : p.page_locks) {
      if (PartitionIndex(key.first, key.second) != i) ok = false;
      for (SerializableXact* h : *holders) {
        std::lock_guard<SpinLock> hl(h->held_mu);
        auto hp = h->held_pages.find(key.first);
        if (hp == h->held_pages.end() || !hp->second.count(key.second)) {
          ok = false;
        }
      }
    }
    for (const auto& [rel, holders] : p.rel_locks) {
      if (PartitionIndexForRelation(rel) != i) ok = false;
      rel_entries += static_cast<int64_t>(holders->size());
      for (SerializableXact* h : *holders) {
        std::lock_guard<SpinLock> hl(h->held_mu);
        if (!h->held_relations.count(rel)) ok = false;
      }
    }
  }
  if (rel_entries != rel_lock_count_.load(std::memory_order_relaxed)) {
    ok = false;
  }
  // Reverse: every registered xact's held entry exists in the tables.
  for (size_t si = 0; si < kXactShards; ++si) {
    for (const auto& [xid, x] : xact_shards_[si].map) {
      std::lock_guard<SpinLock> hl(x->held_mu);
      for (const auto& [key, slots] : x->held_tuples) {
        const Partition& p =
            partitions_[PartitionIndex(key.first, key.second)];
        for (uint32_t s : slots) {
          auto it = p.tuple_locks.find({key.first, key.second, s});
          if (it == p.tuple_locks.end() || !it->second->count(x)) {
            ok = false;
          }
        }
      }
      for (const auto& [rel, pgs] : x->held_pages) {
        for (PageId pg : pgs) {
          const Partition& p = partitions_[PartitionIndex(rel, pg)];
          auto it = p.page_locks.find({rel, pg});
          if (it == p.page_locks.end() || !it->second->count(x)) ok = false;
        }
      }
      for (RelationId rel : x->held_relations) {
        const Partition& p = partitions_[PartitionIndexForRelation(rel)];
        auto it = p.rel_locks.find(rel);
        if (it == p.rel_locks.end() || !it->second->count(x)) ok = false;
      }
    }
  }
  // Conflict-graph invariants (at a quiescent point nothing mutates the
  // lists; the shard locks exclude registration/teardown):
  // each edge is mirrored by its partner, partners of live edges are
  // themselves registered, and the sticky commit-seq is either the
  // sentinel or a real (nonzero) sequence number.
  std::unordered_set<const SerializableXact*> registered;
  for (size_t si = 0; si < kXactShards; ++si) {
    for (const auto& [xid, x] : xact_shards_[si].map) registered.insert(x);
  }
  for (size_t si = 0; si < kXactShards; ++si) {
    for (const auto& [xid, x] : xact_shards_[si].map) {
      for (SerializableXact* o : x->out_edges) {
        if (!registered.count(o) || !o->in_edges.count(x)) ok = false;
      }
      for (SerializableXact* i : x->in_edges) {
        if (!registered.count(i) || !i->out_edges.count(x)) ok = false;
      }
      if (x->sticky_out_commit_seq == 0) ok = false;
      if (x->sticky_out_commit_seq != kNoStickySeq && !x->sticky_out) {
        ok = false;
      }
    }
  }
  return ok;
}

}  // namespace pgssi::ssi
