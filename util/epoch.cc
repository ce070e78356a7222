#include "util/epoch.h"

#include <functional>
#include <thread>
#include <utility>

namespace pgssi::util {

EpochManager::EpochManager() = default;

EpochManager::~EpochManager() {
  // Destruction contract: no pins, no concurrent retires. Free the lot.
  for (auto& g : gens_) {
    std::lock_guard<SpinLock> lg(g.mu);
    SweepGenerationLocked(g);
  }
}

uint32_t EpochManager::PinSlot() {
  const uint32_t slot = static_cast<uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) &
      (kSlots - 1));
  Slot& s = slots_[slot];
  // First pinner of the slot stamps the epoch; nested / colliding pins
  // ride on it (a colliding thread's pin is covered because the slot's
  // stamp is at most as new as its own pin time — conservative). Until
  // the stamp lands, MinPinnedEpoch treats the slot as epoch 1, which
  // blocks every sweep, so the fetch_add alone already protects us.
  if (s.depth.fetch_add(1, std::memory_order_seq_cst) == 0) {
    s.epoch.store(global_epoch_.load(std::memory_order_seq_cst),
                  std::memory_order_seq_cst);
  }
  return slot;
}

void EpochManager::UnpinSlot(uint32_t slot) {
  Slot& s = slots_[slot];
  if (s.depth.fetch_sub(1, std::memory_order_seq_cst) == 1) {
    // Last one out clears the stamp. A racing pinner on the same slot
    // (depth briefly 0 -> 1 again) may have this store clobber its
    // fresh stamp; the slot then reads as "in-flight" (depth > 0,
    // epoch 0), which blocks sweeps — conservative, never unsafe, and
    // it heals at that pin's unpin.
    s.epoch.store(0, std::memory_order_seq_cst);
  }
}

uint64_t EpochManager::MinPinnedEpoch() const {
  uint64_t min = UINT64_MAX;
  for (const Slot& s : slots_) {
    if (s.depth.load(std::memory_order_seq_cst) == 0) continue;
    const uint64_t e = s.epoch.load(std::memory_order_seq_cst);
    // Stamp not visible yet: treat as ancient, blocking all sweeps.
    const uint64_t eff = (e == 0) ? 1 : e;
    if (eff < min) min = eff;
  }
  return min;
}

void EpochManager::Retire(void* obj, void (*deleter)(void*)) {
  auto* node = new RetiredNode{nullptr, obj, deleter};
  for (;;) {
    const uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
    Generation& g = gens_[e & (kGenerations - 1)];
    {
      std::lock_guard<SpinLock> lg(g.mu);
      if (g.head == nullptr) g.epoch = e;
      if (g.epoch == e) {
        node->next = g.head;
        g.head = node;
        g.count.fetch_add(1, std::memory_order_relaxed);
        retired_count_.fetch_add(1, std::memory_order_release);
        return;
      }
      // The ring wrapped onto a generation still holding an old epoch's
      // retirees (possible only if sweeps fell kGenerations behind —
      // e.g. a long-held pin). Note: g.epoch > e cannot happen (the
      // epoch advanced under us); only a stale small epoch blocks us.
    }
    // Help sweep, then retry against the (possibly advanced) epoch.
    TryAdvanceAndSweep();
    std::this_thread::yield();
  }
}

void EpochManager::SweepGenerationLocked(Generation& g) {
  RetiredNode* n = g.head;
  g.head = nullptr;
  g.epoch = 0;
  size_t freed = 0;
  while (n != nullptr) {
    RetiredNode* next = n->next;
    n->deleter(n->obj);
    delete n;
    ++freed;
    n = next;
  }
  if (freed > 0) {
    g.count.store(0, std::memory_order_relaxed);
    retired_count_.fetch_sub(freed, std::memory_order_release);
    freed_count_.fetch_add(freed, std::memory_order_relaxed);
  }
}

void EpochManager::TryAdvanceAndSweep() {
  if (!advance_mu_.try_lock()) return;  // someone else is on it
  const uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
  uint64_t min_pinned = MinPinnedEpoch();
  if (test_after_pin_scan_) std::exchange(test_after_pin_scan_, nullptr)();

  // Advance once every pinned slot has observed the current epoch. With
  // no pins at all (min == UINT64_MAX) advancing is always allowed.
  if (min_pinned >= e) {
    global_epoch_.store(e + 1, std::memory_order_seq_cst);
  }

  // Sweep rule: generation G (holding epoch-G retirees) is free once
  // every pin post-dates it by two epochs — a pinned reader spans at
  // most [pin_epoch, pin_epoch + 1), so min_pinned >= G + 2 means no
  // pin can have begun while epoch-G objects were still linked. "No
  // pins" only holds for the instant of the scan: a thread pinning
  // after it stamps at least `e` and may hold anything retired since,
  // so it counts as min_pinned = e + 1 (generations before e sweep).
  if (min_pinned == UINT64_MAX) min_pinned = e + 1;
  for (auto& g : gens_) {
    std::lock_guard<SpinLock> lg(g.mu);
    if (g.head == nullptr) continue;
    if (g.epoch + 2 <= min_pinned) {
      SweepGenerationLocked(g);
    }
  }
  advance_mu_.unlock();
}

void EpochManager::Quiesce() {
  // At a quiescent point each TryAdvanceAndSweep advances one epoch;
  // kGenerations + 2 rounds are enough to lap every generation.
  for (uint32_t i = 0; i < kGenerations + 2 && RetiredObjectCount() > 0;
       ++i) {
    TryAdvanceAndSweep();
  }
}

}  // namespace pgssi::util
