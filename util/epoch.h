// Epoch-based reclamation (EBR): a grace-period limbo for objects that
// must outlive their unlink from a shared structure because lock-free
// readers may still hold references.
//
// Protocol (the classic three-generation scheme, cf. Fraser's EBR and
// its descendants in crossbeam/libcds):
//  - Readers wrap every region that dereferences shared pointers in a
//    Pin guard. Pinning stamps the thread's slot with the global epoch;
//    while any slot is stamped with epoch E, the global epoch can
//    advance at most once past E, so a pinned reader's view spans at
//    most two consecutive epochs.
//  - Writers unlink an object from every shared structure FIRST, then
//    Retire(ptr, deleter). The object joins the limbo list of the
//    current global epoch.
//  - TryAdvanceAndSweep() advances the global epoch once every pinned
//    slot has observed it, and frees limbo generations that every
//    current pin provably post-dates (generation epoch + 2 <= the
//    minimum pinned epoch). A scan that finds no pins at all still
//    races threads that pin right after it, so it frees only the
//    generations retired before the epoch read ahead of the scan.
//
// Slots are cache-line-aligned and hashed by thread id; a collision
// merely makes two threads share a pin slot, which is conservative
// (the slot stays pinned while either thread is pinned) and never
// unsafe. Pins nest via a per-slot depth counter.
//
// Retiring does NOT require being pinned: teardown paths (Cleanup,
// index GC) unlink under their own locks and hand the memory straight
// to the limbo.
//
// TryAdvanceAndSweep is contention-free: it try-locks a single advance
// mutex and simply returns if another thread is already sweeping.
// Besides Retire's own help-sweep when the ring wraps, the engine drives
// it from one place: each run of the horizon-triggered Section 5.3
// cleanup (SireadLockManager::Cleanup, called from the Database's
// transaction finish routine when the cleanup bound moves) makes one
// attempt, and Database::QuiesceEpochs drains the limbo fully.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>

#include "util/spinlock.h"

namespace pgssi::util {

class EpochManager {
 public:
  static constexpr uint32_t kSlots = 64;        // power of two
  static constexpr uint32_t kGenerations = 8;   // limbo ring, power of two

  EpochManager();
  /// Frees everything still in limbo. The caller must guarantee no pin
  /// is active and no further Retire can race (i.e. the owning
  /// structure is quiescing for destruction).
  ~EpochManager();

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// RAII pin for the calling thread. Hold across any region that
  /// dereferences pointers whose owner frees through Retire().
  class Pin {
   public:
    explicit Pin(EpochManager* em) : em_(em), slot_(em->PinSlot()) {}
    ~Pin() { em_->UnpinSlot(slot_); }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;

   private:
    EpochManager* em_;
    uint32_t slot_;
  };

  /// Hand `obj` to the limbo of the current epoch. `deleter(obj)` runs
  /// once the grace period has passed. The caller must already have
  /// unlinked `obj` from every structure a pinned reader could reach it
  /// through.
  void Retire(void* obj, void (*deleter)(void*));

  /// One advance + sweep attempt. Cheap and contention-free (try-lock);
  /// safe from any thread, pinned or not (a pinned caller simply cannot
  /// free its own generation — the sweep rule already guarantees that).
  void TryAdvanceAndSweep();

  /// Objects currently sitting in limbo (retired, not yet freed).
  size_t RetiredObjectCount() const {
    return retired_count_.load(std::memory_order_acquire);
  }
  /// Deleters actually run (freed-for-real count; tests assert it).
  uint64_t FreedObjectCount() const {
    return freed_count_.load(std::memory_order_relaxed);
  }
  uint64_t GlobalEpoch() const {
    return global_epoch_.load(std::memory_order_acquire);
  }

  /// Drain the limbo completely: repeated advance+sweep until empty.
  /// Only meaningful at quiescent points (no active pins, no concurrent
  /// retires); tests and shutdown use it to prove the bound.
  void Quiesce();

  /// Test-only: run `fn` once, inside the next TryAdvanceAndSweep,
  /// between its pin scan and its sweep — the window in which a thread
  /// can pin and retire unseen by the scan.
  void TestAfterPinScan(std::function<void()> fn) {
    test_after_pin_scan_ = std::move(fn);
  }

 private:
  struct RetiredNode {
    RetiredNode* next;
    void* obj;
    void (*deleter)(void*);
  };
  struct alignas(64) Slot {
    // Epoch observed at pin time; 0 = unpinned (global starts at 2).
    std::atomic<uint64_t> epoch{0};
    // Nesting depth; shared by hash-colliding threads (conservative).
    std::atomic<uint32_t> depth{0};
  };
  struct alignas(64) Generation {
    SpinLock mu;                     // guards head + epoch
    RetiredNode* head = nullptr;
    uint64_t epoch = 0;              // which epoch's retirees; 0 = empty
    std::atomic<size_t> count{0};
  };

  uint32_t PinSlot();
  void UnpinSlot(uint32_t slot);
  /// Minimum epoch over pinned slots; UINT64_MAX when nothing is pinned.
  /// An in-flight pin (depth > 0, epoch not yet stamped) returns 1,
  /// blocking every sweep until the stamp lands.
  uint64_t MinPinnedEpoch() const;
  /// Frees g's whole list. g's mu must be held by the caller.
  void SweepGenerationLocked(Generation& g);

  std::atomic<uint64_t> global_epoch_{2};  // > 0 so 0 can mean unpinned
  Slot slots_[kSlots];
  Generation gens_[kGenerations];
  std::atomic<size_t> retired_count_{0};
  std::atomic<uint64_t> freed_count_{0};
  SpinLock advance_mu_;  // serializes advance/sweep attempts
  std::function<void()> test_after_pin_scan_;  // advance_mu_
};

}  // namespace pgssi::util
