// Epoch-based reclamation: protocol unit tests (pin/retire/advance
// ordering, sweep gating, deleter accounting) plus churn stress over
// the SIREAD manager, ending with the limbo provably drained
// (RetiredObjectCount() == 0).
#include "util/epoch.h"

#include <atomic>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "db/config.h"
#include "ssi/siread_lock_manager.h"

namespace pgssi {
namespace {

using util::EpochManager;

struct Tracked {
  explicit Tracked(std::atomic<int>* live) : live_(live) {
    live_->fetch_add(1);
  }
  ~Tracked() { live_->fetch_sub(1); }
  std::atomic<int>* live_;
};

void DeleteTracked(void* p) { delete static_cast<Tracked*>(p); }

TEST(EpochTest, RetireWithoutPinsFreesOnNextSweep) {
  EpochManager em;
  std::atomic<int> live{0};
  em.Retire(new Tracked(&live), DeleteTracked);
  em.Retire(new Tracked(&live), DeleteTracked);
  EXPECT_EQ(em.RetiredObjectCount(), 2u);
  EXPECT_EQ(live.load(), 2);
  // No pins anywhere: once the epoch has moved past the retirees'
  // generation, the next sweep frees everything.
  em.TryAdvanceAndSweep();
  em.TryAdvanceAndSweep();
  EXPECT_EQ(em.RetiredObjectCount(), 0u);
  EXPECT_EQ(live.load(), 0);
  EXPECT_EQ(em.FreedObjectCount(), 2u);
}

TEST(EpochTest, ActivePinBlocksSweepOfItsEpoch) {
  EpochManager em;
  std::atomic<int> live{0};
  {
    EpochManager::Pin pin(&em);
    em.Retire(new Tracked(&live), DeleteTracked);
    // The pin predates (or equals) the retiree's epoch: no amount of
    // sweeping may free it while the pin is held.
    for (int i = 0; i < 10; i++) em.TryAdvanceAndSweep();
    EXPECT_EQ(live.load(), 1);
    EXPECT_EQ(em.RetiredObjectCount(), 1u);
  }
  em.Quiesce();
  EXPECT_EQ(live.load(), 0);
  EXPECT_EQ(em.RetiredObjectCount(), 0u);
}

TEST(EpochTest, PinTakenAfterRetireDoesNotBlockForever) {
  EpochManager em;
  std::atomic<int> live{0};
  em.Retire(new Tracked(&live), DeleteTracked);
  // Advance twice so a subsequent pin provably post-dates the retiree's
  // generation by the required two epochs.
  em.TryAdvanceAndSweep();
  if (em.RetiredObjectCount() == 0) {
    // Already freed (no pins at all) — equally correct.
    EXPECT_EQ(live.load(), 0);
    return;
  }
  em.TryAdvanceAndSweep();
  EpochManager::Pin pin(&em);
  em.TryAdvanceAndSweep();
  EXPECT_EQ(live.load(), 0);
}

// Regression: a sweep whose pin scan saw no pins used to free every
// generation — including objects retired after the scan by a thread
// that pinned after it and may still hold them.
TEST(EpochTest, PinAndRetireAfterEmptyScanSurviveTheSweep) {
  EpochManager em;
  std::atomic<int> live{0};
  std::optional<EpochManager::Pin> late_pin;
  em.TestAfterPinScan([&] {
    late_pin.emplace(&em);
    em.Retire(new Tracked(&live), DeleteTracked);
  });
  em.TryAdvanceAndSweep();
  EXPECT_EQ(live.load(), 1) << "freed under a pin taken after the scan";
  late_pin.reset();
  em.Quiesce();
  EXPECT_EQ(live.load(), 0);
}

TEST(EpochTest, NestedPinsCountAsOne) {
  EpochManager em;
  std::atomic<int> live{0};
  {
    EpochManager::Pin outer(&em);
    {
      EpochManager::Pin inner(&em);  // same thread -> same slot, nested
      em.Retire(new Tracked(&live), DeleteTracked);
    }
    // Outer pin still held: nothing frees.
    for (int i = 0; i < 10; i++) em.TryAdvanceAndSweep();
    EXPECT_EQ(live.load(), 1);
  }
  em.Quiesce();
  EXPECT_EQ(live.load(), 0);
}

TEST(EpochTest, SweepWaitsForEveryPinnedThread) {
  EpochManager em;
  std::atomic<int> live{0};
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  // A second thread holds a pin (distinct slot with high probability;
  // a collision only strengthens the blocking, never weakens it).
  std::thread holder([&] {
    EpochManager::Pin pin(&em);
    pinned.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!pinned.load()) std::this_thread::yield();
  em.Retire(new Tracked(&live), DeleteTracked);
  for (int i = 0; i < 10; i++) em.TryAdvanceAndSweep();
  EXPECT_EQ(live.load(), 1) << "freed while a concurrent pin was active";
  release.store(true);
  holder.join();
  em.Quiesce();
  EXPECT_EQ(live.load(), 0);
  EXPECT_EQ(em.RetiredObjectCount(), 0u);
}

TEST(EpochTest, DestructorFreesLeftovers) {
  std::atomic<int> live{0};
  {
    EpochManager em;
    em.Retire(new Tracked(&live), DeleteTracked);
    EXPECT_EQ(live.load(), 1);
  }
  EXPECT_EQ(live.load(), 0);
}

TEST(EpochTest, ConcurrentRetireAndSweepStress) {
  EpochManager em;
  std::atomic<int> live{0};
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; t++) {
    ts.emplace_back([&, t] {
      std::mt19937 rng(t);
      for (int i = 0; i < kPerThread; i++) {
        if (rng() % 4 == 0) {
          EpochManager::Pin pin(&em);
          em.Retire(new Tracked(&live), DeleteTracked);
        } else {
          em.Retire(new Tracked(&live), DeleteTracked);
        }
        if (i % 64 == 0) em.TryAdvanceAndSweep();
      }
    });
  }
  for (auto& t : ts) t.join();
  em.Quiesce();
  EXPECT_EQ(em.RetiredObjectCount(), 0u);
  EXPECT_EQ(live.load(), 0);
  EXPECT_EQ(em.FreedObjectCount(),
            static_cast<uint64_t>(kThreads * kPerThread));
}

// ---------------------------------------------------------------------------
// SIREAD manager teardown churn.
// ---------------------------------------------------------------------------

// Register/flag/abort/commit/cleanup churn across 8 threads; the limbo
// must drain to zero after quiesce.
TEST(EpochReclaimTest, XactChurnEpochMode) {
  EngineConfig cfg;
  EpochManager em;
  ssi::SireadLockManager mgr(cfg, &em);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 1500;
  std::atomic<uint64_t> next_xid{1};
  std::atomic<uint64_t> next_seq{1};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; t++) {
    ts.emplace_back([&, t] {
      std::mt19937 rng(1000 + t);
      for (int i = 0; i < kPerThread; i++) {
        const XactId xid = next_xid.fetch_add(1);
        const uint64_t snap = next_seq.load();
        ssi::SerializableXact* x = mgr.Register(xid, snap, false);
        // SIREAD traffic so teardown has granules to sweep.
        mgr.AcquireTuple(x, /*rel=*/1, /*page=*/rng() % 64, rng() % 8);
        mgr.AcquireTuple(x, /*rel=*/2, /*page=*/rng() % 16, rng() % 8);
        (void)mgr.ProbeHeapWrite(1, rng() % 64, rng() % 8);
        // Conflict-graph traffic against a random (possibly torn-down)
        // recent xid — exercises xid resolution racing teardown.
        if (xid > 4) {
          mgr.FlagRwConflictWithWriter(x, xid - 1 - rng() % 4);
          mgr.FlagRwConflictWithReader(xid - 1 - rng() % 4, x);
        }
        if (rng() % 3 == 0) {
          mgr.Abort(x);
        } else {
          if (mgr.PreCommit(x).ok()) {
            mgr.MarkCommitted(x, next_seq.fetch_add(1));
          } else {
            mgr.Abort(x);
          }
        }
        if (rng() % 64 == 0) {
          // Everything that committed below the current floor is dead.
          mgr.Cleanup(next_seq.load());
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  mgr.Cleanup(next_seq.load() + 1);
  em.Quiesce();
  EXPECT_EQ(mgr.RegisteredCount(), 0u);
  EXPECT_EQ(mgr.TotalLockCount(), 0u);
  EXPECT_EQ(em.RetiredObjectCount(), 0u);
  EXPECT_TRUE(mgr.CheckConsistency());
}

TEST(EpochReclaimTest, GranuleEntriesRetireThroughLimbo) {
  EngineConfig cfg;
  EpochManager em;
  ssi::SireadLockManager mgr(cfg, &em);
  ssi::SerializableXact* x = mgr.Register(1, 1, false);
  for (uint32_t s = 0; s < 8; s++) mgr.AcquireTuple(x, 1, 1, s);
  EXPECT_GT(mgr.TotalLockCount(), 0u);
  {
    // Hold a pin so no sweep can free the retirees out from under the
    // assertion.
    EpochManager::Pin pin(&em);
    mgr.Abort(x);
    // Teardown retired the xact and the emptied holder sets into limbo.
    EXPECT_GT(em.RetiredObjectCount(), 0u);
  }
  em.Quiesce();
  EXPECT_EQ(em.RetiredObjectCount(), 0u);
  EXPECT_EQ(mgr.TotalLockCount(), 0u);
}

TEST(EpochReclaimTest, CleanupDrivesLimboEvenWhenNothingFreeable) {
  EngineConfig cfg;
  EpochManager em;
  ssi::SireadLockManager mgr(cfg, &em);
  std::atomic<int> live{0};
  em.Retire(new Tracked(&live), DeleteTracked);
  // No registered xacts at all; Cleanup must still advance the epoch
  // machinery so index GC / granule retirees do not linger.
  for (int i = 0; i < 8; i++) mgr.Cleanup(/*oldest=*/1);
  EXPECT_EQ(live.load(), 0);
}

TEST(EpochReclaimTest, CleanupFreesOlderCommitThenSurvivor) {
  EngineConfig cfg;
  EpochManager em;
  ssi::SireadLockManager mgr(cfg, &em);
  ssi::SerializableXact* a = mgr.Register(1, 1, false);
  ssi::SerializableXact* b = mgr.Register(2, 1, false);
  ASSERT_TRUE(mgr.PreCommit(a).ok());
  mgr.MarkCommitted(a, 10);
  ASSERT_TRUE(mgr.PreCommit(b).ok());
  mgr.MarkCommitted(b, 20);
  EXPECT_EQ(mgr.RegisteredCount(), 2u);
  mgr.Cleanup(/*bound=*/15);  // frees a, not b
  EXPECT_EQ(mgr.RegisteredCount(), 1u);
  mgr.Cleanup(/*bound=*/25);
  EXPECT_EQ(mgr.RegisteredCount(), 0u);
  em.Quiesce();
  EXPECT_EQ(em.RetiredObjectCount(), 0u);
}

}  // namespace
}  // namespace pgssi
