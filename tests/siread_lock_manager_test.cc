// SIREAD lock manager unit tests: multi-granularity promotion thresholds,
// probe hit/miss, page-split lock transfer, and commit-cleanup release
// (including the Database's horizon-triggered cleanup runs).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "db/transaction_handle.h"
#include "ssi/siread_lock_manager.h"

namespace pgssi::ssi {
namespace {

bool Holds(const ProbeResult& r, XactId x) {
  return std::find(r.holder_xids.begin(), r.holder_xids.end(), x) !=
         r.holder_xids.end();
}

TEST(SireadLockManagerTest, ProbeHitAndMiss) {
  EngineConfig cfg;
  util::EpochManager em;
  SireadLockManager mgr(cfg, &em);
  SerializableXact x;
  x.xid = 7;
  mgr.AcquireTuple(&x, 1, 10, 3);

  EXPECT_TRUE(Holds(mgr.ProbeHeapWrite(1, 10, 3), 7));
  EXPECT_FALSE(Holds(mgr.ProbeHeapWrite(1, 10, 4), 7));   // other slot
  EXPECT_FALSE(Holds(mgr.ProbeHeapWrite(1, 11, 3), 7));   // other page
  EXPECT_FALSE(Holds(mgr.ProbeHeapWrite(2, 10, 3), 7));   // other relation
  EXPECT_TRUE(mgr.HoldsTupleLock(&x, 1, 10, 3));
  EXPECT_FALSE(mgr.HoldsPageLock(&x, 1, 10));
}

TEST(SireadLockManagerTest, AcquireIsIdempotent) {
  EngineConfig cfg;
  cfg.max_locks_per_page = 3;
  util::EpochManager em;
  SireadLockManager mgr(cfg, &em);
  SerializableXact x;
  x.xid = 1;
  for (int i = 0; i < 10; i++) mgr.AcquireTuple(&x, 1, 5, 2);
  EXPECT_EQ(mgr.TupleLockCount(), 1u);  // re-acquiring never promotes
  EXPECT_FALSE(mgr.HoldsPageLock(&x, 1, 5));
}

TEST(SireadLockManagerTest, TupleToPagePromotionAtThreshold) {
  EngineConfig cfg;
  cfg.max_locks_per_page = 3;
  cfg.max_pages_per_relation = 100;
  util::EpochManager em;
  SireadLockManager mgr(cfg, &em);
  SerializableXact x;
  x.xid = 9;

  mgr.AcquireTuple(&x, 1, 20, 0);
  mgr.AcquireTuple(&x, 1, 20, 1);
  mgr.AcquireTuple(&x, 1, 20, 2);
  EXPECT_EQ(mgr.TupleLockCount(), 3u);
  EXPECT_FALSE(mgr.HoldsPageLock(&x, 1, 20));
  EXPECT_EQ(mgr.page_promotions(), 0u);

  // The (threshold+1)-th tuple lock on the page escalates.
  mgr.AcquireTuple(&x, 1, 20, 3);
  EXPECT_TRUE(mgr.HoldsPageLock(&x, 1, 20));
  EXPECT_EQ(mgr.TupleLockCount(), 0u);  // tuple locks replaced
  EXPECT_EQ(mgr.page_promotions(), 1u);

  // The page lock still answers probes for any slot on the page,
  // including slots never individually locked.
  EXPECT_TRUE(Holds(mgr.ProbeHeapWrite(1, 20, 0), 9));
  EXPECT_TRUE(Holds(mgr.ProbeHeapWrite(1, 20, 77), 9));
  EXPECT_FALSE(Holds(mgr.ProbeHeapWrite(1, 21, 0), 9));
}

TEST(SireadLockManagerTest, PageToRelationPromotionAtThreshold) {
  EngineConfig cfg;
  cfg.max_locks_per_page = 1;
  cfg.max_pages_per_relation = 2;
  util::EpochManager em;
  SireadLockManager mgr(cfg, &em);
  SerializableXact x;
  x.xid = 5;

  // Two tuple locks per page promote each page; the third page lock
  // promotes to the relation.
  for (PageId p = 1; p <= 3; p++) {
    mgr.AcquireTuple(&x, 4, p, 0);
    mgr.AcquireTuple(&x, 4, p, 1);
  }
  EXPECT_TRUE(mgr.HoldsRelationLock(&x, 4));
  EXPECT_EQ(mgr.PageLockCount(), 0u);
  EXPECT_EQ(mgr.TupleLockCount(), 0u);
  EXPECT_GE(mgr.relation_promotions(), 1u);

  // Relation lock covers every page/slot of the relation.
  EXPECT_TRUE(Holds(mgr.ProbeHeapWrite(4, 999, 42), 5));
  EXPECT_FALSE(Holds(mgr.ProbeHeapWrite(5, 999, 42), 5));
}

TEST(SireadLockManagerTest, PageSplitTransfersLocks) {
  EngineConfig cfg;
  util::EpochManager em;
  SireadLockManager mgr(cfg, &em);
  SerializableXact reader;
  reader.xid = 11;
  mgr.AcquireTuple(&reader, 1, /*page=*/1, /*slot=*/5);
  SerializableXact pager;
  pager.xid = 12;
  mgr.AcquirePage(&pager, 1, 1);

  // Leaf 1 splits; slot 5 moves to the new leaf 2.
  mgr.OnPageSplit(1, /*old_page=*/1, /*new_page=*/2, {5});

  EXPECT_TRUE(Holds(mgr.ProbeHeapWrite(1, 2, 5), 11));   // tuple lock moved
  EXPECT_TRUE(Holds(mgr.ProbeHeapWrite(1, 2, 9), 12));   // page lock duplicated
  // The tuple lock moved with its entry — not duplicated — so the old
  // granule no longer answers for the reader, and bookkeeping stays in
  // sync with tuple_locks_ (release after the split frees everything).
  EXPECT_FALSE(Holds(mgr.ProbeHeapWrite(1, 1, 5), 11));
  EXPECT_TRUE(Holds(mgr.ProbeHeapWrite(1, 1, 5), 12));   // old page lock kept
  EXPECT_EQ(mgr.TupleLockCount(), 1u);
  EXPECT_TRUE(mgr.HoldsTupleLock(&reader, 1, 2, 5));
  EXPECT_FALSE(mgr.HoldsTupleLock(&reader, 1, 1, 5));
}

TEST(SireadLockManagerTest, AbortReleasesEverything) {
  EngineConfig cfg;
  util::EpochManager em;
  SireadLockManager mgr(cfg, &em);
  SerializableXact* x = mgr.Register(21, 0, false);
  mgr.AcquireTuple(x, 1, 1, 1);
  mgr.AcquirePage(x, 1, 2);
  mgr.AcquireRelation(x, 3);
  EXPECT_EQ(mgr.RegisteredCount(), 1u);

  mgr.Abort(x);  // frees x
  EXPECT_EQ(mgr.RegisteredCount(), 0u);
  EXPECT_EQ(mgr.TupleLockCount(), 0u);
  EXPECT_EQ(mgr.PageLockCount(), 0u);
  EXPECT_EQ(mgr.RelationLockCount(), 0u);
  EXPECT_TRUE(mgr.ProbeHeapWrite(1, 1, 1).holder_xids.empty());
}

TEST(SireadLockManagerTest, SireadLocksSurviveCommitUntilCleanup) {
  EngineConfig cfg;
  util::EpochManager em;
  SireadLockManager mgr(cfg, &em);
  SerializableXact* x = mgr.Register(31, /*snapshot_seq=*/10, false);
  mgr.AcquireTuple(x, 1, 7, 0);

  mgr.MarkCommitted(x, /*commit_seq=*/12);
  // Still held: a transaction concurrent with x (snapshot 11 < 12) exists.
  EXPECT_TRUE(Holds(mgr.ProbeHeapWrite(1, 7, 0), 31));
  mgr.Cleanup(/*oldest_active_snapshot_seq=*/11);
  EXPECT_TRUE(Holds(mgr.ProbeHeapWrite(1, 7, 0), 31));
  EXPECT_EQ(mgr.RegisteredCount(), 1u);

  // Once every concurrent transaction is gone, cleanup frees the xact and
  // its SIREAD locks.
  mgr.Cleanup(/*oldest_active_snapshot_seq=*/12);
  EXPECT_EQ(mgr.RegisteredCount(), 0u);
  EXPECT_TRUE(mgr.ProbeHeapWrite(1, 7, 0).holder_xids.empty());
}

// Cleanup frees exactly the committed xacts at or below its bound: the
// older commit goes at the lower bound, its survivor (and the survivor's
// SIREAD lock) only once a later bound passes it.
TEST(SireadLockManagerTest, CleanupFreesOlderCommitThenSurvivor) {
  EngineConfig cfg;
  util::EpochManager em;
  SireadLockManager mgr(cfg, &em);
  SerializableXact* older = mgr.Register(1, 0, false);
  SerializableXact* survivor = mgr.Register(2, 0, false);
  mgr.AcquireTuple(survivor, 1, 1, 1);
  mgr.MarkCommitted(older, 1);
  mgr.MarkCommitted(survivor, 5);
  EXPECT_EQ(mgr.RegisteredCount(), 2u);

  mgr.Cleanup(/*bound=*/1);  // frees only the older commit
  EXPECT_EQ(mgr.RegisteredCount(), 1u);
  EXPECT_EQ(mgr.TupleLockCount(), 1u);

  mgr.Cleanup(/*bound=*/5);
  EXPECT_EQ(mgr.RegisteredCount(), 0u);
  EXPECT_EQ(mgr.TupleLockCount(), 0u);
}

// A commit queued out of seq order (seq 10 appended before seq 9 in one
// shard) is never lost and never freed early: it waits behind the head
// until the bound passes the head, then both go.
TEST(SireadLockManagerTest, OutOfOrderCommitWaitsForHeadThenFrees) {
  EngineConfig cfg;
  bool same_shard_found = false;
  // Shards are private; find an xid that shares xid 1's shard by its
  // effect: behind seq 10 in the same shard, seq 9 survives Cleanup(9).
  for (XactId other = 2; other < 200 && !same_shard_found; ++other) {
    util::EpochManager em;
    SireadLockManager mgr(cfg, &em);
    SerializableXact* first = mgr.Register(1, 0, false);
    SerializableXact* second = mgr.Register(other, 0, false);
    mgr.AcquireTuple(second, 1, 1, 1);
    mgr.MarkCommitted(first, 10);
    mgr.MarkCommitted(second, 9);
    mgr.Cleanup(/*bound=*/9);
    if (mgr.RegisteredCount() == 1u) {  // different shards: 9 freed
      EXPECT_EQ(mgr.TupleLockCount(), 0u);
      continue;
    }
    same_shard_found = true;
    ASSERT_EQ(mgr.RegisteredCount(), 2u);
    EXPECT_TRUE(Holds(mgr.ProbeHeapWrite(1, 1, 1), other));
    mgr.Cleanup(/*bound=*/10);
    EXPECT_EQ(mgr.RegisteredCount(), 0u);
    EXPECT_EQ(mgr.TupleLockCount(), 0u);
  }
  EXPECT_TRUE(same_shard_found);
}

// Section 5.3 cleanup is horizon-triggered and O(freed). While one
// reader pins the cleanup bound, 1,000 SSI commits run no cleanup (no
// run, no queued xact visited) and take no GC drain; when the reader
// ends, one run frees them all, visiting about as many xacts as it
// frees.
TEST(SireadLockManagerTest, PinnedReaderDefersCleanupToOneRun) {
  auto db = Database::Open();
  TableId t;
  ASSERT_TRUE(db->CreateTable("t", &t).ok());
  const TxnOptions ser{.isolation = IsolationLevel::kSerializable};
  auto reader = db->Begin(ser);
  std::string v;
  EXPECT_EQ(reader->Get(t, "k0", &v).code(), Code::kNotFound);

  const SireadLockManager& mgr = db->siread();
  const uint64_t runs_before = mgr.cleanup_runs();
  const uint64_t visits_before = mgr.cleanup_visits();
  const size_t registered_before = mgr.RegisteredCount();
  constexpr size_t kCommits = 1000;
  for (size_t i = 0; i < kCommits; i++) {
    auto w = db->Begin(ser);
    ASSERT_TRUE(w->Put(t, "k" + std::to_string(1 + i % 16), "v").ok());
    ASSERT_TRUE(w->Commit().ok());
    // FinishTxn only takes gc_mu_ when this reads nonzero.
    ASSERT_EQ(db->IndexGcQueueLength(), 0u);
  }
  EXPECT_EQ(mgr.cleanup_runs(), runs_before)
      << "a commit with an unmoved bound ran cleanup";
  EXPECT_EQ(mgr.cleanup_visits(), visits_before);
  const size_t registered = mgr.RegisteredCount();  // the reader included
  EXPECT_EQ(registered, registered_before + kCommits);

  ASSERT_TRUE(reader->Commit().ok());  // the bound moves past them all
  EXPECT_EQ(mgr.cleanup_runs(), runs_before + 1);
  EXPECT_EQ(mgr.RegisteredCount(), 0u);
  // Each of the 16 registry shards may add one unfreed head it examined.
  const uint64_t visits = mgr.cleanup_visits() - visits_before;
  EXPECT_GE(visits, registered);
  EXPECT_LE(visits, registered + 16);
}

// With no writer, the cleanup bound never rises again, yet each
// read-only commit is already behind it: the commit itself must run the
// cleanup that frees it, or a read-only stream grows the registry until
// the next write.
TEST(SireadLockManagerTest, ReadOnlyStreamWithoutWritersStaysFreed) {
  auto db = Database::Open();
  TableId t;
  ASSERT_TRUE(db->CreateTable("t", &t).ok());
  const TxnOptions ser{.isolation = IsolationLevel::kSerializable};
  {
    auto w = db->Begin(ser);
    ASSERT_TRUE(w->Put(t, "k", "v").ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  for (int i = 0; i < 1000; i++) {
    auto r = db->Begin(ser);
    std::string v;
    ASSERT_TRUE(r->Get(t, "k", &v).ok());
    ASSERT_TRUE(r->Commit().ok());
    ASSERT_EQ(db->siread().RegisteredCount(), 0u) << "read-only commit " << i;
  }
}

// Regression: "no sticky out-partner" must not be encoded as commit seq
// 0 — that conflates the empty state with a partner that committed at
// sequence number 0, silently passing a dangerous pivot. White-box: the
// xact carries the summary state Cleanup leaves behind after freeing
// both partners of a pivot.
TEST(SireadLockManagerTest, StickySeqZeroIsNotTheEmptySentinel) {
  EngineConfig cfg;
  util::EpochManager em;
  SireadLockManager mgr(cfg, &em);
  SerializableXact pivot;
  pivot.xid = 1;
  pivot.sticky_in = true;             // cleaned-up in-partner
  pivot.sticky_out = true;            // cleaned-up out-partner...
  pivot.sticky_out_commit_seq = 0;    // ...that committed at seq 0
  EXPECT_FALSE(mgr.PreCommit(&pivot).ok());  // dangerous structure

  // The default (sentinel) state never manufactures danger.
  SerializableXact clean;
  clean.xid = 2;
  clean.sticky_in = true;  // in-flag alone is not dangerous
  EXPECT_EQ(clean.sticky_out_commit_seq, kNoStickySeq);
  EXPECT_TRUE(mgr.PreCommit(&clean).ok());
}

// ROADMAP PR 3 item: gap transfers must not grow a long-lived scanner's
// bookkeeping without bound. Repeated transfers onto one page escalate
// to a single page lock at the same threshold AcquireTuple uses, and
// doomed holders are not copied at all (they can never commit).
TEST(SireadLockManagerTest, GapTransferEscalatesAndSkipsDoomed) {
  EngineConfig cfg;
  cfg.max_locks_per_page = 4;
  util::EpochManager em;
  SireadLockManager mgr(cfg, &em);
  SerializableXact scanner;
  scanner.xid = 1;
  mgr.AcquireTuple(&scanner, 1, /*page=*/1, /*slot=*/0);
  // 20 gap-splitting inserts, each transferring the scanner's coverage
  // from the previous next-key granule onto the new entry.
  for (uint32_t s = 1; s <= 20; s++) {
    mgr.OnGapTransfer(1, /*from_page=*/1, /*from_slot=*/s - 1,
                      /*to_page=*/1, /*to_slot=*/s);
  }
  // Unbounded copying would leave ~21 tuple locks; the escalation caps
  // the page's tuple locks at the threshold and installs one page lock.
  EXPECT_TRUE(mgr.HoldsPageLock(&scanner, 1, 1));
  EXPECT_LE(mgr.TupleLockCount(), 4u);

  SerializableXact doomed_reader;
  doomed_reader.xid = 2;
  mgr.AcquireTuple(&doomed_reader, 1, /*page=*/7, /*slot=*/0);
  doomed_reader.doomed.store(true);
  mgr.OnGapTransfer(1, 7, 0, 7, 1);
  EXPECT_FALSE(mgr.HoldsTupleLock(&doomed_reader, 1, 7, 1));
}

TEST(SireadLockManagerTest, WriteSupersedesSireadRelease) {
  EngineConfig cfg;
  util::EpochManager em;
  SireadLockManager mgr(cfg, &em);
  SerializableXact x;
  x.xid = 41;
  mgr.AcquireTuple(&x, 1, 3, 4);
  EXPECT_TRUE(Holds(mgr.ProbeHeapWrite(1, 3, 4), 41));
  mgr.ReleaseOwnTuple(&x, 1, 3, 4);
  EXPECT_FALSE(Holds(mgr.ProbeHeapWrite(1, 3, 4), 41));
  // Releasing a non-held granule is a no-op.
  mgr.ReleaseOwnTuple(&x, 1, 3, 4);
}

}  // namespace
}  // namespace pgssi::ssi
