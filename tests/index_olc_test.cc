// OLC index-path regressions: empty-leaf recycling under insert/abort
// storms, forced-restart cleanup on the guarded insert path (no
// double-acquired gap coverage, no leaked recycled chains), and a
// fanout-4 insert storm with concurrent serializable scanners.
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "db/transaction_handle.h"

namespace pgssi {
namespace {

DatabaseOptions SmallTree(IndexGapLocking gap = IndexGapLocking::kPage) {
  DatabaseOptions o;
  o.engine.btree_fanout = 4;  // force deep splits on a handful of keys
  o.engine.index_gap_locking = gap;
  return o;
}

std::string Key(const char* prefix, int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%05d", prefix, i);
  return buf;
}

TxnOptions Serializable() {
  TxnOptions t;
  t.isolation = IsolationLevel::kSerializable;
  return t;
}

// Satellite: BTree::Erase recycles fully-empty leaves. An insert/abort
// storm must not grow the leaf chain without bound — every aborted
// batch's leaves are unlinked once their entries are GC'd.
TEST(IndexOlcTest, LeafCountBoundedUnderInsertAbortStorm) {
  auto db = Database::Open(SmallTree());
  TableId t;
  ASSERT_TRUE(db->CreateTable("s", &t).ok());
  {
    auto txn = db->Begin(Serializable());
    for (int i = 0; i < 8; i++) {
      ASSERT_TRUE(txn->Insert(t, Key("base", i), "v").ok());
    }
    ASSERT_TRUE(txn->Commit().ok());
  }
  const size_t base_leaves = db->IndexLeafCount(t);
  for (int round = 0; round < 50; round++) {
    auto txn = db->Begin(Serializable());
    for (int i = 0; i < 20; i++) {
      ASSERT_TRUE(txn->Insert(t, Key("storm", i), "v").ok());
    }
    ASSERT_TRUE(txn->Abort().ok());  // rolls back + drains index GC
  }
  EXPECT_EQ(db->IndexEntryCount(t), 8u);
  EXPECT_EQ(db->LiveTupleChainCount(t), 8u);
  // Without recycling the chain would hold hundreds of empty leaves
  // (50 rounds x ~7 leaves of storm keys each).
  EXPECT_LE(db->IndexLeafCount(t), base_leaves + 2);
  EXPECT_TRUE(db->CheckSsiLockConsistency());
  // The storm's erased entries and recycled leaves went through the
  // limbo; once quiesced they are actually freed, not retained.
  db->QuiesceEpochs();
  EXPECT_EQ(db->EpochRetiredObjectCount(), 0u);
  EXPECT_GT(db->EpochFreedObjectCount(), 0u);
}

// Satellite: audit of the OLC restart path. A forced restart runs the
// gap probe again on the retry; the failed attempt must release its
// leaf locks (or this test hangs), must not double-install gap
// coverage, and must not leak a recycled chain. The control run (no
// forced restarts) pins the expected SIREAD lock counts; the forced run
// must match them exactly.
TEST(IndexOlcTest, ForcedRestartLeavesNoExtraCoverageOrChains) {
  for (auto gap : {IndexGapLocking::kPage, IndexGapLocking::kNextKey}) {
    SCOPED_TRACE(gap == IndexGapLocking::kPage ? "page" : "next-key");
    size_t counts[2][2];  // [forced][tuple/page locks]
    for (int forced = 0; forced < 2; forced++) {
      auto db = Database::Open(SmallTree(gap));
      TableId t;
      ASSERT_TRUE(db->CreateTable("s", &t).ok());
      {
        auto setup = db->Begin(Serializable());
        for (int i = 0; i < 6; i++) {
          ASSERT_TRUE(setup->Insert(t, Key("k", 2 * i), "v").ok());
        }
        ASSERT_TRUE(setup->Commit().ok());
      }
      // Reader scans the whole range and STAYS OPEN, so its gap
      // coverage must survive the writer's insert.
      auto reader = db->Begin(Serializable());
      std::vector<std::pair<std::string, std::string>> rows;
      ASSERT_TRUE(reader->Scan(t, Key("k", 0), Key("k", 99), &rows).ok());
      ASSERT_EQ(rows.size(), 6u);

      if (forced) db->TestForceIndexInsertRestarts(t, 2);
      auto writer = db->Begin(Serializable());
      ASSERT_TRUE(writer->Insert(t, Key("k", 5), "w").ok());
      // A single rw edge (reader -rw-> writer) is not a dangerous
      // structure: the commit must succeed, restarts or not.
      ASSERT_TRUE(writer->Commit().ok());
      counts[forced][0] = db->SireadTupleLockCount();
      counts[forced][1] = db->SireadPageLockCount();
      EXPECT_TRUE(db->CheckSsiLockConsistency());

      // Leaked-chain audit: force restarts again, insert a fresh key,
      // abort, and make sure the chain is recycled (re-insert of the
      // same key commits and live-chain count returns to the pre-abort
      // value + 1).
      const size_t live_before = db->LiveTupleChainCount(t);
      if (forced) db->TestForceIndexInsertRestarts(t, 2);
      {
        auto ab = db->Begin(Serializable());
        ASSERT_TRUE(ab->Insert(t, Key("q", 1), "x").ok());
        ASSERT_TRUE(ab->Abort().ok());
      }
      EXPECT_EQ(db->LiveTupleChainCount(t), live_before);
      {
        auto re = db->Begin(Serializable());
        ASSERT_TRUE(re->Insert(t, Key("q", 1), "y").ok());
        ASSERT_TRUE(re->Commit().ok());
      }
      std::string v;
      auto chk = db->Begin(Serializable());
      ASSERT_TRUE(chk->Get(t, Key("q", 1), &v).ok());
      EXPECT_EQ(v, "y");
      ASSERT_TRUE(chk->Commit().ok());
      EXPECT_EQ(db->LiveTupleChainCount(t), live_before + 1);
      ASSERT_TRUE(reader->Abort().ok());
    }
    // No double-acquired gap coverage: the forced-restart run must end
    // with exactly the control run's lock-table footprint.
    EXPECT_EQ(counts[1][0], counts[0][0]);
    EXPECT_EQ(counts[1][1], counts[0][1]);
  }
}

// Tentpole stress: 8-thread insert storm (with periodic aborts) plus
// concurrent serializable scanners across constant leaf splits at
// fanout 4. Each committed transaction inserts exactly 3 keys, so every
// scan must observe a multiple of 3 (snapshot atomicity); the final
// state must be exactly the committed key set with a consistent SIREAD
// lock table.
TEST(IndexOlcTest, InsertStormWithConcurrentScanners) {
  constexpr int kWriters = 8;
  constexpr int kScanners = 2;
  constexpr int kTxnsPerWriter = 30;
  auto db = Database::Open(SmallTree());
  TableId t;
  ASSERT_TRUE(db->CreateTable("s", &t).ok());
  std::atomic<bool> stop{false};
  std::atomic<int> committed_txns{0};
  std::atomic<int> atomicity_violations{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; w++) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kTxnsPerWriter; i++) {
        auto txn = db->Begin(Serializable());
        bool ok = true;
        for (int k = 0; k < 3 && ok; k++) {
          ok = txn->Insert(t, Key("w", (w * kTxnsPerWriter + i) * 3 + k),
                           "v")
                   .ok();
        }
        if (!ok || i % 3 == 2) {
          txn->Abort();
          continue;
        }
        if (txn->Commit().ok()) committed_txns.fetch_add(1);
      }
    });
  }
  std::vector<std::thread> scanners;
  for (int s = 0; s < kScanners; s++) {
    scanners.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        TxnOptions ro = Serializable();
        ro.read_only = true;
        auto txn = db->Begin(ro);
        uint64_t n = 0;
        if (txn->Count(t, Key("w", 0), Key("w", 99999), &n).ok()) {
          if (n % 3 != 0) atomicity_violations.fetch_add(1);
          txn->Commit();
        }
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  for (auto& th : scanners) th.join();

  // Drain any re-enqueued GC records, then verify the final image.
  for (int i = 0; i < 2; i++) {
    auto txn = db->Begin(Serializable());
    ASSERT_TRUE(txn->Commit().ok());
  }
  EXPECT_EQ(atomicity_violations.load(), 0);
  const size_t expect = static_cast<size_t>(committed_txns.load()) * 3;
  uint64_t n = 0;
  auto txn = db->Begin(Serializable());
  ASSERT_TRUE(txn->Count(t, Key("w", 0), Key("w", 99999), &n).ok());
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_EQ(n, expect);
  EXPECT_EQ(db->IndexEntryCount(t), expect);
  EXPECT_EQ(db->LiveTupleChainCount(t), expect);
  EXPECT_TRUE(db->CheckSsiLockConsistency());
  // After the storm quiesces, nothing may linger in the limbo, and no
  // aborted or committed inserter may have left a claim behind.
  db->QuiesceEpochs();
  EXPECT_EQ(db->EpochRetiredObjectCount(), 0u);
  EXPECT_EQ(db->LeakedClaimCount(), 0u);
  EXPECT_EQ(db->RowLockCount(), 0u);
}

}  // namespace
}  // namespace pgssi
