// Predicate-coverage regression tests (Section 5.2: SIREAD coverage must
// survive every structural index change, and every read — including the
// existence checks performed implicitly by write statements — must leave
// a lock behind) plus a striped-heap stress:
//  - a failed Insert (kAlreadyExists) / failed Delete (kNotFound) read
//    the row's (non)existence and must SIREAD-track it, or write skew
//    built on those reads commits;
//  - under next-key gap locking, an insert that splits a gap must carry
//    the old next-key granule's holders onto the new entry, or a second
//    insert into the lower sub-gap misses the reader;
//  - an aborted new-key insert must not leak its chain or index entry,
//    and the erased granule's coverage must move back onto the gap;
//  - an 8-thread striped-heap stress (default stripes and the
//    --heap-stripes=1 equivalent) ending in a full consistency check.
// Run under ThreadSanitizer in CI (cmake --preset tsan).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "db/transaction_handle.h"
#include "util/random.h"

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define PGSSI_STRESS_SCALE 4
#else
#define PGSSI_STRESS_SCALE 1
#endif

namespace pgssi {
namespace {

std::unique_ptr<Transaction> BeginSer(Database* db) {
  return db->Begin({.isolation = IsolationLevel::kSerializable});
}

// ---------------------------------------------------------------------------
// Satellite 1: failed writes are reads.
// ---------------------------------------------------------------------------

// T1 verifies "A exists" via a failed Insert, updates C, and commits —
// its SIREAD lock on A must survive the commit (Section 5.3). T2,
// concurrent with T1, reads the old C (edge T2 -rw-> T1) and deletes A:
// the probe of A must find T1's lock (edge T1 -rw-> T2), completing a
// cycle with T1 already committed, so T2 must abort. Without tracking
// the failed Insert's read, both commit a non-serializable execution
// (T1 saw A that T2 deleted; T2 saw the C that T1 overwrote).
TEST(PredicateCoverageTest, FailedInsertExistenceCheckIsTracked) {
  auto db = Database::Open({});
  TableId t;
  ASSERT_TRUE(db->CreateTable("fi", &t).ok());
  {
    auto w = db->Begin();
    ASSERT_TRUE(w->Put(t, "A", "a").ok());
    ASSERT_TRUE(w->Put(t, "C", "c1").ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  auto t2 = BeginSer(db.get());  // snapshot taken before t1 commits
  auto t1 = BeginSer(db.get());
  EXPECT_EQ(t1->Insert(t, "A", "x").code(), Code::kAlreadyExists);
  ASSERT_TRUE(t1->Put(t, "C", "c2").ok());
  ASSERT_TRUE(t1->Commit().ok());
  std::string v;
  ASSERT_TRUE(t2->Get(t, "C", &v).ok());
  EXPECT_EQ(v, "c1");
  Status s2 = t2->Delete(t, "A");
  if (s2.ok()) s2 = t2->Commit();
  EXPECT_EQ(s2.code(), Code::kSerializationFailure) << s2.ToString();
}

// Same shape through a failed Delete on an existing-but-deleted chain:
// T1 verifies "A absent" (kNotFound), updates C, commits; T2 reads the
// old C and re-inserts A — the insert lands on A's surviving chain, and
// its probe must find T1's lock from the failed Delete.
TEST(PredicateCoverageTest, FailedDeleteExistenceCheckIsTracked) {
  auto db = Database::Open({});
  TableId t;
  ASSERT_TRUE(db->CreateTable("fd", &t).ok());
  {
    auto w = db->Begin();
    ASSERT_TRUE(w->Put(t, "A", "a").ok());
    ASSERT_TRUE(w->Put(t, "C", "c1").ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  {
    auto w = db->Begin();
    ASSERT_TRUE(w->Delete(t, "A").ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  auto t2 = BeginSer(db.get());
  auto t1 = BeginSer(db.get());
  EXPECT_EQ(t1->Delete(t, "A").code(), Code::kNotFound);
  ASSERT_TRUE(t1->Put(t, "C", "c2").ok());
  ASSERT_TRUE(t1->Commit().ok());
  std::string v;
  ASSERT_TRUE(t2->Get(t, "C", &v).ok());
  EXPECT_EQ(v, "c1");
  Status s2 = t2->Insert(t, "A", "x");
  if (s2.ok()) s2 = t2->Commit();
  EXPECT_EQ(s2.code(), Code::kSerializationFailure) << s2.ToString();
}

// Failed Delete of a key with no chain at all: the statement read the
// GAP the key would occupy and must gap-lock it exactly as a Get miss
// does, so T2's later insert of that key probes into T1's coverage.
TEST(PredicateCoverageTest, FailedDeleteOfAbsentKeyLocksGap) {
  auto db = Database::Open({});
  TableId t;
  ASSERT_TRUE(db->CreateTable("fg", &t).ok());
  {
    auto w = db->Begin();
    ASSERT_TRUE(w->Put(t, "C", "c1").ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  auto t2 = BeginSer(db.get());
  auto t1 = BeginSer(db.get());
  EXPECT_EQ(t1->Delete(t, "A").code(), Code::kNotFound);  // no chain for A
  ASSERT_TRUE(t1->Put(t, "C", "c2").ok());
  ASSERT_TRUE(t1->Commit().ok());
  std::string v;
  ASSERT_TRUE(t2->Get(t, "C", &v).ok());
  EXPECT_EQ(v, "c1");
  Status s2 = t2->Insert(t, "A", "x");
  if (s2.ok()) s2 = t2->Commit();
  EXPECT_EQ(s2.code(), Code::kSerializationFailure) << s2.ToString();
}

// ---------------------------------------------------------------------------
// Satellite 2: a gap-splitting insert must not strand the reader's
// next-key gap lock on the old granule.
// ---------------------------------------------------------------------------

// Two transactions each verify the range (b..y) is empty by scanning,
// then insert into it. The second insert's gap probe lands on the FIRST
// insert's entry (the new next key), not the granule the scans locked —
// without holder transfer the rw edge is lost and both commit, breaking
// the "insert only into an empty range" invariant.
TEST(PredicateCoverageTest, GapSplittingInsertKeepsScannerCoverage) {
  DatabaseOptions opts;
  opts.engine.index_gap_locking = IndexGapLocking::kNextKey;
  auto db = Database::Open(opts);
  TableId t;
  ASSERT_TRUE(db->CreateTable("gs", &t).ok());
  {
    auto w = db->Begin();
    ASSERT_TRUE(w->Put(t, "a", "lo").ok());
    ASSERT_TRUE(w->Put(t, "z", "hi").ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  auto ta = BeginSer(db.get());
  auto tb = BeginSer(db.get());
  uint64_t n = 0;
  ASSERT_TRUE(ta->Count(t, "b", "y", &n).ok());
  EXPECT_EQ(n, 0u);
  ASSERT_TRUE(tb->Count(t, "b", "y", &n).ok());
  EXPECT_EQ(n, 0u);
  // tb splits the gap first; ta's insert then probes tb's new entry.
  Status sb = tb->Insert(t, "m", "vb");
  Status sa = ta->Insert(t, "c", "va");
  if (sb.ok()) sb = tb->Commit();
  if (sa.ok()) sa = ta->Commit();
  EXPECT_NE(sa.ok(), sb.ok()) << "sa=" << sa.ToString()
                              << " sb=" << sb.ToString();
  // The surviving state honors the invariant: exactly one key landed.
  auto r = db->Begin();
  ASSERT_TRUE(r->Count(t, "b", "y", &n).ok());
  EXPECT_EQ(n, 1u);
  ASSERT_TRUE(r->Commit().ok());
}

// ROADMAP PR 3 item: every gap-splitting insert copies the old next-key
// granule's holders onto the new entry, so a long-lived scanner over a
// hot insert range would otherwise accumulate one tuple lock per insert
// without bound. The transfer path must escalate to a page lock at the
// usual per-page threshold; this asserts the bound after an insert-heavy
// run against a live scanner (fails with the escalation removed: the
// tuple-lock count tracks the insert count).
TEST(PredicateCoverageTest, GapTransferGrowthBoundedUnderInsertStorm) {
  DatabaseOptions opts;
  opts.engine.index_gap_locking = IndexGapLocking::kNextKey;
  opts.engine.max_locks_per_page = 4;
  auto db = Database::Open(opts);
  TableId t;
  ASSERT_TRUE(db->CreateTable("gb", &t).ok());
  {
    auto w = db->Begin();
    ASSERT_TRUE(w->Put(t, "a", "v").ok());
    ASSERT_TRUE(w->Put(t, "z", "v").ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  auto scanner = BeginSer(db.get());
  uint64_t n = 0;
  // Scan [a, y]: the right boundary's gap lock is a next-key TUPLE lock
  // on "z" (not a page lock, which would already cover the landing pages
  // and suppress the copies this regression is about). Every insert
  // below probes "z" as its successor and transfers that granule.
  ASSERT_TRUE(scanner->Count(t, "a", "y", &n).ok());

  constexpr int kInserts = 200;
  for (int i = 0; i < kInserts; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "m%06d", i);
    auto w = BeginSer(db.get());
    Status st = w->Insert(t, key, "v");
    if (st.ok()) st = w->Commit();  // serialization failures are fine
  }
  // The scanner is still live, so every insert transferred coverage to
  // its new granule — but escalation caps the copies at
  // max_locks_per_page tuple locks per leaf plus one page lock per leaf,
  // far below one lock per insert.
  EXPECT_LT(db->SireadTupleLockCount(), kInserts / 2);
  EXPECT_TRUE(db->CheckSsiLockConsistency());
  ASSERT_TRUE(scanner->Abort().ok());
}

// ---------------------------------------------------------------------------
// Satellite 3: aborted new-key inserts must not leak chains or entries.
// ---------------------------------------------------------------------------

TEST(PredicateCoverageTest, AbortedInsertLeavesNoChainOrIndexEntry) {
  auto db = Database::Open({});
  TableId t;
  ASSERT_TRUE(db->CreateTable("leak", &t).ok());
  {
    auto w = db->Begin();
    ASSERT_TRUE(w->Put(t, "a", "1").ok());
    ASSERT_TRUE(w->Put(t, "z", "1").ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  ASSERT_EQ(db->IndexEntryCount(t), 2u);
  ASSERT_EQ(db->LiveTupleChainCount(t), 2u);

  // Explicit abort, destructor abort, and serialization-failure rollback
  // all funnel through the same path; hammer it to prove recycling too.
  for (int i = 0; i < 16; i++) {
    auto txn = BeginSer(db.get());
    ASSERT_TRUE(txn->Insert(t, "m" + std::to_string(i % 4), "v").ok());
    if (i % 2 == 0) {
      ASSERT_TRUE(txn->Abort().ok());
    }  // else: destructor aborts
  }
  EXPECT_EQ(db->IndexEntryCount(t), 2u) << "aborted inserts leaked entries";
  EXPECT_EQ(db->LiveTupleChainCount(t), 2u) << "aborted inserts leaked chains";

  // The key is genuinely gone: reads miss, and a fresh insert (which
  // recycles an aborted chain) works and commits.
  {
    auto r = db->Begin();
    std::string v;
    EXPECT_EQ(r->Get(t, "m0", &v).code(), Code::kNotFound);
    ASSERT_TRUE(r->Commit().ok());
  }
  {
    auto txn = BeginSer(db.get());
    ASSERT_TRUE(txn->Insert(t, "m0", "final").ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  EXPECT_EQ(db->IndexEntryCount(t), 3u);
  EXPECT_EQ(db->LiveTupleChainCount(t), 3u);
}

// A reader that observed an uncommitted key as absent holds a SIREAD
// lock on that entry's granule. When the insert aborts and the entry is
// erased, that coverage must transfer back onto the gap, so a later
// re-insert of the key still finds the reader.
TEST(PredicateCoverageTest, AbortedInsertTransfersCoverageBackToGap) {
  DatabaseOptions opts;
  opts.engine.index_gap_locking = IndexGapLocking::kNextKey;
  auto db = Database::Open(opts);
  TableId t;
  ASSERT_TRUE(db->CreateTable("xfer", &t).ok());
  {
    auto w = db->Begin();
    ASSERT_TRUE(w->Put(t, "a", "1").ok());
    ASSERT_TRUE(w->Put(t, "r", "0").ok());
    ASSERT_TRUE(w->Put(t, "z", "1").ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  auto tc = BeginSer(db.get());  // creates then aborts "m"
  ASSERT_TRUE(tc->Insert(t, "m", "tmp").ok());
  auto tr = BeginSer(db.get());  // reads "m absent", writes "r"
  auto tw = BeginSer(db.get());  // reads "r", re-inserts "m"
  std::string v;
  EXPECT_EQ(tr->Get(t, "m", &v).code(), Code::kNotFound);
  ASSERT_TRUE(tw->Get(t, "r", &v).ok());
  ASSERT_TRUE(tc->Abort().ok());  // erases the entry tr's lock sat on
  Status sw = tw->Insert(t, "m", "real");
  Status sr = tr->Put(t, "r", "1");
  if (sw.ok()) sw = tw->Commit();
  if (sr.ok()) sr = tr->Commit();
  EXPECT_NE(sr.ok(), sw.ok()) << "sr=" << sr.ToString()
                              << " sw=" << sw.ToString();
}

// Erase leaves empty leaves behind, so an open tail gap can span
// several leaves: a reader's boundary page lock lands on the LAST
// (empty) leaf while a later insert into the gap lands on an earlier
// one. The insert must probe every leaf its gap spans (ProbePages), or
// the rw edge is lost.
TEST(PredicateCoverageTest, TailGapInsertProbesAcrossEmptyLeaves) {
  DatabaseOptions opts;
  opts.engine.index_gap_locking = IndexGapLocking::kNextKey;
  opts.engine.btree_fanout = 4;  // force splits with a handful of keys
  auto db = Database::Open(opts);
  TableId t;
  ASSERT_TRUE(db->CreateTable("tg", &t).ok());
  {
    auto w = db->Begin();
    ASSERT_TRUE(w->Put(t, "a", "1").ok());
    ASSERT_TRUE(w->Put(t, "b", "1").ok());
    ASSERT_TRUE(w->Put(t, "Flag", "0").ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  {
    // Drive leaf splits, then abort: the upper keys vanish but their
    // (now empty) leaves — and the inner separators routing to them —
    // remain.
    auto w0 = BeginSer(db.get());
    for (const char* k : {"k", "l", "m", "n", "o", "p"}) {
      ASSERT_TRUE(w0->Insert(t, k, "tmp").ok());
    }
    ASSERT_TRUE(w0->Abort().ok());
  }
  auto tw = BeginSer(db.get());  // reads flag, inserts into the tail gap
  auto tr = BeginSer(db.get());  // scans the tail gap, writes flag
  std::string v;
  ASSERT_TRUE(tw->Get(t, "Flag", &v).ok());
  uint64_t n = 0;
  ASSERT_TRUE(tr->Count(t, "c", "y", &n).ok());  // boundary lock: empty tail leaf
  EXPECT_EQ(n, 0u);
  ASSERT_TRUE(tr->Put(t, "Flag", "1").ok());
  // "c" routes to the first leaf; tr's boundary lock sits on the last,
  // empty one. Only the multi-leaf probe finds it.
  Status sw = tw->Insert(t, "c", "x");
  if (sw.ok()) sw = tw->Commit();
  Status sr = tr->Commit();
  EXPECT_NE(sr.ok(), sw.ok()) << "sr=" << sr.ToString()
                              << " sw=" << sw.ToString();
}

// ---------------------------------------------------------------------------
// Striped-heap stress: disjoint-key writers, gap-probing inserts and
// aborted inserts from 8 threads, ending in a full consistency check.
// ---------------------------------------------------------------------------

TEST(PredicateCoverageTest, StripedHeapStressDefaultStripes) {
  auto db = Database::Open();
  TableId t;
  ASSERT_TRUE(db->CreateTable("stress", &t).ok());

  constexpr int kThreads = 8;
  constexpr int kKeysPerThread = 4;
  constexpr int kIters = 240 / PGSSI_STRESS_SCALE;
  auto own_key = [](int ti, int j) {
    return "own-" + std::to_string(ti) + "-" + std::to_string(j);
  };
  {
    auto w = db->Begin();
    for (int ti = 0; ti < kThreads; ti++) {
      for (int j = 0; j < kKeysPerThread; j++) {
        ASSERT_TRUE(w->Put(t, own_key(ti, j), "0").ok());
      }
    }
    ASSERT_TRUE(w->Commit().ok());
  }
  const size_t preloaded = kThreads * kKeysPerThread;

  std::vector<std::array<int, kKeysPerThread>> counts(kThreads);
  std::vector<std::thread> workers;
  for (int ti = 0; ti < kThreads; ti++) {
    counts[ti].fill(0);
    workers.emplace_back([&, ti] {
      Random rng(31u + static_cast<uint64_t>(ti));
      for (int it = 0; it < kIters; it++) {
        int j = static_cast<int>(rng.Uniform(kKeysPerThread));
        // Disjoint-key read-modify-write: only this thread writes these
        // keys, so contention is scans/gap-probes, never ww conflicts.
        for (int attempt = 0; attempt < 64; attempt++) {
          auto txn = BeginSer(db.get());
          std::string v;
          if (!txn->Get(t, own_key(ti, j), &v).ok()) continue;
          if (!txn->Put(t, own_key(ti, j), std::to_string(atoi(v.c_str()) + 1))
                   .ok()) {
            continue;
          }
          if (txn->Commit().ok()) {
            counts[ti][static_cast<size_t>(j)]++;
            break;
          }
        }
        if (it % 6 == 0) {
          // Insert-then-abort: exercises chain GC + gap-coverage
          // transfer under concurrency.
          auto txn = BeginSer(db.get());
          (void)txn->Insert(
              t, "tmp-" + std::to_string(ti) + "-" + std::to_string(it), "x");
          (void)txn->Abort();
        }
        if (it % 9 == 0) {
          // Serializable scans across everyone's keys: gap locks that
          // concurrent inserts and aborted-insert erases must honor.
          auto txn = BeginSer(db.get());
          uint64_t n = 0;
          if (txn->Count(t, "own-", "own-~", &n).ok()) (void)txn->Commit();
        }
        if (it % 14 == 0) {
          // Read a key that never exists: tuple-gap lock traffic.
          auto txn = BeginSer(db.get());
          std::string v;
          (void)txn->Get(t, "miss-" + std::to_string(it), &v);
          (void)txn->Commit();
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  // Every aborted insert was garbage-collected; every committed
  // increment is visible; the SIREAD tables mirror holder bookkeeping.
  EXPECT_EQ(db->IndexEntryCount(t), preloaded);
  EXPECT_EQ(db->LiveTupleChainCount(t), preloaded);
  auto r = db->Begin(
      {.isolation = IsolationLevel::kSerializable, .read_only = true});
  for (int ti = 0; ti < kThreads; ti++) {
    for (int j = 0; j < kKeysPerThread; j++) {
      std::string v;
      ASSERT_TRUE(r->Get(t, own_key(ti, j), &v).ok());
      EXPECT_EQ(atoi(v.c_str()), counts[ti][static_cast<size_t>(j)])
          << own_key(ti, j);
    }
  }
  ASSERT_TRUE(r->Commit().ok());
  EXPECT_TRUE(db->CheckSsiLockConsistency());
}

}  // namespace
}  // namespace pgssi
