// Satellite coverage: (a) the Section 4 read-only snapshot optimization —
// a declared read-only transaction neither causes nor suffers SSI aborts
// it shouldn't, and DEFERRABLE transactions get safe snapshots; (b) the
// S2PL serializable implementation — conflicting writers block and then
// proceed instead of aborting, and genuine deadlocks pick one victim.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>

#include "db/transaction_handle.h"

namespace pgssi {
namespace {

// ---------------------------------------------------------------------------
// Read-only optimization
// ---------------------------------------------------------------------------

// The three-txn scenario where a read-only reader R is harmless: W is a
// pivot-looking transaction (in-edge from R, out-edge to committed V) but
// V commits AFTER R's snapshot, so per Section 4 the structure cannot
// hurt a read-only R and nobody needs to abort.
// Returns W's commit status.
Status RunReadOnlyScenario(bool read_only_opt, bool declare_read_only) {
  DatabaseOptions opts;
  opts.engine.enable_read_only_opt = read_only_opt;
  auto db = Database::Open(opts);
  TableId t;
  EXPECT_TRUE(db->CreateTable("t", &t).ok());
  {
    auto w = db->Begin();
    EXPECT_TRUE(w->Put(t, "x", "1").ok());
    EXPECT_TRUE(w->Put(t, "y", "1").ok());
    EXPECT_TRUE(w->Commit().ok());
  }
  auto W = db->Begin({.isolation = IsolationLevel::kSerializable});
  auto R = db->Begin({.isolation = IsolationLevel::kSerializable,
                      .read_only = declare_read_only});
  std::string v;
  EXPECT_TRUE(W->Get(t, "y", &v).ok());  // W reads y...

  auto V = db->Begin({.isolation = IsolationLevel::kSerializable});
  EXPECT_TRUE(V->Put(t, "y", "2").ok());  // ...V overwrites it (W -rw-> V)
  EXPECT_TRUE(V->Commit().ok());          // V commits after R's snapshot

  EXPECT_TRUE(W->Put(t, "x", "9").ok());  // W writes x
  EXPECT_TRUE(R->Get(t, "x", &v).ok());   // R reads x  (R -rw-> W)
  EXPECT_TRUE(R->Commit().ok());
  return W->Commit();
}

TEST(ReadOnlyOptTest, DeclaredReadOnlyReaderCausesNoFalseAbort) {
  // With the optimization, the R -rw-> W edge is skipped entirely (V
  // committed after R's snapshot): W commits.
  Status st = RunReadOnlyScenario(/*read_only_opt=*/true,
                                  /*declare_read_only=*/true);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(ReadOnlyOptTest, WithoutOptimizationSameScenarioAborts) {
  // Without it, W looks like a pivot with a committed out-neighbor and is
  // aborted — the false positive the optimization removes.
  Status st = RunReadOnlyScenario(/*read_only_opt=*/false,
                                  /*declare_read_only=*/true);
  EXPECT_EQ(st.code(), Code::kSerializationFailure) << st.ToString();
}

TEST(ReadOnlyOptTest, UndeclaredReaderAlsoAborts) {
  // A reader that doesn't declare read-only can't benefit either.
  Status st = RunReadOnlyScenario(/*read_only_opt=*/true,
                                  /*declare_read_only=*/false);
  EXPECT_EQ(st.code(), Code::kSerializationFailure) << st.ToString();
}

TEST(ReadOnlyOptTest, ReadOnlyTxnStillAbortsWhenGenuinelyDangerous) {
  // Same shape but V commits BEFORE R takes its snapshot: now the
  // dangerous structure is real (R could observe state no serial order
  // allows) and someone must abort even with the optimization on.
  auto db = Database::Open({});
  TableId t;
  ASSERT_TRUE(db->CreateTable("t", &t).ok());
  {
    auto w = db->Begin();
    ASSERT_TRUE(w->Put(t, "x", "1").ok());
    ASSERT_TRUE(w->Put(t, "y", "1").ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  auto W = db->Begin({.isolation = IsolationLevel::kSerializable});
  std::string v;
  ASSERT_TRUE(W->Get(t, "y", &v).ok());

  auto V = db->Begin({.isolation = IsolationLevel::kSerializable});
  ASSERT_TRUE(V->Put(t, "y", "2").ok());
  ASSERT_TRUE(V->Commit().ok());  // commits before R begins

  ASSERT_TRUE(W->Put(t, "x", "9").ok());
  auto R = db->Begin({.isolation = IsolationLevel::kSerializable,
                      .read_only = true});
  Status r_read = R->Get(t, "x", &v);
  Status r_fin = r_read.ok() ? R->Commit() : r_read;
  Status w_fin = W->Commit();
  // The implementation victimizes the pivot W (still active); either way
  // the pair must not both succeed.
  EXPECT_FALSE(r_fin.ok() && w_fin.ok());
  EXPECT_TRUE(r_fin.IsSerializationFailure() || w_fin.IsSerializationFailure());
}

TEST(ReadOnlyOptTest, EdgeToInFlightWriterIsNotDroppedPrematurely) {
  // Regression: the Section 4 skip is only sound once the writer has
  // committed. Here the writer W has no dangerous out-edge when the
  // read-only R reads past its uncommitted write — but W acquires one
  // (to V, committed before R's snapshot) afterwards. If the R -rw-> W
  // edge were dropped at read time, W would commit and the cycle
  // R -> W -> V -> R would slip through.
  auto db = Database::Open({});
  TableId t;
  ASSERT_TRUE(db->CreateTable("t", &t).ok());
  {
    auto w = db->Begin();
    ASSERT_TRUE(w->Put(t, "x", "1").ok());
    ASSERT_TRUE(w->Put(t, "y", "1").ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  auto W = db->Begin({.isolation = IsolationLevel::kSerializable});
  ASSERT_TRUE(W->Put(t, "x", "2").ok());  // W writes x first

  auto V = db->Begin({.isolation = IsolationLevel::kSerializable});
  ASSERT_TRUE(V->Put(t, "y", "2").ok());
  ASSERT_TRUE(V->Commit().ok());  // V commits before R begins

  auto R = db->Begin({.isolation = IsolationLevel::kSerializable,
                      .read_only = true});
  std::string v;
  ASSERT_TRUE(R->Get(t, "x", &v).ok());  // R reads past W's write
  EXPECT_EQ(v, "1");

  ASSERT_TRUE(W->Get(t, "y", &v).ok());  // W -rw-> V forms only now
  EXPECT_EQ(v, "1");
  ASSERT_TRUE(R->Commit().ok());
  Status st = W->Commit();
  EXPECT_EQ(st.code(), Code::kSerializationFailure) << st.ToString();
}

TEST(ReadOnlyOptTest, OpportunisticSafeSnapshotSkipsTracking) {
  auto db = Database::Open({});
  TableId t;
  ASSERT_TRUE(db->CreateTable("t", &t).ok());
  {
    auto w = db->Begin();
    ASSERT_TRUE(w->Put(t, "a", "1").ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  // No concurrent read-write serializable txn: the read-only txn gets a
  // safe snapshot immediately (Theorem 4) and counts in the stats.
  auto r = db->Begin({.isolation = IsolationLevel::kSerializable,
                      .read_only = true});
  std::string v;
  ASSERT_TRUE(r->Get(t, "a", &v).ok());
  ASSERT_TRUE(r->Commit().ok());
  EXPECT_GE(db->GetSsiStats().safe_snapshots, 1u);
}

TEST(ReadOnlyOptTest, WritesRejectedInReadOnlyTxn) {
  auto db = Database::Open({});
  TableId t;
  ASSERT_TRUE(db->CreateTable("t", &t).ok());
  auto r = db->Begin({.isolation = IsolationLevel::kSerializable,
                      .read_only = true});
  EXPECT_EQ(r->Put(t, "a", "1").code(), Code::kInvalidArgument);
}

TEST(ReadOnlyOptTest, DeferrableWaitsForConcurrentRwTxns) {
  auto db = Database::Open({});
  TableId t;
  ASSERT_TRUE(db->CreateTable("t", &t).ok());
  {
    auto w = db->Begin();
    ASSERT_TRUE(w->Put(t, "a", "1").ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  // Hold a read-write serializable txn open, then Begin DEFERRABLE on
  // another thread: it must block until the rw txn finishes.
  auto rw = db->Begin({.isolation = IsolationLevel::kSerializable});
  std::string v;
  ASSERT_TRUE(rw->Get(t, "a", &v).ok());

  std::atomic<bool> began{false};
  std::atomic<bool> done{false};
  std::thread thr([&] {
    began = true;
    auto ro = db->Begin({.isolation = IsolationLevel::kSerializable,
                         .read_only = true,
                         .deferrable = true});
    done = true;
    std::string val;
    EXPECT_TRUE(ro->Get(t, "a", &val).ok());
    EXPECT_TRUE(ro->Commit().ok());
  });
  while (!began) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(done) << "DEFERRABLE Begin returned while a concurrent "
                        "read-write serializable txn was still active";
  ASSERT_TRUE(rw->Put(t, "a", "2").ok());
  ASSERT_TRUE(rw->Commit().ok());
  thr.join();
  EXPECT_TRUE(done);
  EXPECT_GE(db->GetSsiStats().safe_snapshots, 1u);
}

// ---------------------------------------------------------------------------
// S2PL serializable mode
// ---------------------------------------------------------------------------

class S2plTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions opts;
    opts.serializable_impl = SerializableImpl::kS2PL;
    opts.engine.lock_wait_timeout_us = 500'000;
    db_ = Database::Open(opts);
    ASSERT_TRUE(db_->CreateTable("t", &t_).ok());
    auto w = db_->Begin();
    ASSERT_TRUE(w->Put(t_, "a", "0").ok());
    ASSERT_TRUE(w->Put(t_, "b", "0").ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  std::unique_ptr<Transaction> BeginSer() {
    return db_->Begin({.isolation = IsolationLevel::kSerializable});
  }
  std::unique_ptr<Database> db_;
  TableId t_ = kInvalidTable;
};

TEST_F(S2plTest, ConflictingWriterBlocksThenProceedsWithoutAbort) {
  auto t1 = BeginSer();
  ASSERT_TRUE(t1->Put(t_, "a", "t1").ok());

  std::atomic<bool> started{false};
  std::atomic<bool> done{false};
  Status t2_status;
  std::thread thr([&] {
    auto t2 = BeginSer();
    started = true;
    t2_status = t2->Put(t_, "a", "t2");  // blocks on t1's exclusive lock
    if (t2_status.ok()) t2_status = t2->Commit();
    done = true;
  });
  while (!started) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_FALSE(done) << "S2PL writer did not block on the lock holder";
  ASSERT_TRUE(t1->Commit().ok());
  thr.join();
  // The blocked writer proceeds and commits — no serialization failure.
  EXPECT_TRUE(t2_status.ok()) << t2_status.ToString();
  auto r = db_->Begin();
  std::string v;
  ASSERT_TRUE(r->Get(t_, "a", &v).ok());
  EXPECT_EQ(v, "t2");  // last-committed write wins
  ASSERT_TRUE(r->Commit().ok());
}

TEST_F(S2plTest, ReaderBlocksConflictingWriter) {
  auto reader = BeginSer();
  std::string v;
  ASSERT_TRUE(reader->Get(t_, "a", &v).ok());  // shared lock, held to commit

  std::atomic<bool> done{false};
  Status w_status;
  std::thread thr([&] {
    auto w = BeginSer();
    w_status = w->Put(t_, "a", "w");
    if (w_status.ok()) w_status = w->Commit();
    done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_FALSE(done) << "writer did not block on reader's shared lock";
  ASSERT_TRUE(reader->Commit().ok());
  thr.join();
  EXPECT_TRUE(w_status.ok()) << w_status.ToString();
}

TEST_F(S2plTest, WriteSkewPreventedByDeadlockVictim) {
  // The write-skew pair under S2PL: both read a and b (shared), then each
  // upgrades a different key. The upgrades deadlock; exactly one victim
  // aborts with a serialization failure and the survivor's effect is
  // serializable.
  std::atomic<int> commits{0}, failures{0};
  auto worker = [&](const std::string& read_first, const std::string& write) {
    auto txn = BeginSer();
    std::string v;
    Status st = txn->Get(t_, "a", &v);
    if (st.ok()) st = txn->Get(t_, "b", &v);
    if (st.ok()) st = txn->Put(t_, write, "1");
    if (st.ok()) st = txn->Commit();
    (void)read_first;
    if (st.ok())
      commits++;
    else if (st.IsSerializationFailure())
      failures++;
  };
  std::thread th1(worker, "a", "a");
  std::thread th2(worker, "b", "b");
  th1.join();
  th2.join();
  // Either they serialized by luck (both commit) or deadlocked (one
  // victim); in no case do both fail or any non-serialization error leak.
  EXPECT_EQ(commits + failures, 2);
  EXPECT_LE(failures, 1);
}

TEST_F(S2plTest, ThreeWayDeadlockCycleAbortsExactlyOneVictim) {
  // a -> b -> c -> a: each txn locks its own key, then (once all three
  // hold their first lock, so the cycle is certain) requests the next
  // one. The detector must see the full cycle — not time out — and every
  // member must agree on the same single victim: exactly one aborts with
  // a serialization failure and the other two commit.
  {
    auto w = db_->Begin();
    ASSERT_TRUE(w->Put(t_, "c", "0").ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  const std::string keys[3] = {"a", "b", "c"};
  std::atomic<int> holding{0};
  std::atomic<int> commits{0}, failures{0};
  auto worker = [&](int i) {
    auto txn = BeginSer();
    Status st = txn->Put(t_, keys[i], "w");
    ASSERT_TRUE(st.ok()) << st.ToString();
    holding++;
    while (holding < 3) std::this_thread::yield();
    st = txn->Put(t_, keys[(i + 1) % 3], "w");
    if (st.ok()) st = txn->Commit();
    if (st.ok()) {
      commits++;
    } else {
      EXPECT_TRUE(st.IsSerializationFailure()) << st.ToString();
      failures++;
    }
  };
  std::thread th0(worker, 0), th1(worker, 1), th2(worker, 2);
  th0.join();
  th1.join();
  th2.join();
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(commits, 2);
}

TEST_F(S2plTest, ScanBlocksInsertPhantom) {
  // A scanning S2PL txn holds the table-gap lock: a concurrent insert
  // must block until the scanner commits (no phantoms).
  auto scanner = BeginSer();
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(scanner->Scan(t_, "a", "z", &rows).ok());
  EXPECT_EQ(rows.size(), 2u);

  std::atomic<bool> done{false};
  Status ins_status;
  std::thread thr([&] {
    auto ins = BeginSer();
    ins_status = ins->Insert(t_, "c", "new");
    if (ins_status.ok()) ins_status = ins->Commit();
    done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_FALSE(done) << "insert did not block on the scanner's gap lock";
  ASSERT_TRUE(scanner->Commit().ok());
  thr.join();
  EXPECT_TRUE(ins_status.ok()) << ins_status.ToString();
}

// Runs `op` on a thread while `holder` keeps a conflicting lock and
// stays idle. The blocked op must fail with "lock wait timeout" well
// within a few lock_wait_timeout_us (500 ms here). If it is still
// blocked after 3 s the holder is aborted so the thread can finish.
void ExpectLockWaitTimeout(Transaction* holder,
                           const std::function<Status()>& op) {
  std::atomic<bool> done{false};
  Status st;
  const auto start = std::chrono::steady_clock::now();
  std::thread thr([&] {
    st = op();
    done = true;
  });
  while (!done &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(3)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const auto waited = std::chrono::steady_clock::now() - start;
  const bool timed_out_in_time = done.load();
  ASSERT_TRUE(holder->Abort().ok());
  thr.join();
  EXPECT_TRUE(timed_out_in_time)
      << "blocked op still waiting after 3 s behind an idle holder";
  EXPECT_NE(st.ToString().find("lock wait timeout"), std::string::npos)
      << st.ToString();
  EXPECT_LT(waited, std::chrono::seconds(2));
}

TEST_F(S2plTest, BlockedInsertTimesOutBehindIdleScanner) {
  // The insert is granted its key's exclusive lock, then waits on the
  // table-gap lock. Each re-issue re-grants the key lock; that must not
  // restart the wait deadline.
  auto scanner = BeginSer();
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(scanner->Scan(t_, "a", "z", &rows).ok());
  auto ins = BeginSer();
  ExpectLockWaitTimeout(scanner.get(),
                        [&] { return ins->Insert(t_, "c", "new"); });
  EXPECT_TRUE(ins->finished());
}

TEST_F(S2plTest, BlockedScanTimesOutBehindIdleWriter) {
  // The scan is granted the table-gap lock and key "a", then waits on
  // key "b". Each re-issue re-grants the earlier locks; that must not
  // restart the wait deadline.
  auto writer = BeginSer();
  ASSERT_TRUE(writer->Put(t_, "b", "w").ok());
  auto scanner = BeginSer();
  std::vector<std::pair<std::string, std::string>> rows;
  ExpectLockWaitTimeout(writer.get(),
                        [&] { return scanner->Scan(t_, "a", "z", &rows); });
  EXPECT_TRUE(scanner->finished());
}

}  // namespace
}  // namespace pgssi
