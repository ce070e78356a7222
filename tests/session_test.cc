// Session step-API tests: would-block/park/retry on lock conflicts,
// deadlock detection among parked sessions and blocked embedded
// transactions, resumable DEFERRABLE begins, cross-thread stepping, and
// the WAL commit gate.
#include "db/session.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "db/transaction_handle.h"

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define PGSSI_STRESS_SCALE 4
#else
#define PGSSI_STRESS_SCALE 1
#endif

namespace pgssi {
namespace {

const TxnOptions kSer{.isolation = IsolationLevel::kSerializable};

DatabaseOptions S2plOptions() {
  DatabaseOptions opts;
  opts.serializable_impl = SerializableImpl::kS2PL;
  return opts;
}

// Seeds `keys` so later Puts are updates (no S2PL insert gap lock in
// the way — the tests aim conflicts at single-row exclusive locks).
TableId Seed(Database* db, const std::vector<std::string>& keys) {
  TableId t = kInvalidTable;
  EXPECT_TRUE(db->CreateTable("t", &t).ok());
  auto txn = db->Begin();
  for (const auto& k : keys) EXPECT_TRUE(txn->Put(t, k, "0").ok());
  EXPECT_TRUE(txn->Commit().ok());
  return t;
}

// Re-issues `fn` (a captured session step) until it stops would-blocking,
// parking on the wait token (or the retry interval) in between.
Status StepUntilComplete(Session& s, const std::function<Status()>& fn,
                         int max_retries = 2000) {
  Status st = fn();
  while (st.IsWouldBlock() && max_retries-- > 0) {
    if (auto tok = s.wait_token()) {
      tok->WaitFor(s.retry_interval_us());
    } else {
      std::this_thread::sleep_for(
          std::chrono::microseconds(s.retry_interval_us()));
    }
    st = fn();
  }
  return st;
}

TEST(SessionTest, WouldBlockThenTokenWake) {
  auto db = Database::Open(S2plOptions());
  TableId t = Seed(db.get(), {"k"});

  auto blocker = db->Begin(kSer);
  ASSERT_TRUE(blocker->Put(t, "k", "1").ok());

  Session s(db.get());
  ASSERT_TRUE(s.TryBegin(kSer).ok());
  Status st = s.TryPut(t, "k", "2");
  ASSERT_TRUE(st.IsWouldBlock()) << st.ToString();
  auto token = s.wait_token();
  ASSERT_NE(token, nullptr);
  EXPECT_FALSE(token->ready());

  ASSERT_TRUE(blocker->Commit().ok());
  // The commit's ReleaseAll signals every async waiter on the key.
  EXPECT_TRUE(token->WaitFor(2'000'000));

  // First-updater-wins may doom the session's txn instead of granting
  // (the blocker committed a newer version); both are complete outcomes.
  st = StepUntilComplete(s, [&] { return s.TryPut(t, "k", "2"); });
  if (st.ok()) {
    EXPECT_TRUE(StepUntilComplete(s, [&] { return s.TryCommit(); }).ok());
    auto check = db->Begin();
    std::string v;
    ASSERT_TRUE(check->Get(t, "k", &v).ok());
    EXPECT_EQ(v, "2");
    ASSERT_TRUE(check->Commit().ok());
  } else {
    EXPECT_TRUE(st.IsSerializationFailure()) << st.ToString();
  }
}

TEST(SessionTest, AsyncDeadlockDetectedAmongParkedSessions) {
  auto db = Database::Open(S2plOptions());
  TableId t = Seed(db.get(), {"k1", "k2"});

  Session sa(db.get());
  Session sb(db.get());
  ASSERT_TRUE(sa.TryBegin(kSer).ok());
  ASSERT_TRUE(sb.TryBegin(kSer).ok());
  ASSERT_TRUE(sa.TryPut(t, "k1", "a").ok());
  ASSERT_TRUE(sb.TryPut(t, "k2", "b").ok());

  // Cross the lock orders: both park, the wait-for cycle must doom one.
  Status sta = sa.TryPut(t, "k2", "a");
  Status stb = sb.TryPut(t, "k1", "b");
  int spins = 4000;
  while (sta.IsWouldBlock() && stb.IsWouldBlock() && spins-- > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    if (sta.IsWouldBlock()) sta = sa.TryPut(t, "k2", "a");
    if (sta.IsWouldBlock() && stb.IsWouldBlock()) {
      stb = sb.TryPut(t, "k1", "b");
    }
  }
  const bool a_doomed = sta.IsSerializationFailure();
  const bool b_doomed = stb.IsSerializationFailure();
  ASSERT_TRUE(a_doomed || b_doomed)
      << "a=" << sta.ToString() << " b=" << stb.ToString();
  ASSERT_FALSE(a_doomed && b_doomed) << "both victims";

  // The victim's failure aborted its txn; the survivor completes.
  Session& winner = a_doomed ? sb : sa;
  const char* key = a_doomed ? "k1" : "k2";
  const char* val = a_doomed ? "b" : "a";
  Status st = StepUntilComplete(
      winner, [&] { return winner.TryPut(t, key, val); });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(StepUntilComplete(winner, [&] {
                return winner.TryCommit();
              }).ok());
}

// One wait path for both front doors: an embedded Transaction blocked in
// a row-lock wait and a parked Session share one wait-for graph. The
// embedded txn closes the cycle; the session (younger xid) is the victim,
// so the embedded txn's registration must wake it, and its re-issued
// step fails with a deadlock — long before the 5 s lock-wait timeout.
TEST(SessionTest, BlockedEmbeddedTxnWakesParkedDeadlockVictim) {
  DatabaseOptions opts = S2plOptions();
  opts.engine.lock_wait_timeout_us = 5'000'000;
  auto db = Database::Open(opts);
  TableId t = Seed(db.get(), {"k1", "k2"});

  auto embedded = db->Begin(kSer);
  ASSERT_TRUE(embedded->Put(t, "k2", "e").ok());
  Session s(db.get());
  ASSERT_TRUE(s.TryBegin(kSer).ok());
  ASSERT_GT(s.xid(), embedded->xid());
  ASSERT_TRUE(s.TryPut(t, "k1", "s").ok());
  ASSERT_TRUE(s.TryPut(t, "k2", "s").IsWouldBlock());
  auto token = s.wait_token();
  ASSERT_NE(token, nullptr);

  Status embedded_st;
  int64_t embedded_wait_us = -1;
  std::thread blocked([&] {
    const auto start = std::chrono::steady_clock::now();
    embedded_st = embedded->Put(t, "k1", "e");
    embedded_wait_us = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  });
  EXPECT_TRUE(token->WaitFor(1'000'000)) << "deadlock victim never woken";
  Status st = s.TryPut(t, "k2", "s");
  EXPECT_TRUE(st.IsSerializationFailure()) << st.ToString();
  EXPECT_NE(st.ToString().find("deadlock detected"), std::string::npos)
      << st.ToString();
  blocked.join();
  EXPECT_TRUE(embedded_st.ok()) << embedded_st.ToString();
  EXPECT_LT(embedded_wait_us, 1'000'000);
  ASSERT_TRUE(embedded->Commit().ok());
  EXPECT_EQ(db->RowLockCount(), 0u);
}

TEST(SessionTest, DeferrableBeginParksAndResumes) {
  auto db = Database::Open(DatabaseOptions{});
  TableId t = Seed(db.get(), {"k"});

  auto rw = db->Begin(kSer);
  ASSERT_TRUE(rw->Put(t, "k", "1").ok());

  Session s(db.get());
  const TxnOptions def{.isolation = IsolationLevel::kSerializable,
                       .read_only = true,
                       .deferrable = true};
  Status st = s.TryBegin(def);
  ASSERT_TRUE(st.IsWouldBlock()) << st.ToString();
  // DEFERRABLE waits have no event source: the caller deadline-polls.
  EXPECT_EQ(s.wait_token(), nullptr);
  EXPECT_TRUE(s.begin_pending());
  EXPECT_FALSE(s.in_txn());
  // Re-issuing while the concurrent RW txn lives keeps pending.
  EXPECT_TRUE(s.TryBegin(def).IsWouldBlock());

  ASSERT_TRUE(rw->Commit().ok());
  st = StepUntilComplete(s, [&] { return s.TryBegin(def); });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(s.in_txn());

  std::string v;
  ASSERT_TRUE(s.TryGet(t, "k", &v).ok());
  // The RW commit had no dangerous out-edge, so the ORIGINAL snapshot
  // (taken before that commit) is safe and retained: the read-only txn
  // serializes before the RW one and must see the pre-commit value.
  EXPECT_EQ(v, "0");
  EXPECT_TRUE(StepUntilComplete(s, [&] { return s.TryCommit(); }).ok());
}

TEST(SessionTest, AbortMidDeferrableBeginCleansUp) {
  auto db = Database::Open(DatabaseOptions{});
  TableId t = Seed(db.get(), {"k"});

  auto rw = db->Begin(kSer);
  ASSERT_TRUE(rw->Put(t, "k", "1").ok());

  {
    Session s(db.get());
    ASSERT_TRUE(s.TryBegin({.isolation = IsolationLevel::kSerializable,
                            .read_only = true,
                            .deferrable = true})
                    .IsWouldBlock());
    // Destruction aborts the pending begin (deregisters its xid).
  }
  ASSERT_TRUE(rw->Commit().ok());
  // The dropped pending begin must not pin OldestActiveSnapshot.
  EXPECT_EQ(db->OldestActiveSnapshot(), UINT64_MAX);
}

TEST(SessionTest, CrossThreadStepping) {
  auto db = Database::Open(S2plOptions());
  TableId t = Seed(db.get(), {"k"});

  auto blocker = db->Begin(kSer);
  ASSERT_TRUE(blocker->Put(t, "k", "1").ok());

  Session s(db.get());
  ASSERT_TRUE(s.TryBegin(kSer).ok());
  ASSERT_TRUE(s.TryPut(t, "k", "2").IsWouldBlock());

  // Resume the parked session from a different thread: sessions are
  // detachable, not pinned to their creating thread.
  std::atomic<bool> done{false};
  std::thread stepper([&] {
    Status st = StepUntilComplete(s, [&] { return s.TryPut(t, "k", "2"); });
    if (st.ok()) st = StepUntilComplete(s, [&] { return s.TryCommit(); });
    EXPECT_TRUE(st.ok() || st.IsSerializationFailure()) << st.ToString();
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(done.load());  // still parked until the blocker commits
  ASSERT_TRUE(blocker->Commit().ok());
  stepper.join();
  EXPECT_TRUE(done.load());
}

TEST(SessionTest, CommitGateUnderWalBatch) {
  const std::string dir = "session_wal_scratch";
  std::filesystem::remove_all(dir);
  DatabaseOptions opts;
  opts.engine.wal_enabled = true;
  opts.engine.wal_dir = dir;
  opts.engine.wal_fsync = WalFsyncMode::kBatch;
  {
    auto db = Database::Open(opts);
    TableId t = kInvalidTable;
    ASSERT_TRUE(db->CreateTable("t", &t).ok());

    // Hammer concurrent session commits so some hit the group-fsync
    // commit gate (would-block once, then complete on retry).
    constexpr int kThreads = 4;
    constexpr int kTxns = 40 / PGSSI_STRESS_SCALE;
    std::vector<std::thread> threads;
    std::atomic<int> committed{0};
    for (int i = 0; i < kThreads; i++) {
      threads.emplace_back([&, i] {
        for (int j = 0; j < kTxns; j++) {
          Session s(db.get());
          ASSERT_TRUE(s.TryBegin().ok());
          const std::string key =
              "k" + std::to_string(i) + "-" + std::to_string(j);
          Status st =
              StepUntilComplete(s, [&] { return s.TryPut(t, key, "v"); });
          if (!st.ok()) continue;
          st = StepUntilComplete(s, [&] { return s.TryCommit(); });
          if (st.ok()) committed.fetch_add(1);
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(committed.load(), kThreads * kTxns);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace pgssi
