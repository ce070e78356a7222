// Transaction step-API tests (the path every wire session takes):
// would-block/park/retry on lock conflicts, deadlock detection among
// parked steps and blocked embedded transactions, resumable DEFERRABLE
// begins woken by their token, cross-thread stepping, would-blocking
// steps that never stall, and the WAL commit gate.
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
const TxnOptions kDeferrable{.isolation = IsolationLevel::kSerializable,
                             .read_only = true,
                             .deferrable = true};

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

// Re-issues `fn` (a captured step of `s`) until it stops would-blocking,
// parking on the step's wait token (at most 2 ms) in between.
Status StepUntilComplete(Transaction& s, const std::function<Status()>& fn,
                         int max_retries = 2000) {
  Status st = fn();
  while (st.IsWouldBlock() && max_retries-- > 0) {
    s.wait_token()->WaitFor(2000);
    st = fn();
  }
  return st;
}

int64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

TEST(SessionTest, WouldBlockThenTokenWake) {
  auto db = Database::Open(S2plOptions());
  TableId t = Seed(db.get(), {"k"});

  auto blocker = db->Begin(kSer);
  ASSERT_TRUE(blocker->Put(t, "k", "1").ok());

  Transaction s(db.get(), kSer);
  ASSERT_TRUE(s.TryBegin().ok());
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

  Transaction sa(db.get(), kSer);
  Transaction sb(db.get(), kSer);
  ASSERT_TRUE(sa.TryBegin().ok());
  ASSERT_TRUE(sb.TryBegin().ok());
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
  Transaction& winner = a_doomed ? sb : sa;
  const char* key = a_doomed ? "k1" : "k2";
  const char* val = a_doomed ? "b" : "a";
  Status st = StepUntilComplete(
      winner, [&] { return winner.TryPut(t, key, val); });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(StepUntilComplete(winner, [&] {
                return winner.TryCommit();
              }).ok());
}

// One wait-for graph for blocking calls and parked steps: an embedded
// Transaction blocked in a row-lock wait and a parked step close a cycle.
// The parked transaction (younger xid) is the victim, so the embedded
// txn's registration must wake it, and its re-issued step fails with a
// deadlock — long before the 5 s lock-wait timeout.
TEST(SessionTest, BlockedEmbeddedTxnWakesParkedDeadlockVictim) {
  DatabaseOptions opts = S2plOptions();
  opts.engine.lock_wait_timeout_us = 5'000'000;
  auto db = Database::Open(opts);
  TableId t = Seed(db.get(), {"k1", "k2"});

  auto embedded = db->Begin(kSer);
  ASSERT_TRUE(embedded->Put(t, "k2", "e").ok());
  Transaction s(db.get(), kSer);
  ASSERT_TRUE(s.TryBegin().ok());
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
    embedded_wait_us = MicrosSince(start);
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

// The DEFERRABLE wait has a real token: the concurrent read-write
// commit signals it. The 10 s re-check interval means a poll cannot get
// either begin (the step and the blocking one) through within 1 s.
TEST(SessionTest, DeferrableBeginParksAndResumes) {
  DatabaseOptions opts;
  opts.engine.deadlock_check_interval_us = 10'000'000;
  auto db = Database::Open(opts);
  TableId t = Seed(db.get(), {"k"});

  auto rw = db->Begin(kSer);
  ASSERT_TRUE(rw->Put(t, "k", "1").ok());

  Transaction s(db.get(), kDeferrable);
  Status st = s.TryBegin();
  ASSERT_TRUE(st.IsWouldBlock()) << st.ToString();
  const util::WaitTokenPtr token = s.wait_token();
  ASSERT_NE(token, nullptr);
  EXPECT_FALSE(token->ready());
  EXPECT_FALSE(s.started());
  std::string v;
  st = s.TryGet(t, "k", &v);
  EXPECT_EQ(st.code(), Code::kInvalidArgument) << st.ToString();
  EXPECT_NE(st.ToString().find("begin still pending"), std::string::npos);
  // Re-issuing while the concurrent RW txn lives keeps pending.
  EXPECT_TRUE(s.TryBegin().IsWouldBlock());

  std::chrono::steady_clock::time_point blocking_begun;
  std::thread blocking([&] {
    auto def = db->Begin(kDeferrable);
    blocking_begun = std::chrono::steady_clock::now();
    EXPECT_TRUE(def->started());
    EXPECT_TRUE(def->Commit().ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto committed_at = std::chrono::steady_clock::now();
  ASSERT_TRUE(rw->Commit().ok());
  EXPECT_TRUE(token->WaitFor(1'000'000)) << "DEFERRABLE token never fired";
  st = s.TryBegin();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_LT(MicrosSince(committed_at), 1'000'000);
  EXPECT_TRUE(s.started());
  blocking.join();
  EXPECT_LT(blocking_begun - committed_at, std::chrono::seconds(1));

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
    Transaction s(db.get(), kDeferrable);
    ASSERT_TRUE(s.TryBegin().IsWouldBlock());
    // Destruction aborts the pending begin (deregisters its xid).
  }
  ASSERT_TRUE(rw->Commit().ok());
  // The dropped pending begin must not pin OldestActiveSnapshot.
  EXPECT_EQ(db->OldestActiveSnapshot(), UINT64_MAX);
}

// A step that would block returns at once: the simulated I/O stall sits
// after every would-block point, so parking (and every re-issue) never
// sleeps first.
TEST(SessionTest, WouldBlockingStepDoesNotStall) {
  DatabaseOptions opts;
  opts.engine.simulated_io_delay_us = 200'000;
  auto db = Database::Open(opts);
  TableId t = Seed(db.get(), {"k"});

  auto holder = db->Begin(kSer);
  ASSERT_TRUE(holder->Put(t, "k", "1").ok());
  Transaction s(db.get(), kSer);
  ASSERT_TRUE(s.TryBegin().ok());
  const auto start = std::chrono::steady_clock::now();
  Status st = s.TryPut(t, "k", "2");
  const int64_t elapsed_us = MicrosSince(start);
  ASSERT_TRUE(st.IsWouldBlock()) << st.ToString();
  EXPECT_LT(elapsed_us, 50'000);
  ASSERT_TRUE(holder->Abort().ok());
  ASSERT_TRUE(s.Abort().ok());
  EXPECT_EQ(db->RowLockCount(), 0u);
}

TEST(SessionTest, CrossThreadStepping) {
  auto db = Database::Open(S2plOptions());
  TableId t = Seed(db.get(), {"k"});

  auto blocker = db->Begin(kSer);
  ASSERT_TRUE(blocker->Put(t, "k", "1").ok());

  Transaction s(db.get(), kSer);
  ASSERT_TRUE(s.TryBegin().ok());
  ASSERT_TRUE(s.TryPut(t, "k", "2").IsWouldBlock());

  // Resume the parked transaction from a different thread: steps are
  // not pinned to the thread that began the transaction.
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

    // Hammer concurrent step commits so some hit the group-fsync commit
    // gate (park while a round is in flight, possibly more than once,
    // then complete on a re-issue after the gate opens).
    constexpr int kThreads = 4;
    constexpr int kTxns = 40 / PGSSI_STRESS_SCALE;
    std::vector<std::thread> threads;
    std::atomic<int> committed{0};
    for (int i = 0; i < kThreads; i++) {
      threads.emplace_back([&, i] {
        for (int j = 0; j < kTxns; j++) {
          Transaction s(db.get(), {});
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
