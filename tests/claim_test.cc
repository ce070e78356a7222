// First-updater-wins claims, through the step API: an SI/SSI writer's
// version at the head of a chain is its claim on the row until the
// writer finishes (its seq published). A second writer would-blocks on
// it and is woken by the holder's commit (then fails
// first-updater-wins) or abort (then proceeds); a new-key
// insert that loses the publish race waits on the winner's claim and
// leaks no chain or index entry; claim waits share the wait-for graph
// (deadlock victim = youngest) and the lock-wait deadline; and none of
// it puts an entry in the row-lock table.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
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

constexpr const char* kConcurrentUpdate =
    "could not serialize access due to concurrent update";

bool Mentions(const Status& st, const char* text) {
  return st.ToString().find(text) != std::string::npos;
}

TableId Seed(Database* db, const std::vector<std::string>& keys) {
  TableId t = kInvalidTable;
  EXPECT_TRUE(db->CreateTable("t", &t).ok());
  auto txn = db->Begin();
  for (const auto& k : keys) EXPECT_TRUE(txn->Put(t, k, "0").ok());
  EXPECT_TRUE(txn->Commit().ok());
  return t;
}

std::string Read(Database* db, TableId t, const std::string& key) {
  auto r = db->Begin();
  std::string v;
  Status st = r->Get(t, key, &v);
  EXPECT_TRUE(r->Commit().ok());
  return st.ok() ? v : "<" + st.ToString() + ">";
}

// Every case runs at both snapshot-based levels: claims are the same
// for plain SI and for SSI.
class ClaimTest : public ::testing::TestWithParam<IsolationLevel> {
 protected:
  TxnOptions Opts() const { return {.isolation = GetParam()}; }
};

INSTANTIATE_TEST_SUITE_P(
    Levels, ClaimTest,
    ::testing::Values(IsolationLevel::kRepeatableRead,
                      IsolationLevel::kSerializable),
    [](const ::testing::TestParamInfo<IsolationLevel>& info) {
      return info.param == IsolationLevel::kSerializable ? "SSI" : "SI";
    });

TEST_P(ClaimTest, SecondWriterFailsAfterHolderCommits) {
  auto db = Database::Open();
  TableId t = Seed(db.get(), {"k"});
  Transaction holder(db.get(), Opts());
  Transaction writer(db.get(), Opts());
  ASSERT_TRUE(holder.TryBegin().ok());
  ASSERT_TRUE(writer.TryBegin().ok());
  ASSERT_TRUE(holder.TryPut(t, "k", "h").ok());

  Status st = writer.TryPut(t, "k", "w");
  ASSERT_TRUE(st.IsWouldBlock()) << st.ToString();
  const util::WaitTokenPtr token = writer.wait_token();
  ASSERT_NE(token, nullptr);
  EXPECT_FALSE(token->ready());
  // A re-issue while the holder lives would-blocks again.
  EXPECT_TRUE(writer.TryPut(t, "k", "w").IsWouldBlock());

  ASSERT_TRUE(holder.TryCommit().ok());
  EXPECT_TRUE(writer.wait_token()->ready()) << "commit did not wake the waiter";
  st = writer.TryPut(t, "k", "w");
  EXPECT_TRUE(st.IsSerializationFailure()) << st.ToString();
  EXPECT_TRUE(Mentions(st, kConcurrentUpdate)) << st.ToString();
  EXPECT_TRUE(writer.finished());
  EXPECT_EQ(Read(db.get(), t, "k"), "h");
  EXPECT_EQ(db->RowLockCount(), 0u);
  EXPECT_EQ(db->LeakedClaimCount(), 0u);
}

TEST_P(ClaimTest, SecondWriterCommitsAfterHolderAborts) {
  auto db = Database::Open();
  TableId t = Seed(db.get(), {"k"});
  Transaction holder(db.get(), Opts());
  Transaction writer(db.get(), Opts());
  ASSERT_TRUE(holder.TryBegin().ok());
  ASSERT_TRUE(writer.TryBegin().ok());
  ASSERT_TRUE(holder.TryPut(t, "k", "h").ok());
  ASSERT_TRUE(writer.TryPut(t, "k", "w").IsWouldBlock());

  ASSERT_TRUE(holder.Abort().ok());
  EXPECT_TRUE(writer.wait_token()->ready()) << "abort did not wake the waiter";
  Status st = writer.TryPut(t, "k", "w");
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_TRUE(writer.TryCommit().ok());
  EXPECT_EQ(Read(db.get(), t, "k"), "w");
  EXPECT_EQ(db->RowLockCount(), 0u);
  EXPECT_EQ(db->LeakedClaimCount(), 0u);
}

// A committed head stays a claim until its seq is published: between the
// stamp and the publication (a predecessor's WAL fsync can stretch it) a
// writer waits, rather than failing at once and retrying into the same
// conflict with a snapshot that still excludes the holder.
TEST_P(ClaimTest, StampedUnpublishedHeadIsStillAClaim) {
  auto db = Database::Open();
  TableId t = Seed(db.get(), {"k"});
  Transaction holder(db.get(), Opts());
  Transaction writer(db.get(), Opts());
  Transaction late(db.get(), Opts());
  ASSERT_TRUE(holder.TryBegin().ok());
  ASSERT_TRUE(writer.TryBegin().ok());
  ASSERT_TRUE(holder.TryPut(t, "k", "h").ok());
  db->TestAfterCommitStamp([&] {
    Status st = writer.TryPut(t, "k", "w");
    EXPECT_TRUE(st.IsWouldBlock()) << st.ToString();
    // A transaction that begins now still cannot see the holder.
    ASSERT_TRUE(late.TryBegin().ok());
    st = late.TryPut(t, "k", "l");
    EXPECT_TRUE(st.IsWouldBlock()) << st.ToString();
  });
  ASSERT_TRUE(holder.TryCommit().ok());
  ASSERT_TRUE(writer.wait_token() && writer.wait_token()->ready());
  ASSERT_TRUE(late.wait_token() && late.wait_token()->ready());
  for (Transaction* txn : {&writer, &late}) {
    Status st = txn->TryPut(t, "k", "x");
    EXPECT_TRUE(st.IsSerializationFailure()) << st.ToString();
    EXPECT_TRUE(Mentions(st, kConcurrentUpdate)) << st.ToString();
  }
  // A retry begun after the commit sees it, so nothing blocks it.
  auto retry = db->Begin(Opts());
  ASSERT_TRUE(retry->Put(t, "k", "r").ok());
  ASSERT_TRUE(retry->Commit().ok());
  EXPECT_EQ(Read(db.get(), t, "k"), "r");
  EXPECT_EQ(db->RowLockCount(), 0u);
  EXPECT_EQ(db->LeakedClaimCount(), 0u);
}

// Two inserters of one new key both miss in the index; the hook lets the
// first publish inside the second's window, so the second's publish
// meets kExists, unwinds its unpublished chain and waits on the
// winner's claim. The winner's commit makes the loser fail
// first-updater-wins: a statement-level kAlreadyExists would report a
// row outside the loser's snapshot and leave it running, which under
// SSI admits a cycle no rw edge shows.
TEST_P(ClaimTest, InsertRaceLoserWaitsThenFailsWhenWinnerCommits) {
  auto db = Database::Open();
  TableId t = Seed(db.get(), {"a"});
  Transaction winner(db.get(), Opts());
  Transaction loser(db.get(), Opts());
  ASSERT_TRUE(winner.TryBegin().ok());
  ASSERT_TRUE(loser.TryBegin().ok());
  db->TestBeforeIndexPublish(
      [&] { EXPECT_TRUE(winner.TryInsert(t, "new", "w").ok()); });
  Status st = loser.TryInsert(t, "new", "l");
  ASSERT_TRUE(st.IsWouldBlock()) << st.ToString();
  EXPECT_EQ(db->IndexEntryCount(t), 2u);
  EXPECT_EQ(db->LiveTupleChainCount(t), 2u);

  ASSERT_TRUE(winner.TryCommit().ok());
  ASSERT_TRUE(loser.wait_token()->ready());
  st = loser.TryInsert(t, "new", "l");
  EXPECT_TRUE(st.IsSerializationFailure()) << st.ToString();
  EXPECT_TRUE(Mentions(st, kConcurrentUpdate)) << st.ToString();
  EXPECT_EQ(Read(db.get(), t, "new"), "w");
  db->QuiesceEpochs();
  EXPECT_EQ(db->IndexEntryCount(t), 2u);
  EXPECT_EQ(db->LiveTupleChainCount(t), 2u);
  EXPECT_EQ(db->LeakedClaimCount(), 0u);
  EXPECT_EQ(db->RowLockCount(), 0u);
}

TEST_P(ClaimTest, InsertRaceLoserInsertsWhenWinnerAborts) {
  auto db = Database::Open();
  TableId t = Seed(db.get(), {"a"});
  Transaction winner(db.get(), Opts());
  Transaction loser(db.get(), Opts());
  ASSERT_TRUE(winner.TryBegin().ok());
  ASSERT_TRUE(loser.TryBegin().ok());
  db->TestBeforeIndexPublish(
      [&] { EXPECT_TRUE(winner.TryInsert(t, "new", "w").ok()); });
  ASSERT_TRUE(loser.TryInsert(t, "new", "l").IsWouldBlock());

  ASSERT_TRUE(winner.Abort().ok());
  ASSERT_TRUE(loser.wait_token()->ready());
  Status st = loser.TryInsert(t, "new", "l");
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_TRUE(loser.TryCommit().ok());
  EXPECT_EQ(Read(db.get(), t, "new"), "l");
  db->QuiesceEpochs();
  EXPECT_EQ(db->IndexEntryCount(t), 2u);
  EXPECT_EQ(db->LiveTupleChainCount(t), 2u);
  EXPECT_EQ(db->IndexGcQueueLength(), 0u);
  EXPECT_EQ(db->LeakedClaimCount(), 0u);
}

// Claim-claim deadlock, both ways round: the youngest transaction fails
// with "deadlock detected", whether it closes the cycle itself or is
// woken by the older one closing it; the survivor then proceeds.
TEST_P(ClaimTest, DeadlockFailsYoungest) {
  for (const bool youngest_closes : {true, false}) {
    SCOPED_TRACE(youngest_closes ? "youngest closes the cycle"
                                 : "oldest closes the cycle");
    auto db = Database::Open();
    TableId t = Seed(db.get(), {"a", "b"});
    Transaction old_txn(db.get(), Opts());
    Transaction young(db.get(), Opts());
    ASSERT_TRUE(old_txn.TryBegin().ok());
    ASSERT_TRUE(young.TryBegin().ok());
    ASSERT_LT(old_txn.xid(), young.xid());
    ASSERT_TRUE(old_txn.TryPut(t, "a", "o").ok());
    ASSERT_TRUE(young.TryPut(t, "b", "y").ok());

    Status st;
    if (youngest_closes) {
      ASSERT_TRUE(old_txn.TryPut(t, "b", "o").IsWouldBlock());
      st = young.TryPut(t, "a", "y");
    } else {
      ASSERT_TRUE(young.TryPut(t, "a", "y").IsWouldBlock());
      const util::WaitTokenPtr victim_token = young.wait_token();
      ASSERT_TRUE(old_txn.TryPut(t, "b", "o").IsWouldBlock());
      EXPECT_TRUE(victim_token->ready()) << "victim not woken";
      st = young.TryPut(t, "a", "y");
    }
    EXPECT_TRUE(st.IsSerializationFailure()) << st.ToString();
    EXPECT_TRUE(Mentions(st, "deadlock detected")) << st.ToString();
    EXPECT_TRUE(young.finished());

    // The victim's abort released its claim and woke the survivor.
    EXPECT_TRUE(old_txn.wait_token()->ready());
    st = old_txn.TryPut(t, "b", "o");
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_TRUE(old_txn.TryCommit().ok());
    EXPECT_EQ(Read(db.get(), t, "b"), "o");
    EXPECT_EQ(db->RowLockCount(), 0u);
  }
}

TEST_P(ClaimTest, BlockedWriterTimesOutBehindIdleClaimHolder) {
  DatabaseOptions opts;
  opts.engine.lock_wait_timeout_us = 300'000;
  auto db = Database::Open(opts);
  TableId t = Seed(db.get(), {"k"});
  auto holder = db->Begin(Opts());
  ASSERT_TRUE(holder->Put(t, "k", "h").ok());

  auto writer = db->Begin(Opts());
  std::atomic<bool> done{false};
  Status st;
  const auto start = std::chrono::steady_clock::now();
  std::thread thr([&] {
    st = writer->Put(t, "k", "w");
    done = true;
  });
  while (!done &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(3)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const auto waited = std::chrono::steady_clock::now() - start;
  const bool finished_in_time = done.load();
  if (!finished_in_time) {
    EXPECT_TRUE(holder->Abort().ok());  // unblocks the writer for the join
  }
  thr.join();
  EXPECT_TRUE(finished_in_time) << "writer still blocked after 3 s";
  EXPECT_TRUE(Mentions(st, "lock wait timeout")) << st.ToString();
  EXPECT_GE(waited, std::chrono::milliseconds(300));
  EXPECT_LT(waited, std::chrono::milliseconds(1500));
  EXPECT_TRUE(writer->finished());
  if (finished_in_time) {
    // The idle holder is untouched by the waiter's timeout.
    ASSERT_TRUE(holder->Commit().ok());
    EXPECT_EQ(Read(db.get(), t, "k"), "h");
  }
  EXPECT_EQ(db->RowLockCount(), 0u);
}

// An uncontended writer's claims live in the chains: 100 uncommitted
// writes put nothing in the row-lock table, and the claims are not
// leaks while their writer is active.
TEST_P(ClaimTest, UncommittedWritesTakeNoRowLocks) {
  auto db = Database::Open();
  std::vector<std::string> keys;
  for (int i = 0; i < 50; i++) keys.push_back("old" + std::to_string(i));
  TableId t = Seed(db.get(), keys);
  auto w = db->Begin(Opts());
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(w->Put(t, "old" + std::to_string(i), "w").ok());
    ASSERT_TRUE(w->Insert(t, "new" + std::to_string(i), "w").ok());
  }
  EXPECT_EQ(db->RowLockCount(), 0u);
  EXPECT_EQ(db->LeakedClaimCount(), 0u);
  ASSERT_TRUE(w->Commit().ok());
  EXPECT_EQ(db->RowLockCount(), 0u);
  EXPECT_EQ(db->LeakedClaimCount(), 0u);
}

// Inserters race on fresh keys from several threads: per key at most
// one insert commits, and nothing leaks — no chain, index entry, claim,
// or wait registration beyond the committed rows.
TEST_P(ClaimTest, InsertRaceStormLeaksNothing) {
  constexpr int kThreads = 4;
  const int kKeys = 200 / PGSSI_STRESS_SCALE;
  auto db = Database::Open();
  TableId t = Seed(db.get(), {});
  std::atomic<int> arrived{0};
  std::vector<std::atomic<int>> commits(static_cast<size_t>(kKeys));
  std::vector<std::thread> threads;
  for (int ti = 0; ti < kThreads; ti++) {
    threads.emplace_back([&, ti] {
      Random rng(31u + static_cast<uint64_t>(ti));
      for (int k = 0; k < kKeys; k++) {
        auto txn = db->Begin(Opts());
        // Round barrier: every thread has begun before anyone inserts.
        arrived.fetch_add(1);
        while (arrived.load() < (k + 1) * kThreads) std::this_thread::yield();
        Status st = txn->Insert(t, "key" + std::to_string(k), "v");
        EXPECT_TRUE(st.ok() || st.IsSerializationFailure()) << st.ToString();
        if (!st.ok()) continue;
        if (rng.Bernoulli(0.25)) {
          EXPECT_TRUE(txn->Abort().ok());
        } else if (txn->Commit().ok()) {
          commits[static_cast<size_t>(k)].fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  size_t committed_keys = 0;
  for (auto& c : commits) {
    EXPECT_LE(c.load(), 1);
    if (c.load() == 1) committed_keys++;
  }
  db->QuiesceEpochs();
  EXPECT_EQ(db->IndexEntryCount(t), committed_keys);
  EXPECT_EQ(db->LiveTupleChainCount(t), committed_keys);
  EXPECT_EQ(db->LeakedClaimCount(), 0u);
  EXPECT_EQ(db->RowLockCount(), 0u);
}

// S2PL keeps real locks: in an S2PL database every writer, SI ones
// included, holds its key's exclusive lock, and a second inserter of a
// key waits on that lock and then sees the committed row.
TEST(ClaimS2plTest, WritersStillTakeRowLocks) {
  DatabaseOptions opts;
  opts.serializable_impl = SerializableImpl::kS2PL;
  auto db = Database::Open(opts);
  TableId t = Seed(db.get(), {"a", "b"});
  const TxnOptions ser{.isolation = IsolationLevel::kSerializable};
  auto si = db->Begin();
  ASSERT_TRUE(si->Put(t, "a", "si").ok());
  EXPECT_EQ(db->RowLockCount(), 1u);

  Transaction first(db.get(), ser);
  Transaction second(db.get(), ser);
  ASSERT_TRUE(first.TryBegin().ok());
  ASSERT_TRUE(second.TryBegin().ok());
  ASSERT_TRUE(first.TryInsert(t, "new", "1").ok());
  Status st = second.TryInsert(t, "new", "2");
  ASSERT_TRUE(st.IsWouldBlock()) << st.ToString();
  ASSERT_TRUE(first.TryCommit().ok());
  ASSERT_TRUE(second.wait_token()->ready());
  st = second.TryInsert(t, "new", "2");
  EXPECT_EQ(st.code(), Code::kAlreadyExists) << st.ToString();
  EXPECT_FALSE(second.finished());
  ASSERT_TRUE(second.TryCommit().ok());
  ASSERT_TRUE(si->Commit().ok());
  EXPECT_EQ(db->RowLockCount(), 0u);
  EXPECT_EQ(db->LeakedClaimCount(), 0u);
}

}  // namespace
}  // namespace pgssi
