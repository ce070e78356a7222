// TxnManager unit tests: atomic xid/commit-seq allocation, watermark
// publication through the completion ring, and the invariant the
// safe-snapshot / DEFERRABLE machinery relies on — a transaction absent
// from the active registry is already published, i.e. Commit blocks
// until its own seq is covered by the watermark — and the DEFERRABLE
// wait token that registry deregistrations signal.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <thread>
#include <vector>

#include "txn/txn_manager.h"

namespace pgssi::txn {
namespace {

TEST(TxnManagerTest, BeginAssignsMonotonicXidsAndTracksRw) {
  TxnManager m;
  auto a = m.Begin(/*serializable_rw=*/false);
  auto b = m.Begin(/*serializable_rw=*/true);
  EXPECT_LT(a.xid, b.xid);
  EXPECT_EQ(a.snapshot_seq, 0u);
  EXPECT_TRUE(m.AnyActiveSerializableRW());
  m.Abort(a.xid);
  m.Abort(b.xid);
  EXPECT_FALSE(m.AnyActiveSerializableRW());
}

TEST(TxnManagerTest, CommitPublishesBeforeReturning) {
  TxnManager m;
  auto a = m.Begin(true);
  uint64_t stamped = 0;
  uint64_t seq = m.Commit(a.xid, [&](uint64_t s) {
    stamped = s;
    return true;
  });
  EXPECT_EQ(stamped, seq);
  EXPECT_EQ(m.LastCommittedSeq(), seq);
  auto b = m.Begin(false);  // a later snapshot sees the published seq
  EXPECT_EQ(b.snapshot_seq, seq);
  m.Abort(b.xid);
}

// Regression (PR 4 review): a committer whose predecessor is still
// stamping must NOT deregister and return before its own seq is
// published. Otherwise a read-only SERIALIZABLE Begin could take an
// older snapshot, observe no active read-write transaction, and wrongly
// claim a safe snapshot while this committed-but-unpublished
// transaction is concurrent with it.
TEST(TxnManagerTest, CommitBlocksUntilOwnSeqIsPublished) {
  TxnManager m;
  auto p = m.Begin(/*serializable_rw=*/false);  // predecessor, stalls
  auto w = m.Begin(/*serializable_rw=*/true);
  std::atomic<bool> release{false};
  std::atomic<bool> w_done{false};
  std::atomic<bool> p_in_stamp{false};

  std::thread pt([&] {
    m.Commit(p.xid, [&](uint64_t) {
      p_in_stamp.store(true);
      while (!release.load()) std::this_thread::yield();
      return true;
    });
  });
  while (!p_in_stamp.load()) std::this_thread::yield();

  std::thread wt([&] {
    m.Commit(w.xid, nullptr);  // seq follows p's unpublished one
    w_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // w cannot have finished: its seq is after the gap p holds open. In
  // particular it must still be counted as an active read-write txn.
  EXPECT_FALSE(w_done.load());
  EXPECT_TRUE(m.AnyActiveSerializableRW());

  release.store(true);
  pt.join();
  wt.join();
  EXPECT_TRUE(w_done.load());
  EXPECT_EQ(m.LastCommittedSeq(), 2u);  // the gap-closer published both
  EXPECT_FALSE(m.AnyActiveSerializableRW());
}

// Regression (PR 6, WAL failure ordering): a stamp that FAILS (WAL
// append/fsync error) must return 0, publish its consumed seq as a
// no-op — the watermark moves past it instead of sticking forever —
// and leave the manager fully usable for the next commit.
TEST(TxnManagerTest, FailedStampPublishesSeqAndReturnsZero) {
  TxnManager m;
  auto a = m.Begin(true);
  EXPECT_EQ(m.Commit(a.xid, [](uint64_t) { return false; }), 0u);
  // The seq was consumed-but-unused; the watermark covers it.
  EXPECT_EQ(m.LastCommittedSeq(), 1u);
  EXPECT_FALSE(m.AnyActiveSerializableRW());  // deregistered all the same

  // A successor blocked behind the failed seq is released normally.
  auto b = m.Begin(false);
  uint64_t stamped = 0;
  uint64_t seq = m.Commit(b.xid, [&](uint64_t s) {
    stamped = s;
    return true;
  });
  EXPECT_EQ(seq, 2u);
  EXPECT_EQ(stamped, 2u);
  EXPECT_EQ(m.LastCommittedSeq(), 2u);
}

TEST(TxnManagerTest, OldestActiveSnapshotAndAwaitFinish) {
  TxnManager m;
  auto a = m.Begin(true);
  m.Commit(a.xid, nullptr);  // seq 1
  auto b = m.Begin(true);    // snapshot 1
  auto c = m.Begin(false);
  EXPECT_EQ(m.OldestActiveSnapshot(), 1u);
  auto rw = m.ActiveSerializableRW();
  ASSERT_EQ(rw.size(), 1u);
  EXPECT_EQ(rw[0], b.xid);

  util::WaitTokenPtr token;
  ASSERT_TRUE(m.AwaitFinish({b.xid}, &token));
  ASSERT_NE(token, nullptr);
  std::thread t([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    m.Commit(b.xid, nullptr);
  });
  EXPECT_TRUE(token->WaitFor(5'000'000));  // signaled once b is gone
  t.join();
  EXPECT_FALSE(m.AwaitFinish({b.xid}, &token));
  m.Abort(c.xid);
  EXPECT_EQ(m.OldestActiveSnapshot(), std::numeric_limits<uint64_t>::max());
}

// The lost wake: a waiter that registers after the last read-write xact
// it waits for has already deregistered must not park, and a waiter
// racing the deregistration must either see it or get signaled. A lost
// wake shows up as a token that never fires.
TEST(TxnManagerTest, AwaitFinishNeverLosesAWake) {
  TxnManager m;
  auto gone = m.Begin(/*serializable_rw=*/true);
  const std::vector<XactId> waited = m.ActiveSerializableRW();
  m.Abort(gone.xid);
  util::WaitTokenPtr token;
  EXPECT_FALSE(m.AwaitFinish(waited, &token));

  // Race one waiter against the deregistration of the single xact it
  // waits for, round after round. Nothing else deregisters meanwhile,
  // so a lost wake is not healed by a later signal: its token stalls.
  std::atomic<XactId> to_finish{0};
  std::atomic<bool> stop{false};
  std::thread finisher([&] {
    uint32_t round = 0;
    while (!stop.load()) {
      const XactId x = to_finish.exchange(0);
      if (x == 0) {
        std::this_thread::yield();
        continue;
      }
      for (uint32_t k = 0; k < round % 8; k++) std::this_thread::yield();
      if (++round % 2 == 0) {
        m.Abort(x);
      } else {
        m.Commit(x, nullptr);
      }
    }
  });
  int parks = 0;
  int lost = 0;
  for (int i = 0; i < 2000 && lost == 0; i++) {
    const XactId x = m.Begin(/*serializable_rw=*/true).xid;
    to_finish.store(x);
    if (m.AwaitFinish({x}, &token)) {
      parks++;
      if (!token->WaitFor(1'000'000)) lost++;
    }
    while (m.AnyActive({x})) std::this_thread::yield();
  }
  stop.store(true);
  finisher.join();
  EXPECT_GT(parks, 0);
  EXPECT_EQ(lost, 0) << "of " << parks << " parks";
}

// Regression for the O(1) cached-minimum OldestActiveSnapshot: the
// cleanup bound must never pass a concurrent Begin. Every active
// transaction checks, from its own thread, that no bound computed while
// it is registered exceeds its snapshot — i.e. the lock-free shard
// minimum can be conservative but never misses a live registration.
TEST(TxnManagerTest, CleanupBoundNeverPassesConcurrentBegin) {
  TxnManager m;
  {
    auto seed = m.Begin(false);
    m.Commit(seed.xid, nullptr);  // nonzero watermark
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> violations{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; i++) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto r = m.Begin(false);
        // While we are active, OldestActiveSnapshot <= our snapshot, so
        // any cleanup bound computed NOW must not exceed it.
        for (int j = 0; j < 4; j++) {
          if (m.CleanupBound() > r.snapshot_seq) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
        }
        m.Commit(r.xid, nullptr);
      }
    });
  }
  // A dedicated cleaner hammering the bound while Begins race it.
  std::thread cleaner([&] {
    while (!stop.load(std::memory_order_acquire)) (void)m.CleanupBound();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  cleaner.join();
  EXPECT_EQ(violations.load(), 0u);
}

}  // namespace
}  // namespace pgssi::txn
