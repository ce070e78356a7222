// MVCC storage engine semantics: snapshot visibility, repeatable reads,
// first-updater-wins write conflicts, rollback, scans, and deletes.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "db/transaction_handle.h"

namespace pgssi {
namespace {

class MvccTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = Database::Open({});
    ASSERT_TRUE(db_->CreateTable("t", &t_).ok());
  }
  std::unique_ptr<Database> db_;
  TableId t_ = kInvalidTable;
};

TEST_F(MvccTest, CommittedWritesVisibleToLaterTxns) {
  auto w = db_->Begin();
  ASSERT_TRUE(w->Put(t_, "a", "1").ok());
  ASSERT_TRUE(w->Commit().ok());

  auto r = db_->Begin();
  std::string v;
  ASSERT_TRUE(r->Get(t_, "a", &v).ok());
  EXPECT_EQ(v, "1");
  EXPECT_EQ(r->Get(t_, "missing", &v).code(), Code::kNotFound);
  ASSERT_TRUE(r->Commit().ok());
}

TEST_F(MvccTest, UncommittedWritesInvisibleToOthersVisibleToSelf) {
  auto w = db_->Begin();
  ASSERT_TRUE(w->Put(t_, "a", "dirty").ok());
  std::string v;
  ASSERT_TRUE(w->Get(t_, "a", &v).ok());
  EXPECT_EQ(v, "dirty");

  auto r = db_->Begin();
  EXPECT_EQ(r->Get(t_, "a", &v).code(), Code::kNotFound);
  ASSERT_TRUE(r->Commit().ok());
  ASSERT_TRUE(w->Abort().ok());
}

TEST_F(MvccTest, RepeatableReadSnapshotIsStable) {
  {
    auto w = db_->Begin();
    ASSERT_TRUE(w->Put(t_, "a", "old").ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  auto r = db_->Begin({.isolation = IsolationLevel::kRepeatableRead});
  std::string v;
  ASSERT_TRUE(r->Get(t_, "a", &v).ok());
  EXPECT_EQ(v, "old");

  {
    auto w = db_->Begin();
    ASSERT_TRUE(w->Put(t_, "a", "new").ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  // Same snapshot: still the old value, and the newly committed key is
  // invisible too.
  ASSERT_TRUE(r->Get(t_, "a", &v).ok());
  EXPECT_EQ(v, "old");
  ASSERT_TRUE(r->Commit().ok());

  auto r2 = db_->Begin();
  ASSERT_TRUE(r2->Get(t_, "a", &v).ok());
  EXPECT_EQ(v, "new");
  ASSERT_TRUE(r2->Commit().ok());
}

TEST_F(MvccTest, AbortRollsBackAllWrites) {
  {
    auto w = db_->Begin();
    ASSERT_TRUE(w->Put(t_, "a", "keep").ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  {
    auto w = db_->Begin();
    ASSERT_TRUE(w->Put(t_, "a", "discard").ok());
    ASSERT_TRUE(w->Put(t_, "b", "discard").ok());
    ASSERT_TRUE(w->Abort().ok());
  }
  auto r = db_->Begin();
  std::string v;
  ASSERT_TRUE(r->Get(t_, "a", &v).ok());
  EXPECT_EQ(v, "keep");
  EXPECT_EQ(r->Get(t_, "b", &v).code(), Code::kNotFound);
  ASSERT_TRUE(r->Commit().ok());
}

TEST_F(MvccTest, DestructorAbortsUnfinishedTxn) {
  {
    auto w = db_->Begin();
    ASSERT_TRUE(w->Put(t_, "x", "leak?").ok());
    // No commit: handle destruction must roll back.
  }
  auto r = db_->Begin();
  std::string v;
  EXPECT_EQ(r->Get(t_, "x", &v).code(), Code::kNotFound);
  ASSERT_TRUE(r->Commit().ok());
}

TEST_F(MvccTest, FirstUpdaterWinsConcurrentUpdateFails) {
  {
    auto w = db_->Begin();
    ASSERT_TRUE(w->Put(t_, "a", "0").ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  auto t1 = db_->Begin();
  auto t2 = db_->Begin();
  std::string v;
  ASSERT_TRUE(t1->Get(t_, "a", &v).ok());
  ASSERT_TRUE(t2->Get(t_, "a", &v).ok());
  ASSERT_TRUE(t1->Put(t_, "a", "t1").ok());
  ASSERT_TRUE(t1->Commit().ok());
  // t2's snapshot predates t1's commit: the write must fail.
  Status st = t2->Put(t_, "a", "t2");
  EXPECT_EQ(st.code(), Code::kSerializationFailure);
  EXPECT_TRUE(t2->finished());  // statement failure rolled the txn back
}

TEST_F(MvccTest, BlockedWriterFailsAfterHolderCommits) {
  {
    auto w = db_->Begin();
    ASSERT_TRUE(w->Put(t_, "a", "0").ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  auto t1 = db_->Begin();
  ASSERT_TRUE(t1->Put(t_, "a", "t1").ok());

  std::atomic<bool> t2_started{false};
  Status t2_status;
  std::thread thr([&] {
    auto t2 = db_->Begin();
    t2_started = true;
    t2_status = t2->Put(t_, "a", "t2");  // blocks on t1's row lock
    if (t2_status.ok()) t2_status = t2->Commit();
  });
  while (!t2_started) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(t1->Commit().ok());
  thr.join();
  EXPECT_EQ(t2_status.code(), Code::kSerializationFailure);
}

TEST_F(MvccTest, InsertDuplicateAndDelete) {
  auto w = db_->Begin();
  ASSERT_TRUE(w->Insert(t_, "a", "1").ok());
  EXPECT_EQ(w->Insert(t_, "a", "2").code(), Code::kAlreadyExists);
  EXPECT_FALSE(w->finished());  // AlreadyExists is statement-level only
  ASSERT_TRUE(w->Commit().ok());

  auto d = db_->Begin();
  ASSERT_TRUE(d->Delete(t_, "a").ok());
  EXPECT_EQ(d->Delete(t_, "missing").code(), Code::kNotFound);
  ASSERT_TRUE(d->Commit().ok());

  auto r = db_->Begin();
  std::string v;
  EXPECT_EQ(r->Get(t_, "a", &v).code(), Code::kNotFound);
  // After delete, the key can be inserted again.
  ASSERT_TRUE(r->Insert(t_, "a", "3").ok());
  ASSERT_TRUE(r->Commit().ok());
}

TEST_F(MvccTest, ScanAndCountRespectSnapshots) {
  {
    auto w = db_->Begin();
    for (int i = 0; i < 10; i++) {
      ASSERT_TRUE(w->Put(t_, "k" + std::to_string(i), std::to_string(i)).ok());
    }
    ASSERT_TRUE(w->Commit().ok());
  }
  auto r = db_->Begin();
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(r->Scan(t_, "k0", "k9", &rows).ok());
  EXPECT_EQ(rows.size(), 10u);
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));

  // A concurrent insert is invisible to r's snapshot.
  {
    auto w = db_->Begin();
    ASSERT_TRUE(w->Put(t_, "k5b", "new").ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  uint64_t n = 0;
  ASSERT_TRUE(r->Count(t_, "k0", "k9", &n).ok());
  EXPECT_EQ(n, 10u);
  ASSERT_TRUE(r->Commit().ok());

  auto r2 = db_->Begin();
  ASSERT_TRUE(r2->Count(t_, "k0", "k9", &n).ok());
  EXPECT_EQ(n, 11u);
  ASSERT_TRUE(r2->Commit().ok());
}

// Aborted-insert index GC drains from the one finish routine every
// commit and abort runs, so an SI commit picks up a record that an
// earlier drain had to re-queue.
TEST_F(MvccTest, SiCommitDrainsQueuedIndexGc) {
  auto inserter = db_->Begin();
  ASSERT_TRUE(inserter->Insert(t_, "k", "v").ok());
  Transaction writer(db_.get(), {});
  ASSERT_TRUE(writer.TryBegin().ok());
  ASSERT_TRUE(writer.TryPut(t_, "k", "w").IsWouldBlock());
  // The abort's row-lock release signals the writer's token on this
  // thread, before the abort drains its GC record: the writer's retried
  // Put adds an uncommitted version to the emptied chain, so the drain has
  // to re-queue the record.
  writer.wait_token()->OnSignal(
      [&] { EXPECT_TRUE(writer.TryPut(t_, "k", "w").ok()); });
  ASSERT_TRUE(inserter->Abort().ok());
  ASSERT_EQ(db_->IndexGcQueueLength(), 1u);

  ASSERT_TRUE(writer.TryCommit().ok());
  EXPECT_EQ(db_->IndexGcQueueLength(), 0u);
  auto r = db_->Begin();
  std::string v;
  ASSERT_TRUE(r->Get(t_, "k", &v).ok());
  EXPECT_EQ(v, "w");
  ASSERT_TRUE(r->Commit().ok());
}

TEST_F(MvccTest, HotChainPruningKeepsEngineUsable) {
  {
    auto w = db_->Begin();
    ASSERT_TRUE(w->Put(t_, "hot", "0").ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  for (int i = 1; i <= 100; i++) {
    auto w = db_->Begin();
    ASSERT_TRUE(w->Put(t_, "hot", std::to_string(i)).ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  auto r = db_->Begin();
  std::string v;
  ASSERT_TRUE(r->Get(t_, "hot", &v).ok());
  EXPECT_EQ(v, "100");
  ASSERT_TRUE(r->Commit().ok());
}

}  // namespace
}  // namespace pgssi
