// Public engine API: Database and Transaction handles.
//
// Database::Open builds an MVCC storage engine with:
//  - REPEATABLE READ = plain snapshot isolation (commit-seq snapshots,
//    blocking first-updater-wins write conflicts: a writer's uncommitted
//    version heads its chain as a claim, and a second writer waits on it
//    without entering any lock table unless it must wait);
//  - SERIALIZABLE = SSI (SIREAD locks + rw-antidependency tracking with
//    dangerous-structure aborts) or, when
//    DatabaseOptions::serializable_impl == SerializableImpl::kS2PL,
//    strict two-phase locking.
// The Database is safe for concurrent use from many threads, each
// stepping its own Transaction.
//
// Every Transaction operation is a non-blocking step (TryBegin, TryGet,
// TryPut, TryInsert, TryDelete, TryScan, TryCount, TryCommit): it either
// completes or returns kWouldBlock without suspending the calling thread,
// with wait_token() set. The net server parks a would-blocked connection
// on that token and lets its worker pick up another; any thread may
// re-issue the step later. The blocking Get/Put/.../Commit and
// Database::Begin are one loop over the same steps: wait on the token
// for at most deadlock_check_interval_us, then re-issue.
//
// Step contract:
//  - On kWouldBlock, re-issue the *same* call with the same arguments
//    once wait_token() fires (earlier is harmless). Every would-block
//    site sits BEFORE the operation's first mutation and simulated I/O
//    stall, and drops its epoch pin and latch before returning, so a
//    re-issue re-enters granted row locks and resets out-parameters.
//  - A wake is permission to retry, not a grant: the retry may
//    would-block again. TryCommit re-parks at the WAL commit gate for as
//    long as a group fsync is in flight, until lock_wait_timeout_us has
//    passed since its first park; then it aborts with a retryable error.
//  - A suspended transaction holds no epoch pin and no latch, only its
//    claims (its versions at chain heads) and, under S2PL, its granted row
//    locks; the wait-for graph covers parked and blocked transactions
//    alike.
//  - kSerializationFailure (and a commit's I/O error) means the step
//    aborted the transaction; statement-level errors (NotFound,
//    AlreadyExists, InvalidArgument) leave it open.
//  - Abort() never blocks and is legal in every state.
// A Transaction is NOT internally synchronized: callers serialize its
// calls (the net server never steps a connection on two threads).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "db/config.h"
#include "db/lock_table.h"
#include "index/btree.h"
#include "ssi/siread_lock_manager.h"
#include "txn/txn_manager.h"
#include "util/dcheck.h"
#include "util/epoch.h"
#include "util/status.h"
#include "util/striped_latch.h"
#include "util/wait_token.h"
#include "util/types.h"
#include "wal/wal_recovery.h"
#include "wal/wal_writer.h"

namespace pgssi {

class Transaction;

class Database {
 public:
  /// Destruction contract: the owner must ensure no Transaction
  /// outlives the Database (the net server drains its connections in
  /// Stop() before the Database dies). ~Database then quiesces the
  /// epoch limbo and closes the WAL explicitly, so every subsystem that
  /// retires memory through the EpochManager (first member, destroyed
  /// last) tears down while the manager is still fully alive.
  ///
  /// With EngineConfig::wal_enabled, Open runs crash recovery first:
  /// scan wal_dir/wal.log up to the first torn/CRC-failing record,
  /// rebuild tables + tuple chains + index from the committed prefix
  /// (abort-marked seqs skipped), restart the xid/seq allocators past
  /// the recovered maximum, truncate the torn tail, and resume
  /// appending. SIREAD/conflict-graph state is deliberately NOT logged:
  /// no transaction survives a crash, so per the paper's PostgreSQL
  /// integration it recovers empty (see README "Durability").
  /// Returns nullptr (with `*status` set, if given) when the WAL cannot
  /// be opened or recovered.
  static std::unique_ptr<Database> Open(const DatabaseOptions& opts = {},
                                        Status* status = nullptr);
  ~Database();

  Status CreateTable(const std::string& name, TableId* id);
  /// kInvalidTable when the name is unknown.
  TableId GetTableId(const std::string& name) const;

  /// Blocking begin: a started Transaction (a DEFERRABLE begin first
  /// waits for its safe snapshot).
  std::unique_ptr<Transaction> Begin(const TxnOptions& opts = {});

  SsiStats GetSsiStats() const;
  const DatabaseOptions& options() const { return opts_; }

  // ----- test/debug introspection -----
  /// Chains holding at least one version (i.e. not recycled/empty).
  size_t LiveTupleChainCount(TableId table) const;
  /// Entries currently present in the table's B+-tree.
  size_t IndexEntryCount(TableId table) const;
  /// Leaves currently linked into the table's B+-tree chain (the
  /// empty-leaf recycling regression asserts this stays bounded).
  size_t IndexLeafCount(TableId table) const;
  /// Test-only: force the next `n` index insert attempts on `table` to
  /// restart after their gap probe (exercises the OLC restart path).
  void TestForceIndexInsertRestarts(TableId table, int n);
  /// Test-only: run `fn` once, in the next new-key insert, after its
  /// index lookup missed and before it publishes its chain — the window
  /// in which a second inserter of the same key can publish first.
  /// Set it while no transaction is running.
  void TestBeforeIndexPublish(std::function<void()> fn) {
    test_before_index_publish_ = std::move(fn);
  }
  /// Test-only: run `fn` once, in the next read-write commit, after its
  /// versions are stamped and before its seq is published — the window
  /// in which its claims outlive the stamp. Set it while no transaction
  /// is running.
  void TestAfterCommitStamp(std::function<void()> fn) {
    test_after_commit_stamp_ = std::move(fn);
  }
  /// Cross-checks the SIREAD lock tables against holder bookkeeping.
  bool CheckSsiLockConsistency() const { return siread_.CheckConsistency(); }
  /// SIREAD lock-table entry counts (the gap-transfer growth-bound
  /// regression asserts on these).
  size_t SireadTupleLockCount() const { return siread_.TupleLockCount(); }
  size_t SireadPageLockCount() const { return siread_.PageLockCount(); }
  /// The SIREAD manager, read-only (registry size and cleanup counts).
  const ssi::SireadLockManager& siread() const { return siread_; }
  /// Aborted-insert GC records waiting for a drain.
  size_t IndexGcQueueLength() const {
    return gc_queued_.load(std::memory_order_relaxed);
  }
  /// Commit watermark (recovery restarts it past the recovered log).
  uint64_t LastCommittedSeq() const { return txn_mgr_.LastCommittedSeq(); }
  /// Smallest snapshot among active transactions (UINT64_MAX when none):
  /// what a slow/stalled wire session pins — the slow-client test
  /// asserts a parked session stretches this exactly like an embedded
  /// transaction would.
  uint64_t OldestActiveSnapshot() const {
    return txn_mgr_.OldestActiveSnapshot();
  }
  /// S2PL keys currently locked plus registered lock and claim waits
  /// (drains to 0 after every session finishes — shutdown regressions).
  /// SI/SSI writers hold no entry here: their claims live in the chains.
  size_t RowLockCount() const { return row_locks_.LockedKeyCount(); }
  /// Test-only claim-leak check: uncommitted versions whose writer is no
  /// longer active. Each is a first-updater-wins claim nobody will ever
  /// release, so this must read 0 at any quiescent point.
  size_t LeakedClaimCount() const;
  /// fsyncs issued by the WAL writer (0 when WAL is disabled) — the
  /// bench's fsyncs-per-commit metric and the group-commit regressions.
  uint64_t WalFsyncCount() const { return wal_ ? wal_->fsync_count() : 0; }
  /// Epoch-reclamation introspection: objects sitting in the grace-period
  /// limbo right now (xacts, SIREAD granule sets, index entries/leaves)
  /// and the cumulative freed-for-real count. The reclamation regression
  /// asserts retired drains to 0 after quiesce; the bench samples it as
  /// a retired-memory gauge.
  size_t EpochRetiredObjectCount() const { return epoch_.RetiredObjectCount(); }
  uint64_t EpochFreedObjectCount() const { return epoch_.FreedObjectCount(); }
  /// Drive the epoch machinery to a fully drained limbo. Quiescent
  /// points only (no concurrent transactions).
  void QuiesceEpochs();

 private:
  friend class Transaction;

  struct Version {
    std::string value;
    XactId xid;           // writer
    uint64_t commit_seq;  // 0 while uncommitted
    bool deleted;
  };
  // The heap keeps no (page, slot) copy: the index owns granule
  // coordinates, and every SIREAD acquire/probe uses what the index
  // reports for that access — a stored copy would go stale when a leaf
  // split relocates the entry.
  struct TupleChain {
    std::string key;
    std::vector<Version> versions;  // oldest first
  };
  // Lock-free-read segmented chain storage (replaces std::deque):
  // resolving a TupleId is two atomic loads and never takes a latch, so
  // inserts can append chains while readers resolve others.
  // Segments are allocated under Table::alloc_mu and never freed or
  // moved until destruction; a TupleId resolved once stays valid.
  class ChainStore {
   public:
    static constexpr size_t kSegBits = 13;
    static constexpr size_t kSegSize = size_t{1} << kSegBits;
    static constexpr size_t kMaxSegs = size_t{1} << 13;  // 67M chains
    ChainStore() {
      for (auto& s : segs_) s.store(nullptr, std::memory_order_relaxed);
    }
    ~ChainStore() {
      for (auto& s : segs_) delete[] s.load(std::memory_order_relaxed);
    }
    TupleChain& operator[](TupleId tid) const {
      return segs_[static_cast<size_t>(tid) >> kSegBits].load(
          std::memory_order_acquire)[static_cast<size_t>(tid) &
                                     (kSegSize - 1)];
    }
    size_t size() const { return size_.load(std::memory_order_acquire); }
    /// Appends one empty chain. Caller holds Table::alloc_mu.
    TupleId Append() {
      const size_t n = size_.load(std::memory_order_relaxed);
      auto& seg = segs_[n >> kSegBits];
      if (seg.load(std::memory_order_relaxed) == nullptr) {
        seg.store(new TupleChain[kSegSize], std::memory_order_release);
      }
      size_.store(n + 1, std::memory_order_release);
      return static_cast<TupleId>(n);
    }

   private:
    mutable std::array<std::atomic<TupleChain*>, kMaxSegs> segs_;
    std::atomic<size_t> size_{0};
  };
  // Table latching (lock order, outermost first: S2PL lock shard >
  // heap stripe > wait-for graph / B+-tree structure lock > leaf version
  // locks (chain order) > alloc_mu > SIREAD partition > per-xact
  // spinlocks/edge locks):
  //  - the index has no table-wide latch: descent is latch-free and
  //    validated, inserts lock only the touched leaves (see
  //    index/btree.h for the acquire-then-validate protocol).
  //  - heap_latch stripes (hash of TupleId) guard chain content: chain
  //    readers take their stripe shared, chain writers exclusive. This
  //    is what lets writers of independent keys run concurrently. The
  //    head of a chain is its first-updater-wins claim: a writer that
  //    finds another unfinished transaction's version there registers
  //    its wait under the stripe (LockTable::WaitForClaim).
  //  - alloc_mu guards ChainStore::Append and free_chains. free_chains
  //    recycles TupleIds of chains whose creating insert aborted; a
  //    chain enters it only AFTER DrainIndexGc erased its index entry.
  //  - epoch pins (not locks, no order): every region that descends or
  //    validates against the B+-tree, and every tree-mutating region,
  //    runs under an EpochManager::Pin so epoch-retired entries/nodes
  //    stay dereferenceable until the region ends. Pins are never held
  //    across a row-lock or claim wait (that would stall reclamation
  //    for the whole engine).
  struct Table {
    Table(TableId i, std::string n, uint32_t fanout,
          util::EpochManager* epoch)
        : id(i),
          name(std::move(n)),
          index(fanout, epoch),
          heap_latch(kHeapStripes) {}
    TableId id;
    std::string name;
    BTree index;  // key -> TupleId (+ page/slot granule)
    ChainStore tuples;
    std::mutex alloc_mu;
    std::vector<TupleId> free_chains;
    StripedLatch heap_latch;
  };

  explicit Database(const DatabaseOptions& opts);
  Table* GetTable(TableId id) const;
  /// The one finish routine: every commit and abort of a started
  /// transaction calls it once, at the end. It drains queued index GC,
  /// then runs Section 5.3 cleanup (plus one epoch sweep attempt) when
  /// TxnManager::CleanupBound has risen past the last run's bound.
  /// `marked_seq` is the seq this commit passed to MarkCommitted, 0 when
  /// it registered no committed xact (every abort, and commits outside
  /// SSI). Takes no registry shard and no gc_mu_ when neither trigger
  /// holds and the GC queue is empty.
  void FinishTxn(uint64_t marked_seq);

  // ----- durability (wal/) -----
  // Scan + replay + writer reopen; called once from Open, before any
  // transaction exists (replay therefore mutates tables without
  // latches). wal_ stays null when wal_enabled is off OR until replay
  // succeeds, so recovery-time CreateTable never re-logs records.
  Status InitWal();
  Status ReplayRecovered(const wal::WalScanResult& scan);

  // Deferred aborted-insert index GC: rollback of a created chain only
  // empties it and enqueues a record here; the erase (+ coverage
  // transfer + chain recycle) happens in DrainIndexGc, off the insert
  // path. A record whose chain got re-populated meanwhile is
  // re-enqueued (uncommitted writer) or dropped (committed — the chain
  // is live again).
  struct IndexGcRec {
    TableId table;
    TupleId tid;
  };
  void EnqueueIndexGc(TableId table, TupleId tid);
  void DrainIndexGc();
  BTree::EraseHooks MakeEraseHooks(Table* tbl);

  // Declared FIRST so it is destroyed LAST: the SIREAD manager and every
  // table's tree hand memory to the limbo from their own destructors.
  util::EpochManager epoch_;
  DatabaseOptions opts_;
  txn::TxnManager txn_mgr_;
  ssi::SireadLockManager siread_;
  // S2PL locks and every lock or claim wait (the wait-for graph).
  LockTable row_locks_;
  // Null unless wal_enabled and recovery succeeded. The writer's own
  // mutex is a LEAF in the lock order: Transaction::Commit appends while
  // holding no engine lock (the redo payload is built, and versions are
  // stamped, under heap stripes released in between); CreateTable is
  // the one caller that appends under another lock (tables_mu_, to keep
  // log order == id order), and nothing ever takes tables_mu_ while
  // holding the WAL mutex.
  std::unique_ptr<wal::WalWriter> wal_;
  // Commits currently inside the write path; the group-commit leader
  // only dwells for stragglers when this exceeds 1 (the commit_delay /
  // commit_siblings analogue).
  std::atomic<uint32_t> wal_commits_in_flight_{0};

  mutable std::shared_mutex tables_mu_;
  std::vector<std::unique_ptr<Table>> tables_;
  std::unordered_map<std::string, TableId> table_names_;

  std::mutex gc_mu_;
  std::vector<IndexGcRec> gc_queue_;
  // gc_queue_.size(), published under gc_mu_: FinishTxn's lock-free
  // "anything to drain?" check.
  std::atomic<size_t> gc_queued_{0};
  // Highest bound a Section 5.3 cleanup run has claimed (FinishTxn).
  std::atomic<uint64_t> cleanup_bound_{0};

  std::function<void()> test_before_index_publish_;
  std::function<void()> test_after_commit_stamp_;

  std::atomic<uint64_t> ww_aborts_{0};
  std::atomic<uint64_t> s2pl_deadlocks_{0};
  std::atomic<uint64_t> safe_snapshots_{0};
  std::atomic<uint64_t> deferrable_retries_{0};
};

class Transaction {
 public:
  /// An unstarted handle; TryBegin starts it (Database::Begin is the
  /// blocking shortcut). Destruction aborts it unless finished.
  Transaction(Database* db, const TxnOptions& opts);
  ~Transaction();
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  // ----- blocking API: each call loops over its step below -----
  Status Get(TableId table, const std::string& key, std::string* value) {
    return Blocking([&] { return TryGet(table, key, value); });
  }
  /// Upsert.
  Status Put(TableId table, const std::string& key, const std::string& value) {
    return Blocking([&] { return TryPut(table, key, value); });
  }
  /// Fails with kAlreadyExists if a (visible) row exists.
  Status Insert(TableId table, const std::string& key,
                const std::string& value) {
    return Blocking([&] { return TryInsert(table, key, value); });
  }
  Status Delete(TableId table, const std::string& key) {
    return Blocking([&] { return TryDelete(table, key); });
  }
  /// Inclusive range scan of visible rows, in key order.
  Status Scan(TableId table, const std::string& lo, const std::string& hi,
              std::vector<std::pair<std::string, std::string>>* out) {
    return Blocking([&] { return TryScan(table, lo, hi, out); });
  }
  Status Count(TableId table, const std::string& lo, const std::string& hi,
               uint64_t* n) {
    return Blocking([&] { return TryCount(table, lo, hi, n); });
  }
  /// Runs the commit directly: it never enters the WAL commit gate (its
  /// caller owns its thread, so there is no shared worker to free).
  Status Commit();
  /// Idempotent; a failed statement has already rolled the txn back.
  Status Abort();

  // ----- step API (see the step contract at the top of this file) -----
  /// Takes the snapshot and registers the transaction. kWouldBlock only
  /// for a DEFERRABLE begin that must wait out concurrent read-write
  /// serializable transactions (the token fires when one of them
  /// finishes); re-call TryBegin to resume. OK once started.
  Status TryBegin();
  Status TryGet(TableId table, const std::string& key, std::string* value);
  Status TryPut(TableId table, const std::string& key,
                const std::string& value);
  Status TryInsert(TableId table, const std::string& key,
                   const std::string& value);
  Status TryDelete(TableId table, const std::string& key);
  Status TryScan(TableId table, const std::string& lo, const std::string& hi,
                 std::vector<std::pair<std::string, std::string>>* out);
  Status TryCount(TableId table, const std::string& lo, const std::string& hi,
                  uint64_t* n);
  /// The WAL commit gate, then the commit: kWouldBlock while a group
  /// fsync is in flight (see the step contract).
  Status TryCommit();
  /// Wake-up source of the most recent kWouldBlock; never null after
  /// one. Valid until the next step.
  const util::WaitTokenPtr& wait_token() const { return wait_token_; }

  XactId xid() const { return xid_; }
  IsolationLevel isolation() const { return opts_.isolation; }
  bool read_only() const { return opts_.read_only; }
  /// Begun (false while a DEFERRABLE begin is still pending).
  bool started() const { return started_; }
  bool finished() const { return finished_; }

 private:
  friend class Database;

  // Runs `step` until it stops would-blocking, waiting on wait_token()
  // for at most deadlock_check_interval_us between re-issues.
  template <typename Step>
  Status Blocking(Step step) {
    const uint64_t interval = db_->opts_.engine.deadlock_check_interval_us;
    for (;;) {
      Status st = step();
      if (!st.IsWouldBlock()) return st;
      PGSSI_DCHECK(wait_token_ != nullptr);
      wait_token_->WaitFor(interval != 0 ? interval : 1000);
    }
  }

  struct WriteRec {
    TableId table;
    TupleId tid;
    // This statement created the chain (new-key insert): rollback must
    // also remove the index entry and recycle the chain.
    bool created = false;
  };

  // Every step's entry check: "no open transaction" once finished,
  // "begin still pending" before TryBegin completes, and the doomed
  // check (which aborts). Also clears the wait deadline unless this
  // step re-issues a would-blocked one.
  Status CheckActive();
  void AbortInternal();
  // Commit after the gate: PreCommit, WAL append, stamp, release.
  Status CommitBody();
  /// Every S2PL row-lock call site funnels through here, onto
  /// LockTable::AcquireAsync. On conflict the token lands in wait_token_
  /// and kWouldBlock returns — BEFORE any mutation, epoch pin, or latch
  /// is taken, so the caller re-issues the same operation after the
  /// token fires (acquisition is re-entrant; granted locks are kept).
  /// The lock-wait deadline spans re-issues via wait_started_us_;
  /// re-entrant grants of already-held locks do not reset it.
  Status AcquireRowLock(TableId table, const std::string& key,
                        LockTable::Mode mode);
  // Lock-wait deadline bookkeeping shared by row-lock and claim waits.
  // ContinuesWait: this attempt re-issues the current wait on (table,
  // key, mode). WaitExpired: that wait began lock_wait_timeout_us ago.
  // AnchorWait: a would-block on a new (table, key, mode) starts its own
  // full timeout.
  bool ContinuesWait(TableId table, const std::string& key,
                     LockTable::Mode mode) const;
  bool WaitExpired() const;
  void AnchorWait(TableId table, const std::string& key,
                  LockTable::Mode mode);
  // Serializes this transaction's write set into a kCommit payload (seq
  // left as a placeholder; *seq_offset feeds wal::PatchCommitSeq inside
  // the stamp callback, where the seq finally exists).
  void BuildWalCommitPayload(std::string* payload, size_t* seq_offset);
  // Shared read/SSI-tracking core for Get/Scan/Count.
  Status ScanInternal(
      TableId table, const std::string& lo, const std::string& hi,
      const std::function<void(const std::string&, const std::string&)>& fn);
  Status WriteInternal(TableId table, const std::string& key,
                       const std::string& value, bool deleted, bool upsert);
  // WriteInternal's chain work, under one epoch pin: the existing-chain
  // write (claim check, first-updater-wins, SIREAD probe) or the new-key
  // insert, whichever the index lookup selects.
  Status WriteChain(Database::Table* tbl, const std::string& key,
                    const std::string& value, bool deleted, bool upsert);
  // New-key insert: publishes a fresh chain holding this transaction's
  // version. kExists means another inserter published the key first;
  // the unpublished chain is unwound either way unless kInserted.
  BTree::InsertResult InsertChain(Database::Table* tbl, const std::string& key,
                                  const std::string& value);
  // Picks the version visible to this txn; returns index into the chain or
  // -1. Also reports whether any *later* (invisible) version exists.
  int VisibleVersion(const Database::TupleChain& chain) const;
  // `page`/`slot` must be the granule coordinates the index reported for
  // this access, so SIREAD locks land where writers will probe them even
  // after leaf splits relocate entries.
  void TrackRead(Database::Table* tbl, const Database::TupleChain& chain,
                 int visible_idx, PageId page, uint32_t slot);
  // SIREAD-lock the gap `key` falls into (next-key tuple or leaf page,
  // per EngineConfig::index_gap_locking). Self-validating: resolves the
  // gap optimistically, acquires, then validates the index view and
  // retries on mismatch.
  void AcquireGapLock(Database::Table* tbl, const std::string& key);

  Database* db_;
  TxnOptions opts_;
  XactId xid_ = kInvalidXact;
  uint64_t snapshot_seq_ = 0;
  bool use_ssi_ = false;   // SERIALIZABLE via SSI
  bool use_s2pl_ = false;  // SERIALIZABLE via strict 2PL
  ssi::SerializableXact* sxact_ = nullptr;
  bool finished_ = false;
  std::vector<WriteRec> writes_;
  // S2PL locks granted to this transaction, released at its end.
  std::vector<LockTable::HeldLock> held_locks_;

  // ----- step state -----
  bool started_ = false;
  // Token for the most recent kWouldBlock.
  util::WaitTokenPtr wait_token_;
  // First would-block instant of the current wait; the lock-wait
  // timeout is enforced against it across re-issues — for row-lock and
  // claim waits and for WAL commit-gate parks alike (a stalled fsync
  // otherwise parks a committer forever). Cleared when a statement
  // starts (CheckActive); re-anchored when a statement would-blocks on a
  // different row lock or claim, identified by wait_table_/wait_key_/
  // wait_mode_ (a claim wait is an exclusive one).
  uint64_t wait_started_us_ = 0;
  TableId wait_table_ = kInvalidTable;
  std::string wait_key_;
  LockTable::Mode wait_mode_ = LockTable::Mode::kShared;
  // DEFERRABLE resumable state: a begun-but-unproven snapshot waiting
  // out def_concurrent_.
  bool def_pending_ = false;
  txn::TxnManager::BeginResult def_begin_{};
  std::vector<XactId> def_concurrent_;
};

}  // namespace pgssi
