#include "db/transaction_handle.h"

#include <algorithm>
#include <cassert>
#include <filesystem>
#include <functional>
#include <limits>
#include <utility>

#include "util/clock.h"
#include "util/failpoint.h"
#include "wal/wal_format.h"

namespace pgssi {

namespace {
constexpr uint64_t kInfSeq = std::numeric_limits<uint64_t>::max();
constexpr uint32_t kNoSlot = std::numeric_limits<uint32_t>::max();
// Coarse table-gap lock key used by the S2PL phantom stub: scans take it
// shared, inserts/deletes exclusive. User keys never collide with it
// because it starts with a 0x01 control byte.
const std::string kGapLockKey = std::string("\x01", 1) + "gap";
// Keep hot version chains short: prune once they exceed this.
constexpr size_t kPruneChainLength = 8;
// Group-commit leader dwell while sibling commits are in flight — the
// hardcoded analogue of PostgreSQL's commit_delay (EngineConfig::
// wal_fsync_batch plays commit_siblings' batching role).
constexpr uint32_t kWalGroupWaitUs = 100;
}  // namespace

// ---------------------------------------------------------------------------
// Database
// ---------------------------------------------------------------------------

Database::Database(const DatabaseOptions& opts)
    : opts_(opts), siread_(opts.engine, &epoch_) {}

Database::~Database() {
  // Shutdown ordering (the server has already drained its sessions; no
  // transaction is live): flush deferred GC and drain the epoch limbo
  // while every subsystem that frees through the EpochManager is still
  // alive, then close the WAL so the final fsync happens before any
  // member teardown. epoch_ is the FIRST member, so it is destroyed
  // last — after the SIREAD manager and the trees have retired their
  // remaining memory through it.
  QuiesceEpochs();
  if (wal_) wal_->Close();
}

std::unique_ptr<Database> Database::Open(const DatabaseOptions& opts,
                                         Status* status) {
  auto db = std::unique_ptr<Database>(new Database(opts));
  Status s = db->InitWal();
  if (status) *status = s;
  if (!s.ok()) return nullptr;
  return db;
}

Status Database::InitWal() {
  const EngineConfig& eng = opts_.engine;
  if (!eng.wal_enabled) return Status::OK();
  if (eng.wal_dir.empty()) {
    return Status::InvalidArgument("wal_enabled requires wal_dir");
  }
  std::error_code ec;
  std::filesystem::create_directories(eng.wal_dir, ec);
  if (ec) {
    return Status::IOError("cannot create wal_dir " + eng.wal_dir + ": " +
                           ec.message());
  }
  const std::string path = eng.wal_dir + "/wal.log";
  wal::WalScanResult scan;
  Status s = wal::ScanWal(path, &scan);
  if (!s.ok()) return s;
  s = ReplayRecovered(scan);
  if (!s.ok()) return s;
  auto writer = std::make_unique<wal::WalWriter>();
  s = writer->Open(path, scan.valid_bytes);
  if (!s.ok()) return s;
  wal_ = std::move(writer);  // only now does CreateTable start logging
  return Status::OK();
}

Status Database::ReplayRecovered(const wal::WalScanResult& scan) {
  // Runs before any Transaction exists, so plain mutation is safe; the
  // latches below are taken anyway for uniformity (they are all
  // uncontended).
  for (const auto& [logged_id, name] : scan.tables) {
    TableId id;
    Status s = CreateTable(name, &id);
    if (!s.ok()) return s;
    if (id != logged_id) {
      return Status::Internal("wal recovery: table id mismatch for " + name);
    }
  }
  // Replay in commit-seq order. Only the newest version per chain is
  // materialized: every post-recovery snapshot starts at max_seq, so no
  // older version could ever be visible again.
  for (const auto& [seq, commit] : scan.commits) {
    for (const wal::CommitEntry& e : commit.entries) {
      Table* tbl = GetTable(e.table);
      if (!tbl) {
        return Status::Internal("wal recovery: commit references table " +
                                std::to_string(e.table) + " with no create "
                                "record in the valid prefix");
      }
      Version v{e.value, commit.xid, seq, e.deleted};
      TupleId tid;
      PageId page;
      if (tbl->index.Lookup(e.key, &tid, &page)) {
        std::unique_lock<std::shared_mutex> sl(tbl->heap_latch.For(tid));
        TupleChain& chain = tbl->tuples[tid];
        chain.versions.clear();
        chain.versions.push_back(std::move(v));
      } else {
        {
          std::lock_guard<std::mutex> al(tbl->alloc_mu);
          tid = tbl->tuples.Append();
        }
        {
          std::unique_lock<std::shared_mutex> sl(tbl->heap_latch.For(tid));
          TupleChain& chain = tbl->tuples[tid];
          chain.key = e.key;
          chain.versions.push_back(std::move(v));
        }
        PageId page;
        if (!tbl->index.Insert(e.key, tid, &page)) {
          return Status::Internal("wal recovery: duplicate index entry for " +
                                  e.key);
        }
      }
    }
  }
  if (scan.max_seq > 0 || scan.max_xid > 0) {
    txn_mgr_.BootstrapRecovered(scan.max_xid + 1, scan.max_seq);
  }
  return Status::OK();
}

Status Database::CreateTable(const std::string& name, TableId* id) {
  std::unique_lock<std::shared_mutex> l(tables_mu_);
  auto it = table_names_.find(name);
  if (it != table_names_.end()) {
    if (id) *id = it->second;
    return Status::AlreadyExists("table " + name);
  }
  TableId tid = static_cast<TableId>(tables_.size() + 1);
  auto t = std::make_unique<Table>(tid, name, opts_.engine.btree_fanout,
                                   &epoch_);
  // Section 5.2.2: leaf splits transfer SIREAD predicate locks so moved
  // granules stay covered.
  t->index.SetSplitListener(
      [this, tid](PageId oldp, PageId newp, const std::vector<uint32_t>& moved) {
        siread_.OnPageSplit(tid, oldp, newp, moved);
      });
  // Log-and-sync BEFORE registering, still under tables_mu_ (log order
  // == id order, which recovery's id-match check relies on). A failed
  // append/sync means the table was never created — no metadata that a
  // crash could lose. The WAL mutex is a leaf; see the wal_ member doc.
  if (wal_) {
    uint64_t end = 0;
    Status ws = wal_->Append(wal::EncodeCreateTable(tid, name), &end);
    if (ws.ok()) ws = wal_->Sync(end, /*batch_target=*/1, /*max_wait_us=*/0);
    if (!ws.ok()) return ws;
  }
  tables_.push_back(std::move(t));
  table_names_[name] = tid;
  if (id) *id = tid;
  return Status::OK();
}

TableId Database::GetTableId(const std::string& name) const {
  std::shared_lock<std::shared_mutex> l(tables_mu_);
  auto it = table_names_.find(name);
  return it == table_names_.end() ? kInvalidTable : it->second;
}

Database::Table* Database::GetTable(TableId id) const {
  std::shared_lock<std::shared_mutex> l(tables_mu_);
  if (id == kInvalidTable || id > tables_.size()) return nullptr;
  return tables_[id - 1].get();
}

std::unique_ptr<Transaction> Database::Begin(const TxnOptions& opts) {
  auto t = std::make_unique<Transaction>(this, opts);
  // A fresh handle's begin never fails; it can only wait (DEFERRABLE).
  (void)t->Blocking([&] { return t->TryBegin(); });
  return t;
}

void Database::FinishTxn(uint64_t marked_seq) {
  // Deferred aborted-insert GC does not wait on the horizon (an aborted
  // insert was never visible): drain whenever a record is queued, which
  // keeps it off the insert path without taking gc_mu_ when idle.
  if (gc_queued_.load(std::memory_order_relaxed) != 0) DrainIndexGc();
  // Section 5.3 cleanup runs once per rise of the bound: the CAS that
  // raises cleanup_bound_ picks the runner. TxnManager::CleanupBound
  // explains why a bound read here is safe to apply late. A commit
  // marked at or below the last run's bound may have been queued after
  // that run passed its shard, and no later rise is promised (a
  // read-only stream with no writer never moves the bound), so it runs
  // cleanup itself.
  uint64_t last = cleanup_bound_.load();
  bool run = marked_seq != 0 && marked_seq <= last;
  // The bound never exceeds the commit watermark: with no commit since
  // the last run it cannot have risen, and one load settles it.
  if (!run && txn_mgr_.LastCommittedSeq() <= last) return;
  const uint64_t bound = txn_mgr_.CleanupBound();
  while (bound > last) {
    if (cleanup_bound_.compare_exchange_weak(last, bound)) {
      run = true;
      break;
    }
  }
  if (run) siread_.Cleanup(bound);
}

void Database::QuiesceEpochs() {
  // Flush the deferred index GC first — it retires entries/leaves that
  // would otherwise still be queued (not yet in the limbo) when the
  // epoch manager sweeps.
  DrainIndexGc();
  siread_.Cleanup(txn_mgr_.CleanupBound());
  epoch_.Quiesce();
}

BTree::EraseHooks Database::MakeEraseHooks(Table* tbl) {
  BTree::EraseHooks h;
  const TableId table = tbl->id;
  const bool next_key =
      opts_.engine.index_gap_locking == IndexGapLocking::kNextKey;
  h.transfer = [this, table, next_key](PageId erased_page, uint32_t erased_slot,
                                       bool has_next, PageId next_page,
                                       uint32_t next_slot) {
    // Readers that tracked the erased granule (a Get miss, or coverage
    // transferred onto it) keep their gap coverage: move it onto the
    // key's successor entry, or onto the erased page's page granule —
    // the erased key still routes to that leaf, so future inserts of it
    // probe there. The rejoin mirror of the insert-time gap split.
    if (next_key && has_next) {
      siread_.OnGapTransfer(table, erased_page, erased_slot, next_page,
                            next_slot);
    } else {
      siread_.OnGapTransferToPage(table, erased_page, erased_slot,
                                  erased_page);
    }
  };
  h.recycled = [this, table](PageId dead_page, PageId prev_page,
                             PageId next_page) {
    // The dead leaf vanishes from every future gap-probe span (its
    // PageId is never reused): its page-granule holders must cover the
    // neighbours the rejoined gap now spans instead.
    siread_.OnGapTransferToPage(table, dead_page, kNoSlot, prev_page);
    if (next_page != 0) {
      siread_.OnGapTransferToPage(table, dead_page, kNoSlot, next_page);
    }
  };
  return h;
}

void Database::EnqueueIndexGc(TableId table, TupleId tid) {
  std::lock_guard<std::mutex> l(gc_mu_);
  gc_queue_.push_back(IndexGcRec{table, tid});
  gc_queued_.store(gc_queue_.size(), std::memory_order_relaxed);
}

void Database::DrainIndexGc() {
  std::vector<IndexGcRec> q;
  {
    std::lock_guard<std::mutex> l(gc_mu_);
    if (gc_queue_.empty()) return;
    q.swap(gc_queue_);
    gc_queued_.store(0, std::memory_order_relaxed);
  }
  std::vector<IndexGcRec> requeue;
  // Erase() descends optimistically before locking leaves; the descent
  // must be pinned so concurrently-retired nodes stay dereferenceable.
  util::EpochManager::Pin pin(&epoch_);
  for (const IndexGcRec& rec : q) {
    Table* tbl = GetTable(rec.table);
    if (!tbl) continue;
    std::unique_lock<std::shared_mutex> sl(tbl->heap_latch.For(rec.tid));
    TupleChain& chain = tbl->tuples[rec.tid];
    bool committed = false;
    for (const Version& v : chain.versions) {
      if (v.commit_seq != 0) {
        committed = true;
        break;
      }
    }
    if (committed) continue;  // re-populated and committed: live again
    if (!chain.versions.empty()) {
      requeue.push_back(rec);  // an uncommitted writer owns it: retry later
      continue;
    }
    // Empty: erase the index entry (if it still maps here) and recycle
    // the chain. The stripe is held ACROSS the erase so a concurrent
    // writer of this key — which resolves the entry, locks this stripe,
    // then validates its index view — either blocks here until the
    // erase's leaf-version bump lands (and restarts on validation) or
    // appended its version first (and this record was re-enqueued).
    if (!chain.key.empty()) {
      tbl->index.Erase(chain.key, rec.tid, MakeEraseHooks(tbl));
      chain.key.clear();
    }
    sl.unlock();
    std::lock_guard<std::mutex> al(tbl->alloc_mu);
    tbl->free_chains.push_back(rec.tid);
  }
  if (!requeue.empty()) {
    std::lock_guard<std::mutex> l(gc_mu_);
    gc_queue_.insert(gc_queue_.end(), requeue.begin(), requeue.end());
    gc_queued_.store(gc_queue_.size(), std::memory_order_relaxed);
  }
}

size_t Database::LiveTupleChainCount(TableId table) const {
  Table* tbl = GetTable(table);
  if (!tbl) return 0;
  size_t n = 0;
  const size_t cnt = tbl->tuples.size();
  for (TupleId tid = 0; tid < cnt; tid++) {
    std::shared_lock<std::shared_mutex> sl(tbl->heap_latch.For(tid));
    if (!tbl->tuples[tid].versions.empty()) n++;
  }
  return n;
}

size_t Database::LeakedClaimCount() const {
  std::vector<XactId> writers;
  const size_t ntables = [&] {
    std::shared_lock<std::shared_mutex> l(tables_mu_);
    return tables_.size();
  }();
  for (TableId id = 1; id <= ntables; id++) {
    const Table* tbl = GetTable(id);
    const size_t cnt = tbl->tuples.size();
    for (TupleId tid = 0; tid < cnt; tid++) {
      std::shared_lock<std::shared_mutex> sl(tbl->heap_latch.For(tid));
      for (const Version& v : tbl->tuples[tid].versions) {
        if (v.commit_seq == 0) writers.push_back(v.xid);
      }
    }
  }
  // The registry check runs with no stripe held.
  size_t n = 0;
  for (XactId x : writers) {
    if (!txn_mgr_.AnyActive({x})) n++;
  }
  return n;
}

size_t Database::IndexEntryCount(TableId table) const {
  Table* tbl = GetTable(table);
  if (!tbl) return 0;
  return tbl->index.size();
}

size_t Database::IndexLeafCount(TableId table) const {
  Table* tbl = GetTable(table);
  if (!tbl) return 0;
  return tbl->index.LeafCount();
}

void Database::TestForceIndexInsertRestarts(TableId table, int n) {
  Table* tbl = GetTable(table);
  if (tbl) tbl->index.TestForceInsertRestarts(n);
}

SsiStats Database::GetSsiStats() const {
  SsiStats s;
  s.ssi_aborts = siread_.ssi_aborts();
  s.ww_aborts = ww_aborts_.load(std::memory_order_relaxed);
  s.s2pl_deadlocks = s2pl_deadlocks_.load(std::memory_order_relaxed);
  s.page_promotions = siread_.page_promotions();
  s.relation_promotions = siread_.relation_promotions();
  s.safe_snapshots = safe_snapshots_.load(std::memory_order_relaxed);
  s.deferrable_retries = deferrable_retries_.load(std::memory_order_relaxed);
  return s;
}

// ---------------------------------------------------------------------------
// Transaction lifecycle
// ---------------------------------------------------------------------------

Transaction::Transaction(Database* db, const TxnOptions& opts)
    : db_(db), opts_(opts) {
  const bool serializable = opts.isolation == IsolationLevel::kSerializable;
  use_s2pl_ = serializable &&
              db_->opts_.serializable_impl == SerializableImpl::kS2PL;
  use_ssi_ = serializable && !use_s2pl_;
}

Status Transaction::TryBegin() {
  if (finished_) return Status::InvalidArgument("no open transaction");
  if (started_) return Status::OK();

  if (use_ssi_ && opts_.read_only && opts_.deferrable) {
    // DEFERRABLE: loop until a snapshot is retroactively proven safe
    // (Section 4 / Section 8.4). Take a snapshot, wait out every
    // read-write serializable transaction concurrent with it, and check
    // none of them committed with a dangerous out-edge. The "wait out"
    // leg is resumable: the begun snapshot stays in def_* while the step
    // returns kWouldBlock on a token that the next serializable
    // read-write deregistration signals.
    for (;;) {
      if (!def_pending_) {
        def_begin_ = db_->txn_mgr_.Begin(/*serializable_rw=*/false);
        def_concurrent_ = db_->txn_mgr_.ActiveSerializableRW();
        def_pending_ = true;
      }
      if (db_->txn_mgr_.AwaitFinish(def_concurrent_, &wait_token_)) {
        return Status(Code::kWouldBlock, "deferrable safe-snapshot wait");
      }
      bool unsafe = false;
      for (XactId x : def_concurrent_) {
        if (db_->siread_.CommittedWithDangerousOut(x, def_begin_.snapshot_seq)) {
          unsafe = true;
          break;
        }
      }
      if (unsafe) {
        db_->txn_mgr_.Abort(def_begin_.xid);
        db_->deferrable_retries_.fetch_add(1, std::memory_order_relaxed);
        def_pending_ = false;
        continue;
      }
      xid_ = def_begin_.xid;
      snapshot_seq_ = def_begin_.snapshot_seq;
      sxact_ = db_->siread_.Register(xid_, snapshot_seq_, /*read_only=*/true);
      sxact_->safe_snapshot.store(true, std::memory_order_release);
      db_->safe_snapshots_.fetch_add(1, std::memory_order_relaxed);
      def_pending_ = false;
      def_concurrent_.clear();
      started_ = true;
      return Status::OK();
    }
  }

  auto r =
      db_->txn_mgr_.Begin(/*serializable_rw=*/use_ssi_ && !opts_.read_only);
  xid_ = r.xid;
  snapshot_seq_ = use_s2pl_ ? kInfSeq : r.snapshot_seq;
  if (use_ssi_) {
    sxact_ = db_->siread_.Register(xid_, r.snapshot_seq, opts_.read_only);
    if (opts_.read_only && db_->opts_.engine.enable_read_only_opt &&
        !db_->txn_mgr_.AnyActiveSerializableRW()) {
      // Opportunistic safe snapshot: with no concurrent read-write
      // serializable transaction, Theorem 4 makes this snapshot safe
      // immediately, so the reader can skip SIREAD tracking entirely.
      sxact_->safe_snapshot.store(true, std::memory_order_release);
      db_->safe_snapshots_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  started_ = true;
  return Status::OK();
}

// The wait deadline spans re-issues: it anchors at the first would-block
// on a lock or claim and holds until the statement ends (see
// CheckActive). Re-entrant grants of locks the statement already holds
// leave it alone; a would-block on a LATER lock re-anchors, so each lock
// in a multi-lock op gets its own full timeout.
bool Transaction::ContinuesWait(TableId table, const std::string& key,
                                LockTable::Mode mode) const {
  return wait_started_us_ != 0 && wait_mode_ == mode &&
         wait_table_ == table && wait_key_ == key;
}

bool Transaction::WaitExpired() const {
  return NowMicros() >
         wait_started_us_ + db_->opts_.engine.lock_wait_timeout_us;
}

void Transaction::AnchorWait(TableId table, const std::string& key,
                             LockTable::Mode mode) {
  wait_started_us_ = NowMicros();
  wait_table_ = table;
  wait_key_ = key;
  wait_mode_ = mode;
}

Status Transaction::AcquireRowLock(TableId table, const std::string& key,
                                   LockTable::Mode mode) {
  const bool same_wait = ContinuesWait(table, key, mode);
  Status st = db_->row_locks_.AcquireAsync(xid_, table, key, mode,
                                           same_wait && WaitExpired(),
                                           &wait_token_, &held_locks_);
  if (st.IsWouldBlock() && !same_wait) AnchorWait(table, key, mode);
  return st;
}

Transaction::~Transaction() {
  if (!finished_) AbortInternal();
}

Status Transaction::CheckActive() {
  if (finished_) return Status::InvalidArgument("no open transaction");
  if (!started_) {
    return Status::InvalidArgument("begin still pending (re-call TryBegin)");
  }
  // Every kWouldBlock leaves a token, so a null token here means the
  // previous step finished: this step starts a new statement, not a
  // re-issue, and no wait deadline carries over into it.
  if (wait_token_ == nullptr) wait_started_us_ = 0;
  wait_token_.reset();
  if (sxact_ && db_->siread_.Doomed(sxact_)) {
    AbortInternal();
    return Status::SerializationFailure(
        "canceled due to rw-antidependency conflict");
  }
  return Status::OK();
}

void Transaction::AbortInternal() {
  if (!started_) {
    // Aborted mid-begin. A parked DEFERRABLE begin has a
    // registered (snapshot-pinning) xid that must deregister, but no
    // writes, locks, or SIREAD state exist yet.
    if (def_pending_) {
      db_->txn_mgr_.Abort(def_begin_.xid);
      def_pending_ = false;
    }
    finished_ = true;
    return;
  }
  // Roll back uncommitted versions. Chains this transaction created
  // (new-key inserts) are garbage-collected: the index entry is erased
  // and the chain recycled — leaking them would bloat the heap forever
  // and distort next-key gap granules for every later reader.
  auto erase_own = [this](std::vector<Database::Version>& vs) {
    vs.erase(std::remove_if(vs.begin(), vs.end(),
                            [this](const Database::Version& v) {
                              return v.xid == xid_ && v.commit_seq == 0;
                            }),
             vs.end());
  };
  for (const WriteRec& w : writes_) {
    Database::Table* tbl = db_->GetTable(w.table);
    if (!tbl) continue;
    {
      std::unique_lock<std::shared_mutex> sl(tbl->heap_latch.For(w.tid));
      erase_own(tbl->tuples[w.tid].versions);
    }
    // Deferred GC for created chains: only empty the chain here; the
    // index erase (with its coverage transfer and chain recycle) runs in
    // DrainIndexGc, off every other transaction's insert path.
    if (w.created) db_->EnqueueIndexGc(w.table, w.tid);
  }
  writes_.clear();
  if (sxact_) {
    db_->siread_.Abort(sxact_);  // frees the xact
    sxact_ = nullptr;
  }
  // After the rollback: a claim waiter re-issues against the chain as
  // the abort left it.
  db_->row_locks_.ReleaseAll(xid_, &held_locks_);
  db_->txn_mgr_.Abort(xid_);
  db_->FinishTxn(/*marked_seq=*/0);
  finished_ = true;
}

Status Transaction::Abort() {
  if (finished_) return Status::OK();
  AbortInternal();
  return Status::OK();
}

Status Transaction::Commit() {
  Status st = CheckActive();
  return st.ok() ? CommitBody() : st;
}

Status Transaction::TryCommit() {
  Status st = CheckActive();
  if (!st.ok()) return st;
  if (!writes_.empty() && db_->wal_ != nullptr &&
      db_->opts_.engine.wal_fsync != WalFsyncMode::kOff) {
    // WAL commit gate: if a group fsync is in flight RIGHT NOW, a
    // commit started here would queue behind it and block the worker
    // for a whole device sync. Park instead; when the token fires the
    // batch we join is fresh. The park is re-entered as long as the
    // gate stays closed, but never past the lock-wait deadline
    // (wait_started_us_ spans the parks): a stalled fsync device
    // converts into a RETRYABLE abort here, with the transaction's
    // locks released — not a worker pinned forever behind the gate.
    // Safe because nothing has been appended for this commit yet.
    const uint64_t now = NowMicros();
    if (wait_started_us_ != 0 &&
        now > wait_started_us_ + db_->opts_.engine.lock_wait_timeout_us) {
      AbortInternal();
      return Status::SerializationFailure(
          "wal commit gate timeout: fsync stalled; retry the transaction");
    }
    if (db_->wal_->RegisterSyncWaiter(&wait_token_)) {
      if (wait_started_us_ == 0) wait_started_us_ = now;
      return Status(Code::kWouldBlock, "wal group fsync in flight");
    }
  }
  return CommitBody();
}

Status Transaction::CommitBody() {
  if (sxact_) {
    // Commit-time dangerous-structure test (Section 3.3).
    Status st = db_->siread_.PreCommit(sxact_);
    if (!st.ok()) {
      AbortInternal();
      return st;
    }
  }

  uint64_t marked_seq = 0;  // the seq MarkCommitted recorded, if any
  if (writes_.empty()) {
    // Read-only commit: no new commit sequence number needed. The xact
    // stays registered in the lock manager (its SIREAD locks may still
    // matter) until cleanup decides otherwise.
    if (sxact_) {
      // Never 0: commit_seq 0 means commit-pending to the lock manager.
      marked_seq = std::max<uint64_t>(1, db_->txn_mgr_.LastCommittedSeq());
      db_->siread_.MarkCommitted(sxact_, marked_seq);
      sxact_ = nullptr;
    }
    db_->txn_mgr_.Abort(xid_);  // deregister only; nothing to stamp
  } else {
    // Durability-before-visibility: the redo payload is built (and the
    // in-flight counter bumped) before the seq exists; inside the stamp
    // callback the record is appended and — per wal_fsync — made durable
    // STRICTLY BEFORE any version carries the seq or the watermark can
    // publish it. A WAL failure returns false from the stamp: nothing
    // was stamped, TxnManager publishes the seq as a no-op (the
    // watermark never sticks), Commit returns 0, and we abort below
    // while the writes are still invisible to every snapshot.
    std::string payload;
    size_t seq_offset = 0;
    Status wal_status;
    const bool wal_on = db_->wal_ != nullptr;
    if (wal_on) {
      BuildWalCommitPayload(&payload, &seq_offset);
      db_->wal_commits_in_flight_.fetch_add(1, std::memory_order_relaxed);
    }
    uint64_t seq = db_->txn_mgr_.Commit(xid_, [&](uint64_t s) -> bool {
      if (wal_on) {
        wal::PatchCommitSeq(&payload, seq_offset, s);
        const EngineConfig& eng = db_->opts_.engine;
        // Dwell for stragglers only when a sibling commit is in flight
        // (the commit_delay/commit_siblings analogue); a lone committer
        // fsyncs immediately.
        const uint32_t wait =
            db_->wal_commits_in_flight_.load(std::memory_order_relaxed) > 1
                ? kWalGroupWaitUs
                : 0;
        wal_status = db_->wal_->AppendCommit(payload, s, eng.wal_fsync,
                                             eng.wal_fsync_batch, wait);
        if (!wal_status.ok()) return false;
      }
      for (const WriteRec& w : writes_) {
        Database::Table* tbl = db_->GetTable(w.table);
        std::unique_lock<std::shared_mutex> sl(tbl->heap_latch.For(w.tid));
        for (auto& v : tbl->tuples[w.tid].versions) {
          if (v.xid == xid_ && v.commit_seq == 0) v.commit_seq = s;
        }
      }
      if (db_->test_after_commit_stamp_) {
        std::exchange(db_->test_after_commit_stamp_, nullptr)();
      }
      return true;
    });
    if (wal_on) {
      db_->wal_commits_in_flight_.fetch_sub(1, std::memory_order_relaxed);
    }
    if (seq == 0) {
      // WAL append/fsync failed; the seq was consumed-but-unused and no
      // version was stamped. Roll back exactly like any pre-publication
      // abort (SSI edges dissolve conservatively — PreCommit already
      // marked us commit-pending, and Abort handles that).
      AbortInternal();
      return wal_status.ok() ? Status::IOError("wal commit failed")
                             : wal_status;
    }
    // Commit is published (durable + visible) but not yet acknowledged:
    // the crash-window the torture test drives (recovery MUST replay it
    // even though no client saw an ack).
    if (util::FailpointFires("commit_published")) {
      // kErr is meaningless here — the commit already happened; only
      // kCrash (handled inside FailpointFires) is interesting.
    }
    if (sxact_) {
      marked_seq = seq;
      db_->siread_.MarkCommitted(sxact_, seq);
      sxact_ = nullptr;
    }
  }
  // After the stamp: a claim waiter's re-issue sees the committed version.
  db_->row_locks_.ReleaseAll(xid_, &held_locks_);
  db_->FinishTxn(marked_seq);
  finished_ = true;
  return Status::OK();
}

void Transaction::BuildWalCommitPayload(std::string* payload,
                                        size_t* seq_offset) {
  // One WriteRec per (table, tid) is guaranteed — the claim (no other
  // writer appends behind an uncommitted head) plus own-version overwrite
  // collapse repeated writes — so the chain's
  // single uncommitted version with our xid IS the final value. Scan
  // from the back: our version is the newest.
  wal::CommitRecord rec;
  rec.xid = xid_;
  rec.entries.reserve(writes_.size());
  for (const WriteRec& w : writes_) {
    Database::Table* tbl = db_->GetTable(w.table);
    std::shared_lock<std::shared_mutex> sl(tbl->heap_latch.For(w.tid));
    const Database::TupleChain& chain = tbl->tuples[w.tid];
    for (int i = static_cast<int>(chain.versions.size()) - 1; i >= 0; --i) {
      const Database::Version& v = chain.versions[static_cast<size_t>(i)];
      if (v.xid == xid_ && v.commit_seq == 0) {
        wal::CommitEntry e;
        e.table = w.table;
        e.deleted = v.deleted;
        e.key = chain.key;
        e.value = v.value;
        rec.entries.push_back(std::move(e));
        break;
      }
    }
  }
  *payload = wal::EncodeCommit(rec, seq_offset);
}

// ---------------------------------------------------------------------------
// Visibility + SSI read tracking
// ---------------------------------------------------------------------------

int Transaction::VisibleVersion(const Database::TupleChain& chain) const {
  const auto& vs = chain.versions;
  for (int i = static_cast<int>(vs.size()) - 1; i >= 0; --i) {
    const Database::Version& v = vs[static_cast<size_t>(i)];
    if (v.xid == xid_) return i;  // own write
    if (v.commit_seq != 0 && v.commit_seq <= snapshot_seq_) return i;
  }
  return -1;
}

void Transaction::TrackRead(Database::Table* tbl,
                            const Database::TupleChain& chain,
                            int visible_idx, PageId page, uint32_t slot) {
  if (!sxact_ || sxact_->safe_snapshot) return;
  db_->siread_.AcquireTuple(sxact_, tbl->id, page, slot);
  // Any version newer than the one we read is an rw-antidependency:
  // we (reader) -rw-> its writer.
  const auto& vs = chain.versions;
  for (size_t j = visible_idx < 0 ? 0 : static_cast<size_t>(visible_idx) + 1;
       j < vs.size(); ++j) {
    if (vs[j].xid != xid_) {
      db_->siread_.FlagRwConflictWithWriter(sxact_, vs[j].xid);
    }
  }
}

void Transaction::AcquireGapLock(Database::Table* tbl,
                                 const std::string& key) {
  if (!sxact_ || sxact_->safe_snapshot) return;
  // Acquire-then-validate: resolve the gap granule optimistically,
  // acquire the SIREAD lock, then validate the index view and retry on
  // mismatch. The lock lands BEFORE validation, so at every instant the
  // reader either holds coverage on a granule a concurrent structural
  // change will transfer correctly (splits/erases move coverage from
  // exactly these granules) or is about to retry; a failed attempt's
  // lock is a conservative leftover, never a hole.
  const bool next_key_mode =
      db_->opts_.engine.index_gap_locking == IndexGapLocking::kNextKey;
  // Pin across resolve→acquire→Validate: Validate dereferences the nodes
  // the ReadView witnessed, so the pin must span the whole attempt (and
  // nests harmlessly under a caller's pin).
  util::EpochManager::Pin pin(&db_->epoch_);
  for (;;) {
    BTree::ReadView rv;
    if (next_key_mode) {
      std::string nk;
      TupleId ntid;
      PageId npage;
      uint32_t nslot;
      if (tbl->index.NextKey(key, &nk, &ntid, &npage, &nslot, &rv)) {
        db_->siread_.AcquireTuple(sxact_, tbl->id, npage, nslot);
        if (tbl->index.Validate(rv)) return;
        continue;
      }
      // No successor: fall through to a page lock on the tail leaf. rv
      // witnessed the (empty) successor walk; rv2 the page resolution.
      BTree::ReadView rv2;
      PageId pg = tbl->index.PageFor(key, &rv2);
      db_->siread_.AcquirePage(sxact_, tbl->id, pg);
      if (tbl->index.Validate(rv) && tbl->index.Validate(rv2)) return;
      continue;
    }
    PageId pg = tbl->index.PageFor(key, &rv);
    db_->siread_.AcquirePage(sxact_, tbl->id, pg);
    if (tbl->index.Validate(rv)) return;
  }
}

// ---------------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------------

Status Transaction::TryGet(TableId table, const std::string& key,
                           std::string* value) {
  Status st = CheckActive();
  if (!st.ok()) return st;
  Database::Table* tbl = db_->GetTable(table);
  if (!tbl) return Status::InvalidArgument("no such table");

  if (use_s2pl_) {
    st = AcquireRowLock(table, key, LockTable::Mode::kShared);
    // Would-block: return BEFORE any mutation/pin/latch/stall — the
    // caller re-issues this Get verbatim after the wait token fires.
    if (st.IsWouldBlock()) return st;
    if (!st.ok()) {
      db_->s2pl_deadlocks_.fetch_add(1, std::memory_order_relaxed);
      AbortInternal();
      return st;
    }
  }
  SimulatedIoDelay(db_->opts_.engine.simulated_io_delay_us);

  // Pin the whole lookup→track→Validate region (taken after the row-lock
  // wait above, never across it).
  util::EpochManager::Pin pin(&db_->epoch_);
  for (;;) {
    BTree::ReadView rv;
    TupleId tid;
    PageId page;
    uint32_t slot;
    if (!tbl->index.Lookup(key, &tid, &page, &slot, &rv)) {
      // Phantom protection for a miss: lock the gap the key would occupy
      // (self-validating), then confirm the miss itself wasn't raced by
      // an insert of this very key.
      AcquireGapLock(tbl, key);
      if (!tbl->index.Validate(rv)) continue;
      return Status::NotFound("key " + key);
    }
    std::shared_lock<std::shared_mutex> sl(tbl->heap_latch.For(tid));
    const Database::TupleChain& chain = tbl->tuples[tid];
    int vi = VisibleVersion(chain);
    TrackRead(tbl, chain, vi, page, slot);
    // Validate AFTER the SIREAD acquire: if a split moved the granule
    // meanwhile, the lock just taken was transferred (or is a harmless
    // conservative leftover) and the retry re-locks the new coordinates.
    if (!tbl->index.Validate(rv)) continue;
    if (vi < 0 || chain.versions[static_cast<size_t>(vi)].deleted) {
      return Status::NotFound("key " + key);
    }
    if (value) *value = chain.versions[static_cast<size_t>(vi)].value;
    return Status::OK();
  }
}

Status Transaction::ScanInternal(
    TableId table, const std::string& lo, const std::string& hi,
    const std::function<void(const std::string&, const std::string&)>& fn) {
  Status st = CheckActive();
  if (!st.ok()) return st;
  Database::Table* tbl = db_->GetTable(table);
  if (!tbl) return Status::InvalidArgument("no such table");

  if (use_s2pl_) {
    // Phantom stub: the table-gap lock blocks concurrent inserts/deletes.
    st = AcquireRowLock(table, kGapLockKey, LockTable::Mode::kShared);
    if (st.IsWouldBlock()) return st;
    if (!st.ok()) {
      db_->s2pl_deadlocks_.fetch_add(1, std::memory_order_relaxed);
      AbortInternal();
      return st;
    }
    // Two-phase: collect the (now stable) key set, lock each key shared,
    // then re-read values under the locks.
    std::vector<std::string> keys;
    {
      util::EpochManager::Pin pin(&db_->epoch_);
      tbl->index.Scan(lo, hi,
                      [&](const std::string& k, TupleId, PageId, uint32_t) {
                        keys.push_back(k);
                        return true;
                      });
    }
    for (const std::string& k : keys) {
      st = AcquireRowLock(table, k, LockTable::Mode::kShared);
      // Safe to re-issue the whole scan: the shared table-gap lock
      // (already held) pins the key set, per-key Acquires are
      // re-entrant, and nothing was emitted yet.
      if (st.IsWouldBlock()) return st;
      if (!st.ok()) {
        db_->s2pl_deadlocks_.fetch_add(1, std::memory_order_relaxed);
        AbortInternal();
        return st;
      }
    }
    SimulatedIoDelay(db_->opts_.engine.simulated_io_delay_us);
    // Pinned re-read; the per-key lock waits above stay unpinned.
    util::EpochManager::Pin pin(&db_->epoch_);
    for (const std::string& k : keys) {
      TupleId tid;
      PageId page;
      uint32_t slot;
      if (!tbl->index.Lookup(k, &tid, &page, &slot)) continue;
      std::shared_lock<std::shared_mutex> sl(tbl->heap_latch.For(tid));
      const Database::TupleChain& chain = tbl->tuples[tid];
      int vi = VisibleVersion(chain);
      if (vi >= 0 && !chain.versions[static_cast<size_t>(vi)].deleted) {
        fn(k, chain.versions[static_cast<size_t>(vi)].value);
      }
    }
    return Status::OK();
  }

  // Leaf-at-a-time scan: each ScanLeaf batch is a point-in-time-
  // consistent snapshot of one leaf, witnessed by a ReadView. SIREAD
  // tracking follows acquire-then-validate — locks land before the view
  // is validated, results are emitted only after it passes, and a failed
  // validation redoes the same batch (cur is unchanged).
  SimulatedIoDelay(db_->opts_.engine.simulated_io_delay_us);
  // One pin for the whole scan: a long scan stretches grace periods
  // rather than risking a batch's ReadView outliving its leaf.
  util::EpochManager::Pin pin(&db_->epoch_);
  const bool track = sxact_ && !sxact_->safe_snapshot;
  const bool next_key_mode =
      db_->opts_.engine.index_gap_locking == IndexGapLocking::kNextKey;
  std::string cur = lo;
  BTree::LeafBatch batch;
  BTree::ReadView rv;
  std::vector<std::pair<std::string, std::string>> emit;
  for (;;) {
    const bool more = tbl->index.ScanLeaf(cur, hi, &batch, &rv);
    emit.clear();
    for (size_t i = 0; i < batch.keys.size(); i++) {
      const TupleId tid = batch.tids[i];
      std::shared_lock<std::shared_mutex> sl(tbl->heap_latch.For(tid));
      const Database::TupleChain& chain = tbl->tuples[tid];
      int vi = VisibleVersion(chain);
      if (track) TrackRead(tbl, chain, vi, batch.page, batch.slots[i]);
      if (vi >= 0 && !chain.versions[static_cast<size_t>(vi)].deleted) {
        emit.emplace_back(batch.keys[i],
                          chain.versions[static_cast<size_t>(vi)].value);
      }
    }
    if (track && !next_key_mode && !batch.keys.empty()) {
      // Page-granularity gap lock on the visited leaf.
      db_->siread_.AcquirePage(sxact_, table, batch.page);
    }
    if (!more && track) {
      if (next_key_mode) {
        // Lock the key that bounds the range on the right (phantoms
        // there). Self-validating, idempotent across batch retries.
        AcquireGapLock(tbl, hi);
      } else {
        // Boundary leaves (covers empty ranges too).
        AcquireGapLock(tbl, lo);
        AcquireGapLock(tbl, hi);
      }
    }
    if (!tbl->index.Validate(rv)) continue;  // redo this batch
    for (const auto& kv : emit) fn(kv.first, kv.second);
    if (!more) return Status::OK();
    cur = batch.keys.back() + '\0';
  }
}

Status Transaction::TryScan(
    TableId table, const std::string& lo, const std::string& hi,
    std::vector<std::pair<std::string, std::string>>* out) {
  if (out) out->clear();
  return ScanInternal(table, lo, hi,
                      [out](const std::string& k, const std::string& v) {
                        if (out) out->emplace_back(k, v);
                      });
}

Status Transaction::TryCount(TableId table, const std::string& lo,
                             const std::string& hi, uint64_t* n) {
  uint64_t c = 0;
  Status st = ScanInternal(table, lo, hi,
                           [&c](const std::string&, const std::string&) { c++; });
  if (n) *n = c;
  return st;
}

// ---------------------------------------------------------------------------
// Writes
// ---------------------------------------------------------------------------

Status Transaction::WriteInternal(TableId table, const std::string& key,
                                  const std::string& value, bool deleted,
                                  bool upsert) {
  Status st = CheckActive();
  if (!st.ok()) return st;
  if (opts_.read_only) {
    return Status::InvalidArgument("write in read-only transaction");
  }
  Database::Table* tbl = db_->GetTable(table);
  if (!tbl) return Status::InvalidArgument("no such table");

  if (db_->opts_.serializable_impl == SerializableImpl::kS2PL) {
    // In an S2PL database every writer takes the key's exclusive lock,
    // held to commit (never while holding a stripe or an epoch pin), so
    // S2PL readers' shared locks see SI writers too.
    st = AcquireRowLock(table, key, LockTable::Mode::kExclusive);
    // Would-block precedes every mutation: the caller re-issues this
    // write verbatim on wakeup (the key lock, once granted, stays held).
    if (st.IsWouldBlock()) return st;
    if (!st.ok()) {
      if (use_s2pl_) {
        db_->s2pl_deadlocks_.fetch_add(1, std::memory_order_relaxed);
      }
      AbortInternal();
      return st;
    }
  }
  if (use_s2pl_) {
    // Inserting or deleting changes scan results: take the table-gap lock
    // exclusively (conflicts with S2PL scans). Existence is stable here
    // because we already hold the key's exclusive lock.
    bool exists;
    {
      util::EpochManager::Pin pin(&db_->epoch_);
      exists = tbl->index.Lookup(key, nullptr, nullptr, nullptr);
    }
    if (!exists || deleted) {
      st = AcquireRowLock(table, kGapLockKey, LockTable::Mode::kExclusive);
      if (st.IsWouldBlock()) return st;
      if (!st.ok()) {
        db_->s2pl_deadlocks_.fetch_add(1, std::memory_order_relaxed);
        AbortInternal();
        return st;
      }
    }
  }
  st = WriteChain(tbl, key, value, deleted, upsert);
  // The simulated page access follows the last would-block point (a
  // claim wait) and the chain work's pin: a parked step never sleeps.
  if (!st.IsWouldBlock()) {
    SimulatedIoDelay(db_->opts_.engine.simulated_io_delay_us);
  }
  return st;
}

Status Transaction::WriteChain(Database::Table* tbl, const std::string& key,
                               const std::string& value, bool deleted,
                               bool upsert) {
  const TableId table = tbl->id;
  // Existing chain: a single-chain write — the chain's stripe held
  // exclusively. Writers of independent keys land on independent
  // stripes and run concurrently. The lookup is validated after the
  // stripe is taken: a GC erase of this key's aborted entry holds the
  // stripe across its Erase, so a stale hit either blocks until the
  // erase's version bump lands (and restarts into the new-key path) or
  // won the stripe first (and the GC record gets re-enqueued).
  // One pin for the whole loop: the existing-chain ReadView spans
  // lookup→probe→Validate, and InsertGuarded descends optimistically.
  // A claim wait returns (dropping the pin) rather than parking here.
  util::EpochManager::Pin pin(&db_->epoch_);
  for (;;) {
    BTree::ReadView rv;
    TupleId tid;
    PageId page;
    uint32_t slot;
    if (!tbl->index.Lookup(key, &tid, &page, &slot, &rv)) {
      if (deleted) {
        // Failed Delete of an absent key: the statement read the gap the
        // key would occupy — lock it exactly as a Get miss does, so a
        // concurrent insert of this key produces the required rw edge.
        AcquireGapLock(tbl, key);
        if (!tbl->index.Validate(rv)) continue;
        return Status::NotFound("key " + key);
      }
      const BTree::InsertResult res = InsertChain(tbl, key, value);
      if (res == BTree::InsertResult::kInserted) return Status::OK();
      // Another inserter published this key first: its chain (and the
      // claim at its head) now exists, so re-run the existing-chain path.
      if (res == BTree::InsertResult::kExists) continue;
      AbortInternal();  // kAborted: the gap probe found us doomed
      return Status::SerializationFailure(
          "canceled due to rw-antidependency conflict");
    }
    std::unique_lock<std::shared_mutex> sl(tbl->heap_latch.For(tid));
    if (!tbl->index.Validate(rv)) continue;  // entry moved/erased
    Database::TupleChain& chain = tbl->tuples[tid];
    const Database::Version* head =
        chain.versions.empty() ? nullptr : &chain.versions.back();
    const uint64_t head_seq = head ? head->commit_seq : 0;
    if (head && head->xid != xid_ &&
        (head_seq == 0 || head_seq > db_->txn_mgr_.LastCommittedSeq())) {
      // First-updater-wins claim: another transaction's version heads the
      // chain and that transaction has not finished. It is uncommitted,
      // or stamped with a seq the watermark has not published yet (a
      // predecessor's WAL fsync holds publication back). Wait for it to
      // finish, as PostgreSQL waits on a live xmax: failing at once on a
      // stamped head sends the retry, whose snapshot still excludes it,
      // straight back into the same conflict until the publication.
      // No wake-up is lost. An uncommitted holder stamps or erases this
      // chain under this stripe before ReleaseAll reads the waiter count,
      // so it sees a registration made under the stripe. A stamped holder
      // has published its seq before that read, and the fence below pairs
      // with the one in ReleaseAll: either the holder sees this
      // registration or the re-read of the watermark sees its seq.
      const bool same_wait =
          ContinuesWait(table, key, LockTable::Mode::kExclusive);
      util::WaitTokenPtr victim;
      Status st = db_->row_locks_.WaitForClaim(
          xid_, head->xid, same_wait && WaitExpired(), &wait_token_, &victim);
      bool published = false;
      if (st.IsWouldBlock() && head_seq != 0) {
        std::atomic_thread_fence(std::memory_order_seq_cst);
        published = db_->txn_mgr_.LastCommittedSeq() >= head_seq;
      }
      sl.unlock();
      if (victim) victim->Signal();
      // The holder finished meanwhile: re-read the chain, whose head now
      // fails first-updater-wins (the abort drops the registration).
      if (published) continue;
      if (st.IsWouldBlock()) {
        if (!same_wait) AnchorWait(table, key, LockTable::Mode::kExclusive);
        return st;
      }
      // Deadlock or timeout. (Never an S2PL transaction: in an S2PL
      // database the key's X lock keeps a second writer off the chain.)
      AbortInternal();
      return st;
    }
    if (!use_s2pl_) {
      // First-updater-wins: a version committed after our snapshot means
      // a concurrent writer beat us.
      for (const auto& v : chain.versions) {
        if (v.commit_seq > snapshot_seq_ && v.commit_seq != 0) {
          sl.unlock();
          db_->ww_aborts_.fetch_add(1, std::memory_order_relaxed);
          AbortInternal();
          return Status::SerializationFailure(
              "could not serialize access due to concurrent update");
        }
      }
    }
    int vi = VisibleVersion(chain);
    bool visible_live =
        vi >= 0 && !chain.versions[static_cast<size_t>(vi)].deleted;
    if ((!upsert && !deleted && visible_live) || (deleted && !visible_live)) {
      // Statement-level failure — but the statement still READ the
      // row's (non)existence to fail. Leave exactly the SIREAD lock and
      // rw-antidependency flags a Get would (Section 5.2: every read,
      // including reads performed implicitly by writes, must be
      // tracked), or a concurrent delete/insert of this key misses the
      // required rw edge and write skew can commit.
      TrackRead(tbl, chain, vi, page, slot);
      if (!tbl->index.Validate(rv)) {
        sl.unlock();
        continue;  // granule moved mid-track: re-resolve and re-lock
      }
      return visible_live ? Status::AlreadyExists("key " + key)
                          : Status::NotFound("key " + key);
    }
    if (sxact_) {
      // Probe at the index-reported coordinates: readers lock the
      // granule the index reports, and a leaf split may have moved the
      // entry since the chain was created.
      auto probe = db_->siread_.ProbeHeapWrite(table, page, slot);
      for (XactId h : probe.holder_xids) {
        if (h != xid_) db_->siread_.FlagRwConflictWithReader(h, sxact_);
      }
      if (db_->opts_.engine.enable_write_supersedes_siread) {
        db_->siread_.ReleaseOwnTuple(sxact_, table, page, slot);
      }
      if (db_->siread_.Doomed(sxact_)) {
        sl.unlock();
        AbortInternal();
        return Status::SerializationFailure(
            "canceled due to rw-antidependency conflict");
      }
      if (!tbl->index.Validate(rv)) {
        // A split relocated the granule mid-probe: the probe may have
        // missed a reader that locked the NEW coordinates. Redo it.
        sl.unlock();
        continue;
      }
    }
    if (!chain.versions.empty() && chain.versions.back().xid == xid_ &&
        chain.versions.back().commit_seq == 0) {
      chain.versions.back().value = value;
      chain.versions.back().deleted = deleted;
    } else {
      chain.versions.push_back(Database::Version{value, xid_, 0, deleted});
      writes_.push_back(WriteRec{table, tid, /*created=*/false});
    }
    // Prune stale history nobody can see anymore (lock-free bound).
    if (chain.versions.size() > kPruneChainLength) {
      uint64_t oldest = db_->txn_mgr_.OldestActiveSnapshot();
      auto& vs = chain.versions;
      while (vs.size() > 1 && vs[1].commit_seq != 0 &&
             vs[1].commit_seq <= oldest) {
        vs.erase(vs.begin());
      }
    }
    return Status::OK();
  }
}

BTree::InsertResult Transaction::InsertChain(Database::Table* tbl,
                                             const std::string& key,
                                             const std::string& value) {
  // A structural change (index insert, possible leaf split, gap probes).
  // Nothing pins the key's absence: two inserters may both miss, and
  // InsertGuarded's leaf locks let exactly one publish; the other gets
  // kExists and waits on the winner's claim. InsertGuarded locks only
  // the gap's leaves and runs the SIREAD gap probe + coverage transfer
  // under those leaf locks (probe may run multiple times across
  // restarts — idempotent; transfer runs exactly once).
  const TableId table = tbl->id;
  const bool next_key_mode =
      db_->opts_.engine.index_gap_locking == IndexGapLocking::kNextKey;
  // Chain first, index second: the chain must be fully populated before
  // the index entry is published, because latch-free readers resolve the
  // entry and read the chain with no index latch. The stripe is NOT held
  // across InsertGuarded (stripe orders before leaf locks).
  TupleId tid;
  {
    std::lock_guard<std::mutex> al(tbl->alloc_mu);
    if (!tbl->free_chains.empty()) {
      // Recycle a chain whose creating insert aborted (its index entry
      // is already gone — the free-list invariant).
      tid = tbl->free_chains.back();
      tbl->free_chains.pop_back();
    } else {
      tid = static_cast<TupleId>(tbl->tuples.Append());
    }
  }
  {
    std::unique_lock<std::shared_mutex> sl(tbl->heap_latch.For(tid));
    Database::TupleChain& chain = tbl->tuples[tid];
    chain.key = key;
    chain.versions.push_back(Database::Version{value, xid_, 0, false});
  }
  BTree::InsertHooks hooks;
  if (sxact_) {
    hooks.probe = [&](const std::vector<PageId>& probe_pages, bool has_next,
                      PageId npage, uint32_t nslot) {
      // Gap probe: does any reader hold a predicate lock covering the
      // spot this key lands in? Runs under the gap's leaf locks, so a
      // reader's acquire-then-validate either made its lock visible here
      // or will fail validation and retry against the new entry.
      if (next_key_mode && has_next) {
        auto probe = db_->siread_.ProbeHeapWrite(table, npage, nslot);
        for (XactId h : probe.holder_xids) {
          if (h != xid_) db_->siread_.FlagRwConflictWithReader(h, sxact_);
        }
      }
      // Page-granule probe over every leaf this key's gap can span: with
      // erases leaving empty leaves behind, a reader's boundary page
      // lock (or coverage transferred off an erased granule) may sit on
      // a later leaf than the one the insert lands on.
      for (PageId pp : probe_pages) {
        auto probe = db_->siread_.ProbeHeapWrite(table, pp, kNoSlot);
        for (XactId h : probe.holder_xids) {
          if (h != xid_) db_->siread_.FlagRwConflictWithReader(h, sxact_);
        }
      }
      return !db_->siread_.Doomed(sxact_);
    };
  }
  if (next_key_mode) {
    hooks.transfer = [&](PageId npage, uint32_t nslot, PageId newp,
                         uint32_t news) {
      // This insert split the gap it landed in: a reader's next-key gap
      // lock sits on the OLD successor's granule, but a second insert
      // into the lower sub-gap will probe the NEW entry instead. Mirror
      // OnPageSplit: copy the old next-key granule's holders onto the
      // new entry's granule. Runs under the leaf locks, so the
      // successor cannot be relocated mid-transfer.
      db_->siread_.OnGapTransfer(table, npage, nslot, newp, news);
    };
  }
  if (db_->test_before_index_publish_) {
    std::exchange(db_->test_before_index_publish_, nullptr)();
  }
  PageId ipage;
  uint32_t islot;
  const BTree::InsertResult res =
      tbl->index.InsertGuarded(key, tid, &ipage, &islot, hooks);
  if (res == BTree::InsertResult::kInserted) {
    writes_.push_back(WriteRec{table, tid, /*created=*/true});
    return res;
  }
  // Unwind the unpublished chain and recycle it directly: its index
  // entry never existed, so no GC record is needed.
  {
    std::unique_lock<std::shared_mutex> sl(tbl->heap_latch.For(tid));
    Database::TupleChain& chain = tbl->tuples[tid];
    chain.versions.clear();
    chain.key.clear();
  }
  {
    std::lock_guard<std::mutex> al(tbl->alloc_mu);
    tbl->free_chains.push_back(tid);
  }
  return res;
}

Status Transaction::TryPut(TableId table, const std::string& key,
                           const std::string& value) {
  return WriteInternal(table, key, value, /*deleted=*/false, /*upsert=*/true);
}

Status Transaction::TryInsert(TableId table, const std::string& key,
                              const std::string& value) {
  return WriteInternal(table, key, value, /*deleted=*/false, /*upsert=*/false);
}

Status Transaction::TryDelete(TableId table, const std::string& key) {
  return WriteInternal(table, key, "", /*deleted=*/true, /*upsert=*/true);
}

}  // namespace pgssi
