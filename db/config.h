// Engine configuration knobs, isolation levels, and SSI statistics.
//
// EngineConfig mirrors the PostgreSQL GUCs the paper discusses:
// max_locks_per_page / max_pages_per_relation drive multi-granularity
// SIREAD promotion (Section 5.1), enable_read_only_opt gates the
// Section 4 read-only optimizations, enable_commit_ordering_opt gates the
// Section 3.3.1 commit-ordering refinement of the dangerous-structure
// test, and enable_safe_retry selects the Section 5.4 victim policy.
#pragma once

#include <cstdint>
#include <string>

#include "util/types.h"

namespace pgssi {

// Number of independent SIREAD lock-table partitions (hash of the lock
// granule), the analogue of PostgreSQL's NUM_PREDICATELOCK_PARTITIONS.
// Must be a power of two. (A 1-partition single-mutex baseline was
// measured and retired: README "Retired A/Bs".)
inline constexpr uint32_t kLockPartitions = 16;

// Number of heap-latch stripes per table. Version chains hash (by
// TupleId) onto stripes, so writers of independent keys take
// independent latches. (The one-latch-per-table baseline was measured
// and retired: README "Retired A/Bs".)
inline constexpr uint32_t kHeapStripes = 64;

enum class IsolationLevel {
  kRepeatableRead,  // plain snapshot isolation
  kSerializable,    // SSI (or S2PL, per DatabaseOptions::serializable_impl)
};

enum class SerializableImpl {
  kSSI,   // serializable snapshot isolation (the paper's contribution)
  kS2PL,  // strict two-phase locking baseline, as in the figure benches
};

enum class IndexGapLocking {
  kPage,     // lock B+-tree leaf pages read by scans (shipping, Section 5.2.1)
  kNextKey,  // next-key tuple granularity (stated future work)
};

// WAL durability barrier on commit (the analogue of PostgreSQL's
// synchronous_commit / group-commit settings; see wal/wal_writer.h).
enum class WalFsyncMode : uint32_t {
  kOff,     // append the commit record, never fsync on commit: an
            // acknowledged commit survives process death only if the OS
            // flushed it (synchronous_commit=off). Clean Close still
            // syncs.
  kBatch,   // group commit: the fsync leader accumulates up to
            // wal_fsync_batch commit records (bounded wait, only while
            // sibling commits are in flight), fsyncs once, and the whole
            // batch publishes through the completion ring together —
            // one fsync per published watermark batch.
  kAlways,  // every commit blocks on an fsync covering its own record
            // (batch target 1); concurrent commits still coalesce
            // behind an in-progress fsync, which never weakens the
            // guarantee — the data was already durable.
};

struct EngineConfig {
  // SIREAD lock promotion thresholds (tuple -> page -> relation).
  uint32_t max_locks_per_page = 16;
  uint32_t max_pages_per_relation = 64;

  // Section 4: read-only snapshot ordering / safe snapshot optimizations.
  bool enable_read_only_opt = true;

  // Section 3.3.1: only abort a pivot whose outgoing edge leads to a
  // *committed* transaction; off = abort on any in+out flag pair.
  bool enable_commit_ordering_opt = true;

  // Section 5.4: prefer victims whose retry cannot immediately fail again
  // (wait until the conflicting transaction has committed). Off aborts a
  // pivot eagerly as soon as the structure forms.
  bool enable_safe_retry = true;

  // Section 7.3: a write by the same transaction supersedes its own SIREAD
  // lock on that tuple (the write set is tracked anyway).
  bool enable_write_supersedes_siread = true;

  // Index-gap (phantom) lock granularity for scans.
  IndexGapLocking index_gap_locking = IndexGapLocking::kPage;

  // ----- durability (wal/) -----
  // Off by default: the engine stays memory-only unless a WAL directory
  // is configured, which keeps every non-durability benchmark and test
  // on the zero-I/O path.
  bool wal_enabled = false;
  // Directory holding wal.log; created if absent. Required (non-empty)
  // when wal_enabled.
  std::string wal_dir;
  // Commit-time durability barrier; see WalFsyncMode. The three modes
  // are a same-binary A/B for bench_dbt2_disk.
  WalFsyncMode wal_fsync = WalFsyncMode::kBatch;
  // Group-commit accumulation target: the fsync leader waits (bounded,
  // and only while other commits are in flight) until this many commit
  // records are unsynced before paying the fsync. 1 degenerates to
  // per-commit fsync.
  uint32_t wal_fsync_batch = 64;

  // Per-heap-access stall, used by the disk-bound bench configurations.
  uint64_t simulated_io_delay_us = 0;

  // B+-tree leaf/inner fanout.
  uint32_t btree_fanout = 64;

  // Row-lock and claim wait ceiling (fallback; the wait-for graph
  // detects real deadlocks much sooner).
  uint64_t lock_wait_timeout_us = 2'000'000;
  // How long a blocking call waits on its step's wait token before
  // re-issuing the step (which re-runs deadlock detection and deadline
  // checks). Also the net server's parked-session re-check backstop.
  uint64_t deadlock_check_interval_us = 2'000;

  // ----- network front end (net/) -----
  // Worker threads executing session steps — sized to cores, NOT to
  // connections (sessions are state machines multiplexed over this
  // pool; a parked session costs no thread).
  uint32_t net_workers = 4;
  // Accept ceiling: connections beyond this are refused at accept time.
  uint32_t net_max_sessions = 4096;
  // Idle-in-transaction reaping (PostgreSQL's
  // idle_in_transaction_session_timeout): a connection that holds an
  // open transaction but has had no traffic for this long is sent a
  // best-effort error frame, its session aborted, and the connection
  // closed — a vanished/stalled client cannot pin OldestActiveSnapshot
  // or hold row locks forever. 0 (default) disables the sweep: an idle
  // open transaction is then allowed to pin the horizon indefinitely,
  // exactly like PostgreSQL with the GUC unset.
  uint64_t idle_in_txn_timeout_us = 0;
  // Retry-after hint (milliseconds) carried by the kOverloaded refusal
  // frame when a connection is declined over net_max_sessions. Purely
  // advisory; well-behaved clients (WireDbClient) back off at least
  // this long before reconnecting.
  uint32_t net_overload_retry_after_ms = 50;
};

struct DatabaseOptions {
  EngineConfig engine;
  SerializableImpl serializable_impl = SerializableImpl::kSSI;
};

struct TxnOptions {
  IsolationLevel isolation = IsolationLevel::kRepeatableRead;
  bool read_only = false;
  // DEFERRABLE read-only serializable transaction: block at Begin until a
  // safe snapshot (Section 4 / Section 8.4) is available, then run with no
  // SSI tracking at all.
  bool deferrable = false;
};

struct SsiStats {
  uint64_t ssi_aborts = 0;            // dangerous-structure aborts
  uint64_t ww_aborts = 0;             // first-updater-wins conflicts
  uint64_t s2pl_deadlocks = 0;        // deadlock victims (S2PL mode)
  uint64_t page_promotions = 0;       // tuple -> page SIREAD promotions
  uint64_t relation_promotions = 0;   // page -> relation SIREAD promotions
  uint64_t safe_snapshots = 0;        // read-only txns granted safe snapshots
  uint64_t deferrable_retries = 0;    // unsafe snapshots discarded at Begin
};

}  // namespace pgssi
