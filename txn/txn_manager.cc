#include "txn/txn_manager.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>

namespace pgssi::txn {

TxnManager::BeginResult TxnManager::Begin(bool serializable_rw) {
  const XactId xid = next_xid_.fetch_add(1, std::memory_order_relaxed);
  // seq_cst counter bump BEFORE the snapshot loads: paired with the
  // seq_cst load in AnyActiveSerializableRW (which runs AFTER the
  // checking reader loaded its own snapshot), this guarantees that a
  // read-write Begin the checker misses took its snapshot no earlier
  // than the checker's — and a transaction beginning at-or-after a
  // snapshot can never endanger it (its rw-out partners all commit
  // after it began).
  if (serializable_rw) active_serializable_rw_.fetch_add(1);

  Shard& sh = ShardFor(xid);
  // Provisional registration first, real snapshot second. A DEFERRABLE
  // Begin scans the shards for concurrent read-write transactions; one
  // it does NOT see must have registered after the scan visited this
  // shard, so the reload below — ordered after that registration by the
  // shard mutex — cannot observe a watermark older than the scanner's
  // snapshot: the missed transaction is provably not concurrent with
  // it. (The old single Begin mutex gave this ordering for free.) The
  // provisional value is only ever too LOW, which merely makes
  // OldestActiveSnapshot more conservative for the registration window.
  const uint64_t provisional = last_committed_seq_.load();
  {
    std::lock_guard<std::mutex> l(sh.mu);
    sh.active.emplace(xid, ActiveTxn{provisional, serializable_rw});
    // Publish the (possibly too-low) provisional into the cached shard
    // minimum before the snapshot reload. A cleanup thread that misses
    // this seq_cst store entirely read the shard minimum BEFORE it in
    // the seq_cst order; its bound came from a watermark load that also
    // precedes it, so the reload below — a seq_cst load ordered after
    // this store — returns a watermark at least that large: the final
    // snapshot can never sink below a bound computed without it.
    if (provisional < sh.min_snapshot.load(std::memory_order_relaxed)) {
      sh.min_snapshot.store(provisional);
    }
  }
  const uint64_t snap = last_committed_seq_.load();
  if (snap != provisional) {
    std::lock_guard<std::mutex> l(sh.mu);
    sh.active[xid].snapshot_seq = snap;
    // The provisional may have been holding the cached minimum down.
    RecomputeMinLocked(sh);
  }
  return BeginResult{xid, snap};
}

void TxnManager::RecomputeMinLocked(Shard& sh) {
  uint64_t m = std::numeric_limits<uint64_t>::max();
  for (const auto& [xid, t] : sh.active) m = std::min(m, t.snapshot_seq);
  sh.min_snapshot.store(m);
}

void TxnManager::BootstrapRecovered(XactId next_xid, uint64_t last_seq) {
  next_xid_.store(std::max<XactId>(next_xid, 1), std::memory_order_relaxed);
  next_commit_seq_.store(last_seq, std::memory_order_relaxed);
  last_committed_seq_.store(last_seq, std::memory_order_release);
  // The ring is zero-initialized, so the publication loop's
  // ring[s] == s test cannot spuriously match a pre-crash slot.
}

uint64_t TxnManager::Commit(XactId xid,
                            const std::function<bool(uint64_t)>& stamp) {
  const uint64_t seq =
      next_commit_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Stamp first, publish second: a version carrying `seq` is invisible
  // to every snapshot until the watermark reaches seq, and the watermark
  // only advances over fully stamped sequences. A FAILED stamp (WAL
  // error) stamped nothing — the seq is still published below so the
  // watermark never sticks, it just covers no versions.
  const bool stamped_ok = !stamp || stamp(seq);

  // Ring-slot guard: the slot is shared with seq - kCommitRing, which
  // must have been published (watermark passed it) before reuse. Only
  // ever waits with kCommitRing commits in flight simultaneously.
  while (last_committed_seq_.load(std::memory_order_acquire) + kCommitRing <
         seq) {
    std::this_thread::yield();
  }
  ring_[static_cast<size_t>(seq) & (kCommitRing - 1)].store(
      seq, std::memory_order_release);
  // Store-then-load against a predecessor doing the same on its own slot:
  // without a full fence each side may miss the other's store, and then
  // neither publishes this seq (its committer would wait forever).
  std::atomic_thread_fence(std::memory_order_seq_cst);

  // Batched publication: advance the watermark across every contiguously
  // completed seq. If our predecessor is still stamping we leave our seq
  // for it to publish; whoever closes a gap publishes the whole batch.
  // Each CAS is a release-RMW whose thread acquire-loaded the ring slots
  // it publishes, so a reader acquiring the watermark sees every stamp
  // at or below it.
  uint64_t w = last_committed_seq_.load(std::memory_order_acquire);
  for (;;) {
    const uint64_t next = w + 1;
    if (ring_[static_cast<size_t>(next) & (kCommitRing - 1)].load(
            std::memory_order_acquire) != next) {
      break;
    }
    if (last_committed_seq_.compare_exchange_weak(
            w, next, std::memory_order_acq_rel, std::memory_order_acquire)) {
      w = next;
    }
    // On CAS failure `w` reloaded: another publisher advanced; continue
    // from wherever the watermark is now.
  }
  // If the watermark moved, wake any committer parked behind a slow
  // predecessor. The atomic waiter count keeps the uncontended path
  // (nobody waiting — the overwhelmingly common case) mutex-free.
  if (publish_waiters_.load(std::memory_order_acquire) > 0) {
    std::lock_guard<std::mutex> l(publish_mu_);
    publish_cv_.notify_all();
  }

  // Do not return (or deregister) until our own seq is published. The
  // safe-snapshot and DEFERRABLE machinery relies on "absent from the
  // active registry => visible to any later snapshot": deregistering
  // with the seq unpublished would let a read-only Begin take a snapshot
  // S < seq, see no active read-write transaction, and wrongly mark the
  // snapshot safe while this (concurrent, committed) transaction may
  // carry a dangerous out-edge. Only waits while a PREDECESSOR is still
  // inside stamp() (e.g. behind a slow WAL group fsync); the gap-closer
  // publishes for the whole batch. Bounded condvar wait rather than the
  // old spin-yield: a spinning worker would starve session multiplexing
  // when workers are scarce, and the wait_for bound (re-check every
  // 100us) recovers from the benign lost-wakeup race between our count
  // increment and a publisher's count check.
  if (last_committed_seq_.load(std::memory_order_acquire) < seq) {
    publish_waiters_.fetch_add(1, std::memory_order_acq_rel);
    std::unique_lock<std::mutex> l(publish_mu_);
    while (last_committed_seq_.load(std::memory_order_acquire) < seq) {
      publish_cv_.wait_for(l, std::chrono::microseconds(100));
    }
    l.unlock();
    publish_waiters_.fetch_sub(1, std::memory_order_acq_rel);
  }

  Deregister(xid);
  return stamped_ok ? seq : 0;
}

void TxnManager::Deregister(XactId xid) {
  Shard& sh = ShardFor(xid);
  bool was_rw = false;
  {
    std::lock_guard<std::mutex> l(sh.mu);
    auto it = sh.active.find(xid);
    if (it == sh.active.end()) return;
    was_rw = it->second.serializable_rw;
    const uint64_t snap = it->second.snapshot_seq;
    sh.active.erase(it);
    if (snap <= sh.min_snapshot.load(std::memory_order_relaxed)) {
      RecomputeMinLocked(sh);  // we may have been the minimum holder
    }
  }
  if (!was_rw) return;
  active_serializable_rw_.fetch_sub(1);
  // seq_cst, after the erase under sh.mu: an AwaitFinish whose AnyActive
  // still saw this xid registered its token before taking sh.mu, so the
  // load sees that registration (or a wake that already signaled it).
  if (rw_waiter_count_.load() == 0) return;
  std::vector<util::WaitTokenPtr> wake;
  {
    std::lock_guard<std::mutex> l(rw_waiters_mu_);
    wake.swap(rw_waiters_);
    rw_waiter_count_.store(0);
  }
  // Outside every mutex: a token callback may take the server's run-queue
  // mutex.
  for (auto& t : wake) t->Signal();
}

void TxnManager::Abort(XactId xid) { Deregister(xid); }

uint64_t TxnManager::OldestActiveSnapshot() const {
  uint64_t oldest = std::numeric_limits<uint64_t>::max();
  for (const Shard& sh : shards_) {
    oldest = std::min(oldest, sh.min_snapshot.load());
  }
  return oldest;
}

uint64_t TxnManager::CleanupBound() const {
  // Read the watermark FIRST, then the oldest snapshot, and clamp to
  // their minimum. A bare OldestActiveSnapshot is racy — a thread can
  // compute it (say, infinity, with nothing active), stall, and apply it
  // much later, freeing SIREAD state of transactions that committed in
  // the meantime while a concurrent reader is live. Any transaction with
  // commit_seq <= the pre-read bound was published before the bound was
  // read; and a Begin this scan missed published its shard-minimum
  // update after the scan's seq_cst load, so its own snapshot reload
  // (seq_cst, ordered after that update) observed a watermark >= the
  // bound — it is not concurrent with anything freed. (Both loads here
  // are seq_cst; see the matching comment in Begin.)
  const uint64_t bound = last_committed_seq_.load();
  return std::min(bound, OldestActiveSnapshot());
}

std::vector<XactId> TxnManager::ActiveSerializableRW() const {
  std::vector<XactId> out;
  for (Shard& sh : shards_) {
    std::lock_guard<std::mutex> l(sh.mu);
    for (const auto& [xid, t] : sh.active) {
      if (t.serializable_rw) out.push_back(xid);
    }
  }
  return out;
}

bool TxnManager::AnyActive(const std::vector<XactId>& xids) const {
  for (XactId x : xids) {
    Shard& sh = ShardFor(x);
    std::lock_guard<std::mutex> l(sh.mu);
    if (sh.active.count(x)) return true;
  }
  return false;
}

bool TxnManager::AwaitFinish(const std::vector<XactId>& xids,
                             util::WaitTokenPtr* token) {
  if (!AnyActive(xids)) return false;
  if (!*token || (*token)->ready()) {
    *token = std::make_shared<util::WaitToken>();
    std::lock_guard<std::mutex> l(rw_waiters_mu_);
    rw_waiters_.push_back(*token);
    rw_waiter_count_.store(rw_waiters_.size());
  }
  return AnyActive(xids);
}

}  // namespace pgssi::txn
