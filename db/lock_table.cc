#include "db/lock_table.h"

#include <algorithm>
#include <functional>
#include <unordered_set>

namespace pgssi {

namespace {
static_assert((kLockPartitions & (kLockPartitions - 1)) == 0,
              "kLockPartitions must be a power of two");

// Shard of a key hash: the multiplicative mix takes the shard from the
// hash's well-mixed high bits, leaving the low ones to the shard's map.
uint32_t ShardOf(size_t h) {
  return static_cast<uint32_t>((static_cast<uint64_t>(h) *
                                0x9E3779B97F4A7C15ULL) >> 40) &
         (kLockPartitions - 1);
}
}  // namespace

size_t LockTable::KeyHash::operator()(const Key& k) const {
  return std::hash<std::string>{}(k.second) ^
         (static_cast<size_t>(k.first) * 0x9E3779B97F4A7C15ULL);
}

LockTable::LockTable() : shards_(std::make_unique<Shard[]>(kLockPartitions)) {}

bool LockTable::CanGrant(const Entry& e, XactId xid, Mode mode) {
  if (e.exclusive != 0 && e.exclusive != xid) return false;
  if (mode == Mode::kShared) return true;
  for (XactId s : e.sharers) {
    if (s != xid) return false;
  }
  return true;
}

XactId LockTable::CycleVictim(XactId self) const {
  // self is deadlocked iff it lies on a wait-for cycle, i.e. some node is
  // both reachable from self and reaches self. Intersecting the forward and
  // backward reachable sets yields the full strongly connected component
  // (every node on ANY cycle through self), not just the one path a DFS
  // happens to find first — so every member of a deadlock computes the same
  // membership. Victim = max xid in the component: deterministic, exactly
  // one member aborts and the others proceed.
  std::unordered_set<XactId> fwd;  // reachable from self (excluding self)
  std::vector<XactId> stack;
  auto expand = [&](XactId cur) {
    auto it = waiters_.find(cur);
    if (it == waiters_.end()) return;
    for (XactId b : it->second.blockers) {
      if (b != self && fwd.insert(b).second) stack.push_back(b);
    }
  };
  expand(self);
  while (!stack.empty()) {
    XactId cur = stack.back();
    stack.pop_back();
    expand(cur);
  }
  if (fwd.empty()) return 0;

  // Backward set: grow "reaches self" until a fixpoint (wait-for graphs are
  // tiny — a handful of blocked xacts — so the quadratic sweep is cheap).
  std::unordered_set<XactId> bwd{self};
  bool grew = true;
  while (grew) {
    grew = false;
    for (const auto& [x, w] : waiters_) {
      if (bwd.count(x)) continue;
      for (XactId b : w.blockers) {
        if (bwd.count(b)) {
          bwd.insert(x);
          grew = true;
          break;
        }
      }
    }
  }

  XactId victim = self;
  bool on_cycle = false;
  for (XactId x : fwd) {
    if (bwd.count(x)) {
      on_cycle = true;
      victim = std::max(victim, x);
    }
  }
  return on_cycle ? victim : 0;
}

void LockTable::DeregisterLocked(XactId xid) {
  if (waiters_.erase(xid) != 0) {
    waiter_count_.store(waiters_.size(), std::memory_order_relaxed);
  }
}

Status LockTable::RegisterWait(XactId xid, std::vector<XactId> blockers,
                               util::WaitTokenPtr* token,
                               util::WaitTokenPtr* victim) {
  std::lock_guard<std::mutex> g(graph_mu_);
  Waiter& w = waiters_[xid];
  w.blockers = std::move(blockers);
  w.token = std::make_shared<util::WaitToken>();
  *token = w.token;
  waiter_count_.store(waiters_.size(), std::memory_order_relaxed);
  const XactId v = CycleVictim(xid);
  if (v == xid) {
    DeregisterLocked(xid);
    return Status::SerializationFailure("deadlock detected");
  }
  if (v != 0) {
    // The victim is some other cycle member: its signaled token makes it
    // re-issue and discover victimhood.
    auto it = waiters_.find(v);
    if (it != waiters_.end()) *victim = it->second.token;
  }
  return Status(Code::kWouldBlock, "lock wait");
}

Status LockTable::AcquireAsync(XactId xid, TableId table,
                               const std::string& key, Mode mode,
                               bool timed_out, util::WaitTokenPtr* token,
                               std::vector<HeldLock>* held) {
  Key k{table, key};
  const uint32_t si = ShardOf(KeyHash{}(k));
  Shard& sh = shards_[si];
  util::WaitTokenPtr victim;
  Status st;
  {
    std::lock_guard<std::mutex> l(sh.mu);
    // An entry created here is granted at once (an absent key has no
    // holder), so no empty entry is ever left behind.
    Entry& e = sh.locks[std::move(k)];
    if (CanGrant(e, xid, mode)) {
      bool newly_held = false;
      auto sit = std::find(e.sharers.begin(), e.sharers.end(), xid);
      if (mode == Mode::kShared) {
        if (e.exclusive != xid && sit == e.sharers.end()) {
          e.sharers.push_back(xid);
          newly_held = true;
        }
      } else if (e.exclusive != xid) {
        // Shared -> exclusive upgrade in place keeps the held record.
        if (sit != e.sharers.end()) {
          e.sharers.erase(sit);
        } else {
          newly_held = true;
        }
        e.exclusive = xid;
      }
      if (newly_held) held->push_back(HeldLock{si, table, key});
      st = Status::OK();
    } else if (timed_out) {
      if (waiter_count_.load(std::memory_order_relaxed) != 0) {
        std::lock_guard<std::mutex> g(graph_mu_);
        DeregisterLocked(xid);
      }
      st = Status::SerializationFailure("lock wait timeout");
    } else {
      std::vector<XactId> blockers;
      if (e.exclusive != 0 && e.exclusive != xid) {
        blockers.push_back(e.exclusive);
      }
      for (XactId s : e.sharers) {
        if (s != xid) blockers.push_back(s);
      }
      // Registered under the shard mutex: a blocker releases this key
      // under the same mutex before it reads the waiter count.
      st = RegisterWait(xid, std::move(blockers), token, &victim);
    }
  }
  if (victim) victim->Signal();
  return st;
}

Status LockTable::WaitForClaim(XactId xid, XactId holder, bool timed_out,
                               util::WaitTokenPtr* token,
                               util::WaitTokenPtr* victim) {
  if (timed_out) {
    if (waiter_count_.load(std::memory_order_relaxed) != 0) {
      std::lock_guard<std::mutex> g(graph_mu_);
      DeregisterLocked(xid);
    }
    return Status::SerializationFailure("lock wait timeout");
  }
  return RegisterWait(xid, {holder}, token, victim);
}

void LockTable::ReleaseAll(XactId xid, std::vector<HeldLock>* held) {
  if (!held->empty()) {
    // One visit per shard.
    std::sort(held->begin(), held->end(),
              [](const HeldLock& a, const HeldLock& b) {
                return a.shard < b.shard;
              });
    for (size_t i = 0; i < held->size();) {
      Shard& sh = shards_[(*held)[i].shard];
      std::lock_guard<std::mutex> l(sh.mu);
      for (const uint32_t s = (*held)[i].shard;
           i < held->size() && (*held)[i].shard == s; ++i) {
        HeldLock& h = (*held)[i];
        auto it = sh.locks.find(Key{h.table, std::move(h.key)});
        if (it == sh.locks.end()) continue;
        Entry& e = it->second;
        if (e.exclusive == xid) e.exclusive = 0;
        auto sit = std::find(e.sharers.begin(), e.sharers.end(), xid);
        if (sit != e.sharers.end()) e.sharers.erase(sit);
        if (e.exclusive == 0 && e.sharers.empty()) sh.locks.erase(it);
      }
    }
    held->clear();
  }
  // A waiter registered under a stripe or shard mutex this transaction
  // took afterwards (to stamp, erase or release), or, if it found our
  // versions stamped but unpublished, it re-reads the watermark after a
  // fence that pairs with this one (we published before getting here).
  // Either way this load sees every registration it must wake.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (waiter_count_.load(std::memory_order_relaxed) == 0) return;
  std::vector<util::WaitTokenPtr> wake;
  {
    std::lock_guard<std::mutex> g(graph_mu_);
    // xid itself may be registered (aborted mid-wait).
    waiters_.erase(xid);
    // Wake and deregister every waiter blocked by xid; each re-issues and
    // registers again if still blocked (stale wait-for edges would
    // otherwise fake deadlock cycles).
    for (auto it = waiters_.begin(); it != waiters_.end();) {
      const auto& b = it->second.blockers;
      if (std::find(b.begin(), b.end(), xid) != b.end()) {
        wake.push_back(std::move(it->second.token));
        it = waiters_.erase(it);
      } else {
        ++it;
      }
    }
    waiter_count_.store(waiters_.size(), std::memory_order_relaxed);
  }
  // Tokens are signaled outside every lock: callbacks (net-server
  // requeue) take the server run-queue mutex, never the reverse.
  for (auto& t : wake) t->Signal();
}

size_t LockTable::LockedKeyCount() const {
  size_t n = waiter_count_.load(std::memory_order_relaxed);
  for (uint32_t i = 0; i < kLockPartitions; i++) {
    std::lock_guard<std::mutex> l(shards_[i].mu);
    n += shards_[i].locks.size();
  }
  return n;
}

}  // namespace pgssi
