#include "db/lock_table.h"

#include <algorithm>

namespace pgssi {

bool LockTable::CanGrant(const Entry& e, XactId xid, Mode mode) const {
  if (mode == Mode::kShared) {
    return e.exclusive == 0 || e.exclusive == xid;
  }
  bool others_share = !e.sharers.empty() &&
                      !(e.sharers.size() == 1 && e.sharers.count(xid));
  return (e.exclusive == 0 || e.exclusive == xid) && !others_share;
}

void LockTable::Blockers(const Entry& e, XactId xid,
                         std::vector<XactId>* out) const {
  out->clear();
  if (e.exclusive != 0 && e.exclusive != xid) out->push_back(e.exclusive);
  for (XactId s : e.sharers) {
    if (s != xid) out->push_back(s);
  }
}

XactId LockTable::CycleVictim(XactId self) const {
  // self is deadlocked iff it lies on a waits_for_ cycle, i.e. some node is
  // both reachable from self and reaches self. Intersecting the forward and
  // backward reachable sets yields the full strongly connected component
  // (every node on ANY cycle through self), not just the one path a DFS
  // happens to find first — so every member of a deadlock computes the same
  // membership. Victim = max xid in the component: deterministic, exactly
  // one member aborts and the others proceed.
  std::unordered_set<XactId> fwd;  // reachable from self (excluding self)
  std::vector<XactId> stack;
  auto expand = [&](XactId cur) {
    auto it = waits_for_.find(cur);
    if (it == waits_for_.end()) return;
    for (XactId b : it->second) {
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
    for (const auto& [x, succs] : waits_for_) {
      if (bwd.count(x)) continue;
      for (XactId b : succs) {
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

void LockTable::MaybeEraseLocked(const Key& k) {
  auto lit = locks_.find(k);
  if (lit == locks_.end()) return;
  const Entry& e = lit->second;
  if (e.exclusive == 0 && e.sharers.empty() && e.waiters.empty()) {
    locks_.erase(lit);
  }
}

void LockTable::DeregisterLocked(XactId xid) {
  auto wit = wait_key_.find(xid);
  if (wit == wait_key_.end()) return;
  Key k = wit->second;
  wait_key_.erase(wit);
  auto lit = locks_.find(k);
  if (lit != locks_.end()) {
    lit->second.waiters.erase(xid);
    MaybeEraseLocked(k);
  }
  waits_for_.erase(xid);
}

Status LockTable::AcquireAsync(XactId xid, TableId table,
                               const std::string& key, Mode mode,
                               bool timed_out, util::WaitTokenPtr* token) {
  util::WaitTokenPtr victim_token;
  Status st;
  {
    std::lock_guard<std::mutex> l(mu_);
    Key k{table, key};
    Entry& e = locks_[k];
    if (CanGrant(e, xid, mode)) {
      DeregisterLocked(xid);
      if (mode == Mode::kShared) {
        if (e.exclusive != xid && e.sharers.insert(xid).second) {
          held_[xid].push_back(k);
        }
      } else {
        if (e.exclusive != xid) {
          e.sharers.erase(xid);  // shared -> exclusive upgrade in place
          e.exclusive = xid;
          held_[xid].push_back(k);
        }
      }
      st = Status::OK();
    } else if (timed_out) {
      DeregisterLocked(xid);
      MaybeEraseLocked(k);
      st = Status::SerializationFailure("lock wait timeout");
    } else {
      // A retry on a different key than the previous registration (the
      // session abandoned an op) must not leak the old waiter slot.
      auto wit = wait_key_.find(xid);
      if (wit != wait_key_.end() && wit->second != k) DeregisterLocked(xid);
      Blockers(e, xid, &waits_for_[xid]);
      *token = std::make_shared<util::WaitToken>();
      e.waiters[xid] = *token;
      wait_key_[xid] = k;
      XactId victim = CycleVictim(xid);
      if (victim == xid) {
        DeregisterLocked(xid);
        MaybeEraseLocked(k);
        st = Status::SerializationFailure("deadlock detected");
      } else {
        if (victim != 0) {
          // The victim is some other cycle member: signal it so it
          // re-issues and discovers victimhood.
          auto vit = wait_key_.find(victim);
          if (vit != wait_key_.end()) {
            auto vlit = locks_.find(vit->second);
            if (vlit != locks_.end()) {
              auto tit = vlit->second.waiters.find(victim);
              if (tit != vlit->second.waiters.end()) {
                victim_token = tit->second;
              }
            }
          }
        }
        st = Status(Code::kWouldBlock, "lock wait");
      }
    }
  }
  if (victim_token) victim_token->Signal();
  return st;
}

void LockTable::ReleaseAll(XactId xid) {
  std::vector<util::WaitTokenPtr> wake;
  {
    std::lock_guard<std::mutex> l(mu_);
    auto it = held_.find(xid);
    if (it != held_.end()) {
      for (const Key& k : it->second) {
        auto lit = locks_.find(k);
        if (lit == locks_.end()) continue;
        Entry& e = lit->second;
        if (e.exclusive == xid) e.exclusive = 0;
        e.sharers.erase(xid);
        // Wake and deregister every waiter on this key; each re-issues
        // AcquireAsync and re-registers if still blocked (stale wait-for
        // edges would otherwise fake deadlock cycles).
        for (auto& [w, tok] : e.waiters) {
          wake.push_back(tok);
          wait_key_.erase(w);
          waits_for_.erase(w);
        }
        e.waiters.clear();
        if (e.exclusive == 0 && e.sharers.empty()) locks_.erase(lit);
      }
      held_.erase(it);
    }
    // xid itself may be registered as a waiter (aborted mid-wait).
    DeregisterLocked(xid);
    waits_for_.erase(xid);
  }
  // Tokens signaled outside mu_: callbacks (net-server requeue) must
  // never run under the lock-table mutex (lock order: token cb may take
  // the server run-queue mutex, never the reverse).
  for (auto& t : wake) t->Signal();
}

size_t LockTable::LockedKeyCount() const {
  std::lock_guard<std::mutex> l(mu_);
  return locks_.size();
}

}  // namespace pgssi
