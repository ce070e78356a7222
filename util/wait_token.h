// One-shot wake-up token for suspended transaction steps.
//
// A step that cannot proceed (a row-lock conflict, a WAL group-fsync in
// flight, a DEFERRABLE begin waiting out read-write transactions)
// returns Code::kWouldBlock and hands the caller a WaitToken. The engine
// signals the token when the obstacle *may* have cleared — the caller
// then re-issues the same call, which either succeeds or parks again.
// Signals are therefore permission to retry, not a grant: spurious
// signals are harmless and expected.
//
// Thread-safety: Signal / OnSignal / WaitFor may race freely. Signal is
// idempotent; the installed callback runs once, on whichever thread loses
// the set-vs-signal race (possibly inline in OnSignal when the token was
// already signaled). The callback must not block: the net server's
// callback only flips an atomic and pushes the session onto a run queue.
//
// Tokens are shared_ptr-held by both the waiter and the engine-side
// registry (lock table, WAL writer, TxnManager), so a waiter that gives
// up (abort, teardown) can simply drop its reference; a late Signal then
// fires into a token nobody observes.
#pragma once

#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>

namespace pgssi::util {

class WaitToken {
 public:
  /// Idempotent: the first call marks the token ready, wakes blocking
  /// waiters, and runs the callback (if installed); later calls no-op.
  void Signal() {
    std::function<void()> cb;
    {
      std::lock_guard<std::mutex> l(mu_);
      if (ready_) return;
      ready_ = true;
      cb = std::move(cb_);
      cb_ = nullptr;
    }
    cv_.notify_all();
    if (cb) cb();
  }

  bool ready() const {
    std::lock_guard<std::mutex> l(mu_);
    return ready_;
  }

  /// Installs the wake callback, replacing one not yet run (a DEFERRABLE
  /// begin re-parks on its unsignaled token). If the token was already
  /// signaled the callback runs immediately (on this thread) — the
  /// registrar cannot lose the race against an early Signal.
  void OnSignal(std::function<void()> cb) {
    {
      std::lock_guard<std::mutex> l(mu_);
      if (!ready_) {
        cb_ = std::move(cb);
        return;
      }
    }
    cb();
  }

  /// Blocking park with a deadline; returns true if signaled. Used by
  /// embedded callers and tests; the net server never blocks on tokens
  /// (it installs OnSignal callbacks instead).
  bool WaitFor(uint64_t timeout_us) {
    std::unique_lock<std::mutex> l(mu_);
    return cv_.wait_for(l, std::chrono::microseconds(timeout_us),
                        [&] { return ready_; });
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool ready_ = false;
  std::function<void()> cb_;
};

using WaitTokenPtr = std::shared_ptr<WaitToken>;

}  // namespace pgssi::util
