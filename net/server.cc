#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "util/clock.h"
#include "util/failpoint.h"

namespace pgssi::net {

namespace {
constexpr int kEpollBatch = 64;
constexpr size_t kReadChunk = 64 * 1024;

// Begun and neither committed nor aborted.
bool InTxn(const Transaction* t) {
  return t != nullptr && t->started() && !t->finished();
}

// A statement before the connection's first Begin (or after an Abort).
// A finished handle answers for itself, with the same status, in
// Transaction::CheckActive.
Status NoOpenTransaction() {
  return Status::InvalidArgument("no open transaction");
}
}  // namespace

struct Server::Conn {
  int fd = -1;
  // The connection's current transaction: null before the first Begin;
  // a finished handle stays until the next Begin replaces it.
  std::unique_ptr<Transaction> txn;

  // Scheduling states (see header comment).
  enum : int { kIdle = 0, kQueued = 1, kRunning = 2, kRunningRequeue = 3 };
  std::atomic<int> sched{kIdle};
  // Parked on a would-block; exactly one of {token callback, deadline
  // tick} wins the exchange(false) and requeues.
  std::atomic<bool> parked{false};
  // Written before the parked_ push. Atomic because the deadline tick
  // can still see this conn listed (and parked) from its previous park
  // while a worker re-parks it; a stale read only shifts one re-poll.
  std::atomic<uint64_t> park_deadline_us{0};
  // Socket gone (EOF/error/protocol violation): the next worker pass
  // aborts the transaction and drops the remaining ops.
  std::atomic<bool> closing{false};

  // Parsed requests: epoll thread pushes, worker pops (ops_mu).
  std::mutex ops_mu;
  std::deque<Request> ops;
  bool read_paused = false;  // epoll thread only
  std::atomic<bool> want_read_rearm{false};

  std::string in;  // unparsed inbound bytes; epoll thread only

  // Outbound responses (out_mu): worker appends, epoll thread consumes.
  std::mutex out_mu;
  std::string out;
  size_t out_off = 0;
  bool epollout_armed = false;  // epoll thread only
  std::atomic<bool> write_paused{false};
  // Dedups attention-list pushes (reset by the epoll thread).
  std::atomic<bool> attn_pending{false};

  // idle -> in-txn -> awaiting-lock / committing (introspection only).
  enum class Phase : int { kIdle = 0, kInTxn, kAwaitingLock, kCommitting };
  std::atomic<int> phase{static_cast<int>(Phase::kIdle)};

  // Last inbound traffic or completed op, for the idle-in-txn sweep.
  std::atomic<uint64_t> last_activity_us{0};
};

Server::Server(Database* db, ServerOptions opts)
    : db_(db), opts_(std::move(opts)) {
  const EngineConfig& eng = db_->options().engine;
  if (opts_.workers == 0) opts_.workers = eng.net_workers;
  if (opts_.workers == 0) opts_.workers = 1;
  if (opts_.max_sessions == 0) opts_.max_sessions = eng.net_max_sessions;
  if (opts_.backpressure_ops == 0) opts_.backpressure_ops = kBackpressureOps;
  if (opts_.write_queue_bytes == 0) opts_.write_queue_bytes = kWriteQueueBytes;
  park_interval_us_ = eng.deadlock_check_interval_us;
  if (park_interval_us_ == 0) park_interval_us_ = 1000;
  idle_txn_timeout_us_ = eng.idle_in_txn_timeout_us;
  overload_retry_after_ms_ = eng.net_overload_retry_after_ms;
}

bool Server::NetFault(const char* name) {
  if (!util::FailpointFires(name)) return false;
  faults_injected_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (running_.load()) return Status::Internal("server already started");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Status::IOError("socket: " + std::string(std::strerror(errno)));
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.port);
  if (::inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen host " + opts_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 512) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError("bind/listen: " + std::string(std::strerror(err)));
  }
  socklen_t alen = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &alen);
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    Stop();
    return Status::IOError("epoll/eventfd setup failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  stopping_.store(false);
  running_.store(true);
  epoll_thread_ = std::thread([this] { EpollLoop(); });
  workers_.reserve(opts_.workers);
  for (uint32_t i = 0; i < opts_.workers; i++) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void Server::Stop() {
  if (!running_.exchange(false)) {
    // Never started (or already stopped): still release a half-built
    // listener from a failed Start.
    if (listen_fd_ >= 0) { ::close(listen_fd_); listen_fd_ = -1; }
    if (epoll_fd_ >= 0) { ::close(epoll_fd_); epoll_fd_ = -1; }
    if (wake_fd_ >= 0) { ::close(wake_fd_); wake_fd_ = -1; }
    return;
  }
  stopping_.store(true);
  {
    std::lock_guard<std::mutex> l(run_mu_);
  }
  run_cv_.notify_all();
  uint64_t one = 1;
  (void)!::write(wake_fd_, &one, sizeof(one));
  for (auto& w : workers_) w.join();
  workers_.clear();
  epoll_thread_.join();

  // Single-threaded teardown: every remaining session — live, parked,
  // or queued — gets its in-flight transaction aborted BEFORE the
  // caller may destroy the Database. Token callbacks firing during the
  // aborts (a released lock waking another parked session) only push
  // onto a run queue nobody drains anymore.
  std::unordered_set<Conn*> seen;
  std::vector<ConnPtr> all;
  for (auto& [fd, c] : conns_) {
    if (seen.insert(c.get()).second) all.push_back(c);
  }
  {
    std::lock_guard<std::mutex> l(run_mu_);
    for (auto& c : run_queue_) {
      if (seen.insert(c.get()).second) all.push_back(c);
    }
    run_queue_.clear();
  }
  {
    std::lock_guard<std::mutex> l(parked_mu_);
    for (auto& w : parked_) {
      if (auto c = w.lock()) {
        if (seen.insert(c.get()).second) all.push_back(c);
      }
    }
    parked_.clear();
  }
  for (auto& c : all) {
    if (c->txn && !c->txn->finished()) {
      shutdown_aborts_.fetch_add(1, std::memory_order_relaxed);
    }
    c->txn.reset();  // aborts an open or pending transaction
    if (c->fd >= 0) {
      ::close(c->fd);
      c->fd = -1;
    }
  }
  conns_.clear();
  {
    std::lock_guard<std::mutex> l(attn_mu_);
    attn_.clear();
  }
  if (listen_fd_ >= 0) { ::close(listen_fd_); listen_fd_ = -1; }
  if (epoll_fd_ >= 0) { ::close(epoll_fd_); epoll_fd_ = -1; }
  if (wake_fd_ >= 0) { ::close(wake_fd_); wake_fd_ = -1; }
}

Server::Stats Server::stats() const {
  Stats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.refused = refused_.load(std::memory_order_relaxed);
  s.ops_executed = ops_executed_.load(std::memory_order_relaxed);
  s.would_blocks = would_blocks_.load(std::memory_order_relaxed);
  s.read_pauses = read_pauses_.load(std::memory_order_relaxed);
  s.write_pauses = write_pauses_.load(std::memory_order_relaxed);
  s.shutdown_aborts = shutdown_aborts_.load(std::memory_order_relaxed);
  s.idle_reaped = idle_reaped_.load(std::memory_order_relaxed);
  s.rdhup_closes = rdhup_closes_.load(std::memory_order_relaxed);
  s.faults_injected = faults_injected_.load(std::memory_order_relaxed);
  return s;
}

size_t Server::active_sessions() const {
  // Approximate (epoll thread owns conns_); used by tests after quiesce.
  return conns_.size();
}

// ---------------------------------------------------------------------------
// epoll thread
// ---------------------------------------------------------------------------

void Server::EpollLoop() {
  epoll_event evs[kEpollBatch];
  while (!stopping_.load(std::memory_order_acquire)) {
    int timeout_ms = -1;
    {
      std::lock_guard<std::mutex> l(parked_mu_);
      if (!parked_.empty()) {
        timeout_ms = static_cast<int>(park_interval_us_ / 1000);
        if (timeout_ms < 1) timeout_ms = 1;
      }
    }
    if (idle_txn_timeout_us_ > 0 && !conns_.empty()) {
      // The idle-in-txn sweep needs the loop to tick even when no
      // session is parked and no socket is active.
      int sweep_ms = static_cast<int>(idle_txn_timeout_us_ / 4000);
      if (sweep_ms < 1) sweep_ms = 1;
      if (timeout_ms < 0 || sweep_ms < timeout_ms) timeout_ms = sweep_ms;
    }
    const int n = ::epoll_wait(epoll_fd_, evs, kEpollBatch, timeout_ms);
    if (stopping_.load(std::memory_order_acquire)) break;
    for (int i = 0; i < n; i++) {
      const int fd = evs[i].data.fd;
      if (fd == listen_fd_) {
        AcceptPending();
        continue;
      }
      if (fd == wake_fd_) {
        uint64_t junk;
        while (::read(wake_fd_, &junk, sizeof(junk)) > 0) {
        }
        continue;  // attention list processed below
      }
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // already closed
      ConnPtr c = it->second;
      if (evs[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConn(c);
        continue;
      }
      if ((evs[i].events & EPOLLRDHUP) && !(evs[i].events & EPOLLIN)) {
        // Peer shut down its write side and EPOLLIN is disarmed (read
        // backpressure) — RDHUP is the ONLY signal; without it a
        // vanished client whose queue tripped backpressure would hold
        // its transaction forever. (With EPOLLIN armed the read path
        // drains any final frames and sees EOF itself.)
        rdhup_closes_.fetch_add(1, std::memory_order_relaxed);
        CloseConn(c);
        continue;
      }
      if (evs[i].events & EPOLLOUT) FlushWrites(c);
      if (c->fd >= 0 && (evs[i].events & EPOLLIN)) HandleReadable(c);
    }
    // Attention list: flush worker-produced responses, re-arm paused
    // reads, resume write-paused sessions.
    std::vector<std::weak_ptr<Conn>> attn;
    {
      std::lock_guard<std::mutex> l(attn_mu_);
      attn.swap(attn_);
    }
    for (auto& w : attn) {
      ConnPtr c = w.lock();
      if (!c) continue;
      c->attn_pending.store(false, std::memory_order_release);
      if (c->fd < 0) continue;
      if (c->want_read_rearm.exchange(false) && c->read_paused) {
        c->read_paused = false;
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLRDHUP | (c->epollout_armed ? EPOLLOUT : 0u);
        ev.data.fd = c->fd;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c->fd, &ev);
      }
      FlushWrites(c);
    }
    TickParked();
    ReapIdleInTxn(NowMicros());
  }
}

void Server::AcceptPending() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error: back to epoll
    if (conns_.size() >= opts_.max_sessions ||
        NetFault("net_accept_refuse")) {
      // Refuse loudly: a kOverloaded frame with a retry-after hint (ms)
      // instead of a silent close, so clients can distinguish "come
      // back later" from a network fault. The socket buffer of a
      // just-accepted connection is empty, so the single best-effort
      // write does not block the epoll thread.
      refused_.fetch_add(1, std::memory_order_relaxed);
      std::string hint;
      PutU32(&hint, overload_retry_after_ms_);
      const std::string frame = EncodeResponse(Code::kOverloaded, hint);
      (void)!::write(fd, frame.data(), frame.size());
      // Drain whatever the client already pipelined (typically its
      // Begin frame) before closing: unread inbound bytes at close()
      // turn into an RST that discards the refusal frame client-side.
      // Non-blocking fd, so this terminates at EAGAIN immediately.
      ::shutdown(fd, SHUT_WR);
      char junk[512];
      while (::read(fd, junk, sizeof(junk)) > 0) {
      }
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto c = std::make_shared<Conn>();
    c->fd = fd;
    c->last_activity_us.store(NowMicros(), std::memory_order_relaxed);
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    conns_.emplace(fd, std::move(c));
    accepted_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::HandleReadable(const ConnPtr& c) {
  char buf[kReadChunk];
  bool eof = NetFault("net_read_err");  // injected hard read error
  for (; !eof;) {
    const ssize_t r = ::read(c->fd, buf, sizeof(buf));
    if (r > 0) {
      c->in.append(buf, static_cast<size_t>(r));
      c->last_activity_us.store(NowMicros(), std::memory_order_relaxed);
      if (static_cast<size_t>(r) < sizeof(buf)) break;
      continue;
    }
    if (r == 0) {
      eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    eof = true;  // hard error: treat as hangup
    break;
  }
  // Parse complete frames.
  size_t off = 0;
  size_t pushed = 0;
  bool protocol_error = false;
  while (c->in.size() - off >= 4) {
    uint32_t len = 0;
    std::memcpy(&len, c->in.data() + off, 4);
    if (len == 0 || len > kMaxFrameBytes) {
      protocol_error = true;
      break;
    }
    if (c->in.size() - off - 4 < len) break;
    Request req;
    if (!DecodeRequestBody({c->in.data() + off + 4, len}, &req)) {
      protocol_error = true;
      break;
    }
    off += 4 + len;
    {
      std::lock_guard<std::mutex> l(c->ops_mu);
      c->ops.push_back(std::move(req));
    }
    pushed++;
  }
  if (off > 0) c->in.erase(0, off);
  if (protocol_error || eof) {
    CloseConn(c);  // enqueues the conn so a worker aborts its session
    return;
  }
  size_t qn;
  {
    std::lock_guard<std::mutex> l(c->ops_mu);
    qn = c->ops.size();
  }
  if (qn >= opts_.backpressure_ops && !c->read_paused) {
    c->read_paused = true;
    read_pauses_.fetch_add(1, std::memory_order_relaxed);
    epoll_event ev{};
    // EPOLLRDHUP stays armed: a client that vanishes while paused must
    // still be detected (the half-open case).
    ev.events = EPOLLRDHUP | (c->epollout_armed ? EPOLLOUT : 0u);
    ev.data.fd = c->fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c->fd, &ev);
  }
  if (pushed > 0) Enqueue(c);
}

void Server::FlushWrites(const ConnPtr& c) {
  if (c->fd < 0) return;
  if (!c->closing.load(std::memory_order_acquire) &&
      NetFault("net_flush_stall")) {
    // Stalled flush: skip this pass entirely; the self-nudge retries on
    // the next loop iteration (responses are delayed, never dropped).
    NudgeEpoll(c);
    return;
  }
  bool drained_below_pause = false;
  {
    std::lock_guard<std::mutex> l(c->out_mu);
    while (c->out_off < c->out.size()) {
      // Torn/short frame write: push a single byte this pass, then stop
      // — the remainder stays queued and EPOLLOUT re-arms below, so the
      // client sees a frame arrive in arbitrary fragments.
      const size_t cap =
          NetFault("net_write_short") ? 1 : c->out.size() - c->out_off;
      const ssize_t w = ::write(c->fd, c->out.data() + c->out_off, cap);
      if (w > 0 && static_cast<size_t>(w) == cap && cap == 1 &&
          c->out_off + 1 < c->out.size()) {
        c->out_off += 1;
        break;  // deliberately leave the rest for the next pass
      }
      if (w > 0) {
        c->out_off += static_cast<size_t>(w);
        continue;
      }
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (w < 0 && errno == EINTR) continue;
      // Hard write error: drop outside the out_mu scope.
      c->out.clear();
      c->out_off = 0;
      c->closing.store(true, std::memory_order_release);
      break;
    }
    if (c->out_off == c->out.size()) {
      c->out.clear();
      c->out_off = 0;
    }
    const size_t pending = c->out.size() - c->out_off;
    const bool want_out = pending > 0;
    if (want_out != c->epollout_armed) {
      c->epollout_armed = want_out;
      epoll_event ev{};
      ev.events = EPOLLRDHUP | (c->read_paused ? 0u : EPOLLIN) |
                  (want_out ? EPOLLOUT : 0u);
      ev.data.fd = c->fd;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c->fd, &ev);
    }
    if (c->write_paused.load(std::memory_order_acquire) &&
        pending < opts_.write_queue_bytes / 2) {
      c->write_paused.store(false, std::memory_order_release);
      drained_below_pause = true;
    }
  }
  if (c->closing.load(std::memory_order_acquire)) {
    CloseConn(c);
    return;
  }
  if (drained_below_pause) Enqueue(c);
}

void Server::CloseConn(const ConnPtr& c) {
  if (c->fd >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c->fd, nullptr);
    ::close(c->fd);
    conns_.erase(c->fd);
    c->fd = -1;
  }
  c->closing.store(true, std::memory_order_release);
  // A worker pass aborts the session and drops its ops. If the conn is
  // parked, the exchange steals it from the pending wake.
  c->parked.store(false, std::memory_order_release);
  Enqueue(c);
}

void Server::TickParked() {
  const uint64_t now = NowMicros();
  std::vector<ConnPtr> due;
  {
    std::lock_guard<std::mutex> l(parked_mu_);
    size_t keep = 0;
    for (size_t i = 0; i < parked_.size(); i++) {
      ConnPtr c = parked_[i].lock();
      if (!c || !c->parked.load(std::memory_order_acquire)) continue;
      if (now >= c->park_deadline_us.load(std::memory_order_relaxed)) {
        due.push_back(std::move(c));
        continue;
      }
      // Guard against self-move: weak_ptr move-assignment onto itself
      // empties the entry and the parked session is silently forgotten.
      if (keep != i) parked_[keep] = std::move(parked_[i]);
      keep++;
    }
    parked_.resize(keep);
  }
  for (auto& c : due) {
    if (c->parked.exchange(false)) Enqueue(c);
  }
}

void Server::ReapIdleInTxn(uint64_t now) {
  if (idle_txn_timeout_us_ == 0) return;
  if (now < next_idle_sweep_us_) return;
  next_idle_sweep_us_ = now + (idle_txn_timeout_us_ / 4 > park_interval_us_
                                   ? idle_txn_timeout_us_ / 4
                                   : park_interval_us_);
  std::vector<ConnPtr> reap;
  for (auto& [fd, c] : conns_) {
    // A connection is idle-in-txn when its session holds a transaction
    // and nothing whatsoever is happening for it: not running or queued
    // on a worker, not parked on a wait, no pipelined ops buffered, no
    // inbound traffic. On the epoll thread those checks are stable —
    // every re-activation path (reads, token wakes, the deadline tick)
    // either runs on this thread or requires parked == true.
    if (c->phase.load(std::memory_order_relaxed) !=
        static_cast<int>(Conn::Phase::kInTxn)) {
      continue;
    }
    if (c->parked.load(std::memory_order_acquire)) continue;
    if (c->sched.load(std::memory_order_acquire) != Conn::kIdle) continue;
    {
      std::lock_guard<std::mutex> l(c->ops_mu);
      if (!c->ops.empty()) continue;
    }
    if (now - c->last_activity_us.load(std::memory_order_relaxed) <
        idle_txn_timeout_us_) {
      continue;
    }
    reap.push_back(c);
  }
  for (auto& c : reap) {
    idle_reaped_.fetch_add(1, std::memory_order_relaxed);
    // Best-effort FATAL-style frame (PostgreSQL's
    // idle_in_transaction_session_timeout analogue), then teardown: the
    // worker pass triggered by CloseConn aborts the transaction, which
    // releases its row locks and un-pins the snapshot horizon.
    {
      std::lock_guard<std::mutex> l(c->out_mu);
      c->out += EncodeResponse(Code::kSerializationFailure,
                               "idle-in-transaction timeout");
    }
    FlushWrites(c);
    CloseConn(c);
  }
}

void Server::NudgeEpoll(const ConnPtr& c) {
  if (c->attn_pending.exchange(true)) return;  // already listed
  {
    std::lock_guard<std::mutex> l(attn_mu_);
    attn_.push_back(c);
  }
  uint64_t one = 1;
  (void)!::write(wake_fd_, &one, sizeof(one));
}

// ---------------------------------------------------------------------------
// workers
// ---------------------------------------------------------------------------

void Server::WorkerLoop() {
  for (;;) {
    ConnPtr c;
    {
      std::unique_lock<std::mutex> l(run_mu_);
      run_cv_.wait(l, [&] {
        return stopping_.load(std::memory_order_acquire) ||
               !run_queue_.empty();
      });
      if (stopping_.load(std::memory_order_acquire)) return;
      c = std::move(run_queue_.front());
      run_queue_.pop_front();
    }
    c->sched.store(Conn::kRunning, std::memory_order_release);
    RunConn(c);
    int expected = Conn::kRunning;
    if (!c->sched.compare_exchange_strong(expected, Conn::kIdle)) {
      // A wake arrived while we ran: loop it back through the queue.
      c->sched.store(Conn::kQueued, std::memory_order_release);
      {
        std::lock_guard<std::mutex> l(run_mu_);
        run_queue_.push_back(std::move(c));
      }
      run_cv_.notify_one();
    }
  }
}

void Server::Enqueue(const ConnPtr& c) {
  for (;;) {
    int s = c->sched.load(std::memory_order_acquire);
    if (s == Conn::kQueued || s == Conn::kRunningRequeue) return;
    if (s == Conn::kIdle) {
      if (c->sched.compare_exchange_weak(s, Conn::kQueued)) {
        {
          std::lock_guard<std::mutex> l(run_mu_);
          run_queue_.push_back(c);
        }
        run_cv_.notify_one();
        return;
      }
    } else {  // kRunning
      if (c->sched.compare_exchange_weak(s, Conn::kRunningRequeue)) return;
    }
  }
}

void Server::RunConn(const ConnPtr& c) {
  for (;;) {
    if (c->closing.load(std::memory_order_acquire)) {
      // Socket gone: abort the in-flight transaction (releases its
      // locks, waking any session parked behind them) and drop the
      // remaining pipeline.
      c->txn.reset();
      std::lock_guard<std::mutex> l(c->ops_mu);
      c->ops.clear();
      return;
    }
    if (stopping_.load(std::memory_order_acquire)) return;
    if (c->write_paused.load(std::memory_order_acquire)) {
      write_pauses_.fetch_add(1, std::memory_order_relaxed);
      return;  // resumed by FlushWrites once the reader catches up
    }
    Request req;
    {
      std::lock_guard<std::mutex> l(c->ops_mu);
      if (c->ops.empty()) return;
      req = c->ops.front();  // copy: pop only after completion
    }
    if (NetFault("net_drop_before_exec")) {
      // Connection dies with the request parsed but unexecuted: loop to
      // the closing branch (abort + drop the pipeline); the epoll
      // thread closes the fd via the attention list.
      c->closing.store(true, std::memory_order_release);
      NudgeEpoll(c);
      continue;
    }
    if (!ExecuteOp(c, req)) return;  // parked
    size_t qn;
    {
      std::lock_guard<std::mutex> l(c->ops_mu);
      c->ops.pop_front();
      qn = c->ops.size();
    }
    ops_executed_.fetch_add(1, std::memory_order_relaxed);
    c->last_activity_us.store(NowMicros(), std::memory_order_relaxed);
    // If the intake was paused and we have drained half the queue, ask
    // for more.
    const size_t half = opts_.backpressure_ops / 2;
    if (qn <= half) {
      c->want_read_rearm.store(true, std::memory_order_release);
    }
    // Response bytes are waiting. Flush once the queue drains (a flight
    // of pipelined statements leaves in one write) or when a full write
    // buffer pauses execution; a park or close nudges on its own. The
    // epoll thread acts on the re-arm only when nudged, so also nudge as
    // the queue drains to half: a queue long enough to pause the intake
    // passes that point (it shrinks by one op at a time), and the intake
    // resumes while the second half runs. Only a queue longer than half
    // the threshold pays this extra flush.
    if (qn == 0 || qn == half ||
        c->write_paused.load(std::memory_order_acquire)) {
      NudgeEpoll(c);
    }
  }
}

bool Server::ExecuteOp(const ConnPtr& c, const Request& req) {
  Transaction* t = c->txn.get();
  Status st;
  std::string payload;
  switch (req.op) {
    case Op::kPing:
      break;
    case Op::kCreateTable: {
      TableId id = kInvalidTable;
      st = db_->CreateTable(req.name, &id);
      // Open-or-create: AlreadyExists still reports the id.
      if (st.ok() || st.code() == Code::kAlreadyExists) {
        payload.clear();
        PutU32(&payload, id);
        st = Status::OK();
      }
      break;
    }
    case Op::kOpenTable: {
      const TableId id = db_->GetTableId(req.name);
      if (id == kInvalidTable) {
        st = Status::NotFound("table " + req.name);
      } else {
        PutU32(&payload, id);
      }
      break;
    }
    case Op::kBegin:
      if (InTxn(t)) {
        st = Status::InvalidArgument("transaction already open");
        break;
      }
      // A re-issued parked Begin resumes its pending handle (keeping
      // the original options); otherwise a fresh handle replaces any
      // finished one.
      if (t == nullptr || t->finished()) {
        c->txn = std::make_unique<Transaction>(db_, TxnOptionsFromBegin(req));
        t = c->txn.get();
      }
      st = t->TryBegin();
      break;
    case Op::kGet: {
      std::string v;
      st = t ? t->TryGet(req.table, req.key, &v) : NoOpenTransaction();
      if (st.ok()) payload = std::move(v);
      break;
    }
    case Op::kPut:
      st = t ? t->TryPut(req.table, req.key, req.value) : NoOpenTransaction();
      break;
    case Op::kInsert:
      st = t ? t->TryInsert(req.table, req.key, req.value)
             : NoOpenTransaction();
      break;
    case Op::kDelete:
      st = t ? t->TryDelete(req.table, req.key) : NoOpenTransaction();
      break;
    case Op::kScan: {
      std::vector<std::pair<std::string, std::string>> rows;
      st = t ? t->TryScan(req.table, req.key, req.value, &rows)
             : NoOpenTransaction();
      if (st.ok()) {
        PutU32(&payload, static_cast<uint32_t>(rows.size()));
        for (const auto& [k, v] : rows) {
          PutStr16(&payload, k);
          PutStr32(&payload, v);
        }
      }
      break;
    }
    case Op::kCount: {
      uint64_t cnt = 0;
      st = t ? t->TryCount(req.table, req.key, req.value, &cnt)
             : NoOpenTransaction();
      if (st.ok()) PutU64(&payload, cnt);
      break;
    }
    case Op::kCommit:
      c->phase.store(static_cast<int>(Conn::Phase::kCommitting),
                     std::memory_order_relaxed);
      st = t ? t->TryCommit() : NoOpenTransaction();
      break;
    case Op::kAbort:
      c->txn.reset();  // never blocks; aborts an open or pending txn
      t = nullptr;
      break;
  }

  if (st.IsWouldBlock()) {
    would_blocks_.fetch_add(1, std::memory_order_relaxed);
    if (NetFault("net_drop_parked")) {
      // Connection dies exactly where it would have parked — the wait
      // registration must unwind cleanly through the abort path.
      c->closing.store(true, std::memory_order_release);
      NudgeEpoll(c);
      return true;  // RunConn's closing branch takes it from here
    }
    c->phase.store(static_cast<int>(req.op == Op::kCommit
                                        ? Conn::Phase::kCommitting
                                        : Conn::Phase::kAwaitingLock),
                   std::memory_order_relaxed);
    // Park. Order matters: mark parked, register the deadline tick,
    // THEN hook the token — a token that already fired runs the
    // callback inline and wins the exchange immediately.
    c->park_deadline_us.store(NowMicros() + park_interval_us_,
                              std::memory_order_relaxed);
    c->parked.store(true, std::memory_order_release);
    {
      std::lock_guard<std::mutex> l(parked_mu_);
      parked_.push_back(c);
    }
    // Kick the epoll thread out of a possibly-indefinite epoll_wait: on
    // a quiet server it must switch to the parked-tick timeout NOW, or
    // this session's deadline (lock wait, commit gate) never fires.
    NudgeEpoll(c);
    std::weak_ptr<Conn> w = c;
    t->wait_token()->OnSignal([this, w] {
      if (ConnPtr cc = w.lock()) {
        // Delayed/lost wake: swallow the signal and let the epoll
        // thread's deadline tick backstop the re-poll.
        if (NetFault("net_wake_delay")) return;
        if (cc->parked.exchange(false)) Enqueue(cc);
      }
    });
    return false;
  }

  if (!st.ok() && req.abort_on_error && InTxn(c->txn.get())) {
    // A failed pipelined statement aborts the transaction, so the rest
    // of its flight fails instead of committing a partial write set.
    (void)c->txn->Abort();
  }

  if (req.op == Op::kCommit && NetFault("net_drop_after_commit")) {
    // The ack-loss window: the transaction's fate is decided (commit
    // durably applied, or a definite error) but the connection dies
    // before the response frame is queued. The client MUST treat a
    // dropped commit as ambiguous — its retry observes the committed
    // state (e.g. kAlreadyExists on a re-insert) rather than an ack.
    c->closing.store(true, std::memory_order_release);
    NudgeEpoll(c);
    return true;
  }

  c->phase.store(static_cast<int>(InTxn(t) ? Conn::Phase::kInTxn
                                            : Conn::Phase::kIdle),
                 std::memory_order_relaxed);
  const std::string frame =
      EncodeResponse(st.code(), st.ok() ? payload : st.message());
  {
    std::lock_guard<std::mutex> l(c->out_mu);
    c->out += frame;
    if (c->out.size() - c->out_off > opts_.write_queue_bytes) {
      c->write_paused.store(true, std::memory_order_release);
    }
  }
  return true;
}

}  // namespace pgssi::net
