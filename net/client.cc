#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <random>

#include "util/failpoint.h"

namespace pgssi::net {

namespace {

constexpr size_t kReadChunk = 64 * 1024;

// Per-thread jitter source for Begin's backoff loop (deterministic per
// thread, no cross-thread locking on the hot retry path).
uint64_t JitterUs(uint64_t backoff_us) {
  thread_local std::mt19937_64 rng(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) ^
      0x5bd1e995u);
  return backoff_us == 0 ? 0 : rng() % backoff_us;
}

void SleepUs(uint64_t us) {
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

}  // namespace

WireClient::~WireClient() { Close(); }

Status WireClient::Connect(const std::string& host, uint16_t port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return Status::IOError("socket: " + std::string(std::strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument("bad host " + host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    Close();
    return Status::IOError("connect: " + std::string(std::strerror(err)));
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Status::OK();
}

void WireClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  // Unparsed bytes belong to the dead connection, never the next one.
  in_begin_ = in_end_ = 0;
}

Status WireClient::Fail(Status st) {
  Close();
  return st;
}

Status WireClient::Send(std::string_view frames) {
  if (fd_ < 0) return Status::IOError("not connected");
  round_trips_.fetch_add(1, std::memory_order_relaxed);
  if (util::FailpointFires("wireclient_write_err")) {
    return Fail(Status::IOError("injected client write fault"));
  }
  const char* p = frames.data();
  size_t n = frames.size();
  if (util::FailpointFires("wireclient_torn_write")) {
    // Half the flight reaches the server, then the socket dies: the
    // server is left holding a truncated frame and must clean up when
    // the connection closes.
    size_t half = n / 2;
    while (half > 0) {
      const ssize_t w = ::send(fd_, p, half, MSG_NOSIGNAL);
      if (w <= 0) break;
      p += w;
      half -= static_cast<size_t>(w);
    }
    return Fail(Status::IOError("injected torn client write"));
  }
  while (n > 0) {
    const ssize_t w = ::send(fd_, p, n, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (w > 0) {
      p += w;
      n -= static_cast<size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // The socket is full. The server may be waiting for us to read
      // its responses before it reads more, so read while we wait.
      pollfd pfd{fd_, POLLIN | POLLOUT, 0};
      if (::poll(&pfd, 1, -1) < 0 && errno != EINTR) break;
      if (pfd.revents & POLLIN) {
        Status st = Fill();
        if (!st.ok()) return st;
      }
      continue;
    }
    break;
  }
  if (n == 0) return Status::OK();
  return Fail(Status::IOError("write: " + std::string(std::strerror(errno))));
}

Status WireClient::Fill() {
  if (in_begin_ == in_end_) in_begin_ = in_end_ = 0;
  if (in_end_ == in_.size()) {
    if (in_begin_ > 0) {  // compact
      std::memmove(in_.data(), in_.data() + in_begin_, in_end_ - in_begin_);
      in_end_ -= in_begin_;
      in_begin_ = 0;
    }
    if (in_end_ == in_.size()) in_.resize(std::max<size_t>(in_.size() * 2, kReadChunk));
  }
  for (;;) {
    const ssize_t r = ::read(fd_, in_.data() + in_end_, in_.size() - in_end_);
    if (r > 0) {
      in_end_ += static_cast<size_t>(r);
      return Status::OK();
    }
    if (r < 0 && errno == EINTR) continue;
    if (r == 0) return Fail(Status::IOError("connection closed by server"));
    return Fail(Status::IOError("read: " + std::string(std::strerror(errno))));
  }
}

Status WireClient::Receive(Status* reply, std::string* payload) {
  if (fd_ < 0) return Status::IOError("not connected");
  if (util::FailpointFires("wireclient_read_err")) {
    // The request may already have executed server-side; losing the
    // response here is the ambiguous-ack window for commits.
    return Fail(Status::IOError("injected client read fault"));
  }
  uint32_t len = 0;
  for (;;) {
    const size_t avail = in_end_ - in_begin_;
    if (avail >= 4) {
      std::memcpy(&len, in_.data() + in_begin_, 4);
      if (len == 0 || len > kMaxFrameBytes) {
        return Fail(Status::IOError("bad response frame length"));
      }
      if (avail - 4 >= len) break;
    }
    Status st = Fill();
    if (!st.ok()) return st;
  }
  const char* body = in_.data() + in_begin_ + 4;
  in_begin_ += 4 + len;
  const uint8_t code = static_cast<uint8_t>(body[0]);
  std::string_view rest(body + 1, len - 1);
  if (code == static_cast<uint8_t>(Code::kOk)) {
    if (payload) payload->assign(rest);
    *reply = Status::OK();
  } else if (code == static_cast<uint8_t>(Code::kOverloaded)) {
    // Admission refusal: the payload is a retry-after hint, not an
    // error message, and the server has already closed its side.
    last_retry_after_ms_ = RetryAfterMsFromOverloaded(rest);
    Close();
    *reply = Status::Overloaded("server overloaded; retry after " +
                                std::to_string(last_retry_after_ms_) + "ms");
  } else {
    *reply = StatusFromWire(code, std::string(rest));
  }
  return Status::OK();
}

Status WireClient::Call(const Request& req, std::string* payload) {
  Status st = Send(EncodeRequest(req));
  Status reply;
  if (st.ok()) st = Receive(&reply, payload);
  return st.ok() ? reply : st;
}

Status WireClient::Ping() {
  Request r;
  r.op = Op::kPing;
  return Call(r, nullptr);
}

Status WireClient::CreateTable(const std::string& name, TableId* id) {
  Request r;
  r.op = Op::kCreateTable;
  r.name = name;
  std::string payload;
  Status st = Call(r, &payload);
  // The server folds kAlreadyExists into kOk-with-id (open-or-create),
  // so any OK response carries the id.
  if (st.ok() && id) {
    Reader rd(payload);
    *id = rd.U32();
    if (!rd.ok) return Status::Internal("short CreateTable response");
  }
  return st;
}

Status WireClient::OpenTable(const std::string& name, TableId* id) {
  Request r;
  r.op = Op::kOpenTable;
  r.name = name;
  std::string payload;
  Status st = Call(r, &payload);
  if (st.ok() && id) {
    Reader rd(payload);
    *id = rd.U32();
    if (!rd.ok) return Status::Internal("short OpenTable response");
  }
  return st;
}

Status WireClient::Begin(const TxnOptions& opts) {
  return Call(BeginRequest(opts), nullptr);
}

Status WireClient::Get(TableId table, const std::string& key,
                       std::string* value) {
  Request r;
  r.op = Op::kGet;
  r.table = table;
  r.key = key;
  return Call(r, value);
}

Status WireClient::Put(TableId table, const std::string& key,
                       const std::string& value) {
  Request r;
  r.op = Op::kPut;
  r.table = table;
  r.key = key;
  r.value = value;
  return Call(r, nullptr);
}

Status WireClient::Insert(TableId table, const std::string& key,
                          const std::string& value) {
  Request r;
  r.op = Op::kInsert;
  r.table = table;
  r.key = key;
  r.value = value;
  return Call(r, nullptr);
}

Status WireClient::Delete(TableId table, const std::string& key) {
  Request r;
  r.op = Op::kDelete;
  r.table = table;
  r.key = key;
  return Call(r, nullptr);
}

Status WireClient::Scan(TableId table, const std::string& lo,
                        const std::string& hi,
                        std::vector<std::pair<std::string, std::string>>* out) {
  Request r;
  r.op = Op::kScan;
  r.table = table;
  r.key = lo;
  r.value = hi;
  std::string payload;
  Status st = Call(r, &payload);
  if (!st.ok()) return st;
  Reader rd(payload);
  const uint32_t n = rd.U32();
  if (out) out->clear();
  for (uint32_t i = 0; i < n && rd.ok; i++) {
    std::string k = rd.Str16();
    std::string v = rd.Str32();
    if (rd.ok && out) out->emplace_back(std::move(k), std::move(v));
  }
  if (!rd.ok) return Status::Internal("malformed Scan response");
  return Status::OK();
}

Status WireClient::Count(TableId table, const std::string& lo,
                         const std::string& hi, uint64_t* n) {
  Request r;
  r.op = Op::kCount;
  r.table = table;
  r.key = lo;
  r.value = hi;
  std::string payload;
  Status st = Call(r, &payload);
  if (st.ok() && n) {
    Reader rd(payload);
    *n = rd.U64();
    if (!rd.ok) return Status::Internal("short Count response");
  }
  return st;
}

Status WireClient::Commit() {
  Request r;
  r.op = Op::kCommit;
  return Call(r, nullptr);
}

Status WireClient::Abort() {
  Request r;
  r.op = Op::kAbort;
  return Call(r, nullptr);
}

// ----- WireTxn -----

WireTxn::~WireTxn() {
  if (!pending_.empty()) {
    // The caller's out-params and status slots may already be gone.
    for (Pending& p : pending_) p = {p.kind, nullptr, nullptr, nullptr};
    (void)Sync();
  }
  if (!finished_ && c_->connected()) (void)c_->Abort();
}

void WireTxn::Issue(const Stmt& s) {
  static constexpr Op kOps[] = {Op::kGet, Op::kPut, Op::kInsert, Op::kCount,
                                Op::kCommit};
  const std::string_view none;
  AppendStatement(&frames_, kOps[s.kind], s.abort_on_error, s.table,
                  s.key ? std::string_view(*s.key) : none,
                  s.value ? std::string_view(*s.value) : none);
  pending_.push_back({s.kind, s.get_out, s.count_out, s.status});
  if (s.kind == Stmt::kCommit) finished_ = true;
}

Status WireTxn::Sync() {
  if (pending_.empty()) return DbTxn::Sync();
  Status io = c_->Send(frames_);
  frames_.clear();
  std::string payload;
  for (const Pending& p : pending_) {
    Status reply;
    if (io.ok()) {
      io = c_->Receive(&reply,
                       p.kind == Stmt::kGet && p.get_out ? p.get_out : &payload);
    }
    if (!io.ok()) {
      reply = io;  // the connection is gone: so is every later response
    } else if (reply.ok() && p.kind == Stmt::kCount) {
      Reader rd(payload);
      const uint64_t n = rd.U64();
      if (!rd.ok) {
        reply = Status::Internal("short Count response");
      } else if (p.count_out) {
        *p.count_out = n;
      }
    }
    Complete(p.status, std::move(reply));
  }
  pending_.clear();
  return DbTxn::Sync();
}

// ----- WireDbClient -----

WireClient* WireDbClient::Conn() {
  const std::thread::id me = std::this_thread::get_id();
  {
    std::lock_guard<std::mutex> l(mu_);
    auto it = conns_.find(me);
    if (it != conns_.end()) {
      WireClient* c = it->second.get();
      if (c->connected()) return c;
      // The cached connection died (fault, refusal, server-side kill):
      // re-dial in place so the thread keeps its slot.
      reconnects_.fetch_add(1, std::memory_order_relaxed);
      if (!c->Connect(host_, port_).ok()) return nullptr;
      return c;
    }
  }
  auto c = std::make_unique<WireClient>();
  if (!c->Connect(host_, port_).ok()) return nullptr;
  std::lock_guard<std::mutex> l(mu_);
  return conns_.emplace(me, std::move(c)).first->second.get();
}

uint64_t WireDbClient::round_trips() {
  std::lock_guard<std::mutex> l(mu_);
  uint64_t n = 0;
  for (const auto& [id, c] : conns_) n += c->round_trips();
  return n;
}

Status WireDbClient::CreateTable(const std::string& name, TableId* id) {
  WireClient* c = Conn();
  if (!c) return Status::IOError("connect to " + host_ + " failed");
  return c->CreateTable(name, id);  // server folds AlreadyExists into OK+id
}

TableId WireDbClient::GetTableId(const std::string& name) {
  WireClient* c = Conn();
  if (!c) return kInvalidTable;
  TableId id = kInvalidTable;
  if (!c->OpenTable(name, &id).ok()) return kInvalidTable;
  return id;
}

std::unique_ptr<workload::DbTxn> WireDbClient::Begin(const TxnOptions& opts) {
  uint64_t backoff_us = retry_.base_backoff_us;
  const uint32_t attempts = std::max<uint32_t>(1, retry_.max_attempts);
  for (uint32_t attempt = 0; attempt < attempts; attempt++) {
    if (attempt > 0) {
      SleepUs(backoff_us + JitterUs(backoff_us));
      backoff_us = std::min(backoff_us * 2, retry_.max_backoff_us);
    }
    WireClient* c = Conn();
    if (!c) continue;  // connect refused/failed: back off and re-dial
    const Status st = c->Begin(opts);
    if (st.ok()) return std::make_unique<WireTxn>(c);
    if (st.code() == Code::kOverloaded) {
      overload_refusals_.fetch_add(1, std::memory_order_relaxed);
      // Honor the server's hint when it exceeds our own backoff.
      backoff_us = std::max(backoff_us,
                            uint64_t{c->last_retry_after_ms()} * 1000);
      backoff_us = std::min(backoff_us, retry_.max_backoff_us);
      continue;
    }
    if (st.code() == Code::kIOError) {
      continue;  // dead conn: Conn() re-dials next lap
    }
    return nullptr;  // non-retryable engine error
  }
  return nullptr;
}

}  // namespace pgssi::net
