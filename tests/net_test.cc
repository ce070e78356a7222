// Network front end tests: wire round trips, pipelining under op-queue
// backpressure, connection storms with sessions >> workers, slow
// clients pinning OldestActiveSnapshot, DEFERRABLE over the wire, and
// shutdown with live parked sessions (the ASan regression for the
// Database destruction contract).
#include "net/server.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "util/failpoint.h"

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define PGSSI_STRESS_SCALE 4
#else
#define PGSSI_STRESS_SCALE 1
#endif

namespace pgssi {
namespace {

using net::Op;
using net::Request;
using net::Server;
using net::ServerOptions;
using net::WireClient;

struct ServerFixture {
  explicit ServerFixture(ServerOptions so = {},
                         DatabaseOptions dbo = DatabaseOptions{}) {
    db = Database::Open(dbo);
    server = std::make_unique<Server>(db.get(), so);
    Status st = server->Start();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  ~ServerFixture() {
    server->Stop();
    server.reset();
    db.reset();
  }
  uint16_t port() const { return server->port(); }

  std::unique_ptr<Database> db;
  std::unique_ptr<Server> server;
};

TEST(NetTest, WireRoundTrip) {
  ServerFixture f;
  WireClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", f.port()).ok());
  ASSERT_TRUE(c.Ping().ok());

  TableId t = kInvalidTable;
  ASSERT_TRUE(c.CreateTable("t", &t).ok());
  ASSERT_NE(t, kInvalidTable);
  TableId t2 = kInvalidTable;
  ASSERT_TRUE(c.CreateTable("t", &t2).ok());  // open-or-create
  EXPECT_EQ(t2, t);
  TableId t3 = kInvalidTable;
  ASSERT_TRUE(c.OpenTable("t", &t3).ok());
  EXPECT_EQ(t3, t);
  EXPECT_EQ(c.OpenTable("missing", &t3).code(), Code::kNotFound);

  ASSERT_TRUE(c.Begin({.isolation = IsolationLevel::kSerializable}).ok());
  ASSERT_TRUE(c.Put(t, "a", "1").ok());
  ASSERT_TRUE(c.Insert(t, "b", "2").ok());
  std::string v;
  ASSERT_TRUE(c.Get(t, "a", &v).ok());
  EXPECT_EQ(v, "1");
  EXPECT_EQ(c.Get(t, "zzz", &v).code(), Code::kNotFound);
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(c.Scan(t, "a", "z", &rows).ok());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].first, "a");
  EXPECT_EQ(rows[1].second, "2");
  uint64_t n = 0;
  ASSERT_TRUE(c.Count(t, "a", "z", &n).ok());
  EXPECT_EQ(n, 2u);
  ASSERT_TRUE(c.Delete(t, "b").ok());
  ASSERT_TRUE(c.Commit().ok());

  // A second transaction on the same connection sees the commit.
  ASSERT_TRUE(c.Begin().ok());
  ASSERT_TRUE(c.Get(t, "a", &v).ok());
  EXPECT_EQ(v, "1");
  EXPECT_EQ(c.Get(t, "b", &v).code(), Code::kNotFound);
  ASSERT_TRUE(c.Abort().ok());

  // Steps without an open transaction are InvalidArgument, not fatal.
  EXPECT_EQ(c.Put(t, "x", "y").code(), Code::kInvalidArgument);
  EXPECT_TRUE(c.Ping().ok());
}

// Writes every request frame in one burst, then reads all responses:
// exercises frame reassembly, the op-queue backpressure (tiny
// backpressure_ops forces repeated EPOLLIN disarm/re-arm), and strict
// response ordering.
TEST(NetTest, PipelinedRequestsKeepOrderUnderBackpressure) {
  ServerOptions so;
  so.backpressure_ops = 2;
  ServerFixture f(so);
  WireClient setup;
  ASSERT_TRUE(setup.Connect("127.0.0.1", f.port()).ok());
  TableId t = kInvalidTable;
  ASSERT_TRUE(setup.CreateTable("t", &t).ok());

  const int kKeys = 64;
  // Raw pipelined socket: one giant write, then drain responses.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(f.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  std::string burst;
  burst += net::EncodeRequest(net::BeginRequest({}));
  for (int i = 0; i < kKeys; i++) {
    Request r;
    r.op = Op::kPut;
    r.table = t;
    r.key = "k" + std::to_string(i);
    r.value = "v" + std::to_string(i);
    burst += net::EncodeRequest(r);
  }
  for (int i = 0; i < kKeys; i++) {
    Request r;
    r.op = Op::kGet;
    r.table = t;
    r.key = "k" + std::to_string(i);
    burst += net::EncodeRequest(r);
  }
  {
    Request r;
    r.op = Op::kCommit;
    burst += net::EncodeRequest(r);
  }
  size_t off = 0;
  while (off < burst.size()) {
    ssize_t w = ::write(fd, burst.data() + off, burst.size() - off);
    ASSERT_GT(w, 0);
    off += static_cast<size_t>(w);
  }

  auto read_frame = [&](uint8_t* code, std::string* payload) {
    char lenbuf[4];
    size_t got = 0;
    while (got < 4) {
      ssize_t r = ::read(fd, lenbuf + got, 4 - got);
      ASSERT_GT(r, 0);
      got += static_cast<size_t>(r);
    }
    uint32_t len = 0;
    std::memcpy(&len, lenbuf, 4);
    ASSERT_GE(len, 1u);
    std::string body(len, '\0');
    got = 0;
    while (got < len) {
      ssize_t r = ::read(fd, body.data() + got, len - got);
      ASSERT_GT(r, 0);
      got += static_cast<size_t>(r);
    }
    *code = static_cast<uint8_t>(body[0]);
    *payload = body.substr(1);
  };

  uint8_t code;
  std::string payload;
  // 1 begin + kKeys puts: all OK, in order.
  for (int i = 0; i < 1 + kKeys; i++) {
    read_frame(&code, &payload);
    ASSERT_EQ(code, static_cast<uint8_t>(Code::kOk)) << "frame " << i;
  }
  // kKeys gets: payloads must come back in request order.
  for (int i = 0; i < kKeys; i++) {
    read_frame(&code, &payload);
    ASSERT_EQ(code, static_cast<uint8_t>(Code::kOk));
    EXPECT_EQ(payload, "v" + std::to_string(i));
  }
  read_frame(&code, &payload);  // commit
  EXPECT_EQ(code, static_cast<uint8_t>(Code::kOk));
  ::close(fd);

  EXPECT_GT(f.server->stats().read_pauses, 0u)
      << "backpressure_ops=2 should have paused reads during the burst";
}

TEST(NetTest, ConnectionStormSessionsFarExceedWorkers) {
  ServerOptions so;
  so.workers = 2;
  ServerFixture f(so);
  WireClient setup;
  ASSERT_TRUE(setup.Connect("127.0.0.1", f.port()).ok());
  TableId t = kInvalidTable;
  ASSERT_TRUE(setup.CreateTable("t", &t).ok());

  constexpr int kConns = 48;  // 24x the worker count
  constexpr int kTxnsPer = 8 / (PGSSI_STRESS_SCALE > 1 ? 2 : 1);
  std::atomic<int> committed{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kConns);
  for (int i = 0; i < kConns; i++) {
    threads.emplace_back([&, i] {
      WireClient c;
      ASSERT_TRUE(c.Connect("127.0.0.1", f.port()).ok());
      for (int j = 0; j < kTxnsPer; j++) {
        Status st = c.Begin({.isolation = IsolationLevel::kSerializable});
        ASSERT_TRUE(st.ok()) << st.ToString();
        const std::string key =
            "c" + std::to_string(i) + "-" + std::to_string(j);
        st = c.Put(t, key, "v");
        // Contended serializable traffic may doom the txn; both commit
        // and serialization failure are acceptable — lost responses or
        // transport errors are not.
        if (st.ok()) st = c.Commit();
        if (st.ok()) {
          committed.fetch_add(1);
        } else {
          ASSERT_TRUE(st.IsSerializationFailure() ||
                      st.code() == Code::kInvalidArgument)
              << st.ToString();
          failures.fetch_add(1);
          (void)c.Abort();
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  // Every request got a response: nothing lost, every attempt accounted.
  EXPECT_EQ(committed.load() + failures.load(), kConns * kTxnsPer);
  EXPECT_GT(committed.load(), 0);
  EXPECT_GE(f.server->stats().accepted, static_cast<uint64_t>(kConns));

  // All sessions idle; each thread's key set is fully present.
  ASSERT_TRUE(setup.Begin().ok());
  uint64_t n = 0;
  ASSERT_TRUE(setup.Count(t, "c", "d", &n).ok());
  EXPECT_EQ(n, static_cast<uint64_t>(committed.load()));
  ASSERT_TRUE(setup.Commit().ok());
}

TEST(NetTest, SlowClientPinsOldestActiveSnapshot) {
  ServerFixture f;
  WireClient setup;
  ASSERT_TRUE(setup.Connect("127.0.0.1", f.port()).ok());
  TableId t = kInvalidTable;
  ASSERT_TRUE(setup.CreateTable("t", &t).ok());
  ASSERT_TRUE(setup.Begin().ok());
  ASSERT_TRUE(setup.Put(t, "k", "0").ok());
  ASSERT_TRUE(setup.Commit().ok());

  // A wire session that opened a txn and went silent still pins the
  // snapshot horizon (it is a live transaction, not a thread).
  WireClient slow;
  ASSERT_TRUE(slow.Connect("127.0.0.1", f.port()).ok());
  ASSERT_TRUE(slow.Begin({.isolation = IsolationLevel::kSerializable}).ok());
  std::string v;
  ASSERT_TRUE(slow.Get(t, "k", &v).ok());

  const uint64_t pinned = f.db->OldestActiveSnapshot();
  ASSERT_NE(pinned, UINT64_MAX);
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(setup.Begin().ok());
    ASSERT_TRUE(setup.Put(t, "k", std::to_string(i)).ok());
    ASSERT_TRUE(setup.Commit().ok());
  }
  EXPECT_EQ(f.db->OldestActiveSnapshot(), pinned)
      << "idle wire session must keep pinning the horizon";

  // Its snapshot is also still consistent after all that traffic.
  ASSERT_TRUE(slow.Get(t, "k", &v).ok());
  EXPECT_EQ(v, "0");
  ASSERT_TRUE(slow.Commit().ok());
  EXPECT_EQ(f.db->OldestActiveSnapshot(), UINT64_MAX);
}

TEST(NetTest, DeferrableOverTheWireGetsSafeSnapshot) {
  ServerFixture f;
  WireClient setup;
  ASSERT_TRUE(setup.Connect("127.0.0.1", f.port()).ok());
  TableId t = kInvalidTable;
  ASSERT_TRUE(setup.CreateTable("t", &t).ok());
  ASSERT_TRUE(setup.Begin().ok());
  ASSERT_TRUE(setup.Put(t, "k", "0").ok());
  ASSERT_TRUE(setup.Commit().ok());

  // Hold a serializable RW txn open so the DEFERRABLE begin must wait
  // (parked server-side on the deadline poll; the response is simply
  // delayed — the wire never sees kWouldBlock).
  ASSERT_TRUE(setup.Begin({.isolation = IsolationLevel::kSerializable}).ok());
  ASSERT_TRUE(setup.Put(t, "k", "1").ok());

  std::atomic<bool> began{false};
  std::string seen;
  std::thread deferrable([&] {
    WireClient c;
    ASSERT_TRUE(c.Connect("127.0.0.1", f.port()).ok());
    Status st = c.Begin({.isolation = IsolationLevel::kSerializable,
                         .read_only = true,
                         .deferrable = true});
    began.store(true);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_TRUE(c.Get(t, "k", &seen).ok());
    ASSERT_TRUE(c.Commit().ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(began.load())
      << "DEFERRABLE begin must wait out the concurrent RW txn";
  ASSERT_TRUE(setup.Commit().ok());
  deferrable.join();
  // The RW commit had no dangerous out-edge, so the original snapshot
  // was safe and retained: the DEFERRABLE txn serializes before the RW
  // txn and sees the pre-commit value.
  EXPECT_EQ(seen, "0");
}

// ----- malformed wire input -----
// Every malformed byte stream must end the same way: the connection is
// closed, the session's transaction is aborted (nothing keeps pinning
// the snapshot horizon or holding row locks), and the server keeps
// serving well-formed clients. ASan/LSan in CI additionally prove the
// teardown leaks nothing.

int RawConnect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

void SendAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t w = ::write(fd, bytes.data() + off, bytes.size() - off);
    ASSERT_GT(w, 0);
    off += static_cast<size_t>(w);
  }
}

// Polls until no transaction pins the horizon and no row locks remain:
// the server noticed the broken connection and aborted its session.
::testing::AssertionResult ConvergedClean(Database* db, int timeout_ms = 5000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    if (db->OldestActiveSnapshot() == UINT64_MAX && db->RowLockCount() == 0) {
      return ::testing::AssertionSuccess();
    }
    if (std::chrono::steady_clock::now() > deadline) {
      return ::testing::AssertionFailure()
             << "sessions/locks leaked: oldest="
             << db->OldestActiveSnapshot()
             << " row_locks=" << db->RowLockCount();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

// One valid in-txn frame first, so the malformed bytes kill a session
// that actually holds state — then the horizon must clear.
void ExpectMalformedKillsSession(ServerFixture* f, TableId t,
                                 const std::string& malformed) {
  int fd = RawConnect(f->port());
  std::string stream = net::EncodeRequest(net::BeginRequest(
      {.isolation = IsolationLevel::kSerializable}));
  Request put;
  put.op = Op::kPut;
  put.table = t;
  put.key = "poison";
  put.value = "v";
  stream += net::EncodeRequest(put);
  stream += malformed;
  SendAll(fd, stream);
  // The server closes; reads eventually return EOF or ECONNRESET, never
  // a hang.
  char buf[256];
  for (;;) {
    ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r <= 0) break;
  }
  ::close(fd);
  EXPECT_TRUE(ConvergedClean(f->db.get()));

  // The server is still healthy for well-formed clients.
  WireClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", f->port()).ok());
  ASSERT_TRUE(c.Begin().ok());
  ASSERT_TRUE(c.Put(t, "healthy", "1").ok());
  ASSERT_TRUE(c.Commit().ok());
}

TEST(NetTest, MalformedOversizedLengthPrefixDropsConnection) {
  ServerFixture f;
  WireClient setup;
  ASSERT_TRUE(setup.Connect("127.0.0.1", f.port()).ok());
  TableId t = kInvalidTable;
  ASSERT_TRUE(setup.CreateTable("t", &t).ok());
  std::string malformed;
  net::PutU32(&malformed, net::kMaxFrameBytes + 1);
  ExpectMalformedKillsSession(&f, t, malformed);
}

TEST(NetTest, MalformedZeroLengthPrefixDropsConnection) {
  ServerFixture f;
  WireClient setup;
  ASSERT_TRUE(setup.Connect("127.0.0.1", f.port()).ok());
  TableId t = kInvalidTable;
  ASSERT_TRUE(setup.CreateTable("t", &t).ok());
  std::string malformed;
  net::PutU32(&malformed, 0);
  ExpectMalformedKillsSession(&f, t, malformed);
}

TEST(NetTest, MalformedUnknownOpcodeDropsConnection) {
  ServerFixture f;
  WireClient setup;
  ASSERT_TRUE(setup.Connect("127.0.0.1", f.port()).ok());
  TableId t = kInvalidTable;
  ASSERT_TRUE(setup.CreateTable("t", &t).ok());
  std::string malformed;
  net::PutU32(&malformed, 1);
  net::PutU8(&malformed, 0xEE);
  ExpectMalformedKillsSession(&f, t, malformed);
}

TEST(NetTest, MalformedTruncatedFieldDropsConnection) {
  ServerFixture f;
  WireClient setup;
  ASSERT_TRUE(setup.Connect("127.0.0.1", f.port()).ok());
  TableId t = kInvalidTable;
  ASSERT_TRUE(setup.CreateTable("t", &t).ok());
  // A kPut whose declared frame length cuts the value field short: the
  // frame is complete length-wise but DecodeRequestBody must reject it.
  std::string body;
  net::PutU8(&body, static_cast<uint8_t>(Op::kPut));
  net::PutU32(&body, t);
  net::PutStr16(&body, "k");
  net::PutU32(&body, 100);  // value claims 100 bytes...
  body += "short";          // ...but only 5 follow
  std::string malformed;
  net::PutU32(&malformed, static_cast<uint32_t>(body.size()));
  malformed += body;
  ExpectMalformedKillsSession(&f, t, malformed);
}

// A connection torn down at EVERY byte boundary of a valid request
// stream: whatever complete frames made it through execute, the rest is
// discarded, and the half-dead session is always reaped.
TEST(NetTest, TruncatedStreamAtEveryByteBoundaryConvergesClean) {
  ServerOptions so;
  so.max_sessions = 256;  // teardown is async; allow brief overlap
  ServerFixture f(so);
  WireClient setup;
  ASSERT_TRUE(setup.Connect("127.0.0.1", f.port()).ok());
  TableId t = kInvalidTable;
  ASSERT_TRUE(setup.CreateTable("t", &t).ok());

  std::string stream = net::EncodeRequest(net::BeginRequest(
      {.isolation = IsolationLevel::kSerializable}));
  Request put;
  put.op = Op::kPut;
  put.table = t;
  put.key = "trunc";
  put.value = "v";
  stream += net::EncodeRequest(put);
  Request commit;
  commit.op = Op::kCommit;
  stream += net::EncodeRequest(commit);

  for (size_t cut = 1; cut < stream.size(); cut++) {
    int fd = RawConnect(f.port());
    SendAll(fd, stream.substr(0, cut));
    ::close(fd);
  }
  EXPECT_TRUE(ConvergedClean(f.db.get()));

  // Still healthy end to end.
  WireClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", f.port()).ok());
  ASSERT_TRUE(c.Begin().ok());
  std::string v;
  Status st = c.Get(t, "trunc", &v);
  EXPECT_TRUE(st.ok() || st.code() == Code::kNotFound) << st.ToString();
  ASSERT_TRUE(c.Commit().ok());
}

// Admission refusal is a protocol message: a client over max_sessions
// reads a kOverloaded frame carrying the configured retry-after hint.
TEST(NetTest, OverloadRefusalCarriesRetryAfterHint) {
  ServerOptions so;
  so.max_sessions = 1;
  DatabaseOptions dbo;
  dbo.engine.net_overload_retry_after_ms = 7;
  ServerFixture f(so, dbo);
  WireClient holder;
  ASSERT_TRUE(holder.Connect("127.0.0.1", f.port()).ok());
  ASSERT_TRUE(holder.Ping().ok());  // session occupies the only slot

  // Read-only raw socket: no outbound write means no RST race — the
  // refusal frame and FIN arrive untouched.
  int fd = RawConnect(f.port());
  std::string got;
  char buf[64];
  for (;;) {
    ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r <= 0) break;
    got.append(buf, static_cast<size_t>(r));
  }
  ::close(fd);
  ASSERT_GE(got.size(), 9u) << "expected a full kOverloaded frame";
  uint32_t len = 0;
  std::memcpy(&len, got.data(), 4);
  ASSERT_EQ(len, 5u);
  EXPECT_EQ(static_cast<uint8_t>(got[4]),
            static_cast<uint8_t>(Code::kOverloaded));
  EXPECT_EQ(net::RetryAfterMsFromOverloaded(got.substr(5)), 7u);
  EXPECT_GE(f.server->stats().refused, 1u);

  // The WireClient surfaces it as Status::Overloaded with the hint.
  WireClient refused;
  ASSERT_TRUE(refused.Connect("127.0.0.1", f.port()).ok());
  Status st = refused.Ping();
  if (st.code() == Code::kOverloaded) {
    EXPECT_EQ(refused.last_retry_after_ms(), 7u);
  } else {
    // The refusal frame can lose a race with our own write (RST); the
    // degradation contract only promises a clean failure, never a hang.
    EXPECT_EQ(st.code(), Code::kIOError) << st.ToString();
  }
}

TEST(NetTest, StopAbortsInFlightAndParkedSessions) {
  DatabaseOptions dbo;
  dbo.serializable_impl = SerializableImpl::kS2PL;
  ServerOptions so;
  so.workers = 2;
  auto f = std::make_unique<ServerFixture>(so, dbo);
  WireClient setup;
  ASSERT_TRUE(setup.Connect("127.0.0.1", f->port()).ok());
  TableId t = kInvalidTable;
  ASSERT_TRUE(setup.CreateTable("t", &t).ok());
  ASSERT_TRUE(setup.Begin().ok());
  ASSERT_TRUE(setup.Put(t, "k", "0").ok());
  ASSERT_TRUE(setup.Commit().ok());

  // Session A holds the row lock with its txn open; session B parks on
  // it (its Put response will never arrive).
  WireClient a;
  ASSERT_TRUE(a.Connect("127.0.0.1", f->port()).ok());
  ASSERT_TRUE(a.Begin({.isolation = IsolationLevel::kSerializable}).ok());
  ASSERT_TRUE(a.Put(t, "k", "a").ok());

  std::thread blocked([&f] {
    WireClient b;
    ASSERT_TRUE(b.Connect("127.0.0.1", f->port()).ok());
    ASSERT_TRUE(b.Begin({.isolation = IsolationLevel::kSerializable}).ok());
    TableId tt = kInvalidTable;
    ASSERT_TRUE(b.OpenTable("t", &tt).ok());
    // Parked behind A until shutdown tears the connection down; any
    // outcome except a hang is fine.
    (void)b.Put(tt, "k", "b");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Stop with one live in-txn session and one parked session: both
  // in-flight transactions must be aborted before the Database dies
  // (ASan verifies nothing leaks and nothing dangles).
  f->server->Stop();
  EXPECT_GE(f->server->stats().shutdown_aborts, 2u);
  f.reset();
  blocked.join();
}

// ----- pipelined flights (WireTxn) -----

// A flagged statement that fails aborts the transaction server-side: the
// queued Commit behind it fails and the flight's earlier write is gone.
TEST(NetTest, FlightFailedStatementAbortsTransaction) {
  ServerFixture f;
  WireClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", f.port()).ok());
  TableId t = kInvalidTable;
  ASSERT_TRUE(c.CreateTable("t", &t).ok());
  ASSERT_TRUE(c.Begin({.isolation = IsolationLevel::kSerializable}).ok());
  {
    net::WireTxn txn(&c);
    Status first, bad, commit;
    txn.QueuePut(t, "a", "1", &first);
    txn.QueuePut(t + 100, "b", "2", &bad);  // no such table
    txn.QueueCommit(&commit);
    const Status st = txn.Sync();
    EXPECT_EQ(st.code(), Code::kInvalidArgument) << st.ToString();
    EXPECT_EQ(st.message(), bad.message());
    EXPECT_TRUE(first.ok()) << first.ToString();
    EXPECT_EQ(commit.code(), Code::kInvalidArgument) << commit.ToString();
    EXPECT_NE(commit.message().find("no open transaction"), std::string::npos);
  }
  ASSERT_TRUE(c.Begin().ok());
  std::string v;
  EXPECT_EQ(c.Get(t, "a", &v).code(), Code::kNotFound)
      << "a flight whose statement failed must not commit its writes";
  ASSERT_TRUE(c.Commit().ok());
  EXPECT_TRUE(c.Ping().ok());
}

// A statement queued without abort_on_error may fail and the flight
// still commits (new_order's tolerated order-row collision).
TEST(NetTest, FlightToleratedInsertStillCommits) {
  ServerFixture f;
  WireClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", f.port()).ok());
  TableId t = kInvalidTable;
  ASSERT_TRUE(c.CreateTable("t", &t).ok());
  ASSERT_TRUE(c.Begin().ok());
  ASSERT_TRUE(c.Insert(t, "dup", "old").ok());
  ASSERT_TRUE(c.Commit().ok());

  ASSERT_TRUE(c.Begin({.isolation = IsolationLevel::kSerializable}).ok());
  {
    net::WireTxn txn(&c);
    Status ins, commit;
    txn.QueuePut(t, "x", "1");
    txn.QueueInsert(t, "dup", "new", &ins, /*abort_on_error=*/false);
    txn.QueueCommit(&commit);
    EXPECT_EQ(txn.Sync().code(), Code::kAlreadyExists);
    EXPECT_EQ(ins.code(), Code::kAlreadyExists);
    EXPECT_TRUE(commit.ok()) << commit.ToString();
  }
  ASSERT_TRUE(c.Begin().ok());
  std::string v;
  ASSERT_TRUE(c.Get(t, "x", &v).ok());
  EXPECT_EQ(v, "1");
  ASSERT_TRUE(c.Get(t, "dup", &v).ok());
  EXPECT_EQ(v, "old");
  ASSERT_TRUE(c.Commit().ok());
}

// A write-write conflict in a queued Put is the flight's first failure,
// so a retrying driver sees kSerializationFailure, not the "no open
// transaction" of the Commit behind it.
TEST(NetTest, FlightWriteConflictSurfacesAsSerializationFailure) {
  ServerFixture f;
  WireClient a, b;
  ASSERT_TRUE(a.Connect("127.0.0.1", f.port()).ok());
  ASSERT_TRUE(b.Connect("127.0.0.1", f.port()).ok());
  TableId t = kInvalidTable;
  ASSERT_TRUE(a.CreateTable("t", &t).ok());
  ASSERT_TRUE(a.Begin().ok());
  ASSERT_TRUE(a.Put(t, "k", "0").ok());
  ASSERT_TRUE(a.Commit().ok());

  ASSERT_TRUE(a.Begin({.isolation = IsolationLevel::kSerializable}).ok());
  std::string v;
  ASSERT_TRUE(a.Get(t, "k", &v).ok());  // a's snapshot predates b's write
  ASSERT_TRUE(b.Begin({.isolation = IsolationLevel::kSerializable}).ok());
  ASSERT_TRUE(b.Put(t, "k", "b").ok());
  ASSERT_TRUE(b.Commit().ok());
  {
    net::WireTxn txn(&a);
    Status other, commit;
    txn.QueuePut(t, "k", "a");
    txn.QueuePut(t, "other", "a", &other);
    txn.QueueCommit(&commit);
    const Status st = txn.Sync();
    EXPECT_TRUE(st.IsSerializationFailure()) << st.ToString();
    EXPECT_FALSE(other.ok());
    EXPECT_FALSE(commit.ok());
  }
  ASSERT_TRUE(b.Begin().ok());
  ASSERT_TRUE(b.Get(t, "k", &v).ok());
  EXPECT_EQ(v, "b");
  EXPECT_EQ(b.Get(t, "other", &v).code(), Code::kNotFound);
  ASSERT_TRUE(b.Commit().ok());
  EXPECT_TRUE(ConvergedClean(f.db.get()));
}

// A transport failure mid-flight: the responses already read are
// delivered, every later statement reports kIOError, and the connection
// is closed.
TEST(NetTest, FlightTransportFailureFailsEveryPendingStatement) {
  util::FailpointClearAll();
  ServerFixture f;
  WireClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", f.port()).ok());
  TableId t = kInvalidTable;
  ASSERT_TRUE(c.CreateTable("t", &t).ok());
  ASSERT_TRUE(c.Begin().ok());
  ASSERT_TRUE(c.Put(t, "k", "0").ok());
  ASSERT_TRUE(c.Commit().ok());

  ASSERT_TRUE(c.Begin({.isolation = IsolationLevel::kSerializable}).ok());
  {
    net::WireTxn txn(&c);
    std::string v;
    Status get, put, commit;
    txn.QueueGet(t, "k", &v, &get);
    txn.QueuePut(t, "k", "1", &put);
    txn.QueueCommit(&commit);
    // The second response is lost on the way in.
    util::FailpointArm("wireclient_read_err", util::FailpointAction::kErr, 2);
    const Status st = txn.Sync();
    util::FailpointClearAll();
    EXPECT_EQ(st.code(), Code::kIOError) << st.ToString();
    EXPECT_TRUE(get.ok()) << get.ToString();
    EXPECT_EQ(v, "0");
    EXPECT_EQ(put.code(), Code::kIOError);
    EXPECT_EQ(commit.code(), Code::kIOError);
    EXPECT_FALSE(c.connected());
  }
  // A failed write loses the whole flight.
  ASSERT_TRUE(c.Connect("127.0.0.1", f.port()).ok());
  ASSERT_TRUE(c.Begin().ok());
  {
    net::WireTxn txn(&c);
    Status put, commit;
    txn.QueuePut(t, "k", "2", &put);
    txn.QueueCommit(&commit);
    util::FailpointArm("wireclient_write_err", util::FailpointAction::kErr, 1);
    EXPECT_EQ(txn.Sync().code(), Code::kIOError);
    util::FailpointClearAll();
    EXPECT_EQ(put.code(), Code::kIOError);
    EXPECT_EQ(commit.code(), Code::kIOError);
    EXPECT_FALSE(c.connected());
  }
}

// A flight far larger than the socket buffers and the server's
// write-pause threshold completes: the client reads responses while it
// is still writing.
TEST(NetTest, LongFlightDoesNotDeadlock) {
  ServerOptions so;
  so.backpressure_ops = 4;
  so.write_queue_bytes = 1024;
  ServerFixture f(so);
  WireClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", f.port()).ok());
  TableId t = kInvalidTable;
  ASSERT_TRUE(c.CreateTable("t", &t).ok());
  ASSERT_TRUE(c.Begin().ok());
  const std::string value(512, 'v');
  constexpr int kRows = 20000;
  uint64_t n = 0;
  {
    net::WireTxn txn(&c);
    for (int i = 0; i < kRows; i++) {
      txn.QueuePut(t, "k" + std::to_string(i), value);
    }
    txn.QueueCount(t, "k", "l", &n);
    txn.QueueCommit();
    const Status st = txn.Sync();
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  EXPECT_EQ(n, static_cast<uint64_t>(kRows));
  EXPECT_GT(f.server->stats().write_pauses, 0u);
}

}  // namespace
}  // namespace pgssi
