// Network chaos torture harness: probabilistic fault injection at every
// protocol state of the front end (server-side frame tears, stalled
// flushes, dropped connections before/during/after execution, swallowed
// wake callbacks, forced admission refusals; client-side torn writes and
// lost responses), driven by retrying clients running the SIBENCH and
// RUBiS mixes over the wire. The convergence contract after the storm:
// no leaked sessions or row locks, the snapshot horizon fully advanced,
// SIREAD bookkeeping consistent, RUBiS invariants intact, and the
// retrying clients made real forward progress.
//
// Alongside the storm: discriminating regression tests for each parked-
// session deadline (lock-wait timeout over the wire, commit-gate timeout
// under a stalled fsync), idle-in-transaction reaping, half-open
// connection detection via EPOLLRDHUP while reads are paused, the
// ack-loss window when a connection dies between a committed TryCommit
// and its response flush, and a no-retries run proving the faults
// actually inject.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "util/failpoint.h"
#include "workload/dbt2.h"
#include "workload/driver.h"
#include "workload/rubis.h"
#include "workload/sibench.h"

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define PGSSI_CHAOS_SECS 1.0
#else
#define PGSSI_CHAOS_SECS 2.0
#endif

namespace pgssi {
namespace {

namespace fs = std::filesystem;
using net::Op;
using net::Request;
using net::Server;
using net::ServerOptions;
using net::WireClient;
using net::WireDbClient;
using util::FailpointAction;

// Every chaos site in the stack. ChaosConvergence arms them all and
// asserts that at least 8 distinct sites actually fired.
const char* kChaosSites[] = {
    "net_accept_refuse",    "net_read_err",        "net_write_short",
    "net_flush_stall",      "net_drop_before_exec", "net_drop_parked",
    "net_drop_after_commit", "net_wake_delay",      "wireclient_write_err",
    "wireclient_torn_write", "wireclient_read_err",
};

// Failpoints are process-global and fired_ counters survive disarm, so
// every test snapshots baselines and works in deltas; the guard makes
// sure no armed point leaks into the next test.
struct FailpointGuard {
  FailpointGuard() { util::FailpointClearAll(); }
  ~FailpointGuard() { util::FailpointClearAll(); }
};

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

::testing::AssertionResult ConvergedClean(Database* db,
                                          int timeout_ms = 10000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    if (db->OldestActiveSnapshot() == UINT64_MAX && db->RowLockCount() == 0) {
      return ::testing::AssertionSuccess();
    }
    if (std::chrono::steady_clock::now() > deadline) {
      return ::testing::AssertionFailure()
             << "sessions/locks leaked after the storm: oldest="
             << db->OldestActiveSnapshot()
             << " row_locks=" << db->RowLockCount();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

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

bool ReadFrame(int fd, uint8_t* code, std::string* payload) {
  char lenbuf[4];
  size_t got = 0;
  while (got < 4) {
    ssize_t r = ::read(fd, lenbuf + got, 4 - got);
    if (r <= 0) return false;
    got += static_cast<size_t>(r);
  }
  uint32_t len = 0;
  std::memcpy(&len, lenbuf, 4);
  if (len == 0 || len > net::kMaxFrameBytes) return false;
  std::string body(len, '\0');
  got = 0;
  while (got < len) {
    ssize_t r = ::read(fd, body.data() + got, len - got);
    if (r <= 0) return false;
    got += static_cast<size_t>(r);
  }
  *code = static_cast<uint8_t>(body[0]);
  *payload = body.substr(1);
  return true;
}

// ----- the storm -----

// The storm parks sessions only by chance, so the two park-time sites
// also fire once each by construction: a second client parks on a row
// the first holds and is dropped there (net_drop_parked); then a
// DEFERRABLE begin parks behind the first client's open read-write
// transaction, and the token wake that its commit sends is swallowed
// (net_wake_delay), leaving the deadline tick to resume the begin.
void ForceParkSites(uint16_t port, Server* server) {
  const TxnOptions ser{.isolation = IsolationLevel::kSerializable};
  WireClient holder;
  ASSERT_TRUE(holder.Connect("127.0.0.1", port).ok());
  TableId t = kInvalidTable;
  ASSERT_TRUE(holder.CreateTable("forced_parks", &t).ok());
  ASSERT_TRUE(holder.Begin(ser).ok());
  ASSERT_TRUE(holder.Put(t, "k", "held").ok());

  util::FailpointArm("net_drop_parked", FailpointAction::kErr, 1);
  WireClient dropped;
  ASSERT_TRUE(dropped.Connect("127.0.0.1", port).ok());
  ASSERT_TRUE(dropped.Begin(ser).ok());
  Status st = dropped.Put(t, "k", "dropped");
  EXPECT_EQ(st.code(), Code::kIOError) << st.ToString();

  util::FailpointArm("net_wake_delay", FailpointAction::kErr, 1);
  const uint64_t parks_before = server->stats().would_blocks;
  Status def_st;
  std::thread deferrable([&] {
    WireClient d;
    def_st = d.Connect("127.0.0.1", port);
    if (def_st.ok()) {
      def_st = d.Begin({.isolation = IsolationLevel::kSerializable,
                        .read_only = true,
                        .deferrable = true});
    }
    if (def_st.ok()) def_st = d.Commit();
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server->stats().would_blocks == parks_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(server->stats().would_blocks, parks_before)
      << "DEFERRABLE begin never parked";
  EXPECT_TRUE(holder.Commit().ok());
  deferrable.join();
  EXPECT_TRUE(def_st.ok()) << def_st.ToString();
}

TEST(NetChaosTest, ChaosConvergence) {
  FailpointGuard guard;
  ServerOptions so;
  so.workers = 2;
  so.max_sessions = 64;
  ServerFixture f(so);

  // Load both workloads over the wire before the faults start; the
  // Begin-level retry policy also heals mid-run connection kills.
  net::WireRetryPolicy wire_retry;
  wire_retry.max_attempts = 12;
  WireDbClient sib_client("127.0.0.1", f.port(), wire_retry);
  workload::Sibench sibench(&sib_client, 16);  // small table: real contention
  ASSERT_TRUE(sibench.Load().ok());

  WireDbClient rubis_client("127.0.0.1", f.port(), wire_retry);
  workload::RubisConfig rcfg;
  rcfg.items = 16;
  workload::Rubis rubis(&rubis_client, rcfg);
  ASSERT_TRUE(rubis.Load().ok());

  uint64_t baseline[std::size(kChaosSites)];
  for (size_t i = 0; i < std::size(kChaosSites); i++) {
    baseline[i] = util::FailpointFireCount(kChaosSites[i]);
  }
  const uint64_t accepted_before = f.server->stats().accepted;

  ForceParkSites(f.port(), f.server.get());

  // Arm everything probabilistically. Rates are chosen so the storm is
  // violent (hundreds of fires) but clients still make progress.
  util::FailpointArmChance("net_accept_refuse", FailpointAction::kErr, 30);
  util::FailpointArmChance("net_read_err", FailpointAction::kErr, 5);
  util::FailpointArmChance("net_write_short", FailpointAction::kErr, 80);
  util::FailpointArmChance("net_flush_stall", FailpointAction::kErr, 40);
  util::FailpointArmChance("net_drop_before_exec", FailpointAction::kErr, 8);
  util::FailpointArmChance("net_drop_parked", FailpointAction::kErr, 60);
  util::FailpointArmChance("net_drop_after_commit", FailpointAction::kErr, 8);
  util::FailpointArmChance("net_wake_delay", FailpointAction::kErr, 120);
  util::FailpointArmChance("wireclient_write_err", FailpointAction::kErr, 6);
  util::FailpointArmChance("wireclient_torn_write", FailpointAction::kErr, 6);
  util::FailpointArmChance("wireclient_read_err", FailpointAction::kErr, 6);

  workload::RetryPolicy retry;
  retry.max_attempts = 10;
  retry.retry_io_errors = true;  // chaos makes transport errors routine
  workload::DriverResult r = workload::RunFixedDurationClassed(
      [&](int i, Random& rng, int* cls) {
        *cls = -1;
        // Even threads hammer SIBENCH, odd threads run the RUBiS mix —
        // both serializable over the wire.
        if (i % 2 == 0) {
          return sibench.RunMixed(rng, IsolationLevel::kSerializable);
        }
        return rubis.RunOne(rng, nullptr);
      },
      {}, 8, PGSSI_CHAOS_SECS, retry);

  util::FailpointClearAll();

  // Forward progress despite the storm.
  EXPECT_GT(r.committed, 50u) << "retrying clients must complete work";
  EXPECT_GT(r.retries, 0u);

  // The storm was real: enough distinct sites fired, across enough
  // connection lifetimes.
  int distinct = 0;
  uint64_t total_fires = 0;
  for (size_t i = 0; i < std::size(kChaosSites); i++) {
    const uint64_t fires = util::FailpointFireCount(kChaosSites[i]) -
                           baseline[i];
    if (fires > 0) distinct++;
    total_fires += fires;
    if (fires == 0) {
      ADD_FAILURE() << "site never fired: " << kChaosSites[i]
                    << " (informational — ≥8 distinct is the contract)";
    }
  }
  EXPECT_GE(distinct, 8) << "chaos must exercise ≥8 distinct fault sites";
  EXPECT_GT(total_fires, 0u);
  EXPECT_GE(f.server->stats().faults_injected, 1u);
  EXPECT_GE(f.server->stats().accepted - accepted_before, 100u)
      << "storm must span ≥100 connection lifetimes";

  // Convergence: every broken session reaped, nothing pinned or locked,
  // and no reaped session's claim left in a chain.
  EXPECT_TRUE(ConvergedClean(f.db.get()));
  EXPECT_TRUE(f.db->CheckSsiLockConsistency());
  EXPECT_EQ(f.db->LeakedClaimCount(), 0u);

  // RUBiS invariants survived the storm (checked over a healed wire).
  bool ok = false;
  ASSERT_TRUE(rubis.CheckConsistency(&ok).ok());
  EXPECT_TRUE(ok) << "RUBiS closing-price invariant violated under chaos";
}

// DBT-2 in pipelined flights under client-side faults and server-side
// connection drops: a flight cut anywhere (torn write, lost response,
// drop before execution, while parked, or after the commit) must either
// commit whole or leave nothing. Ambiguous acks replay as new orders, so
// the committed state alone must keep every district bump matched by
// exactly one orders row.
TEST(NetChaosTest, PipelinedDbt2ConvergesUnderFaults) {
  FailpointGuard guard;
  ServerOptions so;
  so.workers = 2;
  ServerFixture f(so);

  net::WireRetryPolicy wire_retry;
  wire_retry.max_attempts = 12;
  WireDbClient client("127.0.0.1", f.port(), wire_retry);
  workload::Dbt2Config cfg;
  cfg.warehouses = 2;  // few districts: real write conflicts
  cfg.districts_per_warehouse = 4;
  cfg.read_only_fraction = 0.2;
  workload::Dbt2 dbt2(&client, cfg);
  ASSERT_TRUE(dbt2.Load().ok());

  const char* sites[] = {"wireclient_write_err",  "wireclient_torn_write",
                         "wireclient_read_err",   "net_drop_before_exec",
                         "net_drop_parked",       "net_drop_after_commit"};
  uint64_t baseline[std::size(sites)];
  for (size_t i = 0; i < std::size(sites); i++) {
    baseline[i] = util::FailpointFireCount(sites[i]);
  }
  util::FailpointArmChance("wireclient_write_err", FailpointAction::kErr, 8);
  util::FailpointArmChance("wireclient_torn_write", FailpointAction::kErr, 8);
  util::FailpointArmChance("wireclient_read_err", FailpointAction::kErr, 8);
  util::FailpointArmChance("net_drop_before_exec", FailpointAction::kErr, 4);
  util::FailpointArmChance("net_drop_parked", FailpointAction::kErr, 60);
  util::FailpointArmChance("net_drop_after_commit", FailpointAction::kErr, 20);

  workload::RetryPolicy retry;
  retry.max_attempts = 10;
  retry.retry_io_errors = true;
  workload::DriverResult r = workload::RunFixedDurationClassed(
      [&](int, Random& rng, int* cls) { return dbt2.RunOne(rng, cls); },
      {workload::Dbt2::kClassNames[0], workload::Dbt2::kClassNames[1]}, 4,
      PGSSI_CHAOS_SECS, retry);
  util::FailpointClearAll();

  EXPECT_GT(r.committed, 50u) << "retrying clients must complete work";
  EXPECT_GT(r.retries, 0u);
  int fired = 0;
  for (size_t i = 0; i < std::size(sites); i++) {
    fired += util::FailpointFireCount(sites[i]) > baseline[i];
  }
  EXPECT_GE(fired, 4) << "the faults must actually cut flights";

  EXPECT_TRUE(ConvergedClean(f.db.get()));
  EXPECT_TRUE(f.db->CheckSsiLockConsistency());

  auto t = f.db->Begin({.isolation = IsolationLevel::kRepeatableRead});
  std::vector<std::pair<std::string, std::string>> districts;
  ASSERT_TRUE(t->Scan(f.db->GetTableId("district"), "", "\x7f", &districts)
                  .ok());
  uint64_t bumps = 0;
  for (const auto& [k, v] : districts) bumps += std::stoull(v) - 1;
  uint64_t orders = 0;
  ASSERT_TRUE(t->Count(f.db->GetTableId("orders"), "", "\x7f", &orders).ok());
  ASSERT_TRUE(t->Commit().ok());
  EXPECT_GT(orders, 0u);
  EXPECT_EQ(bumps, orders)
      << "a cut flight committed a partial new_order write set";
}

// Without retrying clients the same faults surface as hard errors — the
// one-shot proof that injection actually happens (CI runs this to guard
// against the chaos harness rotting into a no-op).
TEST(NetChaosTest, ChaosWithoutRetriesSeesFailures) {
  FailpointGuard guard;
  ServerFixture f;
  WireClient setup;
  ASSERT_TRUE(setup.Connect("127.0.0.1", f.port()).ok());
  TableId t = kInvalidTable;
  ASSERT_TRUE(setup.CreateTable("t", &t).ok());

  const uint64_t drops_before =
      util::FailpointFireCount("net_drop_before_exec");
  util::FailpointArmChance("net_drop_before_exec", FailpointAction::kErr, 300);

  int io_errors = 0;
  for (int i = 0; i < 50; i++) {
    WireClient c;
    if (!c.Connect("127.0.0.1", f.port()).ok()) {
      io_errors++;
      continue;
    }
    Status st = c.Begin({.isolation = IsolationLevel::kSerializable});
    if (st.ok()) st = c.Put(t, "k" + std::to_string(i), "v");
    if (st.ok()) st = c.Commit();
    if (st.code() == Code::kIOError) io_errors++;
  }
  util::FailpointClearAll();

  EXPECT_GT(io_errors, 0) << "with retries disabled, faults must be visible";
  EXPECT_GT(util::FailpointFireCount("net_drop_before_exec"), drops_before);
  EXPECT_GE(f.server->stats().faults_injected, 1u);
  EXPECT_TRUE(ConvergedClean(f.db.get()));
}

// ----- parked-session deadlines -----

// A session parked on a first-updater row-lock wait must time out with
// a retryable error that releases its claim — the discriminating
// message is the lock-wait path's own.
TEST(NetChaosTest, ParkedLockWaitTimesOutOverTheWire) {
  FailpointGuard guard;
  DatabaseOptions dbo;
  dbo.engine.lock_wait_timeout_us = 150'000;
  ServerFixture f({}, dbo);
  WireClient setup;
  ASSERT_TRUE(setup.Connect("127.0.0.1", f.port()).ok());
  TableId t = kInvalidTable;
  ASSERT_TRUE(setup.CreateTable("t", &t).ok());
  ASSERT_TRUE(setup.Begin().ok());
  ASSERT_TRUE(setup.Put(t, "k", "0").ok());
  ASSERT_TRUE(setup.Commit().ok());

  WireClient a;
  ASSERT_TRUE(a.Connect("127.0.0.1", f.port()).ok());
  ASSERT_TRUE(a.Begin({.isolation = IsolationLevel::kSerializable}).ok());
  ASSERT_TRUE(a.Put(t, "k", "a").ok());  // holds the row lock

  WireClient b;
  ASSERT_TRUE(b.Connect("127.0.0.1", f.port()).ok());
  ASSERT_TRUE(b.Begin({.isolation = IsolationLevel::kSerializable}).ok());
  const auto t0 = std::chrono::steady_clock::now();
  Status st = b.Put(t, "k", "b");  // parks behind a, then must time out
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  ASSERT_TRUE(st.IsSerializationFailure()) << st.ToString();
  EXPECT_NE(st.ToString().find("lock wait timeout"), std::string::npos)
      << "wrong enforcement path: " << st.ToString();
  EXPECT_GE(elapsed_ms, 100);
  EXPECT_LT(elapsed_ms, 5000);

  // b's claim is gone: a commits untouched, and the world converges.
  ASSERT_TRUE(a.Commit().ok());
  (void)b.Abort();
  EXPECT_TRUE(ConvergedClean(f.db.get()));
}

// A session parked at the WAL commit gate behind a stalled fsync must
// also time out — with the gate's own retryable error — while the
// transaction that OWNS the stalled round keeps waiting (its record is
// already appended; aborting it would be wrong).
TEST(NetChaosTest, CommitGateTimesOutUnderFsyncStall) {
  FailpointGuard guard;
  fs::path dir = fs::path(testing::TempDir()) / "pgssi_net_chaos_gate";
  fs::remove_all(dir);
  fs::create_directories(dir);
  DatabaseOptions dbo;
  dbo.engine.wal_enabled = true;
  dbo.engine.wal_dir = dir.string();
  dbo.engine.wal_fsync = WalFsyncMode::kBatch;
  dbo.engine.lock_wait_timeout_us = 150'000;
  ServerFixture f({}, dbo);
  WireClient setup;
  ASSERT_TRUE(setup.Connect("127.0.0.1", f.port()).ok());
  TableId t = kInvalidTable;
  ASSERT_TRUE(setup.CreateTable("t", &t).ok());

  // Fire counts survive FailpointClear, so poll the delta — not the
  // absolute count — or a repeat run sails past a not-yet-engaged stall.
  const uint64_t stall_base = util::FailpointFireCount("wal_fsync_stall");
  util::FailpointArmChance("wal_fsync_stall", FailpointAction::kErr, 1000);

  // First committer: appends its record, then its fsync round stalls.
  std::atomic<bool> a_done{false};
  Status a_st;
  std::thread first([&] {
    WireClient a;
    ASSERT_TRUE(a.Connect("127.0.0.1", f.port()).ok());
    ASSERT_TRUE(a.Begin({.isolation = IsolationLevel::kSerializable}).ok());
    ASSERT_TRUE(a.Put(t, "a", "1").ok());
    a_st = a.Commit();  // blocks until the stall is lifted
    a_done.store(true);
  });
  // Wait until the stall is actually engaged.
  const auto stall_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (util::FailpointFireCount("wal_fsync_stall") == stall_base) {
    ASSERT_LT(std::chrono::steady_clock::now(), stall_deadline)
        << "fsync stall never engaged";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Second committer: parks at the commit gate (a round is in flight),
  // and the gate deadline must fire rather than waiting forever.
  WireClient b;
  ASSERT_TRUE(b.Connect("127.0.0.1", f.port()).ok());
  ASSERT_TRUE(b.Begin({.isolation = IsolationLevel::kSerializable}).ok());
  ASSERT_TRUE(b.Put(t, "b", "1").ok());
  const auto t0 = std::chrono::steady_clock::now();
  Status st = b.Commit();
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  ASSERT_TRUE(st.IsSerializationFailure()) << st.ToString();
  EXPECT_NE(st.ToString().find("commit gate timeout"), std::string::npos)
      << "wrong enforcement path: " << st.ToString();
  EXPECT_GE(elapsed_ms, 100);
  EXPECT_FALSE(a_done.load()) << "the round owner must keep waiting";

  // Lift the stall: the owner's commit completes durably, and a retry
  // of the gated transaction succeeds.
  util::FailpointClear("wal_fsync_stall");
  first.join();
  EXPECT_TRUE(a_st.ok()) << a_st.ToString();
  ASSERT_TRUE(b.Begin({.isolation = IsolationLevel::kSerializable}).ok());
  ASSERT_TRUE(b.Put(t, "b", "2").ok());
  EXPECT_TRUE(b.Commit().ok());

  EXPECT_TRUE(ConvergedClean(f.db.get()));
  f.server->Stop();
  f.db.reset();
  fs::remove_all(dir);
}

// ----- idle-in-transaction reaping -----

// The PR-8 "slow client pins OldestActiveSnapshot" scenario self-heals
// when idle_in_txn_timeout_us is set: the session is sent a retryable
// error frame and torn down, and the horizon advances.
TEST(NetChaosTest, IdleInTxnSessionIsReaped) {
  FailpointGuard guard;
  DatabaseOptions dbo;
  dbo.engine.idle_in_txn_timeout_us = 100'000;
  ServerFixture f({}, dbo);
  WireClient setup;
  ASSERT_TRUE(setup.Connect("127.0.0.1", f.port()).ok());
  TableId t = kInvalidTable;
  ASSERT_TRUE(setup.CreateTable("t", &t).ok());
  ASSERT_TRUE(setup.Begin().ok());
  ASSERT_TRUE(setup.Put(t, "k", "0").ok());
  ASSERT_TRUE(setup.Commit().ok());

  // Open a txn over a raw socket, read the responses, then go silent.
  int fd = RawConnect(f.port());
  std::string stream = net::EncodeRequest(net::BeginRequest(
      {.isolation = IsolationLevel::kSerializable}));
  Request get;
  get.op = Op::kGet;
  get.table = t;
  get.key = "k";
  stream += net::EncodeRequest(get);
  SendAll(fd, stream);
  uint8_t code;
  std::string payload;
  ASSERT_TRUE(ReadFrame(fd, &code, &payload));  // begin: OK
  ASSERT_EQ(code, static_cast<uint8_t>(Code::kOk));
  ASSERT_TRUE(ReadFrame(fd, &code, &payload));  // get: OK
  ASSERT_EQ(code, static_cast<uint8_t>(Code::kOk));
  ASSERT_NE(f.db->OldestActiveSnapshot(), UINT64_MAX) << "txn must pin";

  // The sweep must notice the idle session and reap it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (f.server->stats().idle_reaped == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "idle-in-txn session never reaped";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(ConvergedClean(f.db.get()));

  // The client gets a best-effort retryable error frame, then EOF.
  if (ReadFrame(fd, &code, &payload)) {
    EXPECT_EQ(code, static_cast<uint8_t>(Code::kSerializationFailure));
    EXPECT_NE(payload.find("idle-in-transaction timeout"), std::string::npos);
    EXPECT_FALSE(ReadFrame(fd, &code, &payload)) << "connection must close";
  }
  ::close(fd);

  // An ACTIVE slow session (not idle past the timeout) is untouched:
  // the reaper discriminates on inactivity, not transaction age.
  WireClient active;
  ASSERT_TRUE(active.Connect("127.0.0.1", f.port()).ok());
  ASSERT_TRUE(active.Begin({.isolation = IsolationLevel::kSerializable}).ok());
  for (int i = 0; i < 6; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    std::string v;
    ASSERT_TRUE(active.Get(t, "k", &v).ok())
        << "active session must survive " << i;
  }
  ASSERT_TRUE(active.Commit().ok());
}

// ----- half-open detection -----

// A client that vanishes (FIN, no close of our reading side) while its
// session is parked AND its reads are backpressure-paused: EPOLLRDHUP is
// the only signal left, and it must tear the session down.
TEST(NetChaosTest, HalfOpenParkedConnectionDetectedViaRdhup) {
  FailpointGuard guard;
  ServerOptions so;
  so.backpressure_ops = 2;
  ServerFixture f(so);
  WireClient setup;
  ASSERT_TRUE(setup.Connect("127.0.0.1", f.port()).ok());
  TableId t = kInvalidTable;
  ASSERT_TRUE(setup.CreateTable("t", &t).ok());
  ASSERT_TRUE(setup.Begin().ok());
  ASSERT_TRUE(setup.Put(t, "k", "0").ok());
  ASSERT_TRUE(setup.Commit().ok());

  // a holds the row lock.
  WireClient a;
  ASSERT_TRUE(a.Connect("127.0.0.1", f.port()).ok());
  ASSERT_TRUE(a.Begin({.isolation = IsolationLevel::kSerializable}).ok());
  ASSERT_TRUE(a.Put(t, "k", "a").ok());

  // b pipelines begin + a conflicting put + filler: the put parks the
  // session behind a, the queued filler keeps the op queue over the
  // backpressure threshold, so EPOLLIN stays disarmed.
  int fd = RawConnect(f.port());
  std::string burst = net::EncodeRequest(net::BeginRequest(
      {.isolation = IsolationLevel::kSerializable}));
  Request put;
  put.op = Op::kPut;
  put.table = t;
  put.key = "k";
  put.value = "b";
  burst += net::EncodeRequest(put);
  Request filler;
  filler.op = Op::kPing;
  burst += net::EncodeRequest(filler);
  burst += net::EncodeRequest(filler);
  SendAll(fd, burst);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Vanish: write-side FIN only. The server must notice via RDHUP even
  // though EPOLLIN is off, abort the parked session, release the wait.
  ::shutdown(fd, SHUT_WR);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (f.server->stats().rdhup_closes == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "RDHUP never detected on the half-open parked connection";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::close(fd);

  ASSERT_TRUE(a.Commit().ok());
  EXPECT_TRUE(ConvergedClean(f.db.get()));
}

// ----- the ack-loss window -----

// If the connection dies after TryCommit succeeded but before the OK
// response flushes, the client sees a transport error for a transaction
// that COMMITTED. The client-visible contract: an IOError on commit is
// ambiguous; recover by re-reading (or using idempotent inserts), never
// by blind replay.
TEST(NetChaosTest, AckLossOnCommitDropIsAmbiguousButDurable) {
  FailpointGuard guard;
  ServerFixture f;
  WireClient setup;
  ASSERT_TRUE(setup.Connect("127.0.0.1", f.port()).ok());
  TableId t = kInvalidTable;
  ASSERT_TRUE(setup.CreateTable("t", &t).ok());

  WireClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", f.port()).ok());
  ASSERT_TRUE(c.Begin({.isolation = IsolationLevel::kSerializable}).ok());
  ASSERT_TRUE(c.Insert(t, "ack", "1").ok());

  const uint64_t fires_before =
      util::FailpointFireCount("net_drop_after_commit");
  util::FailpointArm("net_drop_after_commit", FailpointAction::kErr, 1);
  Status st = c.Commit();
  util::FailpointClearAll();
  ASSERT_EQ(st.code(), Code::kIOError)
      << "the ack must be lost: " << st.ToString();
  EXPECT_EQ(util::FailpointFireCount("net_drop_after_commit"),
            fires_before + 1);

  // The commit itself landed: a new connection sees the row, and a
  // blind replay of the insert is caught by uniqueness.
  WireClient verify;
  ASSERT_TRUE(verify.Connect("127.0.0.1", f.port()).ok());
  ASSERT_TRUE(verify.Begin({.isolation = IsolationLevel::kSerializable}).ok());
  std::string v;
  ASSERT_TRUE(verify.Get(t, "ack", &v).ok())
      << "commit executed before the drop; the write must be visible";
  EXPECT_EQ(v, "1");
  EXPECT_EQ(verify.Insert(t, "ack", "replayed").code(), Code::kAlreadyExists)
      << "idempotent-insert recovery must detect the prior commit";
  (void)verify.Abort();
  EXPECT_TRUE(ConvergedClean(f.db.get()));
}

}  // namespace
}  // namespace pgssi
