// Workload smoke tests: every bench driver loads and runs under each
// mode, RUBiS's integrity invariant holds under the serializable modes,
// the fixed-duration driver counts outcomes correctly, and DBT-2's
// pipelined bodies leave the same rows over the wire as embedded, in 3
// (new_order) and 2 (stock_level) round trips.
#include <gtest/gtest.h>

#include <map>

#include "net/client.h"
#include "net/server.h"
#include "workload/dbt2.h"
#include "workload/driver.h"
#include "workload/rubis.h"
#include "workload/sibench.h"

namespace pgssi::workload {
namespace {

TEST(DriverTest, CountsOutcomes) {
  int calls = 0;
  DriverResult r = RunFixedDuration(
      [&calls](int, Random&) {
        calls++;
        switch (calls % 3) {
          case 0:
            return Status::SerializationFailure("x");
          case 1:
            return Status::OK();
          default:
            return Status::Internal("boom");
        }
      },
      /*threads=*/1, /*seconds=*/0.05);
  EXPECT_GT(r.committed, 0u);
  EXPECT_GT(r.serialization_failures, 0u);
  EXPECT_GT(r.other_errors, 0u);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GT(r.Throughput(), 0.0);
  EXPECT_GT(r.FailureRate(), 0.0);
  EXPECT_LT(r.FailureRate(), 1.0);
}

TEST(SibenchTest, LoadAndRunAllTxnTypes) {
  auto db = Database::Open({});
  Sibench bench(db.get(), /*rows=*/50);
  ASSERT_TRUE(bench.Load().ok());
  Random rng(1);
  for (int i = 0; i < 20; i++) {
    Status st = bench.RunMixed(rng, IsolationLevel::kSerializable);
    EXPECT_TRUE(st.ok() || st.IsSerializationFailure()) << st.ToString();
  }
  EXPECT_TRUE(bench.RunUpdate(rng, IsolationLevel::kRepeatableRead).ok());
  EXPECT_TRUE(bench.RunQuery(rng, IsolationLevel::kRepeatableRead).ok());
}

TEST(Dbt2Test, LoadAndRunBothMixes) {
  auto db = Database::Open({});
  Dbt2Config cfg;
  cfg.warehouses = 2;
  cfg.read_only_fraction = 0.5;
  Dbt2 bench(db.get(), cfg);
  ASSERT_TRUE(bench.Load().ok());
  Random rng(2);
  int ok = 0;
  for (int i = 0; i < 40; i++) {
    Status st = bench.RunOne(rng);
    if (st.ok()) ok++;
    EXPECT_TRUE(st.ok() || st.IsSerializationFailure()) << st.ToString();
  }
  EXPECT_GT(ok, 0);
}

// Every row of every DBT-2 table, read through the engine.
std::map<std::string, std::string> Dump(Database* db) {
  std::map<std::string, std::string> rows;
  auto t = db->Begin({.isolation = IsolationLevel::kRepeatableRead});
  for (const char* table : {"warehouse", "district", "stock", "orders"}) {
    std::vector<std::pair<std::string, std::string>> out;
    EXPECT_TRUE(t->Scan(db->GetTableId(table), "", "\x7f", &out).ok());
    for (auto& [k, v] : out) rows[std::string(table) + "/" + k] = v;
  }
  EXPECT_TRUE(t->Commit().ok());
  return rows;
}

uint64_t StockSum(const std::map<std::string, std::string>& rows) {
  uint64_t sum = 0;
  for (const auto& [k, v] : rows) {
    if (k.rfind("stock/", 0) == 0) sum += std::stoull(v);
  }
  return sum;
}

// A wire server over its own database, for the transport A/B tests.
struct WireFixture {
  WireFixture() : db(Database::Open({})), server(db.get(), {}) {
    EXPECT_TRUE(server.Start().ok());
    client = std::make_unique<net::WireDbClient>("127.0.0.1", server.port());
  }
  ~WireFixture() {
    client.reset();
    server.Stop();
  }
  std::unique_ptr<Database> db;
  net::Server server;
  std::unique_ptr<net::WireDbClient> client;
};

// With 4 stock items, every 5-line order draws some item twice, and the
// second line must read the value the first one wrote: one order takes
// exactly 5 x 10 off the warehouse's stock.
TEST(Dbt2Test, DuplicateItemLinesReadTheirOwnWrite) {
  Dbt2Config cfg;
  cfg.warehouses = 1;
  cfg.districts_per_warehouse = 1;
  cfg.stock_per_warehouse = 4;
  auto db = Database::Open({});
  Dbt2 embedded(db.get(), cfg);
  ASSERT_TRUE(embedded.Load().ok());
  Random rng(7);
  ASSERT_TRUE(embedded.RunOne(rng).ok());
  EXPECT_EQ(StockSum(Dump(db.get())), 4 * 100u - 5 * 10u);

  WireFixture wire;
  Dbt2 remote(wire.client.get(), cfg);
  ASSERT_TRUE(remote.Load().ok());
  Random rng2(7);
  ASSERT_TRUE(remote.RunOne(rng2).ok());
  EXPECT_EQ(Dump(wire.db.get()), Dump(db.get()));
}

// A fixed-seed, single-thread mix leaves identical tables embedded and
// over the wire (every order repeats an item, as above).
TEST(Dbt2Test, WireMatchesEmbeddedRowForRow) {
  Dbt2Config cfg;
  cfg.warehouses = 2;
  cfg.districts_per_warehouse = 3;
  cfg.stock_per_warehouse = 4;
  cfg.read_only_fraction = 0.3;
  auto db = Database::Open({});
  Dbt2 embedded(db.get(), cfg);
  ASSERT_TRUE(embedded.Load().ok());
  WireFixture wire;
  Dbt2 remote(wire.client.get(), cfg);
  ASSERT_TRUE(remote.Load().ok());

  Random a(11), b(11);
  int orders = 0;
  for (int i = 0; i < 200; i++) {
    int ca = -1, cb = -1;
    ASSERT_TRUE(embedded.RunOne(a, &ca).ok());
    ASSERT_TRUE(remote.RunOne(b, &cb).ok());
    ASSERT_EQ(ca, cb);
    if (ca == Dbt2::kNewOrder) orders++;
  }
  ASSERT_GT(orders, 100);
  const auto rows = Dump(db.get());
  EXPECT_EQ(Dump(wire.db.get()), rows);
  uint64_t n = 0;
  for (const auto& [k, v] : rows) n += k.rfind("orders/", 0) == 0;
  EXPECT_EQ(n, static_cast<uint64_t>(orders));
}

// Round trips per transaction over the wire: Begin plus one flight per
// phase. new_order = Begin, reads, writes + Commit; stock_level = Begin,
// reads + Commit; the load = 4 CreateTables, then Begin and one flight
// per warehouse.
TEST(Dbt2Test, WireRoundTripsPerTransaction) {
  Dbt2Config cfg;
  cfg.warehouses = 3;
  cfg.read_only_fraction = 0.5;
  WireFixture wire;
  Dbt2 remote(wire.client.get(), cfg);
  ASSERT_TRUE(remote.Load().ok());
  EXPECT_EQ(wire.client->round_trips(), 4u + 2u * cfg.warehouses);

  Random rng(3);
  int seen[2] = {0, 0};
  for (int i = 0; i < 40; i++) {
    const uint64_t before = wire.client->round_trips();
    int cls = -1;
    ASSERT_TRUE(remote.RunOne(rng, &cls).ok());
    ASSERT_TRUE(cls == Dbt2::kNewOrder || cls == Dbt2::kStockLevel);
    EXPECT_EQ(wire.client->round_trips() - before,
              cls == Dbt2::kNewOrder ? 3u : 2u);
    seen[cls]++;
  }
  EXPECT_GT(seen[Dbt2::kNewOrder], 0);
  EXPECT_GT(seen[Dbt2::kStockLevel], 0);
}

TEST(RubisTest, SerializableKeepsInvariant) {
  for (SerializableImpl impl :
       {SerializableImpl::kSSI, SerializableImpl::kS2PL}) {
    DatabaseOptions opts;
    opts.serializable_impl = impl;
    auto db = Database::Open(opts);
    RubisConfig cfg;
    cfg.items = 4;  // high contention
    cfg.isolation = IsolationLevel::kSerializable;
    Rubis bench(db.get(), cfg);
    ASSERT_TRUE(bench.Load().ok());
    DriverResult r = RunFixedDuration(
        [&](int, Random& rng) { return bench.RunOne(rng); },
        /*threads=*/4, /*seconds=*/0.3);
    EXPECT_GT(r.committed, 0u);
    bool ok = false;
    ASSERT_TRUE(bench.CheckConsistency(&ok).ok());
    EXPECT_TRUE(ok) << "serializable mode let the max-bid invariant break "
                       "(impl=" << (impl == SerializableImpl::kSSI ? "SSI"
                                                                   : "S2PL")
                    << ")";
  }
}

TEST(RubisTest, RunsUnderSnapshotIsolation) {
  auto db = Database::Open({});
  RubisConfig cfg;
  cfg.items = 4;
  cfg.isolation = IsolationLevel::kRepeatableRead;
  Rubis bench(db.get(), cfg);
  ASSERT_TRUE(bench.Load().ok());
  DriverResult r = RunFixedDuration(
      [&](int, Random& rng) { return bench.RunOne(rng); },
      /*threads=*/4, /*seconds=*/0.2);
  EXPECT_GT(r.committed, 0u);
  // No invariant assertion here: SI is ALLOWED to break it (the paper's
  // point); we only require the workload itself to run.
  bool ok = true;
  EXPECT_TRUE(bench.CheckConsistency(&ok).ok());
}

}  // namespace
}  // namespace pgssi::workload
