#include "workload/dbt2.h"

#include <cstdio>

namespace pgssi::workload {

namespace {
std::string WKey(uint32_t w) {
  char b[16];
  std::snprintf(b, sizeof(b), "%04u", w);
  return b;
}
std::string DKey(uint32_t w, uint32_t d) {
  char b[24];
  std::snprintf(b, sizeof(b), "%04u:%02u", w, d);
  return b;
}
std::string SKey(uint32_t w, uint32_t i) {
  char b[24];
  std::snprintf(b, sizeof(b), "%04u:%04u", w, i);
  return b;
}
}  // namespace

Dbt2::Dbt2(DbClient* client, const Dbt2Config& cfg)
    : client_(client), cfg_(cfg) {}

Dbt2::Dbt2(Database* db, const Dbt2Config& cfg)
    : owned_(std::make_unique<EmbeddedClient>(db)),
      client_(owned_.get()),
      cfg_(cfg) {}

Status Dbt2::Load() {
  Status st;
  if (!(st = client_->CreateTable("warehouse", &warehouse_)).ok()) return st;
  if (!(st = client_->CreateTable("district", &district_)).ok()) return st;
  if (!(st = client_->CreateTable("stock", &stock_)).ok()) return st;
  if (!(st = client_->CreateTable("orders", &orders_)).ok()) return st;

  // One flight per warehouse: its rows and the Commit.
  for (uint32_t w = 1; w <= cfg_.warehouses; w++) {
    auto txn = client_->Begin({.isolation = IsolationLevel::kRepeatableRead});
    if (!txn) return Status::IOError("begin failed");
    txn->QueuePut(warehouse_, WKey(w), "ytd=0");
    for (uint32_t d = 1; d <= cfg_.districts_per_warehouse; d++) {
      txn->QueuePut(district_, DKey(w, d), "1");  // next order id
    }
    for (uint32_t i = 1; i <= cfg_.stock_per_warehouse; i++) {
      txn->QueuePut(stock_, SKey(w, i), "100");
    }
    txn->QueueCommit();
    st = txn->Sync();
    if (!st.ok()) return st;
  }
  return Status::OK();
}

Status Dbt2::RunOne(Random& rng, int* cls) {
  if (rng.Bernoulli(cfg_.read_only_fraction)) {
    if (cls) *cls = kStockLevel;
    return RunStockLevel(rng);
  }
  if (cls) *cls = kNewOrder;
  return RunNewOrder(rng);
}

// Over a pipelining transport: two flights after Begin, every read,
// then every write with the Commit. The rows written are those of the
// one-statement-at-a-time body (read warehouse and district, bump the
// district, read-modify-write each line's stock row, insert the order):
// a line repeating an item reads the value its earlier line wrote.
// Statements that complete inline keep that body's order instead: a
// stock row read long before it is written keeps its SIREAD lock while
// the transaction waits on a row lock, and under WAL commit latency the
// concurrent writers of those rows become rw-antidependency victims
// (embedded dbt2-wal read-all-first: SSI aborts 0.5 -> 12 per 1000).
Status Dbt2::RunNewOrder(Random& rng) {
  auto txn = client_->Begin({.isolation = cfg_.isolation});
  if (!txn) return Status::IOError("begin failed");
  const bool flights = txn->pipelined();
  const uint32_t w = 1 + static_cast<uint32_t>(rng.Uniform(cfg_.warehouses));
  const uint32_t d =
      1 + static_cast<uint32_t>(rng.Uniform(cfg_.districts_per_warehouse));
  const std::string dkey = DKey(w, d);
  std::string wval, dval;
  txn->QueueGet(warehouse_, WKey(w), &wval);
  txn->QueueGet(district_, dkey, &dval);
  constexpr int kLines = 5;
  std::string skey[kLines], sval[kLines];
  int first[kLines];  // the line holding this line's item's value
  for (int line = 0; line < kLines; line++) {
    const uint32_t item =
        1 + static_cast<uint32_t>(rng.Uniform(cfg_.stock_per_warehouse));
    skey[line] = SKey(w, item);
    first[line] = line;
    for (int j = 0; j < line; j++) {
      if (skey[j] == skey[line]) {
        first[line] = j;
        break;
      }
    }
    if (flights && first[line] == line) {
      txn->QueueGet(stock_, skey[line], &sval[line]);
    }
  }
  Status st = txn->Sync();
  if (!st.ok()) return st;

  const uint64_t oid = std::stoull(dval);
  txn->QueuePut(district_, dkey, std::to_string(oid + 1));
  for (int line = 0; line < kLines; line++) {
    std::string& v = sval[first[line]];  // the latest value of this row
    if (!flights) {
      txn->QueueGet(stock_, skey[line], &v);
      if (!(st = txn->Sync()).ok()) return st;
    }
    uint64_t qty = std::stoull(v);
    qty = qty > 10 ? qty - 10 : qty + 91;  // restock when low, as TPC-C does
    v = std::to_string(qty);
    txn->QueuePut(stock_, skey[line], v);
  }
  char okey[32];
  std::snprintf(okey, sizeof(okey), "%04u:%02u:%08llu", w, d,
                static_cast<unsigned long long>(oid));
  Status order;
  txn->QueueInsert(orders_, okey, "order", &order, /*abort_on_error=*/false);
  Status commit;
  txn->QueueCommit(&commit);
  st = txn->Sync();
  // An existing order row is tolerated: the outcome is the Commit's.
  if (order.code() == Code::kAlreadyExists) return commit;
  return st;
}

// One flight after Begin: district read, low-stock count, Commit.
Status Dbt2::RunStockLevel(Random& rng) {
  auto txn = client_->Begin({.isolation = cfg_.isolation, .read_only = true});
  if (!txn) return Status::IOError("begin failed");
  const uint32_t w = 1 + static_cast<uint32_t>(rng.Uniform(cfg_.warehouses));
  const uint32_t d =
      1 + static_cast<uint32_t>(rng.Uniform(cfg_.districts_per_warehouse));
  std::string v;
  txn->QueueGet(district_, DKey(w, d), &v);
  // Count low-stock items over a 20-item window.
  const uint32_t lo =
      1 + static_cast<uint32_t>(rng.Uniform(
              cfg_.stock_per_warehouse > 20 ? cfg_.stock_per_warehouse - 20
                                            : 1));
  uint64_t n = 0;
  txn->QueueCount(stock_, SKey(w, lo), SKey(w, lo + 19), &n);
  txn->QueueCommit();
  return txn->Sync();
}

}  // namespace pgssi::workload
