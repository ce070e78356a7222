// DBT-2++ stub: a TPC-C-like order-entry mix, parameterized by the
// fraction of read-only transactions, as used in the paper's Figure 5
// experiments. Read-write transactions are a simplified New-Order
// (read warehouse + district, bump the district order counter, touch a
// handful of stock rows, insert an order); read-only transactions are a
// simplified Stock-Level (read district, scan a stock range). Each body
// issues its statements as pipelined flights after Begin (see
// workload/client.h), so over the wire a New-Order costs 3 round trips
// and a Stock-Level 2; embedded, statements run inline in the
// one-statement-at-a-time order.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "util/random.h"
#include "workload/client.h"

namespace pgssi::workload {

struct Dbt2Config {
  uint32_t warehouses = 16;
  uint32_t districts_per_warehouse = 10;
  uint32_t stock_per_warehouse = 100;
  double read_only_fraction = 0.0;
  IsolationLevel isolation = IsolationLevel::kSerializable;
};

class Dbt2 {
 public:
  // Transaction-class indices reported by RunOne (per-class bench rows).
  enum Class : int { kNewOrder = 0, kStockLevel = 1 };
  static constexpr const char* kClassNames[] = {"new_order", "stock_level"};

  /// Transport-neutral: runs over any DbClient (embedded or wire).
  Dbt2(DbClient* client, const Dbt2Config& cfg);
  /// Convenience embedded form (owns the EmbeddedClient).
  Dbt2(Database* db, const Dbt2Config& cfg);

  Status Load();
  /// One transaction from the configured mix; `*cls` (optional) reports
  /// which class ran.
  Status RunOne(Random& rng, int* cls = nullptr);

 private:
  Status RunNewOrder(Random& rng);
  Status RunStockLevel(Random& rng);

  std::unique_ptr<DbClient> owned_;
  DbClient* client_;
  Dbt2Config cfg_;
  TableId warehouse_ = kInvalidTable;
  TableId district_ = kInvalidTable;
  TableId stock_ = kInvalidTable;
  TableId orders_ = kInvalidTable;
};

}  // namespace pgssi::workload
