// Op spans for the traced benchmark run, taken from outside the engine.
//
// TracingClient decorates any workload::DbClient: Begin and every DbTxn
// call (Get/Put/Insert/Count/Commit/Abort, plus Delete/Scan for
// completeness) is timed into the calling thread's OpTrace scratch. The
// client loop brackets each Dbt2::RunOne attempt, so those spans are
// the children of the attempt's transaction span. Threads without an
// OpTrace (the set-up thread) pass through untimed.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "workload/client.h"

namespace pgssi::bench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

enum Op : uint8_t {
  kBegin,
  kGet,
  kPut,
  kInsert,
  kCount,
  kCommit,
  kAbort,
  kDelete,
  kScan,
  kNumOps
};
inline constexpr const char* kOpNames[kNumOps] = {
    "begin", "get", "put", "insert", "count", "commit", "abort", "delete", "scan"};

struct Span {
  uint64_t start_ns;
  uint64_t dur_ns;
  Op op;
};

/// Spans of the current transaction attempt, reset by the client loop
/// before each attempt. DBT-2 attempts issue at most 16 calls; spans
/// past kMaxSpans are not stored, which would show as lower coverage.
struct OpTrace {
  static constexpr int kMaxSpans = 32;
  Span spans[kMaxSpans];
  int n = 0;

  void Record(Op op, uint64_t start_ns) {
    const uint64_t end = NowNs();
    if (n < kMaxSpans) spans[n++] = Span{start_ns, end - start_ns, op};
  }
};

inline thread_local OpTrace* tls_op_trace = nullptr;

class TracingTxn final : public workload::DbTxn {
 public:
  explicit TracingTxn(std::unique_ptr<workload::DbTxn> t) : t_(std::move(t)) {}

  Status Get(TableId table, const std::string& key, std::string* value) override {
    return Timed(kGet, [&] { return t_->Get(table, key, value); });
  }
  Status Put(TableId table, const std::string& key,
             const std::string& value) override {
    return Timed(kPut, [&] { return t_->Put(table, key, value); });
  }
  Status Insert(TableId table, const std::string& key,
                const std::string& value) override {
    return Timed(kInsert, [&] { return t_->Insert(table, key, value); });
  }
  Status Delete(TableId table, const std::string& key) override {
    return Timed(kDelete, [&] { return t_->Delete(table, key); });
  }
  Status Scan(TableId table, const std::string& lo, const std::string& hi,
              std::vector<std::pair<std::string, std::string>>* out) override {
    return Timed(kScan, [&] { return t_->Scan(table, lo, hi, out); });
  }
  Status Count(TableId table, const std::string& lo, const std::string& hi,
               uint64_t* n) override {
    return Timed(kCount, [&] { return t_->Count(table, lo, hi, n); });
  }
  Status Commit() override {
    return Timed(kCommit, [&] { return t_->Commit(); });
  }
  Status Abort() override {
    return Timed(kAbort, [&] { return t_->Abort(); });
  }

 private:
  template <typename F>
  static Status Timed(Op op, F&& f) {
    OpTrace* tr = tls_op_trace;
    if (tr == nullptr) return f();
    const uint64_t t0 = NowNs();
    Status st = f();
    tr->Record(op, t0);
    return st;
  }

  std::unique_ptr<workload::DbTxn> t_;
};

class TracingClient final : public workload::DbClient {
 public:
  explicit TracingClient(workload::DbClient* inner) : inner_(inner) {}

  Status CreateTable(const std::string& name, TableId* id) override {
    return inner_->CreateTable(name, id);
  }
  TableId GetTableId(const std::string& name) override {
    return inner_->GetTableId(name);
  }
  std::unique_ptr<workload::DbTxn> Begin(const TxnOptions& opts) override {
    OpTrace* tr = tls_op_trace;
    const uint64_t t0 = tr ? NowNs() : 0;
    std::unique_ptr<workload::DbTxn> t = inner_->Begin(opts);
    if (tr) tr->Record(kBegin, t0);
    if (!t) return nullptr;
    return std::make_unique<TracingTxn>(std::move(t));
  }

 private:
  workload::DbClient* inner_;
};

}  // namespace pgssi::bench
