// Transport-neutral database access for the workloads.
//
// SIBENCH / DBT-2 / RUBiS are written against DbClient/DbTxn so the
// same transaction bodies run embedded (direct Transaction calls, the
// historical mode) or as wire clients against a net::Server — which is
// how the benches measure the network front end with connections far
// exceeding server workers.
//
// Threading contract: DbClient::Begin/CreateTable/GetTableId may be
// called from many driver threads concurrently; each returned DbTxn is
// used by its creating thread only, one live txn per thread (the shape
// every workload driver already has).
//
// CreateTable is open-or-create: OK with *id set whether the table was
// created or already existed (other errors pass through).
//
// Pipelined statements (libpq pipeline mode's contract): Queue* issues
// a statement and Sync() completes every statement queued since the
// last Sync, in issue order, filling each one's status and out-param;
// it returns the first failed status. A queued statement that fails
// aborts the transaction (only QueueInsert can opt out), so every
// statement after it, a queued Commit included, fails too and no
// partial write set commits. Any non-OK status is a failure, kNotFound
// included: unlike an empty libpq result, a queued Get that finds no
// row aborts the transaction, so probe for a row that may be absent
// with the blocking Get, which leaves the transaction open. Inputs (table, key, value) are consumed
// by the Queue* call itself; out-params and status slots must stay
// valid until Sync() returns. Sync() before the next blocking call.
// The base implementation runs each statement inline through the
// blocking calls, so an embedded (or decorating) DbTxn pipelines for
// free; net::WireTxn sends a whole flight in one write.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "db/transaction_handle.h"

namespace pgssi::workload {

class DbTxn {
 public:
  DbTxn() = default;
  DbTxn(const DbTxn&) = delete;
  DbTxn& operator=(const DbTxn&) = delete;
  /// Destruction aborts an unfinished transaction.
  virtual ~DbTxn() = default;

  virtual Status Get(TableId table, const std::string& key,
                     std::string* value) = 0;
  virtual Status Put(TableId table, const std::string& key,
                     const std::string& value) = 0;
  virtual Status Insert(TableId table, const std::string& key,
                        const std::string& value) = 0;
  virtual Status Delete(TableId table, const std::string& key) = 0;
  virtual Status Scan(TableId table, const std::string& lo,
                      const std::string& hi,
                      std::vector<std::pair<std::string, std::string>>* out) = 0;
  virtual Status Count(TableId table, const std::string& lo,
                       const std::string& hi, uint64_t* n) = 0;
  virtual Status Commit() = 0;
  virtual Status Abort() = 0;

  // ----- pipelined statements (see the contract at the top) -----
  /// `*value` must be non-null.
  void QueueGet(TableId table, const std::string& key, std::string* value,
                Status* status = nullptr) {
    Issue({Stmt::kGet, true, table, &key, nullptr, value, nullptr, status});
  }
  void QueuePut(TableId table, const std::string& key,
                const std::string& value, Status* status = nullptr) {
    Issue({Stmt::kPut, true, table, &key, &value, nullptr, nullptr, status});
  }
  /// The one statement a caller may exempt from the abort rule, for an
  /// insert whose kAlreadyExists it tolerates.
  void QueueInsert(TableId table, const std::string& key,
                   const std::string& value, Status* status = nullptr,
                   bool abort_on_error = true) {
    Issue({Stmt::kInsert, abort_on_error, table, &key, &value, nullptr,
           nullptr, status});
  }
  /// `*n` must be non-null.
  void QueueCount(TableId table, const std::string& lo, const std::string& hi,
                  uint64_t* n, Status* status = nullptr) {
    Issue({Stmt::kCount, true, table, &lo, &hi, nullptr, n, status});
  }
  void QueueCommit(Status* status = nullptr) {
    Issue({Stmt::kCommit, true, kInvalidTable, nullptr, nullptr, nullptr,
           nullptr, status});
  }
  /// Completes the statements queued since the last Sync and returns the
  /// first failed status among them in issue order (OK if none failed).
  virtual Status Sync() { return std::exchange(first_failure_, Status()); }
  /// True when Queue* defers statements to Sync(), so a flight costs one
  /// round trip; false when each statement runs inline as it is queued.
  virtual bool pipelined() const { return false; }

 protected:
  /// One queued statement, borrowing its inputs from the Queue* call.
  struct Stmt {
    enum Kind : uint8_t { kGet, kPut, kInsert, kCount, kCommit };
    Kind kind;
    bool abort_on_error;
    TableId table;
    const std::string* key;    // kCount: lo
    const std::string* value;  // kCount: hi
    std::string* get_out;
    uint64_t* count_out;
    Status* status;
  };

  /// Issues one statement. The default runs it now, through the blocking
  /// call; an override may defer it to Sync().
  virtual void Issue(const Stmt& s) {
    Status st;
    switch (s.kind) {
      case Stmt::kGet:
        st = Get(s.table, *s.key, s.get_out);
        break;
      case Stmt::kPut:
        st = Put(s.table, *s.key, *s.value);
        break;
      case Stmt::kInsert:
        st = Insert(s.table, *s.key, *s.value);
        break;
      case Stmt::kCount:
        st = Count(s.table, *s.key, *s.value, s.count_out);
        break;
      case Stmt::kCommit:
        st = Commit();
        break;
    }
    if (!st.ok() && s.abort_on_error) (void)Abort();
    Complete(s.status, std::move(st));
  }

  /// Delivers a completed statement's status and keeps the first
  /// failure for Sync().
  void Complete(Status* slot, Status st) {
    if (!st.ok() && first_failure_.ok()) first_failure_ = st;
    if (slot) *slot = std::move(st);
  }

 private:
  Status first_failure_;
};

class DbClient {
 public:
  virtual ~DbClient() = default;

  /// Open-or-create; *id is set on success whether created or existing.
  virtual Status CreateTable(const std::string& name, TableId* id) = 0;
  virtual TableId GetTableId(const std::string& name) = 0;
  /// Null only on transport failure (embedded Begin never fails).
  virtual std::unique_ptr<DbTxn> Begin(const TxnOptions& opts = {}) = 0;
};

// ----- embedded (in-process) implementation -----

class EmbeddedTxn final : public DbTxn {
 public:
  explicit EmbeddedTxn(std::unique_ptr<Transaction> t) : t_(std::move(t)) {}
  ~EmbeddedTxn() override { (void)t_->Abort(); }

  Status Get(TableId table, const std::string& key,
             std::string* value) override {
    return t_->Get(table, key, value);
  }
  Status Put(TableId table, const std::string& key,
             const std::string& value) override {
    return t_->Put(table, key, value);
  }
  Status Insert(TableId table, const std::string& key,
                const std::string& value) override {
    return t_->Insert(table, key, value);
  }
  Status Delete(TableId table, const std::string& key) override {
    return t_->Delete(table, key);
  }
  Status Scan(TableId table, const std::string& lo, const std::string& hi,
              std::vector<std::pair<std::string, std::string>>* out) override {
    return t_->Scan(table, lo, hi, out);
  }
  Status Count(TableId table, const std::string& lo, const std::string& hi,
               uint64_t* n) override {
    return t_->Count(table, lo, hi, n);
  }
  Status Commit() override { return t_->Commit(); }
  Status Abort() override { return t_->Abort(); }

 private:
  std::unique_ptr<Transaction> t_;
};

class EmbeddedClient final : public DbClient {
 public:
  explicit EmbeddedClient(Database* db) : db_(db) {}

  Status CreateTable(const std::string& name, TableId* id) override {
    Status st = db_->CreateTable(name, id);
    if (st.code() == Code::kAlreadyExists) return Status::OK();
    return st;
  }
  TableId GetTableId(const std::string& name) override {
    return db_->GetTableId(name);
  }
  std::unique_ptr<DbTxn> Begin(const TxnOptions& opts) override {
    return std::make_unique<EmbeddedTxn>(db_->Begin(opts));
  }

 private:
  Database* db_;
};

}  // namespace pgssi::workload
