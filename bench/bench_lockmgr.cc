// SIREAD lock-manager multicore scaling benchmark.
//
// Runs a read-mostly key-value mix (8 point reads per transaction, a
// write with probability --write-frac, default 10%) on 1/2/4/8/16
// threads under:
//   SI               REPEATABLE READ (no SSI tracking — the ceiling)
//   SSI              SERIALIZABLE via SSI
//   S2PL             SERIALIZABLE via strict two-phase locking
//
// Second section: high-conflict write skew — every transaction reads
// both members of a random pair and conditionally updates one, so
// rw-antidependency edges form at a high rate and throughput is bounded
// by the conflict path, not the SIREAD read path.
//
// Third section: abort-heavy teardown churn — xact teardown through the
// epoch limbo is the measured path.
//
// Prints a table and emits machine-readable BENCH_lockmgr.json (see
// bench_json.h).
//
// Flags: --rows=N --write-frac=F --threads=1,2,4,8,16
// PGSSI_BENCH_SECONDS sets the per-point window (default 1s).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "bench_common.h"
#include "db/transaction_handle.h"
#include "workload/driver.h"

namespace {

using namespace pgssi;
using namespace pgssi::bench;
using namespace pgssi::workload;

std::string KeyFor(uint64_t i) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "k%010llu",
                static_cast<unsigned long long>(i));
  return buf;
}

struct Config {
  uint64_t rows = 8192;
  double write_frac = 0.10;
  std::vector<int> threads = {1, 2, 4, 8, 16};
  uint64_t skew_pairs = 16;
};

Status RunReadMostly(Database* db, TableId t, const Config& cfg, Random& rng,
                     IsolationLevel iso) {
  auto txn = db->Begin({.isolation = iso});
  std::string v;
  for (int i = 0; i < 8; i++) {
    Status st = txn->Get(t, KeyFor(rng.Uniform(cfg.rows)), &v);
    if (!st.ok()) {
      (void)txn->Abort();
      return st;
    }
  }
  if (rng.Bernoulli(cfg.write_frac)) {
    Status st = txn->Put(t, KeyFor(rng.Uniform(cfg.rows)), "v2");
    if (!st.ok()) {
      (void)txn->Abort();
      return st;
    }
  }
  return txn->Commit();
}

struct Series {
  const char* name;
  IsolationLevel iso;
  SerializableImpl impl;
};

bool Load(Database* db, uint64_t rows, TableId* t) {
  if (!db->CreateTable("t", t).ok()) return false;
  auto txn = db->Begin({.isolation = IsolationLevel::kRepeatableRead});
  for (uint64_t i = 0; i < rows; i++) {
    if (!txn->Put(*t, KeyFor(i), "v").ok()) return false;
  }
  return txn->Commit().ok();
}

// High-conflict write skew: read both members of a random pair, withdraw
// from one if the pair's sum allows. Nearly every transaction flags rw
// edges and runs the dangerous-structure tests, so this series is
// bounded by the conflict-graph path the per-xact edge locks split.
Status RunWriteSkew(Database* db, TableId t, const Config& cfg, Random& rng) {
  uint64_t pair = rng.Uniform(cfg.skew_pairs);
  std::string ka = "p" + std::to_string(pair) + "a";
  std::string kb = "p" + std::to_string(pair) + "b";
  auto txn = db->Begin({.isolation = IsolationLevel::kSerializable});
  std::string va, vb;
  Status st = txn->Get(t, ka, &va);
  if (st.ok()) st = txn->Get(t, kb, &vb);
  if (!st.ok()) {
    (void)txn->Abort();
    return st;
  }
  int a = std::atoi(va.c_str());
  int b = std::atoi(vb.c_str());
  // Withdraw while the sum allows, deposit once it is exhausted: every
  // transaction reads both keys and writes one, so the conflict rate
  // never decays as balances drain.
  const std::string& victim = rng.Bernoulli(0.5) ? ka : kb;
  const int old_v = victim == ka ? a : b;
  const int new_v = a + b >= 100 ? old_v - 100 : old_v + 100;
  st = txn->Put(t, victim, std::to_string(new_v));
  if (!st.ok()) {
    (void)txn->Abort();
    return st;
  }
  return txn->Commit();
}

// The write-skew series. Reloads the pairs for every thread count so
// aborted balances don't drift across points.
void RunConflictSkewSeries(const Config& cfg, double secs,
                           std::vector<BenchRow>* rows_out) {
  const char* series = "SSI-skew";
  for (int threads : cfg.threads) {
    auto db = Database::Open();
    TableId t;
    if (!db->CreateTable("skew", &t).ok()) std::abort();
    {
      auto txn = db->Begin({.isolation = IsolationLevel::kRepeatableRead});
      for (uint64_t p = 0; p < cfg.skew_pairs; p++) {
        if (!txn->Put(t, "p" + std::to_string(p) + "a", "60").ok() ||
            !txn->Put(t, "p" + std::to_string(p) + "b", "60").ok()) {
          std::abort();
        }
      }
      if (!txn->Commit().ok()) std::abort();
    }
    DriverResult r = RunFixedDuration(
        [&](int, Random& rng) { return RunWriteSkew(db.get(), t, cfg, rng); },
        threads, secs);
    BenchRow row = RowFromDriver(series, threads, r);
    row.extra = {{"skew_pairs", static_cast<double>(cfg.skew_pairs)}};
    rows_out->push_back(row);
    std::printf("%-18s %8d %12.0f %9.2f%% %10.1f %10.1f\n", series, threads,
                row.ops_per_sec, row.abort_rate * 100, row.p50_us, row.p99_us);
    std::fflush(stdout);
  }
}

// Abort-heavy teardown churn: every transaction reads most of a tiny
// keyspace and writes part of it, so rw edges are dense, SSI aborts are
// the COMMON case, and the measured path is xact teardown. Half
// the surviving transactions also abort voluntarily to keep the
// teardown rate high even when conflicts momentarily clear.
Status RunAbortChurn(Database* db, TableId t, Random& rng) {
  constexpr uint64_t kHotKeys = 8;
  auto txn = db->Begin({.isolation = IsolationLevel::kSerializable});
  std::string v;
  for (int i = 0; i < 4; i++) {
    Status st = txn->Get(t, "h" + std::to_string(rng.Uniform(kHotKeys)), &v);
    if (!st.ok()) {
      (void)txn->Abort();
      return st;
    }
  }
  for (int i = 0; i < 2; i++) {
    Status st =
        txn->Put(t, "h" + std::to_string(rng.Uniform(kHotKeys)), "x");
    if (!st.ok()) {
      (void)txn->Abort();
      return st;
    }
  }
  if (rng.Bernoulli(0.5)) {
    (void)txn->Abort();
    return Status::SerializationFailure("voluntary abort (churn)");
  }
  return txn->Commit();
}

void RunTeardownSeries(const Config& cfg, double secs,
                       std::vector<BenchRow>* rows_out) {
  const char* series = "SSI-teardown";
  for (int threads : cfg.threads) {
    auto db = Database::Open();
    TableId t;
    if (!db->CreateTable("churn", &t).ok()) std::abort();
    {
      auto txn = db->Begin({.isolation = IsolationLevel::kRepeatableRead});
      for (uint64_t k = 0; k < 8; k++) {
        if (!txn->Put(t, "h" + std::to_string(k), "x").ok()) std::abort();
      }
      if (!txn->Commit().ok()) std::abort();
    }
    DriverResult r = RunFixedDuration(
        [&](int, Random& rng) { return RunAbortChurn(db.get(), t, rng); },
        threads, secs);
    BenchRow row = RowFromDriver(series, threads, r);
    row.extra = {{"epoch_freed_objects",
                  static_cast<double>(db->EpochFreedObjectCount())}};
    rows_out->push_back(row);
    std::printf("%-18s %8d %12.0f %9.2f%% %10.1f %10.1f\n", series, threads,
                row.ops_per_sec, row.abort_rate * 100, row.p50_us, row.p99_us);
    std::fflush(stdout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; i++) {
    const char* a = argv[i];
    if (std::strncmp(a, "--rows=", 7) == 0) {
      cfg.rows = std::strtoull(a + 7, nullptr, 10);
    } else if (std::strncmp(a, "--write-frac=", 13) == 0) {
      cfg.write_frac = std::atof(a + 13);
    } else if (std::strncmp(a, "--threads=", 10) == 0) {
      cfg.threads.clear();
      for (const char* p = a + 10; *p;) {
        cfg.threads.push_back(std::atoi(p));
        while (*p && *p != ',') p++;
        if (*p == ',') p++;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--rows=N] [--write-frac=F] [--threads=a,b,...]"
                   "\n",
                   argv[0]);
      return 2;
    }
  }
  const double secs = PointSeconds(1.0);

  const Series series[] = {
      {"SI", IsolationLevel::kRepeatableRead, SerializableImpl::kSSI},
      {"SSI", IsolationLevel::kSerializable, SerializableImpl::kSSI},
      {"S2PL", IsolationLevel::kSerializable, SerializableImpl::kS2PL},
  };

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf(
      "# SIREAD lock-manager scaling: %llu rows, %.0f%% write txns, %gs/point, "
      "%u partitions, %u hardware threads\n",
      static_cast<unsigned long long>(cfg.rows), cfg.write_frac * 100, secs,
      kLockPartitions, hw);
  if (hw < 2) {
    std::printf(
        "# NOTE: single-core machine — partition scaling cannot show its "
        "multicore win here.\n");
  }
  std::printf("%-18s %8s %12s %10s %10s %10s\n", "series", "threads", "txn/s",
              "abort%", "p50us", "p99us");

  std::vector<BenchRow> rows_out;
  for (const Series& s : series) {
    for (int threads : cfg.threads) {
      DatabaseOptions opts;  // isolation is chosen per transaction
      opts.serializable_impl = s.impl;
      auto db = Database::Open(opts);
      TableId t;
      if (!Load(db.get(), cfg.rows, &t)) {
        std::fprintf(stderr, "load failed\n");
        return 1;
      }
      DriverResult r = RunFixedDuration(
          [&](int, Random& rng) {
            return RunReadMostly(db.get(), t, cfg, rng, s.iso);
          },
          threads, secs);
      BenchRow row = RowFromDriver(s.name, threads, r);
      row.extra = {{"rows", static_cast<double>(cfg.rows)},
                   {"write_frac", cfg.write_frac},
                   {"hardware_threads", static_cast<double>(hw)}};
      rows_out.push_back(row);
      std::printf("%-18s %8d %12.0f %9.2f%% %10.1f %10.1f\n", s.name, threads,
                  row.ops_per_sec, row.abort_rate * 100, row.p50_us,
                  row.p99_us);
      std::fflush(stdout);
    }
  }

  std::printf("\n# High-conflict write skew, %llu pairs\n",
              static_cast<unsigned long long>(cfg.skew_pairs));
  std::printf("%-18s %8s %12s %10s %10s %10s\n", "series", "threads", "txn/s",
              "abort%", "p50us", "p99us");
  RunConflictSkewSeries(cfg, secs, &rows_out);

  std::printf("\n# Teardown: abort-heavy extreme-conflict churn\n");
  std::printf("%-18s %8s %12s %10s %10s %10s\n", "series", "threads", "txn/s",
              "abort%", "p50us", "p99us");
  RunTeardownSeries(cfg, secs, &rows_out);

  WriteBenchJson("lockmgr", rows_out);
  return 0;
}
