// Figure 4 reproduction: SIBENCH transaction throughput for SSI,
// SSI-without-read-only-optimizations, and S2PL as a fraction of SI
// throughput, versus table size.
//
// Paper shape: S2PL well below SI (update and query transactions cannot
// run concurrently), widening with table size; SSI close to SI (within
// the 10-20% read-dependency-tracking overhead), with the read-only
// optimizations recovering part of that gap at larger table sizes.
//
// Second section: disjoint-key writers — SERIALIZABLE writers updating
// thread-disjoint keys on 1-8 threads over the striped heap latch.
// Disjoint keys never conflict, so any scaling gap is pure latch
// contention.
//
// Third section: conflict-heavy scaling — the SSI mix on a tiny (10-row)
// table, where nearly every transaction pair conflicts and throughput is
// bounded by the rw-antidependency path.
//
// Fourth section: new-key insert storm — the structural index insert
// path (gap probes, leaf locking, splits) under SERIALIZABLE.
//
// Emits BENCH_sibench.json (series/threads/throughput/abort rate/
// latency percentiles per point) for the perf trajectory.
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "bench_common.h"
#include "workload/sibench.h"

using namespace pgssi;
using namespace pgssi::bench;
using namespace pgssi::workload;

namespace {

std::string WriterKey(int thread, uint64_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "w%03d-%06llu", thread,
                static_cast<unsigned long long>(i));
  return buf;
}

void RunDisjointWriteScaling(double secs, std::vector<BenchRow>* rows_out) {
  const std::vector<int> thread_counts = {1, 2, 4, 8};
  const uint64_t keys_per_thread = 256;
  const char* series = "disjoint-writes";
  for (int threads : thread_counts) {
    auto db = Database::Open();
    TableId t;
    if (!db->CreateTable("w", &t).ok()) std::abort();
    {
      auto txn = db->Begin({.isolation = IsolationLevel::kRepeatableRead});
      for (int ti = 0; ti < threads; ti++) {
        for (uint64_t i = 0; i < keys_per_thread; i++) {
          if (!txn->Put(t, WriterKey(ti, i), "v").ok()) std::abort();
        }
      }
      if (!txn->Commit().ok()) std::abort();
    }
    DriverResult r = RunFixedDuration(
        [&](int ti, Random& rng) {
          auto txn = db->Begin({.isolation = IsolationLevel::kSerializable});
          for (int k = 0; k < 4; k++) {
            Status st =
                txn->Put(t, WriterKey(ti, rng.Uniform(keys_per_thread)), "v2");
            if (!st.ok()) {
              (void)txn->Abort();
              return st;
            }
          }
          return txn->Commit();
        },
        threads, secs);
    BenchRow row = RowFromDriver(series, threads, r);
    row.extra = {{"keys_per_thread", static_cast<double>(keys_per_thread)}};
    rows_out->push_back(row);
    std::printf("%-26s %8d %12.0f %9.2f%% %10.1f %10.1f\n", series, threads,
                row.ops_per_sec, row.abort_rate * 100, row.p50_us, row.p99_us);
    std::fflush(stdout);
  }
}

// SSI mixed workload on a tiny table: a conflict-rate-bound series.
void RunConflictHeavyScaling(double secs, std::vector<BenchRow>* rows_out) {
  const std::vector<int> thread_counts = {1, 2, 4, 8};
  const uint64_t rows = 10;
  const char* series = "conflict-heavy";
  for (int threads : thread_counts) {
    auto db = Database::Open(OptionsFor(Mode::kSSI));
    Sibench bench(db.get(), rows);
    if (!bench.Load().ok()) std::abort();
    DriverResult r = RunFixedDuration(
        [&](int, Random& rng) {
          return bench.RunMixed(rng, IsolationLevel::kSerializable);
        },
        threads, secs);
    BenchRow row = RowFromDriver(series, threads, r);
    row.extra = {{"rows", static_cast<double>(rows)}};
    rows_out->push_back(row);
    std::printf("%-26s %8d %12.0f %9.2f%% %10.1f %10.1f\n", series, threads,
                row.ops_per_sec, row.abort_rate * 100, row.p50_us, row.p99_us);
    std::fflush(stdout);
  }
}

// New-key insert storm: SERIALIZABLE transactions each inserting a
// batch of fresh (thread-disjoint, monotonically increasing) keys, so
// every transaction exercises the structural insert path — gap probes,
// leaf locking, splits. Descent is latch-free and only the touched
// leaves are locked.
void RunInsertStormScaling(double secs, std::vector<BenchRow>* rows_out) {
  const std::vector<int> thread_counts = {1, 2, 4, 8, 16};
  const char* series = "insert-storm";
  for (int threads : thread_counts) {
    auto db = Database::Open(OptionsFor(Mode::kSSI));
    TableId t;
    if (!db->CreateTable("storm", &t).ok()) std::abort();
    std::vector<uint64_t> next_key(static_cast<size_t>(threads), 0);
    // Retired-memory gauge: while the storm runs, sample the epoch
    // limbo so the JSON shows how much
    // unreclaimed garbage the workload carries at peak — and that it
    // returns to zero once the engine quiesces.
    std::atomic<bool> gauge_stop{false};
    std::atomic<size_t> retired_peak{0};
    std::thread gauge([&] {
      while (!gauge_stop.load(std::memory_order_acquire)) {
        const size_t now = db->EpochRetiredObjectCount();
        size_t prev = retired_peak.load(std::memory_order_relaxed);
        while (now > prev &&
               !retired_peak.compare_exchange_weak(prev, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    DriverResult r = RunFixedDuration(
        [&](int ti, Random&) {
          auto txn = db->Begin({.isolation = IsolationLevel::kSerializable});
          uint64_t& n = next_key[static_cast<size_t>(ti)];
          for (int k = 0; k < 4; k++) {
            Status st = txn->Insert(t, WriterKey(ti, n + static_cast<uint64_t>(k)),
                                    "v");
            if (!st.ok()) {
              (void)txn->Abort();
              return st;
            }
          }
          n += 4;
          return txn->Commit();
        },
        threads, secs);
    gauge_stop.store(true, std::memory_order_release);
    gauge.join();
    const size_t retired_final = db->EpochRetiredObjectCount();
    db->QuiesceEpochs();
    const size_t retired_after_quiesce = db->EpochRetiredObjectCount();
    BenchRow row = RowFromDriver(series, threads, r);
    row.extra = {{"keys_per_txn", 4.0},
                 {"retired_peak", static_cast<double>(
                                      retired_peak.load(std::memory_order_relaxed))},
                 {"retired_final", static_cast<double>(retired_final)},
                 {"retired_after_quiesce",
                  static_cast<double>(retired_after_quiesce)},
                 {"epoch_freed_objects",
                  static_cast<double>(db->EpochFreedObjectCount())}};
    rows_out->push_back(row);
    std::printf("%-26s %8d %12.0f %9.2f%% %10.1f %10.1f\n", series, threads,
                row.ops_per_sec, row.abort_rate * 100, row.p50_us, row.p99_us);
    std::fflush(stdout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s\n", argv[0]);
    return 2;
  }
  const double secs = PointSeconds(1.0);
  const int threads = 4;
  const std::vector<uint64_t> sizes = {10, 100, 1000, 10000};
  const std::vector<Mode> modes = {Mode::kSI, Mode::kSSI,
                                   Mode::kSsiNoReadOnlyOpt, Mode::kS2PL};

  std::printf("# Figure 4: SIBENCH throughput normalized to SI\n");
  std::printf("# threads=%d, %gs per point, 50/50 update/query mix\n",
              threads, secs);
  std::printf("%-10s %-20s %12s %12s %14s\n", "rows", "mode", "txn/s",
              "normalized", "failure-rate");

  std::vector<BenchRow> rows_out;
  for (uint64_t rows : sizes) {
    double si_throughput = 0;
    for (Mode m : modes) {
      auto db = Database::Open(OptionsFor(m));
      Sibench bench(db.get(), rows);
      Status st = bench.Load();
      if (!st.ok()) {
        std::fprintf(stderr, "load failed: %s\n", st.ToString().c_str());
        return 1;
      }
      IsolationLevel iso = IsolationFor(m);
      DriverResult r = RunFixedDuration(
          [&](int, Random& rng) { return bench.RunMixed(rng, iso); },
          threads, secs);
      if (m == Mode::kSI) si_throughput = r.Throughput();
      BenchRow row = RowFromDriver(ModeName(m), threads, r);
      row.extra = {{"rows", static_cast<double>(rows)}};
      rows_out.push_back(row);
      std::printf("%-10llu %-20s %12.0f %11.2fx %13.3f%%\n",
                  static_cast<unsigned long long>(rows), ModeName(m),
                  r.Throughput(),
                  si_throughput > 0 ? r.Throughput() / si_throughput : 1.0,
                  r.FailureRate() * 100);
      std::fflush(stdout);
    }
  }

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf(
      "\n# Heap striping: SERIALIZABLE disjoint-key writers "
      "(%u hardware threads)\n",
      hw);
  if (hw < 2) {
    std::printf(
        "# NOTE: single-core machine — stripe scaling cannot show its "
        "multicore win here.\n");
  }
  std::printf("%-26s %8s %12s %10s %10s %10s\n", "series", "threads", "txn/s",
              "abort%", "p50us", "p99us");
  RunDisjointWriteScaling(secs, &rows_out);

  std::printf("\n# Conflict-heavy scaling: SSI mix on a 10-row table\n");
  std::printf("%-26s %8s %12s %10s %10s %10s\n", "series", "threads", "txn/s",
              "abort%", "p50us", "p99us");
  RunConflictHeavyScaling(secs, &rows_out);

  std::printf("\n# SERIALIZABLE new-key insert storm\n");
  std::printf("%-26s %8s %12s %10s %10s %10s\n", "series", "threads", "txn/s",
              "abort%", "p50us", "p99us");
  RunInsertStormScaling(secs, &rows_out);

  WriteBenchJson("sibench", rows_out);
  return 0;
}
