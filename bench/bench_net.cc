// Network front end benchmark: throughput and latency percentiles vs
// connection count, with an embedded-vs-wire A/B at each point.
//
// By default this starts an in-process net::Server (2 workers) over
// loopback and drives it with SIBENCH and DBT-2 wire clients, one
// connection per driver thread — so the 16- and 32-connection points
// run with connections at 8x and 16x the worker count, exercising the
// session-parking path rather than thread-per-connection. The embedded
// series runs the identical workload bodies in-process at the same
// concurrency, so the gap between the two series is the cost of the
// wire (framing + syscalls + scheduling), not a workload difference.
//
// With --connect=host:port the bench skips the in-process server and
// drives an externally started one (wire series only).
//
// Emits BENCH_net.json: "<workload>/{embedded,wire}" rows per
// connection count, plus per-transaction-class rows for DBT-2 in both
// modes.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench_common.h"
#include "net/client.h"
#include "net/server.h"
#include "workload/dbt2.h"
#include "workload/sibench.h"

using namespace pgssi;
using namespace pgssi::bench;
using namespace pgssi::workload;

int main(int argc, char** argv) {
  std::string connect;
  for (int i = 1; i < argc; i++) {
    if (std::strncmp(argv[i], "--connect=", 10) == 0) connect = argv[i] + 10;
  }

  const double secs = PointSeconds(1.0);
  const uint32_t workers = 2;
  const std::vector<int> conn_counts = {4, 16, 32};  // 2x, 8x, 16x workers

  std::unique_ptr<Database> db;
  std::unique_ptr<net::Server> server;
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  if (connect.empty()) {
    db = Database::Open(OptionsFor(Mode::kSSI));
    net::ServerOptions so;
    so.workers = workers;
    server = std::make_unique<net::Server>(db.get(), so);
    Status st = server->Start();
    if (!st.ok()) {
      std::fprintf(stderr, "server start failed: %s\n", st.ToString().c_str());
      return 1;
    }
    port = server->port();
  } else {
    const size_t colon = connect.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "--connect wants host:port\n");
      return 1;
    }
    host = connect.substr(0, colon);
    port = static_cast<uint16_t>(std::atoi(connect.c_str() + colon + 1));
  }
  const bool have_embedded = db != nullptr;

  std::printf("# Network front end: %s:%u, %u workers, %gs per point\n",
              host.c_str(), port, workers, secs);
  std::printf("%-24s %6s %12s %10s %10s\n", "series", "conns", "txn/s",
              "p50_us", "p99_us");
  std::vector<BenchRow> rows_out;

  auto report = [&](const std::string& series, int conns, DriverResult& r,
                    std::vector<std::pair<std::string, double>> extra) {
    extra.emplace_back("connections", conns);
    extra.emplace_back("net_workers", workers);
    extra.emplace_back("retries", static_cast<double>(r.retries));
    extra.emplace_back("overload_refusals",
                       static_cast<double>(r.overload_refusals));
    BenchRow row = RowFromDriver(series, conns, r);
    row.extra = extra;
    rows_out.push_back(row);
    AppendClassRows(series, conns, r, &rows_out, row.extra);
    std::printf("%-24s %6d %12.0f %10.0f %10.0f\n", series.c_str(), conns,
                r.Throughput(), r.latency_us.Percentile(50),
                r.latency_us.Percentile(99));
    std::fflush(stdout);
  };

  // ----- SIBENCH: 50/50 update/query mix, serializable -----
  for (int conns : conn_counts) {
    {
      net::WireDbClient wire(host, port);
      Sibench bench(&wire, 100);
      Status st = bench.Load();
      if (!st.ok()) {
        std::fprintf(stderr, "sibench wire load: %s\n", st.ToString().c_str());
        return 1;
      }
      DriverResult r = RunFixedDuration(
          [&](int, Random& rng) {
            return bench.RunMixed(rng, IsolationLevel::kSerializable);
          },
          conns, secs);
      report("sibench/wire", conns, r, {});
    }
    if (have_embedded) {
      Sibench bench(db.get(), 100);
      Status st = bench.Load();
      if (!st.ok()) {
        std::fprintf(stderr, "sibench load: %s\n", st.ToString().c_str());
        return 1;
      }
      DriverResult r = RunFixedDuration(
          [&](int, Random& rng) {
            return bench.RunMixed(rng, IsolationLevel::kSerializable);
          },
          conns, secs);
      report("sibench/embedded", conns, r, {});
    }
  }

  // ----- DBT-2: order-entry mix with per-class rows -----
  Dbt2Config cfg;
  cfg.warehouses = 8;
  cfg.read_only_fraction = 0.2;
  for (int conns : conn_counts) {
    {
      net::WireDbClient wire(host, port);
      Dbt2 bench(&wire, cfg);
      Status st = bench.Load();
      if (!st.ok()) {
        std::fprintf(stderr, "dbt2 wire load: %s\n", st.ToString().c_str());
        return 1;
      }
      const uint64_t trips0 = wire.round_trips();
      DriverResult r = RunFixedDurationClassed(
          [&](int, Random& rng, int* cls) { return bench.RunOne(rng, cls); },
          {Dbt2::kClassNames[0], Dbt2::kClassNames[1]}, conns, secs);
      // Every attempt's round trips (retries and aborts included) over
      // the committed transactions.
      const double trips_per_commit =
          r.committed > 0 ? static_cast<double>(wire.round_trips() - trips0) /
                                static_cast<double>(r.committed)
                          : 0;
      report("dbt2/wire", conns, r,
             {{"ro_frac", cfg.read_only_fraction},
              {"round_trips_per_commit", trips_per_commit}});
      std::printf("# dbt2/wire %d conns: %.2f round trips per committed "
                  "transaction\n",
                  conns, trips_per_commit);
    }
    if (have_embedded) {
      Dbt2 bench(db.get(), cfg);
      Status st = bench.Load();
      if (!st.ok()) {
        std::fprintf(stderr, "dbt2 load: %s\n", st.ToString().c_str());
        return 1;
      }
      DriverResult r = RunFixedDurationClassed(
          [&](int, Random& rng, int* cls) { return bench.RunOne(rng, cls); },
          {Dbt2::kClassNames[0], Dbt2::kClassNames[1]}, conns, secs);
      report("dbt2/embedded", conns, r, {{"ro_frac", cfg.read_only_fraction}});
    }
  }

  if (server) {
    const net::Server::Stats s = server->stats();
    std::printf("# server: accepted=%llu refused=%llu ops=%llu "
                "would_blocks=%llu read_pauses=%llu write_pauses=%llu\n",
                static_cast<unsigned long long>(s.accepted),
                static_cast<unsigned long long>(s.refused),
                static_cast<unsigned long long>(s.ops_executed),
                static_cast<unsigned long long>(s.would_blocks),
                static_cast<unsigned long long>(s.read_pauses),
                static_cast<unsigned long long>(s.write_pauses));
    server->Stop();
    server.reset();
  }

  // ----- Degradation: undersized admission under retrying clients -----
  // A fresh server capped well below the offered connection count, so a
  // fraction of Begins bounce off admission control with kOverloaded.
  // Clients honor the retry-after hint and back off; the row shows what
  // throughput survives plus how many refusals/retries it cost.
  if (have_embedded) {
    const int offered = 16;
    net::ServerOptions so;
    so.workers = workers;
    so.max_sessions = 6;  // driver threads churn conns against this cap
    net::Server small(db.get(), so);
    Status st = small.Start();
    if (!st.ok()) {
      std::fprintf(stderr, "undersized server start failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    net::WireDbClient wire(host, small.port());
    Sibench bench(&wire, 100);
    st = bench.Load();
    if (!st.ok()) {
      std::fprintf(stderr, "sibench degraded load: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    RetryPolicy retry;
    retry.max_attempts = 8;
    retry.retry_io_errors = true;  // refused conns surface as IOError too
    // Churn happens naturally: refused threads lose their connection,
    // back off, and re-dial, so admission keeps being exercised for the
    // whole window rather than the first max_sessions winners holding
    // their slots forever.
    DriverResult r = RunFixedDurationClassed(
        [&](int, Random& rng, int* cls) {
          *cls = -1;
          return bench.RunMixed(rng, IsolationLevel::kSerializable);
        },
        {}, offered, secs, retry);
    report("sibench/wire_undersized", offered, r,
           {{"max_sessions", static_cast<double>(so.max_sessions)},
            {"begin_refusals", static_cast<double>(wire.overload_refusals())},
            {"reconnects", static_cast<double>(wire.reconnects())}});
    const net::Server::Stats s = small.stats();
    std::printf("# undersized server: accepted=%llu refused=%llu\n",
                static_cast<unsigned long long>(s.accepted),
                static_cast<unsigned long long>(s.refused));
    small.Stop();
  }
  WriteBenchJson("net", rows_out);
  return 0;
}
