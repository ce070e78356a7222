// pgssi_bench: the scored DBT-2++ benchmark (see README.md here).
//
// One process runs one workload. It sets the workload up several times
// (setup_s is the median), warms up, then measures a closed loop of
// kClients threads with zero think time for kWindowSeconds. Every thread
// runs the stock workload::Dbt2 bodies over the stock EmbeddedClient or
// net::WireDbClient with its own seed-derived Random; a transaction
// that fails with a serialization failure is re-run with the same
// inputs until it commits, as an application would. After the window
// the correctness gates run. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones.
//
//   pgssi_bench --workload NAME --seed N --trace 0|1
//               [--scratch DIR] [--results FILE] [--trace-file FILE]
//   pgssi_bench --meta --seed N --trace 0|1 [--commit SHA]
//   pgssi_bench --selftest
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "histogram.h"
#include "net/client.h"
#include "net/server.h"
#include "tracing.h"
#include "util/random.h"
#include "workload/client.h"
#include "workload/dbt2.h"

using namespace pgssi;
using namespace pgssi::bench;
using workload::Dbt2;

namespace {

// One client per core of the 4-core reference container; fixed so that
// the offered load does not change with the machine.
constexpr int kClients = 4;
constexpr uint32_t kWarehouses = 16;  // Dbt2::Load commits one txn each
constexpr double kWarmupSeconds = 3.0;
// The measured window; run_seconds in BENCHMARK.json. It is fixed so that
// two result files always describe windows of the same length.
constexpr double kWindowSeconds = 20.0;
// The set-up repeats until it has run kMinSetups times and for
// kSetupSeconds. A small set-up takes a few ms and runs about 1.8 times
// slower in stretches of tens of ms on a shared host, so setup_s, the
// median, needs hundreds of repetitions; a large one needs a few.
constexpr size_t kMinSetups = 3;
constexpr double kSetupSeconds = 2.0;
constexpr uint64_t kSampleIntervalNs = 10'000'000;  // traced-run counters
// latency_p99_us is the median of the per-slice p99s: a burst of
// host-side stalls in a few seconds of the window moves a whole-window
// tail a lot, but the median slice not at all.
constexpr uint64_t kSliceNs = 1'000'000'000;
// Every 1-in-kKeepEvery attempts keeps its spans for the Chrome trace.
constexpr uint64_t kKeepEvery = 64;
constexpr size_t kMaxKeptSpansPerClient = 1 << 17;
// A transaction still failing serialization after this many attempts
// counts as failed (a livelock, not a workload property).
constexpr int kMaxAttempts = 1000;

enum class Transport { kEmbedded, kWire };

struct Workload {
  const char* name;
  double read_only_fraction;
  uint32_t stock_per_warehouse;
  Transport transport;
  bool wal;
};

// All SERIALIZABLE (SSI), DBT-2++ with 16 warehouses; README.md says
// why each was chosen.
constexpr Workload kWorkloads[] = {
    {"dbt2-ro80", 0.8, 100, Transport::kEmbedded, false},
    {"dbt2-rw-big", 0.1, 100'000, Transport::kEmbedded, false},
    {"dbt2-wire", 0.2, 100, Transport::kWire, false},
    {"dbt2-wal", 0.2, 100, Transport::kEmbedded, true},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  bool trace = false;
  bool meta = false;
  bool selftest = false;
  std::string scratch = "build-bench/scratch";
  std::string results;
  std::string trace_file;
  std::string commit = "unknown";
};

// ----- small utilities ------------------------------------------------------

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += ch;
    } else if (c < 0x20) {
      char b[8];
      std::snprintf(b, sizeof(b), "\\u%04x", c);
      out += b;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char b[40];
  std::snprintf(b, sizeof(b), "%.10g", v);
  return b;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

uint64_t RssBytes() {
  std::ifstream f("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  f >> size >> resident;
  return resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

std::string CpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') b++;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

// ----- metrics --------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t samples = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> gate_failures;

  void Add(std::string name, double v, std::string unit) {
    metrics.push_back({std::move(name), v, std::move(unit)});
  }
  void Gate(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      gate_failures.push_back(what);
    }
  }
  std::string Json() const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); i++) {
      if (i) out += ", ";
      out += JsonString(metrics[i].name) + ": {\"value\": " +
             Num(metrics[i].value) + ", \"unit\": " +
             JsonString(metrics[i].unit) + "}";
    }
    return out + "}}";
  }
};

// ----- one set-up of the system under test ---------------------------------

// Members are declared in construction order, so destruction runs
// workload, clients, server (Stop drains sessions), then the database.
struct Env {
  std::unique_ptr<Database> db;
  std::unique_ptr<net::Server> server;
  std::unique_ptr<workload::DbClient> client;
  std::unique_ptr<TracingClient> tracing;
  std::unique_ptr<Dbt2> dbt2;
};

DatabaseOptions OptionsFor(const Workload& w, const std::string& wal_dir) {
  DatabaseOptions opts;  // SSI; WAL group commit (kBatch) when enabled
  if (w.wal) {
    opts.engine.wal_enabled = true;
    opts.engine.wal_dir = wal_dir;
  }
  return opts;
}

Status Setup(const Workload& w, const DatabaseOptions& opts, bool trace,
             Env* e) {
  Status st;
  e->db = Database::Open(opts, &st);
  if (!e->db) return st;
  if (w.transport == Transport::kWire) {
    e->server = std::make_unique<net::Server>(e->db.get(), net::ServerOptions{});
    st = e->server->Start();
    if (!st.ok()) return st;
    e->client =
        std::make_unique<net::WireDbClient>("127.0.0.1", e->server->port());
  } else {
    e->client = std::make_unique<workload::EmbeddedClient>(e->db.get());
  }
  workload::DbClient* c = e->client.get();
  if (trace) {
    e->tracing = std::make_unique<TracingClient>(c);
    c = e->tracing.get();
  }
  workload::Dbt2Config cfg;
  cfg.warehouses = kWarehouses;
  cfg.stock_per_warehouse = w.stock_per_warehouse;
  cfg.read_only_fraction = w.read_only_fraction;
  cfg.isolation = IsolationLevel::kSerializable;
  e->dbt2 = std::make_unique<Dbt2>(c, cfg);
  return e->dbt2->Load();
}

// DBT-2 invariant: every committed new_order bumps one district counter
// (loaded as 1) and inserts one orders row, so the three counts agree.
std::string CheckInvariant(Database* db, uint64_t acked_new_orders) {
  auto t = db->Begin({.isolation = IsolationLevel::kRepeatableRead,
                      .read_only = true});
  std::vector<std::pair<std::string, std::string>> rows;
  Status st = t->Scan(db->GetTableId("district"), "", "\x7f", &rows);
  if (!st.ok()) return "district scan: " + st.ToString();
  uint64_t bumps = 0;
  for (const auto& [k, v] : rows) bumps += std::stoull(v) - 1;
  uint64_t orders = 0;
  st = t->Count(db->GetTableId("orders"), "", "\x7f", &orders);
  if (!st.ok()) return "orders count: " + st.ToString();
  (void)t->Commit();
  if (bumps == orders && orders == acked_new_orders) return "";
  return "district bumps " + std::to_string(bumps) + ", orders rows " +
         std::to_string(orders) + ", acknowledged new_orders " +
         std::to_string(acked_new_orders);
}

// ----- the closed loop ------------------------------------------------------

struct KeptTxn {
  uint64_t start_ns;
  uint64_t dur_ns;
  int cls;
  uint32_t first_span;
  uint32_t n_spans;
};

// Per-client accumulators: fixed memory during the window (the kept
// spans are reserved up front).
struct ClientState {
  LogHistogram all, cls[2];
  std::vector<LogHistogram> slices;  // `all`, per second of the window
  uint64_t attempts = 0, commits = 0, serialization_failures = 0;
  uint64_t txns = 0, failed_txns = 0, errors = 0;
  uint64_t acked_new_orders = 0;  // every phase: feeds the invariant
  std::string first_error;
  // Traced runs only.
  OpTrace scratch;
  LogHistogram op[kNumOps];
  uint64_t op_ns[kNumOps] = {};
  uint64_t txn_ns = 0;
  std::vector<KeptTxn> kept;
  std::vector<Span> kept_spans;
};

// The measured window. The main thread fixes both ends before opening
// it (end is stored before start is released), and an attempt counts
// when it starts and ends inside [start, end], so the window's length
// does not depend on when the main thread next gets a core.
struct Window {
  std::atomic<uint64_t> start{UINT64_MAX};
  std::atomic<uint64_t> end{0};
  std::atomic<bool> stop{false};

  bool Contains(uint64_t t0, uint64_t t1) const {
    const uint64_t s = start.load(std::memory_order_acquire);
    return s != UINT64_MAX && t0 >= s &&
           t1 <= end.load(std::memory_order_relaxed);
  }
  size_t SliceOf(uint64_t t) const {
    return static_cast<size_t>((t - start.load(std::memory_order_relaxed)) /
                               kSliceNs);
  }
};

void ClientLoop(int index, uint64_t seed, bool trace, Dbt2* dbt2,
                const Window* window, ClientState* c) {
  if (trace) tls_op_trace = &c->scratch;
  Random rng(SplitMix64(seed * 0x100 + static_cast<uint64_t>(index)));
  while (!window->stop.load(std::memory_order_relaxed)) {
    const Random inputs = rng;  // replayed on serialization failure
    for (int attempt = 1;; attempt++) {
      if (attempt > 1) rng = inputs;
      c->scratch.n = 0;
      const uint64_t t0 = NowNs();
      int cls = -1;
      const Status st = dbt2->RunOne(rng, &cls);
      const uint64_t t1 = NowNs();
      const bool in_window = window->Contains(t0, t1);
      const bool known = cls == Dbt2::kNewOrder || cls == Dbt2::kStockLevel;
      if (st.ok() && cls == Dbt2::kNewOrder) c->acked_new_orders++;
      const bool retry = st.IsSerializationFailure() && attempt < kMaxAttempts;
      if (!st.ok() && !retry) {
        c->errors++;
        if (c->first_error.empty()) c->first_error = st.ToString();
      }
      if (in_window) {
        c->attempts++;
        c->all.Add(t1 - t0);
        c->slices[std::min(window->SliceOf(t1), c->slices.size() - 1)].Add(t1 - t0);
        if (known) c->cls[cls].Add(t1 - t0);
        if (st.ok()) c->commits++;
        if (st.IsSerializationFailure()) c->serialization_failures++;
        if (st.ok() || !retry) {
          c->txns++;
          if (!st.ok()) c->failed_txns++;
        }
        if (trace) {
          const OpTrace& s = c->scratch;
          for (int i = 0; i < s.n; i++) {
            c->op[s.spans[i].op].Add(s.spans[i].dur_ns);
            c->op_ns[s.spans[i].op] += s.spans[i].dur_ns;
          }
          c->txn_ns += t1 - t0;
          if (c->attempts % kKeepEvery == 1 &&
              c->kept_spans.size() + static_cast<size_t>(s.n) <=
                  kMaxKeptSpansPerClient) {
            c->kept.push_back({t0, t1 - t0, known ? cls : -1,
                               static_cast<uint32_t>(c->kept_spans.size()),
                               static_cast<uint32_t>(s.n)});
            c->kept_spans.insert(c->kept_spans.end(), s.spans, s.spans + s.n);
          }
        }
      }
      if (!retry || window->stop.load(std::memory_order_relaxed)) break;
    }
  }
  tls_op_trace = nullptr;
}

// ----- counters sampled from the public engine and server API --------------

struct Counters {
  SsiStats ssi;
  uint64_t epoch_freed = 0;
  uint64_t wal_fsyncs = 0;
  uint64_t wal_bytes = 0;
  net::Server::Stats net;
};

Counters Snapshot(const Env& e, const std::string& wal_log) {
  Counters c;
  c.ssi = e.db->GetSsiStats();
  c.epoch_freed = e.db->EpochFreedObjectCount();
  c.wal_fsyncs = e.db->WalFsyncCount();
  if (!wal_log.empty()) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(wal_log, ec);
    if (!ec) c.wal_bytes = size;
  }
  if (e.server) c.net = e.server->stats();
  return c;
}

struct Gauges {
  size_t tuple_locks_max = 0, page_locks_max = 0, row_locks_max = 0;
  size_t epoch_retired_max = 0;
  LogHistogram horizon_lag;  // commit seqs behind the watermark
  LogHistogram ping_ns;
  uint64_t ping_errors = 0;

  void Sample(const Database& db) {
    tuple_locks_max = std::max(tuple_locks_max, db.SireadTupleLockCount());
    page_locks_max = std::max(page_locks_max, db.SireadPageLockCount());
    row_locks_max = std::max(row_locks_max, db.RowLockCount());
    epoch_retired_max =
        std::max(epoch_retired_max, db.EpochRetiredObjectCount());
    const uint64_t last = db.LastCommittedSeq();
    const uint64_t oldest = db.OldestActiveSnapshot();
    horizon_lag.Add(oldest < last ? last - oldest : 0);
  }
};

void WriteChromeTrace(const std::string& path,
                      const std::vector<std::unique_ptr<ClientState>>& cs,
                      uint64_t t_start) {
  std::ofstream f(path, std::ios::trunc);
  f << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  bool first = true;
  auto us = [](uint64_t ns) { return Num(static_cast<double>(ns) / 1e3); };
  auto event = [&](const char* name, const char* cat, uint64_t start,
                   uint64_t dur, size_t tid, uint64_t txn) {
    f << (first ? "" : ",\n") << "{\"name\": \"" << name << "\", \"cat\": \""
      << cat << "\", \"ph\": \"X\", \"ts\": "
      << us(start > t_start ? start - t_start : 0) << ", \"dur\": " << us(dur)
      << ", \"pid\": 1, \"tid\": " << tid << ", \"args\": {\"txn\": " << txn
      << "}}";
    first = false;
  };
  for (size_t t = 0; t < cs.size(); t++) {
    const ClientState& c = *cs[t];
    for (size_t k = 0; k < c.kept.size(); k++) {
      const KeptTxn& kt = c.kept[k];
      const uint64_t id = (t << 32) | k;
      event(kt.cls >= 0 ? Dbt2::kClassNames[kt.cls] : "txn", "txn",
            kt.start_ns, kt.dur_ns, t + 1, id);
      for (uint32_t i = 0; i < kt.n_spans; i++) {
        const Span& s = c.kept_spans[kt.first_span + i];
        event(kOpNames[s.op], "op", s.start_ns, s.dur_ns, t + 1, id);
      }
    }
  }
  f << "\n]}\n";
}

// ----- one run --------------------------------------------------------------

Result RunWorkload(const Args& a, const Workload& w) {
  namespace fs = std::filesystem;
  Result r;
  const std::string wal_dir = a.scratch + "/wal-" + w.name;
  const std::string wal_log = w.wal ? wal_dir + "/wal.log" : "";
  const DatabaseOptions opts = OptionsFor(w, wal_dir);

  // Set up several times; the last set-up is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<Env> env;
  const uint64_t setup_end = NowNs() + static_cast<uint64_t>(kSetupSeconds * 1e9);
  while (setup_s.size() < kMinSetups || NowNs() < setup_end) {
    env.reset();
    if (w.wal) {
      fs::remove_all(wal_dir);
      fs::create_directories(wal_dir);
    }
    env = std::make_unique<Env>();
    const uint64_t t0 = NowNs();
    const Status st = Setup(w, opts, a.trace, env.get());
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!st.ok()) {
      r.Gate(false, "set-up: " + st.ToString());
      return r;
    }
  }

  std::vector<std::unique_ptr<ClientState>> cs;
  for (int i = 0; i < kClients; i++) {
    cs.push_back(std::make_unique<ClientState>());
    cs.back()->slices.resize(static_cast<size_t>(kWindowSeconds * 1e9) / kSliceNs);
    if (a.trace) {
      cs.back()->kept.reserve(kMaxKeptSpansPerClient / 2);
      cs.back()->kept_spans.reserve(kMaxKeptSpansPerClient);
    }
  }
  std::unique_ptr<net::WireClient> ping;
  if (a.trace && env->server) {
    ping = std::make_unique<net::WireClient>();
    if (!ping->Connect("127.0.0.1", env->server->port()).ok()) ping.reset();
  }

  Window window;
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; i++) {
    threads.emplace_back(ClientLoop, i, a.seed, a.trace, env->dbt2.get(),
                         &window, cs[static_cast<size_t>(i)].get());
  }
  auto sleep_until = [](uint64_t ns) {
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::nanoseconds(ns)));
  };
  sleep_until(NowNs() + static_cast<uint64_t>(kWarmupSeconds * 1e9));

  Gauges g;
  const Counters c0 = Snapshot(*env, wal_log);
  const uint64_t rss0 = RssBytes();
  const double cpu0 = CpuSeconds();
  const uint64_t t_start = NowNs();
  const uint64_t t_end = t_start + static_cast<uint64_t>(kWindowSeconds * 1e9);
  window.end.store(t_end, std::memory_order_relaxed);
  window.start.store(t_start, std::memory_order_release);
  if (a.trace) {
    for (uint64_t next = t_start; next < t_end; next += kSampleIntervalNs) {
      sleep_until(next);
      g.Sample(*env->db);
      if (ping) {
        const uint64_t p0 = NowNs();
        if (ping->Ping().ok()) {
          g.ping_ns.Add(NowNs() - p0);
        } else {
          g.ping_errors++;
        }
      }
    }
  }
  sleep_until(t_end);
  const double cpu1 = CpuSeconds();
  const uint64_t rss1 = RssBytes();
  const Counters c1 = Snapshot(*env, wal_log);
  window.stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  if (ping) ping->Close();

  // Fold the clients.
  const auto tot_owner = std::make_unique<ClientState>();
  ClientState& tot = *tot_owner;
  for (const auto& cp : cs) {
    const ClientState& c = *cp;
    tot.all.Merge(c.all);
    for (int k = 0; k < 2; k++) tot.cls[k].Merge(c.cls[k]);
    tot.attempts += c.attempts;
    tot.commits += c.commits;
    tot.serialization_failures += c.serialization_failures;
    tot.txns += c.txns;
    tot.failed_txns += c.failed_txns;
    tot.errors += c.errors;
    tot.acked_new_orders += c.acked_new_orders;
    if (tot.first_error.empty()) tot.first_error = c.first_error;
    for (int o = 0; o < kNumOps; o++) {
      tot.op[o].Merge(c.op[o]);
      tot.op_ns[o] += c.op_ns[o];
    }
    tot.txn_ns += c.txn_ns;
  }
  r.attempted = tot.txns;
  r.failed = tot.failed_txns;
  r.samples = tot.attempts;
  const double window_s = static_cast<double>(t_end - t_start) / 1e9;
  const double commits = static_cast<double>(tot.commits);

  // ----- correctness gates -----
  r.Gate(tot.commits > 0, "no commits in the window");
  r.Gate(tot.errors == 0, "non-serialization errors: " +
                              std::to_string(tot.errors) + " (first: " +
                              tot.first_error + ")");
  r.Gate(g.ping_errors == 0, "ping errors: " + std::to_string(g.ping_errors));
  if (env->server) {
    env->dbt2.reset();
    env->tracing.reset();
    env->client.reset();
    env->server->Stop();
    r.Gate(env->server->active_sessions() == 0,
           "sessions left after Server::Stop");
    r.Gate(env->server->stats().shutdown_aborts == 0,
           "Server::Stop aborted in-flight transactions");
  }
  Database* db = env->db.get();
  db->QuiesceEpochs();
  r.Gate(db->CheckSsiLockConsistency(), "SIREAD lock tables inconsistent");
  r.Gate(db->RowLockCount() == 0,
         "row locks left: " + std::to_string(db->RowLockCount()));
  const std::string inv = CheckInvariant(db, tot.acked_new_orders);
  r.Gate(inv.empty(), "DBT-2 invariant: " + inv);
  const size_t stock_leaves = db->IndexLeafCount(db->GetTableId("stock"));
  const TableId orders = db->GetTableId("orders");
  const double orders_leaves_per_kentry =
      1000.0 * Ratio(static_cast<double>(db->IndexLeafCount(orders)),
                     static_cast<double>(db->IndexEntryCount(orders)));

  // Durability: every acknowledged commit must survive a restart.
  double recovery_s = 0;
  const double logged_commits =
      static_cast<double>(tot.acked_new_orders + kWarehouses);
  if (w.wal) {
    env.reset();
    Status st;
    const uint64_t t0 = NowNs();
    std::unique_ptr<Database> reopened = Database::Open(opts, &st);
    recovery_s = static_cast<double>(NowNs() - t0) / 1e9;
    if (!reopened) {
      r.Gate(false, "re-open after close: " + st.ToString());
    } else {
      const std::string again =
          CheckInvariant(reopened.get(), tot.acked_new_orders);
      r.Gate(again.empty(), "DBT-2 invariant after recovery: " + again);
    }
    reopened.reset();
    std::error_code ec;
    fs::remove_all(wal_dir, ec);
  }
  env.reset();

  if (!a.trace) {
    r.Add("throughput_tps", commits / window_s, "txn/s");
    r.Add("latency_p50_us", tot.all.Percentile(50) / 1e3, "us");
    std::vector<double> slice_p99;
    for (size_t k = 0; k < cs[0]->slices.size(); k++) {
      LogHistogram h;
      for (const auto& c : cs) h.Merge(c->slices[k]);
      slice_p99.push_back(h.Percentile(99) / 1e3);
    }
    r.Add("latency_p99_us", Median(slice_p99), "us");
    r.Add("rw_latency_p50_us", tot.cls[Dbt2::kNewOrder].Percentile(50) / 1e3,
          "us");
    r.Add("ro_latency_p50_us",
          tot.cls[Dbt2::kStockLevel].Percentile(50) / 1e3, "us");
    r.Add("abort_rate",
          Ratio(static_cast<double>(tot.serialization_failures),
                static_cast<double>(tot.attempts)),
          "fraction");
    r.Add("cpu_us_per_txn", (cpu1 - cpu0) * 1e6 / commits, "us/txn");
    r.Add("mem_bytes_per_txn",
          (static_cast<double>(rss1) - static_cast<double>(rss0)) / commits,
          "B/txn");
    r.Add("setup_s", Median(setup_s), "s");
    return r;
  }

  double op_total_ns = 0;
  for (int o = 0; o < kNumOps; o++) op_total_ns += static_cast<double>(tot.op_ns[o]);
  const double txn_ns = static_cast<double>(tot.txn_ns);
  for (Op o : {kBegin, kGet, kPut, kInsert, kCount, kCommit}) {
    const std::string p = std::string("op.") + kOpNames[o];
    r.Add(p + ".p50_us", tot.op[o].Percentile(50) / 1e3, "us");
    r.Add(p + ".p99_us", tot.op[o].Percentile(99) / 1e3, "us");
    r.Add(p + ".share", Ratio(static_cast<double>(tot.op_ns[o]), txn_ns),
          "fraction");
  }
  const double kilo = commits / 1e3;
  r.Add("txn.horizon_lag_p99", g.horizon_lag.Percentile(99), "seqs");
  r.Add("ssi.aborts_per_ktxn",
        Ratio(static_cast<double>(c1.ssi.ssi_aborts - c0.ssi.ssi_aborts), kilo),
        "1/ktxn");
  r.Add("ssi.page_promotions_per_txn",
        Ratio(static_cast<double>(c1.ssi.page_promotions -
                                  c0.ssi.page_promotions),
              commits),
        "1/txn");
  r.Add("ssi.relation_promotions_per_ktxn",
        Ratio(static_cast<double>(c1.ssi.relation_promotions -
                                  c0.ssi.relation_promotions),
              kilo),
        "1/ktxn");
  r.Add("ssi.safe_snapshot_share",
        Ratio(static_cast<double>(c1.ssi.safe_snapshots -
                                  c0.ssi.safe_snapshots),
              static_cast<double>(tot.cls[Dbt2::kStockLevel].count())),
        "fraction");
  r.Add("ssi.tuple_locks_max", static_cast<double>(g.tuple_locks_max), "count");
  r.Add("ssi.page_locks_max", static_cast<double>(g.page_locks_max), "count");
  r.Add("db.ww_aborts_per_ktxn",
        Ratio(static_cast<double>(c1.ssi.ww_aborts - c0.ssi.ww_aborts), kilo),
        "1/ktxn");
  r.Add("db.row_locks_max", static_cast<double>(g.row_locks_max), "count");
  r.Add("index.stock_leaves", static_cast<double>(stock_leaves), "count");
  r.Add("index.orders_leaves_per_kentry", orders_leaves_per_kentry, "1/kentry");
  r.Add("wal.fsyncs_per_txn",
        Ratio(static_cast<double>(c1.wal_fsyncs - c0.wal_fsyncs), commits),
        "1/txn");
  r.Add("wal.bytes_per_txn",
        Ratio(static_cast<double>(c1.wal_bytes - c0.wal_bytes), commits),
        "B/txn");
  r.Add("wal.recovery_s", recovery_s, "s");
  r.Add("wal.recovery_us_per_txn",
        w.wal ? recovery_s * 1e6 / logged_commits : 0, "us/txn");
  r.Add("epoch.retired_max", static_cast<double>(g.epoch_retired_max), "count");
  r.Add("epoch.freed_per_txn",
        Ratio(static_cast<double>(c1.epoch_freed - c0.epoch_freed), commits),
        "1/txn");
  r.Add("net.ping_rtt_p50_us", g.ping_ns.Percentile(50) / 1e3, "us");
  r.Add("net.ping_rtt_p99_us", g.ping_ns.Percentile(99) / 1e3, "us");
  r.Add("net.ops_per_txn",
        Ratio(static_cast<double>(c1.net.ops_executed - c0.net.ops_executed),
              commits),
        "1/txn");
  r.Add("net.would_blocks_per_ktxn",
        Ratio(static_cast<double>(c1.net.would_blocks - c0.net.would_blocks),
              kilo),
        "1/ktxn");
  r.Add("net.read_pauses",
        static_cast<double>(c1.net.read_pauses - c0.net.read_pauses), "count");
  r.Add("net.write_pauses",
        static_cast<double>(c1.net.write_pauses - c0.net.write_pauses),
        "count");
  r.Add("client.self_share",
        1 - Ratio(txn_ns, static_cast<double>(t_end - t_start) * kClients),
        "fraction");
  r.Add("client.latency_p999_us", tot.all.Percentile(99.9) / 1e3, "us");
  r.Add("client.samples", static_cast<double>(tot.attempts), "count");
  r.Add("trace.coverage", Ratio(op_total_ns, txn_ns), "fraction");
  r.Add("trace.throughput_tps", commits / window_s, "txn/s");
  if (!a.trace_file.empty()) WriteChromeTrace(a.trace_file, cs, t_start);
  return r;
}

// ----- self-test of the histogram -------------------------------------------

int SelfTest() {
  Random rng(42);
  std::vector<uint64_t> samples;
  LogHistogram h, a, b;
  for (int i = 0; i < 1'000'000; i++) {
    // Log-uniform over 50 ns .. 50 ms, plus a run of exact ties.
    const uint64_t v =
        i % 10 == 0 ? 1234
                    : static_cast<uint64_t>(50 * std::pow(1e6, rng.NextDouble()));
    samples.push_back(v);
    h.Add(v);
    (i % 2 ? a : b).Add(v);
  }
  a.Merge(b);
  std::sort(samples.begin(), samples.end());
  int bad = 0;
  for (double p : {1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    const size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(samples.size())));
    const double exact = static_cast<double>(samples[rank - 1]);
    const double got = h.Percentile(p);
    const double err = std::fabs(got - exact) / exact;
    const bool ok = err <= 0.01 && a.Percentile(p) == got;
    std::printf("selftest p%-5g exact %-10.0f histogram %-12.1f rel.err %.5f %s\n",
                p, exact, got, err, ok ? "ok" : "FAIL");
    if (!ok) bad++;
  }
  if (LogHistogram().Percentile(50) != 0 || h.count() != samples.size()) bad++;
  std::printf("selftest %s\n", bad ? "FAILED" : "passed");
  return bad ? 1 : 0;
}

std::string MetaJson(const Args& a) {
  std::string out = "{\"meta\": {\"seed\": " + std::to_string(a.seed);
  out += ", \"window_s\": " + Num(kWindowSeconds);
  out += ", \"warmup_s\": " + Num(kWarmupSeconds);
  out += ", \"clients\": " + std::to_string(kClients);
  out += ", \"trace\": " + std::string(a.trace ? "1" : "0");
  out += ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"cpu_model\": " + JsonString(CpuModel());
  out += ", \"compiler\": " + JsonString(PGSSI_BENCH_COMPILER);
  out += ", \"build_type\": " + JsonString(PGSSI_BENCH_BUILD_TYPE);
  out += ", \"commit\": " + JsonString(a.commit);
  return out + "}}";
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; i++) {
    const std::string k = argv[i];
    if (k == "--meta") {
      a->meta = true;
      continue;
    }
    if (k == "--selftest") {
      a->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--scratch") {
      a->scratch = v;
    } else if (k == "--results") {
      a->results = v;
    } else if (k == "--trace-file") {
      a->trace_file = v;
    } else if (k == "--commit") {
      a->commit = v;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: pgssi_bench --workload NAME --seed N "
                 "--trace 0|1 [--scratch DIR] [--results FILE] "
                 "[--trace-file FILE] | --meta ... | --selftest\n");
    return 2;
  }
  if (a.selftest) return SelfTest();
  if (a.meta) {
    std::printf("%s\n", MetaJson(a).c_str());
    return 0;
  }
  const Workload* w = nullptr;
  for (const Workload& k : kWorkloads) {
    if (a.workload == k.name) w = &k;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(a.scratch);

  const Result r = RunWorkload(a, *w);
  for (const std::string& f : r.gate_failures) {
    std::fprintf(stderr, "%s: correctness gate failed: %s\n", w->name, f.c_str());
  }
  for (const Metric& m : r.metrics) {
    std::printf("%s %s %s %s\n", w->name, m.name.c_str(), Num(m.value).c_str(),
                m.unit.c_str());
  }
  const std::string json = r.Json();
  if (!a.results.empty()) {
    std::ofstream f(a.results, std::ios::app);
    f << "{\"workload\": " << JsonString(w->name)
      << ", \"samples\": " << r.samples << ", \"result\": " << json << "}\n";
  }
  std::printf("%s\n", json.c_str());
  return r.correct ? 0 : 1;
}
