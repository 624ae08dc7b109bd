// End-to-end benchmark of the coloring pipeline through its public API.
//
//   picasso_perf prepare --workload W --data-dir DIR
//   picasso_perf run --workload W --seed N --seconds S --trace 0|1
//                    --data-dir DIR --work-dir DIR [--trace-out FILE]
//
// `prepare` generates the workload's molecule datasets into the data
// directory (the library's PICASSO_DATA_DIR disk cache), so measured runs
// load them from disk. `run` executes one workload with the default
// SessionBuilder configuration (Auto strategy, one worker per core; only
// the seed, the memory budget, the spill directory and, when traced, the
// telemetry level are set) and prints, as its last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. The line before it
// is {"report": ...}: host and plan facts, sample counts, the failure
// breakdown and the coloring hash of every (dataset, seed) key solved.
//
// --trace 0 reports the end-to-end metrics. --trace 1 splits the measured
// time into an untraced and a traced half and reports the per-layer
// metrics: the benchmark's own spans around each public call, the
// library's Full telemetry (phase spans, work counters, MemoryReport), the
// service's StatsMsg and ResultMsg.seconds, and layer microbenches on the
// workload's own inputs. Spans stay in memory until --trace-out is written
// at exit.
//
// Every coloring is verified outside the timed region against the exact
// complement oracle, and a (dataset, seed) key must hash identically on
// every solve and every cache hit. Any failure makes "correct" false and
// the exit code 1.

#include <sys/resource.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "pauli/datasets.hpp"
#include "pauli/pauli_packed.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "util/fnv.hpp"
#include "util/memory.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

#ifndef PICASSO_PERF_BUILD_TYPE
#define PICASSO_PERF_BUILD_TYPE "unknown"
#endif

namespace {

namespace fs = std::filesystem;
using namespace picasso;
using perf::JsonObject;
using perf::SpanLog;
using perf::SpanScope;

constexpr double kMB = 1e6;
/// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 25;
/// serve-mixed: closed-loop clients, cache hits issued after each miss,
/// and how many of a client's latest keys per dataset the hits draw from
/// (all clients' keys together stay far below the server's LRU capacity,
/// so every repeat is answered from cache).
constexpr std::size_t kClients = 2;
constexpr int kHitsPerMiss = 4;
constexpr std::size_t kRecentKeys = 4;

// ---------------------------------------------------------------------------
// Workloads.

struct WorkloadSpec {
  std::string name;
  std::vector<std::string> datasets;
  bool budgeted = false;  // memory budget = the encoded input's bytes
  bool served = false;    // through service::Server / service::Client
};

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = {
      {"solve-medium", {"H4_3D_631g", "H6_3D_631g", "H8_2D_sto3g"}, false,
       false},
      {"solve-budgeted", {"H6_3D_631g", "H8_2D_sto3g"}, true, false},
      {"serve-mixed",
       {"H4_3D_sto3g", "H4_2D_sto3g", "H4_1D_sto3g", "H6_3D_sto3g",
        "H6_2D_sto3g", "H6_1D_sto3g", "H4_2D_631g"},
       false, true},
  };
  return all;
}

const WorkloadSpec& workload_by_name(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

/// Palette seed number `salt` of a run with workload seed `base`.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t salt) {
  util::SplitMix64 sm(base * 0x9e3779b97f4a7c15ull + salt);
  return sm.next();
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// Options.

struct Options {
  std::string command;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir;
  std::string work_dir;
  std::string trace_out;
};

Options parse_options(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing command (prepare|run)");
  Options opt;
  opt.command = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value: " + flag);
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--data-dir") {
      opt.data_dir = value;
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag: " + flag);
    }
  }
  if (opt.command != "prepare" && opt.command != "run") {
    throw std::invalid_argument("unknown command: " + opt.command);
  }
  if (opt.workload.empty() || opt.data_dir.empty() ||
      (opt.command == "run" && opt.work_dir.empty())) {
    throw std::invalid_argument("--workload, --data-dir and --work-dir needed");
  }
  return opt;
}

// ---------------------------------------------------------------------------
// One run: the calls it made and everything reported about them.

/// One timed public call: Session::solve, or a Client::solve round trip.
struct Call {
  std::size_t dataset = 0;
  std::uint64_t seed = 0;
  bool ok = false;
  bool cache_hit = false;  // answered from the server's result cache
  double ms = 0.0;
  double server_ms = 0.0;  // ResultMsg.seconds (served calls)
  double plan_us = 0.0;    // Session::plan before the solve (traced solves)
  double colors_pct = 0.0;
  std::size_t peak_tracked = 0;  // MemoryReport.peak_tracked_bytes (solves)
  std::uint64_t hash = 0;        // coloring_hash as answered
  bool fingerprint_ok = false;   // colors hash to `hash`
  std::uint64_t span = 0;        // benchmark span around the call
  std::vector<std::uint32_t> colors;        // misses and solves only
  std::shared_ptr<api::SolveReport> report;  // solves only
};

struct Failures {
  std::uint64_t errors = 0;           // threw, or answered with an error
  std::uint64_t invalid = 0;          // coloring fails the exact oracle
  std::uint64_t nonrepro = 0;         // a key hashed differently elsewhere
  std::uint64_t bad_fingerprint = 0;  // colors do not match coloring_hash

  std::uint64_t total() const {
    return errors + invalid + nonrepro + bad_fingerprint;
  }
};

struct Run {
  explicit Run(const Options& o)
      : opt(o), spec(workload_by_name(o.workload)) {}

  const Options& opt;
  const WorkloadSpec& spec;
  /// Palette seed of solve round r. Every round draws a fresh seed, so a
  /// run's medians average over many palettes rather than two; keys repeat
  /// through the warm-up and, in traced runs, the second half.
  std::uint64_t round_seed(std::size_t round) const {
    return derive_seed(opt.seed, round);
  }
  std::vector<const pauli::PauliSet*> sets;

  std::vector<double> setup_s;
  std::vector<Call> warmup, untraced, timed;
  std::vector<Call> probes;  // serve-mixed: local re-solves of server keys
  double timed_wall_s = 0.0;  // serve-mixed: the timed loop's wall time
  double peak_tracked = 0.0;  // bytes
  /// Solves whose Full telemetry feeds the per-layer metrics.
  std::vector<const Call*> layer_solves;
  double cache_hit_ratio = 0.0;  // StatsMsg (serve-mixed)

  Failures failures;
  std::map<std::string, std::uint64_t> hashes;  // key -> coloring hash
  std::vector<SpanLog> logs;
  std::vector<std::string> solve_trace_lines;
  JsonObject metrics;
  JsonObject report;

  std::string key(std::size_t d, std::uint64_t seed) const {
    return spec.datasets[d] + "/" + std::to_string(seed);
  }

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.raw(name,
                JsonObject().num("value", value).str("unit", unit).dump());
  }

  /// Records the hash of a solved key; a key seen before must match.
  void note_hash(const std::string& k, std::uint64_t hash) {
    const auto [it, fresh] = hashes.emplace(k, hash);
    if (!fresh && it->second != hash) {
      ++failures.nonrepro;
      std::fprintf(stderr, "FAIL: %s hashed %s, earlier %s\n", k.c_str(),
                   hex(hash).c_str(), hex(it->second).c_str());
    }
  }

  void load_sets() {
    pauli::clear_dataset_cache();
    sets.clear();
    for (const auto& name : spec.datasets) {
      sets.push_back(&pauli::load_dataset(pauli::dataset_by_name(name)));
    }
  }

  std::size_t budget_for(std::size_t d) const {
    return spec.budgeted ? sets[d]->logical_bytes() : 0;
  }

  std::string spill_dir() const { return opt.work_dir + "/spill"; }

  /// The benchmark's Session: the default builder plus seed, budget,
  /// spill placement, telemetry and (speedup probe only) a thread count.
  api::Session session(std::size_t d, std::uint64_t seed,
                       obs::TelemetryLevel level,
                       std::uint32_t threads = 0) const {
    api::SessionBuilder builder;
    builder.seed(seed).spill_dir(spill_dir()).telemetry(level);
    if (budget_for(d) > 0) builder.memory_budget(budget_for(d));
    if (threads > 0) {
      runtime::RuntimeConfig config;
      config.num_threads = threads;
      builder.runtime(config);
    }
    return builder.build();
  }

  /// Session::solve as one call; plan timing and Full telemetry when
  /// `log` is set (the traced half).
  Call solve(std::size_t d, std::uint64_t seed, SpanLog* log) {
    Call call;
    call.dataset = d;
    call.seed = seed;
    const api::Session s = session(
        d, seed, log != nullptr ? obs::TelemetryLevel::Full
                                : obs::TelemetryLevel::Off);
    const api::Problem problem = api::Problem::pauli(*sets[d]);
    const std::uint64_t request = next_request++;
    SpanScope outer(log, "perf.solve_call", request);
    if (log != nullptr) {
      SpanScope span(log, "api.Session::plan", request);
      const util::WallTimer t;
      (void)s.plan(problem);
      call.plan_us = t.seconds() * 1e6;
    }
    try {
      SpanScope span(log, "api.Session::solve", request);
      call.span = span.id();
      const util::WallTimer t;
      call.report = std::make_shared<api::SolveReport>(s.solve(problem));
      call.ms = t.milliseconds();
      call.ok = true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "FAIL: solve %s threw: %s\n", key(d, seed).c_str(),
                   e.what());
      return call;
    }
    const core::PicassoResult& result = call.report->result;
    call.colors = result.colors;
    call.hash = util::coloring_fingerprint(call.colors);
    call.fingerprint_ok = true;
    call.colors_pct = result.color_percent();
    call.peak_tracked = result.memory.peak_tracked_bytes;
    return call;
  }

  unsigned nproc() const {
    return std::max(1u, std::thread::hardware_concurrency());
  }

  std::uint64_t next_request = 1;
};

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / kMB;  // KiB
}

// ---------------------------------------------------------------------------
// solve-medium / solve-budgeted: sequential Session::solve calls.

void solve_setup(Run& run) {
  for (int i = 0; i < kSetupRepeats; ++i) {
    const util::WallTimer t;
    run.load_sets();
    for (std::size_t d = 0; d < run.sets.size(); ++d) {
      const api::Session s =
          run.session(d, run.round_seed(0), obs::TelemetryLevel::Off);
      (void)s.plan(api::Problem::pauli(*run.sets[d]));
    }
    run.setup_s.push_back(t.seconds());
  }
}

/// Whole rounds (one solve per dataset) until `seconds` have passed;
/// round r uses palette seed round_seed(r).
void solve_loop(Run& run, double seconds, SpanLog* log,
                std::vector<Call>& out) {
  const util::WallTimer clock;
  for (std::size_t round = 0; round == 0 || clock.seconds() < seconds;
       ++round) {
    for (std::size_t d = 0; d < run.sets.size(); ++d) {
      out.push_back(run.solve(d, run.round_seed(round), log));
    }
  }
}

void solve_execute(Run& run) {
  // Warm-up: starts the process thread pool and warms the allocator; it
  // is verified like every call and repeats key (0, round_seed(0)).
  run.warmup.push_back(run.solve(0, run.round_seed(0), nullptr));
  if (run.opt.trace) {
    solve_loop(run, run.opt.seconds / 2, nullptr, run.untraced);
    run.logs.emplace_back(1);
    solve_loop(run, run.opt.seconds / 2, &run.logs.back(), run.timed);
  } else {
    solve_loop(run, run.opt.seconds, nullptr, run.timed);
  }
  for (const Call& c : run.timed) {
    if (!c.ok) continue;
    run.peak_tracked =
        std::max(run.peak_tracked, static_cast<double>(c.peak_tracked));
    run.layer_solves.push_back(&c);
  }
}

// ---------------------------------------------------------------------------
// serve-mixed: an in-process server on a unix socket, driven in a closed
// loop by kClients connections of distinct tenants.

class ServeRig {
 public:
  ServeRig() = default;
  ~ServeRig() { stop(); }
  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;

  void start(const std::string& socket, const std::string& spill_dir) {
    service::ServerConfig config;
    config.listen = "unix:" + socket;
    config.spill_dir = spill_dir;
    server_ = std::make_unique<service::Server>();
    server_->start(config);
    for (std::size_t c = 0; c < kClients; ++c) {
      clients_.emplace_back(
          new service::Client(service::Client::connect(server_->address())));
    }
  }

  void stop() {
    clients_.clear();
    if (server_) server_->stop();
    server_.reset();
  }

  service::Client& client(std::size_t c) { return *clients_[c]; }

 private:
  std::unique_ptr<service::Server> server_;
  std::vector<std::unique_ptr<service::Client>> clients_;
};

/// One Client::solve round trip as one call.
Call serve_call(Run& run, service::Client& client, std::size_t c,
                std::size_t d, std::uint64_t seed, SpanLog* log,
                std::uint64_t request) {
  Call call;
  call.dataset = d;
  call.seed = seed;
  service::RemoteParams params;
  params.seed = seed;
  service::RemoteResult result;
  try {
    SpanScope span(log, "service.Client::solve", request);
    call.span = span.id();
    const util::WallTimer t;
    result = client.solve(*run.sets[d], params, "tenant-" + std::to_string(c));
    call.ms = t.milliseconds();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAIL: request %s threw: %s\n",
                 run.key(d, seed).c_str(), e.what());
    return call;
  }
  if (!result.ok) {
    std::fprintf(stderr, "FAIL: request %s answered %s: %s\n",
                 run.key(d, seed).c_str(),
                 service::to_string(result.error_code),
                 result.error_message.c_str());
    return call;
  }
  call.ok = true;
  call.cache_hit = result.result.cache_hit;
  call.server_ms = result.result.seconds * 1e3;
  call.hash = result.result.coloring_hash;
  call.colors_pct = 100.0 * result.result.num_colors /
                    static_cast<double>(run.sets[d]->size());
  // Checked here, outside the timed call, so a hit's colors need not be
  // kept; a miss keeps its colors for the oracle check.
  call.fingerprint_ok =
      util::coloring_fingerprint(result.result.colors) == call.hash;
  if (!call.cache_hit) call.colors = std::move(result.result.colors);
  return call;
}

/// Client c's closed loop: blocks of one miss (a fresh seed on the next
/// dataset of a seeded order) then kHitsPerMiss repeats of the client's
/// latest keys of that same dataset, so every run sends the same mix of
/// datasets on both paths.
void client_loop(Run& run, service::Client& client, std::size_t c,
                 const std::vector<std::size_t>& order, double seconds,
                 std::uint64_t salt, SpanLog* log, std::vector<Call>& out) {
  util::Xoshiro256 rng(derive_seed(run.opt.seed, 1000 + salt + c));
  std::map<std::size_t, std::vector<std::uint64_t>> recent;  // dataset -> seeds
  std::uint64_t request = (std::uint64_t{c} << 32) | (salt << 24);
  const util::WallTimer clock;
  for (std::uint64_t block = 0; block == 0 || clock.seconds() < seconds;
       ++block) {
    const std::size_t d = order[(block * kClients + c) % order.size()];
    const std::uint64_t seed =
        derive_seed(run.opt.seed, (salt << 40) | (std::uint64_t{c} << 32) |
                                      (block + 2));
    out.push_back(serve_call(run, client, c, d, seed, log, ++request));
    std::vector<std::uint64_t>& keys = recent[d];
    if (out.back().ok) {
      if (keys.size() == kRecentKeys) keys.erase(keys.begin());
      keys.push_back(seed);
    }
    for (int h = 0; h < kHitsPerMiss && !keys.empty(); ++h) {
      const std::uint64_t repeat = keys[rng.bounded(keys.size())];
      out.push_back(serve_call(run, client, c, d, repeat, log, ++request));
    }
  }
}

/// Runs every client's loop on its own thread; returns the wall seconds.
double serve_loop(Run& run, ServeRig& rig,
                  const std::vector<std::size_t>& order, double seconds,
                  std::uint64_t salt, bool traced, std::vector<Call>& out) {
  std::vector<std::vector<Call>> per_client(kClients);
  std::vector<SpanLog> logs;
  for (std::size_t c = 0; c < kClients; ++c) {
    logs.emplace_back((std::uint64_t{c + 1} << 40) | (salt << 32));
  }
  const util::WallTimer wall;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      client_loop(run, rig.client(c), c, order, seconds, salt,
                  traced ? &logs[c] : nullptr, per_client[c]);
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed = wall.seconds();
  for (auto& calls : per_client) {
    for (Call& call : calls) out.push_back(std::move(call));
  }
  if (traced) {
    for (auto& log : logs) run.logs.push_back(std::move(log));
  }
  return elapsed;
}

void serve_execute(Run& run) {
  ServeRig rig;
  for (int i = 0; i < kSetupRepeats; ++i) {
    rig.stop();
    const util::WallTimer t;
    run.load_sets();
    rig.start(run.opt.work_dir + "/sock" + std::to_string(i),
              run.spill_dir());
    run.setup_s.push_back(t.seconds());
  }

  std::vector<std::size_t> order(run.sets.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  util::Xoshiro256 rng(derive_seed(run.opt.seed, 77));
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.bounded(i)]);
  }

  // Warm-up miss: starts the server pool's workers.
  run.warmup.push_back(serve_call(run, rig.client(0), 0, order[0],
                                  derive_seed(run.opt.seed, 999), nullptr, 0));
  if (run.opt.trace) {
    serve_loop(run, rig, order, run.opt.seconds / 2, 1, false, run.untraced);
    run.timed_wall_s =
        serve_loop(run, rig, order, run.opt.seconds / 2, 2, true, run.timed);
  } else {
    run.timed_wall_s =
        serve_loop(run, rig, order, run.opt.seconds, 1, false, run.timed);
  }

  const service::StatsMsg stats = rig.client(0).stats();
  const double lookups =
      static_cast<double>(stats.cache_hits + stats.cache_misses);
  run.cache_hit_ratio =
      lookups > 0 ? static_cast<double>(stats.cache_hits) / lookups : 0.0;
  run.peak_tracked =
      static_cast<double>(util::global_memory().snapshot().peak_bytes);
  rig.stop();
  run.report.raw("server_stats",
                 JsonObject()
                     .integer("received", stats.received)
                     .integer("completed", stats.completed)
                     .integer("cache_hits", stats.cache_hits)
                     .integer("cache_misses", stats.cache_misses)
                     .dump());
}

/// serve-mixed's determinism probe: the first miss key of each dataset
/// re-solved by a local Session must hash as the server answered. In a
/// traced run these solves carry Full telemetry and feed the per-layer
/// core/pauli/util metrics of the workload.
void serve_local_resolves(Run& run) {
  std::map<std::size_t, std::uint64_t> first;
  for (const auto* calls : {&run.warmup, &run.untraced, &run.timed}) {
    for (const Call& c : *calls) {
      if (c.ok && !c.cache_hit) first.emplace(c.dataset, c.seed);
    }
  }
  if (run.opt.trace) run.logs.emplace_back(std::uint64_t{1} << 48);
  SpanLog* log = run.opt.trace ? &run.logs.back() : nullptr;
  run.probes.reserve(first.size());  // layer_solves points into it
  for (const auto& [d, seed] : first) {
    run.probes.push_back(run.solve(d, seed, log));
    if (run.opt.trace && run.probes.back().ok) {
      run.layer_solves.push_back(&run.probes.back());
    }
  }
}

// ---------------------------------------------------------------------------
// Verification, shared by every workload (outside all timed regions).

void verify(Run& run) {
  std::vector<perf::ColoringCheck> checks;
  // Misses and solves first, so each key's reference hash is a computed
  // coloring; then hits, which must carry exactly that hash.
  for (const bool hits : {false, true}) {
    for (auto* calls : {&run.warmup, &run.untraced, &run.timed, &run.probes}) {
      for (Call& c : *calls) {
        if (!c.ok) {
          if (!hits) ++run.failures.errors;
          continue;
        }
        if (c.cache_hit != hits) continue;
        if (!c.fingerprint_ok) ++run.failures.bad_fingerprint;
        run.note_hash(run.key(c.dataset, c.seed), c.hash);
        if (!hits) checks.push_back({run.sets[c.dataset], std::move(c.colors)});
      }
    }
  }
  run.failures.invalid += perf::count_invalid(checks, run.nproc());
}

// ---------------------------------------------------------------------------
// Metrics.

double mean_per_dataset(const Run& run) {
  std::map<std::size_t, std::pair<double, double>> sums;  // sum, count
  for (const auto* calls : {&run.warmup, &run.untraced, &run.timed}) {
    for (const Call& c : *calls) {
      if (!c.ok || c.cache_hit) continue;
      sums[c.dataset].first += c.colors_pct;
      sums[c.dataset].second += 1.0;
    }
  }
  double total = 0.0;
  for (const auto& [d, s] : sums) total += s.first / s.second;
  return sums.empty() ? 0.0 : total / static_cast<double>(sums.size());
}

std::vector<double> call_ms(const std::vector<Call>& calls) {
  std::vector<double> ms;
  for (const Call& c : calls) {
    if (c.ok) ms.push_back(c.ms);
  }
  return ms;
}

/// Median time of each dataset's calls (hits and misses together on
/// serve-mixed), keyed by dataset index.
std::map<std::size_t, double> per_dataset_medians(
    const std::vector<Call>& calls) {
  std::map<std::size_t, std::vector<double>> ms;
  for (const Call& c : calls) {
    if (c.ok) ms[c.dataset].push_back(c.ms);
  }
  std::map<std::size_t, double> out;
  for (const auto& [d, values] : ms) out[d] = perf::median(values);
  return out;
}

/// A workload's typical call time: the geometric mean of the per-dataset
/// medians. Datasets differ in size, so a pooled median would sit on the
/// edge between two datasets' times (on serve-mixed, between two clusters
/// of cache-hit times) and jump with noise.
double typical_ms(const std::vector<Call>& calls) {
  const std::map<std::size_t, double> medians = per_dataset_medians(calls);
  double log_sum = 0.0;
  for (const auto& [d, m] : medians) log_sum += std::log(m);
  return medians.empty()
             ? 0.0
             : std::exp(log_sum / static_cast<double>(medians.size()));
}

void end_to_end_metrics(Run& run) {
  const std::vector<double> ms = call_ms(run.timed);
  const std::map<std::size_t, double> medians = per_dataset_medians(run.timed);
  JsonObject by_dataset;
  for (const auto& [d, m] : medians) by_dataset.num(run.spec.datasets[d], m);
  // serve-mixed's throughput is closed-loop: calls over the loop's wall
  // time. A solve workload's calls run one after another, so its
  // throughput is that of a round at each dataset's median time, which a
  // single slow solve cannot swing the way it swings a mean.
  double calls_per_s = 0.0, strings_per_s = 0.0;
  if (run.spec.served) {
    double strings = 0.0;
    for (const Call& c : run.timed) {
      if (c.ok) strings += static_cast<double>(run.sets[c.dataset]->size());
    }
    calls_per_s = static_cast<double>(ms.size()) / run.timed_wall_s;
    strings_per_s = strings / run.timed_wall_s;
  } else {
    double round_s = 0.0, round_strings = 0.0;
    for (const auto& [d, m] : medians) {
      round_s += m / 1e3;
      round_strings += static_cast<double>(run.sets[d]->size());
    }
    calls_per_s = static_cast<double>(medians.size()) / round_s;
    strings_per_s = round_strings / round_s;
  }
  run.metric("call_ms_p50", typical_ms(run.timed), "ms");
  run.metric("call_ms_p90", perf::quantile(ms, 0.9), "ms");
  run.metric("calls_per_s", calls_per_s, "1/s");
  run.metric("strings_per_s", strings_per_s, "1/s");
  run.metric("colors_pct", mean_per_dataset(run), "%");
  run.metric("peak_tracked_mb", run.peak_tracked / kMB, "MB");
  run.metric("peak_rss_mb", peak_rss_mb(), "MB");
  run.metric("setup_s", perf::median(run.setup_s), "s");
  run.report.raw("call_ms_p50_by_dataset", by_dataset.dump());
}

double span_seconds(const api::SolveReport& r, const char* name) {
  double total = 0.0;
  for (const auto& span : r.telemetry.spans) {
    if (std::string(span.name) == name) total += span.duration_seconds;
  }
  return total;
}

/// Per-solve medians of the Full-telemetry spans, counters and memory
/// reports; high-water marks are maxima, ratios are over summed counts.
void telemetry_metrics(Run& run) {
  std::vector<double> plan_us, assign, conflict, coloring, iterations, evals,
      scans, edge_calls, loads, re_reads;
  double strike_hits = 0, pair_evals = 0, cache_hits = 0, cache_requests = 0;
  double overshoot = 0.0;
  std::array<double, util::kNumMemSubsystems> mem{};
  for (const Call* call : run.layer_solves) {
    const api::SolveReport& r = *call->report;
    const obs::CounterTotals& n = r.telemetry.counters;
    const core::MemoryReport& m = r.result.memory;
    plan_us.push_back(call->plan_us);
    assign.push_back(span_seconds(r, "assign_lists"));
    conflict.push_back(span_seconds(r, "conflict_graph"));
    coloring.push_back(span_seconds(r, "coloring"));
    iterations.push_back(static_cast<double>(r.result.iterations.size()));
    evals.push_back(static_cast<double>(n[obs::Counter::OraclePairEvals]));
    scans.push_back(static_cast<double>(n[obs::Counter::BucketStrikeScans]));
    edge_calls.push_back(
        static_cast<double>(n[obs::Counter::EdgeBlockCallsAvx2] +
                            n[obs::Counter::EdgeBlockCallsScalar]));
    loads.push_back(static_cast<double>(m.chunk_loads));
    re_reads.push_back(static_cast<double>(m.chunk_re_reads));
    strike_hits += static_cast<double>(n[obs::Counter::StrikeHits]);
    pair_evals += static_cast<double>(n[obs::Counter::OraclePairEvals]);
    cache_hits += static_cast<double>(m.cache_hits);
    cache_requests += static_cast<double>(m.cache_hits + m.cache_misses);
    for (std::size_t s = 0; s < util::kNumMemSubsystems; ++s) {
      mem[s] = std::max(mem[s], static_cast<double>(m.subsystem_peak[s]));
    }
    const std::size_t budget = run.budget_for(call->dataset);
    if (budget > 0) {
      overshoot =
          std::max(overshoot, static_cast<double>(m.peak_tracked_bytes) /
                                  static_cast<double>(budget));
    }
    run.solve_trace_lines.push_back(
        JsonObject()
            .str("kind", "solve")
            .integer("parent", call->span)
            .str("key", run.key(call->dataset, call->seed))
            .str("strategy", api::to_string(r.plan.strategy))
            .raw("telemetry", r.telemetry.to_json())
            .dump());
    for (const auto& span : r.telemetry.spans) {
      run.solve_trace_lines.push_back(
          JsonObject()
              .str("kind", "solve_span")
              .integer("parent", call->span)
              .str("name", span.name)
              .integer("arg", span.arg)
              .num("start_s", span.start_seconds)
              .num("dur_s", span.duration_seconds)
              .num("depth", span.depth)
              .dump());
    }
  }
  auto mem_mb = [&](util::MemSubsystem s) {
    return mem[static_cast<unsigned>(s)] / kMB;
  };
  std::map<std::string, std::string> strategy;  // the label of api.plan_us
  for (const Call* call : run.layer_solves) {
    strategy[run.spec.datasets[call->dataset]] =
        api::to_string(call->report->plan.strategy);
  }
  JsonObject strategies;
  for (const auto& [dataset, name] : strategy) strategies.str(dataset, name);
  run.report.raw("plan_strategy", strategies.dump());
  run.metric("api.plan_us", perf::median(plan_us), "us");
  run.metric("core.assign_lists_s", perf::median(assign), "s");
  run.metric("core.conflict_build_s", perf::median(conflict), "s");
  run.metric("core.coloring_s", perf::median(coloring), "s");
  run.metric("core.iterations", perf::median(iterations), "count");
  run.metric("core.oracle_pair_evals", perf::median(evals), "count");
  run.metric("core.bucket_strike_scans", perf::median(scans), "count");
  run.metric("core.strike_hit_ratio",
             pair_evals > 0 ? strike_hits / pair_evals : 0.0, "ratio");
  run.metric("core.edge_block_calls", perf::median(edge_calls), "count");
  run.metric("pauli.chunk_loads", perf::median(loads), "count");
  run.metric("pauli.chunk_re_reads", perf::median(re_reads), "count");
  run.metric("pauli.chunk_cache_hit_ratio",
             cache_requests > 0 ? cache_hits / cache_requests : 0.0, "ratio");
  run.metric("util.mem_conflict_csr_mb",
             mem_mb(util::MemSubsystem::ConflictCsr), "MB");
  run.metric("util.mem_fused_frontier_mb",
             mem_mb(util::MemSubsystem::FusedFrontier), "MB");
  run.metric("util.mem_chunk_cache_mb", mem_mb(util::MemSubsystem::ChunkCache),
             "MB");
  run.metric("util.mem_palette_lists_mb",
             mem_mb(util::MemSubsystem::PaletteLists), "MB");
  run.metric("util.budget_overshoot", overshoot, "ratio");
}

/// Layer microbenches on every dataset of the workload; each metric is the
/// median over datasets.
void microbench_metrics(Run& run) {
  constexpr double kMinSeconds = 0.15;
  std::vector<std::vector<std::uint32_t>> colors(run.sets.size());
  for (const auto* calls : {&run.warmup, &run.timed, &run.probes}) {
    for (const Call& c : *calls) {
      if (c.ok && colors[c.dataset].empty() && c.report) {
        colors[c.dataset] = c.report->result.colors;
      }
    }
  }
  std::vector<double> ns, write, read, encode, decode;
  std::string bytes_per_pair = "[";
  for (std::size_t d = 0; d < run.sets.size(); ++d) {
    const pauli::PauliSet& set = *run.sets[d];
    if (colors[d].empty()) colors[d].assign(set.size(), 0);
    const perf::EdgeBlockRate edge = perf::bench_edge_block(set, kMinSeconds);
    ns.push_back(edge.ns_per_pair);
    bytes_per_pair += (d ? "," : "") + perf::json_number(edge.bytes_per_pair);

    const api::Session s =
        run.session(d, run.round_seed(0), obs::TelemetryLevel::Off);
    const api::SolvePlan plan = s.plan(api::Problem::pauli(set));
    const std::size_t chunk =
        plan.chunk_strings > 0 ? plan.chunk_strings : (set.size() + 7) / 8;
    const perf::SpillRates spill = perf::bench_spill(
        set, run.opt.work_dir + "/microbench.pset", chunk, kMinSeconds);
    write.push_back(spill.write_mb_s);
    read.push_back(spill.read_mb_s);

    const perf::WireRates wire = perf::bench_wire(set, colors[d], kMinSeconds);
    encode.push_back(wire.encode_mb_s);
    decode.push_back(wire.decode_mb_s);
  }
  run.metric("core.edge_block_ns_per_pair", perf::median(ns), "ns");
  run.metric("pauli.spill_write_mb_s", perf::median(write), "MB/s");
  run.metric("pauli.chunk_read_mb_s", perf::median(read), "MB/s");
  run.metric("service.wire_encode_mb_s", perf::median(encode), "MB/s");
  run.metric("service.wire_decode_mb_s", perf::median(decode), "MB/s");
  run.report.raw("edge_block_bytes_per_pair", bytes_per_pair + "]");
}

/// The same dataset and seed solved at 1 thread and at the default thread
/// count (one worker per core): the ratio of wall times.
void speedup_metric(Run& run) {
  const std::size_t d = run.timed.empty() ? 0 : run.timed.front().dataset;
  const std::uint64_t seed = run.timed.empty() ? run.round_seed(0)
                                               : run.timed.front().seed;
  const api::Problem problem = api::Problem::pauli(*run.sets[d]);
  double seconds[2] = {0.0, 0.0};
  const std::uint32_t threads[2] = {1, 0};
  for (int i = 0; i < 2; ++i) {
    const api::Session s =
        run.session(d, seed, obs::TelemetryLevel::Off, threads[i]);
    const util::WallTimer t;
    const api::SolveReport r = s.solve(problem);
    seconds[i] = t.seconds();
    run.note_hash(run.key(d, seed), util::coloring_fingerprint(r.result.colors));
  }
  run.metric("runtime.speedup_vs_1t", seconds[0] / seconds[1], "x");
  run.report.raw("speedup_probe",
                 JsonObject()
                     .str("key", run.key(d, seed))
                     .num("threads", run.nproc())
                     .num("serial_s", seconds[0])
                     .num("parallel_s", seconds[1])
                     .dump());
}

void service_metrics(Run& run) {
  std::vector<double> hit, miss, server, overhead;
  for (const Call& c : run.timed) {
    if (!c.ok || !run.spec.served) continue;
    (c.cache_hit ? hit : miss).push_back(c.ms);
    if (!c.cache_hit) server.push_back(c.server_ms);
    overhead.push_back(c.ms - c.server_ms);
  }
  run.metric("service.hit_ms_p50", perf::median(hit), "ms");
  run.metric("service.miss_ms_p50", perf::median(miss), "ms");
  run.metric("service.server_solve_ms_p50", perf::median(server), "ms");
  run.metric("service.overhead_ms_p50", perf::median(overhead), "ms");
  run.metric("service.cache_hit_ratio", run.cache_hit_ratio, "ratio");
  run.report.integer("hit_calls", hit.size());
  run.report.integer("miss_calls", miss.size());
}

void per_layer_metrics(Run& run) {
  telemetry_metrics(run);
  microbench_metrics(run);
  speedup_metric(run);
  service_metrics(run);
  const double untraced = typical_ms(run.untraced);
  const double traced = typical_ms(run.timed);
  run.metric("obs.trace_overhead_frac", (traced - untraced) / untraced,
             "ratio");
  run.report.num("untraced_call_ms_p50", untraced);
  run.report.num("traced_call_ms_p50", traced);
}

// ---------------------------------------------------------------------------
// Output.

std::string plan_facts(Run& run) {
  std::string out = "[";
  for (std::size_t d = 0; d < run.sets.size(); ++d) {
    const pauli::PauliSet& set = *run.sets[d];
    const api::Session s =
        run.session(d, run.round_seed(0), obs::TelemetryLevel::Off);
    const api::SolvePlan plan = s.plan(api::Problem::pauli(set));
    out += (d ? "," : "") +
           JsonObject()
               .str("dataset", run.spec.datasets[d])
               .integer("strings", set.size())
               .integer("qubits", set.num_qubits())
               .integer("encoded_bytes", set.logical_bytes())
               .integer("budget_bytes", run.budget_for(d))
               .str("strategy", api::to_string(plan.strategy))
               .str("reason", plan.reason)
               .integer("chunk_strings", plan.chunk_strings)
               .dump();
  }
  return out + "]";
}

void write_trace(Run& run) {
  std::ofstream out(run.opt.trace_out);
  if (!out) {
    throw std::runtime_error("cannot write trace file " + run.opt.trace_out);
  }
  for (const SpanLog& log : run.logs) {
    for (const perf::BenchSpan& span : log.spans()) {
      out << perf::span_json(span) << "\n";
    }
  }
  for (const std::string& line : run.solve_trace_lines) out << line << "\n";
}

int run_workload(const Options& opt) {
  Run run(opt);
  if (run.spec.served) {
    serve_execute(run);
    serve_local_resolves(run);
  } else {
    solve_setup(run);
    solve_execute(run);
  }
  if (opt.trace) {
    per_layer_metrics(run);
  } else {
    end_to_end_metrics(run);
  }
  verify(run);

  const std::uint64_t attempted = run.warmup.size() + run.untraced.size() +
                                  run.timed.size() + run.probes.size();
  const std::uint64_t failed = run.failures.total();
  const bool correct = failed == 0;

  JsonObject hashes;
  for (const auto& [key, hash] : run.hashes) hashes.str(key, hex(hash));
  run.report.str("workload", run.spec.name)
      .integer("seed", opt.seed)
      .num("seconds", opt.seconds)
      .boolean("trace", opt.trace)
      .raw("host", JsonObject()
                       .num("nproc", run.nproc())
                       .str("simd", pauli::to_string(pauli::best_simd_level()))
                       .str("build_type", PICASSO_PERF_BUILD_TYPE)
                       .dump())
      .raw("plans", plan_facts(run))
      .integer("keys", run.hashes.size())
      .integer("warmup_calls", run.warmup.size())
      .integer("timed_calls", call_ms(run.timed).size())
      .raw("setup_s_samples", [&run] {
        std::string list;
        for (double v : run.setup_s) {
          list += (list.empty() ? "" : ",") + perf::json_number(v);
        }
        return "[" + list + "]";
      }())
      .num("failed_frac", static_cast<double>(failed) /
                              static_cast<double>(std::max<std::uint64_t>(
                                  attempted, 1)))
      .raw("failures",
           JsonObject()
               .integer("errors", run.failures.errors)
               .integer("invalid", run.failures.invalid)
               .integer("nonrepro", run.failures.nonrepro)
               .integer("bad_fingerprint", run.failures.bad_fingerprint)
               .dump())
      .raw("hashes", hashes.dump());
  if (opt.trace && !opt.trace_out.empty()) {
    write_trace(run);
    run.report.str("trace_file", opt.trace_out);
  }

  std::printf("%s\n", JsonObject().raw("report", run.report.dump()).dump().c_str());
  std::printf("%s\n", JsonObject()
                          .boolean("correct", correct)
                          .integer("attempted", attempted)
                          .integer("failed", failed)
                          .raw("metrics", run.metrics.dump())
                          .dump()
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int prepare(const Options& opt) {
  for (const auto& name : workload_by_name(opt.workload).datasets) {
    const util::WallTimer t;
    const pauli::PauliSet& set =
        pauli::load_dataset(pauli::dataset_by_name(name));
    std::fprintf(stderr, "prepared %s: %zu strings in %.2fs\n", name.c_str(),
                 set.size(), t.seconds());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse_options(argc, argv);
    // The library's dataset disk cache; set before any dataset is loaded.
    ::setenv("PICASSO_DATA_DIR", opt.data_dir.c_str(), 1);
    if (opt.command == "prepare") return prepare(opt);
    fs::create_directories(opt.work_dir + "/spill");
    const int code = run_workload(opt);
    fs::remove_all(opt.work_dir);
    return code;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "picasso_perf: %s\n", e.what());
    return 2;
  }
}
