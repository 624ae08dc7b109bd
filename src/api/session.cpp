#include "api/session.hpp"

#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <utility>

#include "util/fnv.hpp"

namespace picasso::api {

namespace {

bool oracle_capable(ProblemKind kind) {
  switch (kind) {
    case ProblemKind::Pauli:
    case ProblemKind::PackedPauli:
    case ProblemKind::Csr:
    case ProblemKind::Dense:
    case ProblemKind::Oracle:
      return true;
    default:
      return false;
  }
}

// The five xxHash64 primes: odd 64-bit constants with well-spread bits.
constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

constexpr std::uint64_t lane_round(std::uint64_t acc,
                                   std::uint64_t word) noexcept {
  return std::rotl(acc + word * kPrime2, 31) * kPrime1;
}

constexpr std::uint64_t merge_lane(std::uint64_t h,
                                   std::uint64_t lane) noexcept {
  return (h ^ lane_round(0, lane)) * kPrime1 + kPrime4;
}

/// xxHash64-shaped digest of `count` words, seeded with `seed`: four
/// independent multiply-rotate lanes take one word each per stripe, the
/// lanes are merged, the 0-3 tail words fold in one by one, and a final
/// avalanche mixes every input bit into every output bit. Words are folded
/// as values, not as a byte stream, so the digest is the same on any host.
std::uint64_t digest_words(const std::uint64_t* data, std::size_t count,
                           std::uint64_t seed) noexcept {
  std::size_t i = 0;
  std::uint64_t h = seed + kPrime5;
  if (count >= 4) {
    std::uint64_t v1 = seed + kPrime1 + kPrime2;
    std::uint64_t v2 = seed + kPrime2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kPrime1;
    for (; i + 4 <= count; i += 4) {
      v1 = lane_round(v1, data[i]);
      v2 = lane_round(v2, data[i + 1]);
      v3 = lane_round(v3, data[i + 2]);
      v4 = lane_round(v4, data[i + 3]);
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = merge_lane(h, v1);
    h = merge_lane(h, v2);
    h = merge_lane(h, v3);
    h = merge_lane(h, v4);
  }
  h += static_cast<std::uint64_t>(count) * sizeof(std::uint64_t);
  for (; i < count; ++i) {
    h ^= lane_round(0, data[i]);
    h = std::rotl(h, 27) * kPrime1 + kPrime4;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

bool spill_backed(ProblemKind kind) {
  return kind == ProblemKind::SpillFile || kind == ProblemKind::SpillReader;
}

pauli::SimdLevel simd_for(core::PauliBackend backend) {
  return core::resolve_backend(backend) == core::PauliBackend::PackedScalar
             ? pauli::SimdLevel::Scalar
             : pauli::SimdLevel::Auto;
}

/// Calls `fn(oracle)` with the adjacency oracle of an oracle-capable
/// problem and returns its result. Pauli kinds pick the anticommutation
/// oracle for params.pauli_backend and charge their encoded input to
/// MemSubsystem::PauliInput for the duration, before the engine's run scope
/// rebases the peaks.
template <typename Fn>
core::PicassoResult visit_oracle(const Problem& problem,
                                 const core::PicassoParams& params, Fn&& fn) {
  switch (problem.kind()) {
    case ProblemKind::Pauli:
      return core::with_pauli_oracle(problem.pauli_set(),
                                     params.pauli_backend, fn);
    case ProblemKind::PackedPauli: {
      const pauli::PackedPauliSet& set = problem.packed_set();
      util::ScopedCharge input_charge(util::MemSubsystem::PauliInput,
                                      set.logical_bytes());
      return fn(graph::PackedComplementOracle(set.view(),
                                              simd_for(params.pauli_backend)));
    }
    case ProblemKind::Csr:
      return fn(graph::CsrOracle(problem.csr_graph()));
    case ProblemKind::Dense:
      return fn(graph::DenseOracle(problem.dense_graph()));
    default:
      return fn(problem.oracle_ref());
  }
}

/// Builds the resident state for a session. A memory budget or an explicit
/// chunk size routes the record store through a spill from the first
/// ingest: an incremental store only ever grows, so a budgeted session
/// spills up front rather than migrating later. The coloring is identical
/// either way.
std::shared_ptr<core::FusedState> make_incremental_state(
    const core::PicassoParams& params, const core::UpdateParams& update_params,
    const core::StreamingOptions& streaming, std::size_t num_qubits) {
  auto state = std::make_shared<core::FusedState>(params, update_params);
  if (streaming.chunk_strings > 0 || params.memory_budget_bytes > 0) {
    const std::size_t chunk = core::spill_chunk_strings(
        streaming.chunk_strings, params.memory_budget_bytes,
        pauli::ChunkedPauliReader::resident_bytes_for(1, num_qubits),
        std::numeric_limits<std::size_t>::max());
    // Shares core::unique_spill_path's process-wide counter with the
    // budgeted engine, so no two concurrent solves can collide on a name.
    state->use_spill(core::unique_spill_path(streaming.spill_dir, "incr"),
                     chunk);
  }
  return state;
}

}  // namespace

UpdateDelta UpdateDelta::pauli(pauli::PauliSet&& records) {
  UpdateDelta delta;
  delta.records_ =
      std::make_shared<const pauli::PauliSet>(std::move(records));
  return delta;
}

UpdateDelta UpdateDelta::pauli(const pauli::PauliSet& records) {
  UpdateDelta delta;
  delta.records_ = std::shared_ptr<const pauli::PauliSet>(
      &records, [](const pauli::PauliSet*) {});
  return delta;
}

UpdateDelta UpdateDelta::graph(std::vector<core::GraphVertexDelta> vertices) {
  UpdateDelta delta;
  delta.vertices_ = std::move(vertices);
  return delta;
}

const char* to_string(ExecutionStrategy strategy) noexcept {
  switch (strategy) {
    case ExecutionStrategy::Auto: return "auto";
    case ExecutionStrategy::InMemory: return "in-memory";
    case ExecutionStrategy::SemiStreaming: return "semi-streaming";
    case ExecutionStrategy::Fused: return "fused";
  }
  return "?";
}

ExecutionStrategy parse_strategy(std::string_view name) {
  constexpr ExecutionStrategy kAll[] = {
      ExecutionStrategy::Auto, ExecutionStrategy::InMemory,
      ExecutionStrategy::SemiStreaming, ExecutionStrategy::Fused};
  for (ExecutionStrategy strategy : kAll) {
    if (name == to_string(strategy)) return strategy;
  }
  if (name == "inmemory") return ExecutionStrategy::InMemory;  // CLI shorthand
  // Build the valid list from the same enumeration the parser walks, so
  // the message can never drift from what is actually accepted.
  std::string valid;
  for (ExecutionStrategy strategy : kAll) {
    if (!valid.empty()) valid += ", ";
    valid += to_string(strategy);
    if (strategy == ExecutionStrategy::InMemory) valid += " (inmemory)";
  }
  throw std::invalid_argument("unknown execution strategy '" +
                              std::string(name) + "' (valid: " + valid + ")");
}

std::uint64_t problem_fingerprint(const pauli::PackedView& view,
                                  std::size_t num_qubits,
                                  const core::PicassoParams& params) {
  std::uint64_t h = util::kFnvOffsetBasis;
  // Geometry first, then the raw symplectic planes — the canonical record
  // bytes shared by PauliSet::packed_view() and PackedPauliSet::view().
  h = util::fnv1a_u64(h, static_cast<std::uint64_t>(num_qubits));
  h = util::fnv1a_u64(h, static_cast<std::uint64_t>(view.size));
  // The record words go through the word-wise digest, seeded with the
  // geometry fold.
  h = digest_words(view.data, view.size * view.record_words(), h);
  // Only the params that can change the coloring (see the header contract).
  h = util::fnv1a_f64(h, params.palette_percent);
  h = util::fnv1a_f64(h, params.alpha);
  h = util::fnv1a_u64(h, params.seed);
  h = util::fnv1a_u64(h, static_cast<std::uint64_t>(params.max_iterations));
  h = util::fnv1a_u64(
      h, static_cast<std::uint64_t>(params.conflict_scheme));
  return h;
}

std::uint64_t problem_fingerprint(const pauli::PauliSet& set,
                                  const core::PicassoParams& params) {
  return problem_fingerprint(set.packed_view(), set.num_qubits(), params);
}

std::string SolveTelemetry::to_json() const {
  std::string out = "{\"level\":\"";
  out += obs::to_string(level);
  out += "\",\"counters\":";
  out += counters.to_json();
  out += ",\"memory\":";
  out += memory.to_json();
  char tail[64];
  std::snprintf(tail, sizeof(tail), ",\"spans\":%zu,\"dropped_spans\":%llu}",
                spans.size(),
                static_cast<unsigned long long>(dropped_spans));
  out += tail;
  return out;
}

std::string SolvePlan::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "strategy=%s backend=%s budget=%zu chunk_strings=%zu (%s)",
                to_string(strategy), core::to_string(backend),
                memory_budget_bytes, chunk_strings, reason.c_str());
  return buf;
}

Session SessionBuilder::build() const {
  const core::PicassoParams& p = session_.params_;
  if (!(p.palette_percent > 0.0) || p.palette_percent > 100.0) {
    throw ApiError(ErrorCode::InvalidArgument, "palette_percent",
                   "must be in (0, 100], got " +
                       std::to_string(p.palette_percent));
  }
  if (!(p.alpha > 0.0)) {
    throw ApiError(ErrorCode::InvalidArgument, "alpha",
                   "must be > 0, got " + std::to_string(p.alpha));
  }
  if (p.max_iterations < 1) {
    throw ApiError(ErrorCode::InvalidArgument, "max_iterations",
                   "must be >= 1, got " + std::to_string(p.max_iterations));
  }
  if (session_.strategy_ == ExecutionStrategy::Fused && p.device != nullptr) {
    throw ApiError(ErrorCode::InvalidConfiguration, "strategy",
                   std::string("the ") + to_string(session_.strategy_) +
                       " strategy colors straight off the oracle and does "
                       "not run the simulated-device pipeline; drop the "
                       "device or pick another strategy");
  }
  return session_;
}

SolvePlan Session::plan(const Problem& problem) const {
  SolvePlan plan;
  plan.backend = core::resolve_backend(params_.pauli_backend);
  plan.memory_budget_bytes = params_.memory_budget_bytes;

  const ProblemKind kind = problem.kind();
  ExecutionStrategy strategy = strategy_;
  if (strategy == ExecutionStrategy::Auto) {
    if (kind == ProblemKind::EdgeStream) {
      strategy = ExecutionStrategy::SemiStreaming;
      plan.reason = "problem is an edge stream";
    } else if (params_.device != nullptr && oracle_capable(kind)) {
      strategy = ExecutionStrategy::InMemory;
      plan.reason = "simulated device configured (Algorithm 3 runs in memory)";
    } else {
      strategy = ExecutionStrategy::Fused;
      plan.reason = spill_backed(kind)
                        ? "problem is spill-backed"
                        : "fused engine: no conflict graph is built";
    }
  } else {
    plan.reason = "strategy forced by configuration";
  }

  // Forced-strategy compatibility checks.
  switch (strategy) {
    case ExecutionStrategy::InMemory:
      if (!oracle_capable(kind)) {
        throw ApiError(ErrorCode::IncompatibleStrategy, "strategy",
                       std::string("InMemory cannot run a ") +
                           to_string(kind) + " problem");
      }
      break;
    case ExecutionStrategy::SemiStreaming:
      if (kind != ProblemKind::EdgeStream) {
        throw ApiError(ErrorCode::IncompatibleStrategy, "strategy",
                       std::string("SemiStreaming needs an edge-stream "
                                   "problem, got ") +
                           to_string(kind));
      }
      break;
    case ExecutionStrategy::Fused:
      if (!oracle_capable(kind) && !spill_backed(kind)) {
        throw ApiError(ErrorCode::IncompatibleStrategy, "strategy",
                       std::string("Fused needs an oracle-capable or "
                                   "spill-backed problem, got ") +
                           to_string(kind));
      }
      break;
    case ExecutionStrategy::Auto:
      break;  // resolved above
  }

  plan.strategy = strategy;
  // A fused solve streams when its input is spill-backed or when the spill
  // gate fires for a Pauli set; chunk_strings == 0 means it runs in memory.
  // The engines take this chunking as given, so plan == execution.
  if (strategy == ExecutionStrategy::Fused) {
    const std::size_t n = problem.num_vertices();
    if (kind == ProblemKind::SpillReader) {
      plan.chunk_strings = problem.reader().strings_per_chunk();
    } else if (kind == ProblemKind::SpillFile ||
               (kind == ProblemKind::Pauli && n > 0 &&
                core::spill_required(problem.logical_bytes(),
                                     params_.memory_budget_bytes,
                                     streaming_.chunk_strings))) {
      // The problem's logical bytes are the resident cost of its strings.
      plan.chunk_strings = core::spill_chunk_strings(
          streaming_.chunk_strings, params_.memory_budget_bytes,
          n > 0 ? problem.logical_bytes() / n : 0, n);
    }
  }
  return plan;
}

SolveReport Session::solve(const Problem& problem,
                           const SolveOptions& options) const {
  SolveReport report;
  report.plan = plan(problem);
  const ProblemKind kind = problem.kind();
  if (kind == ProblemKind::Pauli) {
    report.problem_hash = problem_fingerprint(problem.pauli_set(), params_);
  } else if (kind == ProblemKind::PackedPauli) {
    report.problem_hash =
        problem_fingerprint(problem.packed_set().view(),
                            problem.packed_set().num_qubits(), params_);
  }

  core::PicassoParams params = params_;
  // Stop tokens compose (a stop from either the session-level token or the
  // per-call one cancels); the progress callback overrides.
  if (options.stop.stop_possible()) {
    params.stop = core::StopToken::any_of(params.stop, options.stop);
  }
  if (options.progress) params.progress = options.progress;

  // Telemetry scope around the whole dispatch: the run scope zeroes the
  // global counter registry and enables it per the session's level; a
  // local recorder collects phase spans at Full (engines test one pointer
  // per scope when it is absent, so Off/Counters pay nothing for tracing).
  obs::MetricsRunScope metrics_scope(telemetry_ != obs::TelemetryLevel::Off);
  obs::TraceRecorder recorder;
  if (telemetry_ == obs::TelemetryLevel::Full) params.trace = &recorder;

  switch (report.plan.strategy) {
    case ExecutionStrategy::InMemory:
      report.result =
          visit_oracle(problem, params, [&params](const auto& oracle) {
            return core::solve_oracle(oracle, params);
          });
      break;
    case ExecutionStrategy::SemiStreaming:
      report.result = core::solve_stream(problem.num_vertices(),
                                         problem.edge_source(), params);
      break;
    case ExecutionStrategy::Fused:
      if (kind == ProblemKind::SpillReader) {
        report.result =
            core::solve_pauli_chunked_fused(problem.reader(), params);
      } else if (kind == ProblemKind::SpillFile) {
        const pauli::ChunkedPauliReader reader(problem.path(),
                                               report.plan.chunk_strings);
        report.result = core::solve_pauli_chunked_fused(reader, params);
      } else if (report.plan.chunk_strings > 0) {
        core::StreamingOptions streamed = streaming_;
        streamed.chunk_strings = report.plan.chunk_strings;
        report.result = core::solve_pauli_budgeted_fused(problem.pauli_set(),
                                                         params, streamed);
      } else {
        report.result =
            visit_oracle(problem, params, [&params](const auto& oracle) {
              return core::solve_fused(oracle, params);
            });
      }
      break;
    case ExecutionStrategy::Auto:
      break;  // unreachable: plan() always resolves Auto
  }

  if (telemetry_ != obs::TelemetryLevel::Off) {
    report.telemetry.level = telemetry_;
    // The engines' pools have joined by now, so the per-thread shards are
    // quiescent and the totals are exact.
    report.telemetry.counters = obs::global_metrics().totals();
    report.telemetry.spans = recorder.take_spans();
    report.telemetry.dropped_spans = recorder.dropped();
    report.telemetry.memory = report.result.memory;
  }
  return report;
}

SolveReport Session::solve_incremental(const Problem& problem,
                                       const SolveOptions& options) {
  const ProblemKind kind = problem.kind();
  const bool graph_backed = kind == ProblemKind::Csr ||
                            kind == ProblemKind::Dense ||
                            kind == ProblemKind::Oracle;
  if (kind != ProblemKind::Pauli && !graph_backed) {
    throw ApiError(ErrorCode::IncompatibleStrategy, "problem",
                   std::string("solve_incremental needs an encoded Pauli or "
                               "explicit-graph problem, got ") +
                       to_string(kind));
  }

  core::PicassoParams params = params_;
  if (options.stop.stop_possible()) {
    params.stop = core::StopToken::any_of(params.stop, options.stop);
  }
  if (options.progress) params.progress = options.progress;

  SolveReport report;
  obs::MetricsRunScope metrics_scope(telemetry_ != obs::TelemetryLevel::Off);
  obs::TraceRecorder recorder;
  if (telemetry_ == obs::TelemetryLevel::Full) params.trace = &recorder;

  // The state is installed only after the solve and the adoption both
  // succeed, so a cancelled baseline leaves any previous state untouched.
  std::shared_ptr<core::FusedState> state;
  if (kind == ProblemKind::Pauli) {
    const pauli::PauliSet& set = problem.pauli_set();
    state = make_incremental_state(params_, update_params_, streaming_,
                                   set.num_qubits());
    if (state->spilled()) {
      // Honor the budget during the baseline too: the budgeted-fused
      // wrapper spills and strikes off chunked records, bit-identical to
      // the in-memory fused engine.
      core::StreamingOptions stream_opts = streaming_;
      stream_opts.chunk_strings = state->chunk_strings();
      report.result =
          core::solve_pauli_budgeted_fused(set, params, stream_opts);
    } else {
      report.result = core::solve_pauli_fused(set, params);
    }
    state->adopt_pauli_solution(set, report.result);
  } else {
    // Graph-backed baseline: fused solve over the explicit graph, then
    // adopt the coloring. Later update() calls take GraphVertexDelta
    // increments (greedy insertion; see core::FusedState).
    report.result =
        visit_oracle(problem, params, [&params](const auto& oracle) {
          return core::solve_fused(oracle, params);
        });
    state = std::make_shared<core::FusedState>(params_, update_params_);
    state->adopt_graph_solution(report.result.colors);
  }
  state_ = std::move(state);

  report.plan.strategy = ExecutionStrategy::Fused;
  report.plan.backend = core::resolve_backend(params_.pauli_backend);
  report.plan.memory_budget_bytes = params_.memory_budget_bytes;
  report.plan.chunk_strings = state_->chunk_strings();
  report.plan.reason = "incremental baseline: fused solve, state kept resident";

  if (telemetry_ != obs::TelemetryLevel::Off) {
    report.telemetry.level = telemetry_;
    report.telemetry.counters = obs::global_metrics().totals();
    report.telemetry.spans = recorder.take_spans();
    report.telemetry.dropped_spans = recorder.dropped();
    report.telemetry.memory = report.result.memory;
  }
  return report;
}

SolveReport Session::update(const UpdateDelta& delta,
                            const SolveOptions& options) {
  core::StopToken stop = params_.stop;
  if (options.stop.stop_possible()) {
    stop = core::StopToken::any_of(stop, options.stop);
  }
  const core::ProgressFn& progress =
      options.progress ? options.progress : params_.progress;

  SolveReport report;
  obs::MetricsRunScope metrics_scope(telemetry_ != obs::TelemetryLevel::Off);

  if (!state_) {
    if (!delta.is_pauli()) {
      throw ApiError(ErrorCode::InvalidConfiguration, "delta",
                     "graph deltas need a resident graph state; only Pauli "
                     "deltas bootstrap an empty session — call "
                     "solve_incremental first");
    }
    state_ = make_incremental_state(params_, update_params_, streaming_,
                                    delta.pauli_records().num_qubits());
  }

  core::UpdateStats stats;
  try {
    stats = delta.is_pauli()
                ? state_->update_pauli(delta.pauli_records(), stop, progress)
                : state_->update_graph(delta.graph_vertices(), stop, progress);
  } catch (const std::invalid_argument& error) {
    // Shape errors (qubit-count mismatch, delta kind vs state kind, bad
    // conflict ids) surface as structured ApiErrors; SolveCancelled
    // propagates as-is — the state stays consistent and the next update
    // colors the ingested backlog.
    throw ApiError(ErrorCode::InvalidArgument, "delta", error.what());
  }

  report.update = stats;
  report.plan.strategy = ExecutionStrategy::Fused;
  report.plan.backend = core::resolve_backend(params_.pauli_backend);
  report.plan.memory_budget_bytes = params_.memory_budget_bytes;
  report.plan.chunk_strings = state_->chunk_strings();
  report.plan.reason = "incremental update over the resident fused state";

  report.result.colors = state_->colors();
  report.result.num_colors = stats.num_colors;
  report.result.palette_total = state_->total_colors();
  report.result.total_seconds = stats.seconds;
  report.result.memory =
      core::MemoryReport::capture(util::global_memory().snapshot());
  report.result.memory.streamed = state_->spilled();
  report.result.memory.spill_bytes = state_->spill_bytes();

  if (telemetry_ != obs::TelemetryLevel::Off) {
    report.telemetry.level = telemetry_;
    report.telemetry.counters = obs::global_metrics().totals();
    report.telemetry.memory = report.result.memory;
  }
  return report;
}

AsyncSolve Session::solve_async(Problem problem, SolveOptions options) const {
  core::StopSource stop;
  // The worker observes both the handle's source and any caller-supplied
  // token, so either can cancel the run.
  options.stop = core::StopToken::any_of(options.stop, stop.token());
  Session session = *this;  // the worker owns its own copy
  std::future<SolveReport> future = std::async(
      std::launch::async,
      [session, problem = std::move(problem), options]() mutable {
        return session.solve(problem, options);
      });
  return AsyncSolve(std::move(stop), std::move(future));
}

}  // namespace picasso::api
