// The public session front-end: builder validation (structured ApiErrors),
// plan selection (Auto plans fused, a budget forces streaming, a device
// keeps the in-memory engine, spill/stream problems pick their pipelines), cooperative cancellation
// (including the no-spill-left-behind guarantee), progress reporting,
// async solves, problem factories, and parse_pauli_backend.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "api/session.hpp"
#include "api/version.hpp"
#include "coloring/verify.hpp"
#include "device/device_context.hpp"
#include "graph/graph_gen.hpp"
#include "pauli/pauli_stream.hpp"
#include "util/rng.hpp"

namespace papi = picasso::api;
namespace pcore = picasso::core;
namespace pg = picasso::graph;
namespace pp = picasso::pauli;
namespace fs = std::filesystem;

namespace {

pp::PauliSet random_set(std::size_t count, std::size_t qubits,
                        std::uint64_t seed) {
  picasso::util::Xoshiro256 rng(seed);
  std::vector<pp::PauliString> strings;
  for (std::size_t i = 0; i < count; ++i) {
    pp::PauliString s(qubits);
    for (std::size_t q = 0; q < qubits; ++q) {
      s.set_op(q, static_cast<pp::PauliOp>(rng.bounded(4)));
    }
    strings.push_back(s);
  }
  return pp::PauliSet(strings);
}

/// The materializing reference engine (Auto plans the fused engine).
papi::Session in_memory() {
  return papi::SessionBuilder()
      .strategy(papi::ExecutionStrategy::InMemory)
      .build();
}

/// Expects fn() to throw ApiError with the given code and field.
template <typename Fn>
void expect_api_error(Fn&& fn, papi::ErrorCode code, const std::string& field) {
  try {
    fn();
    FAIL() << "expected ApiError " << to_string(code) << " on " << field;
  } catch (const papi::ApiError& e) {
    EXPECT_EQ(e.code(), code) << e.what();
    EXPECT_EQ(e.field(), field) << e.what();
  }
}

}  // namespace

// --- Builder validation ------------------------------------------------------

TEST(SessionBuilder, RejectsOutOfDomainPalette) {
  for (double bad : {0.0, -3.0, 101.0}) {
    expect_api_error([&] { papi::SessionBuilder().palette(bad, 2.0).build(); },
                     papi::ErrorCode::InvalidArgument, "palette_percent");
  }
  expect_api_error([&] { papi::SessionBuilder().palette(12.5, 0.0).build(); },
                   papi::ErrorCode::InvalidArgument, "alpha");
}

TEST(SessionBuilder, RejectsNonPositiveIterations) {
  expect_api_error([&] { papi::SessionBuilder().max_iterations(0).build(); },
                   papi::ErrorCode::InvalidArgument, "max_iterations");
}

// --- Plan selection ----------------------------------------------------------

TEST(SessionPlan, DefaultsToFused) {
  const auto g = pg::erdos_renyi_dense(60, 0.4, 1);
  const auto plan = papi::Session().plan(papi::Problem::dense(g));
  EXPECT_EQ(plan.strategy, papi::ExecutionStrategy::Fused);
  EXPECT_EQ(plan.chunk_strings, 0u);
}

TEST(SessionPlan, TightBudgetForcesStreamingForPauli) {
  const auto set = random_set(300, 16, 3);
  const auto problem = papi::Problem::pauli(set);
  // Budget below twice the encoded bytes => the fused engine spills and
  // streams; the chunk size is derived from the budget.
  const auto tight = papi::SessionBuilder()
                         .memory_budget(set.logical_bytes())
                         .build()
                         .plan(problem);
  EXPECT_EQ(tight.strategy, papi::ExecutionStrategy::Fused);
  EXPECT_GT(tight.chunk_strings, 0u);
  EXPECT_LE(tight.chunk_strings, set.size());
  EXPECT_EQ(tight.chunk_strings,
            pcore::spill_chunk_strings(0, set.logical_bytes(),
                                       set.logical_bytes() / set.size(),
                                       set.size()));

  // A budget at least twice the input keeps the fused engine in memory.
  for (const std::size_t budget :
       {2 * set.logical_bytes(), std::size_t{1} << 30}) {
    const auto roomy =
        papi::SessionBuilder().memory_budget(budget).build().plan(problem);
    EXPECT_EQ(roomy.strategy, papi::ExecutionStrategy::Fused);
    EXPECT_EQ(roomy.chunk_strings, 0u);  // nothing spills
  }
}

TEST(SessionPlan, ConfiguredDevicePlansInMemory) {
  // Algorithm 3 (the simulated device) runs only in the in-memory engine.
  picasso::device::DeviceContext ctx(64u << 20);
  pcore::PicassoParams params;
  params.device = &ctx;
  const auto g = pg::erdos_renyi_dense(80, 0.3, 7);
  const auto plan =
      papi::Session::from_params(params).plan(papi::Problem::dense(g));
  EXPECT_EQ(plan.strategy, papi::ExecutionStrategy::InMemory);
}

TEST(SessionPlan, ExplicitChunkSizeForcesStreaming) {
  const auto set = random_set(100, 10, 5);
  pcore::StreamingOptions options;
  options.chunk_strings = 25;
  const auto plan = papi::SessionBuilder()
                        .streaming(options)
                        .build()
                        .plan(papi::Problem::pauli(set));
  EXPECT_EQ(plan.strategy, papi::ExecutionStrategy::Fused);
  EXPECT_EQ(plan.chunk_strings, 25u);
}

TEST(SessionPlan, ProblemKindPicksItsPipeline) {
  const auto set = random_set(60, 8, 9);
  const auto dir = fs::temp_directory_path() / "picasso_api_plan";
  fs::create_directories(dir);
  const auto spill = (dir / "plan.pset").string();
  pp::spill_pauli_set(set, spill);

  const papi::Session session;
  const auto spill_plan = session.plan(papi::Problem::pauli_spill(spill));
  EXPECT_EQ(spill_plan.strategy, papi::ExecutionStrategy::Fused);
  EXPECT_EQ(spill_plan.chunk_strings, set.size());  // no budget: one chunk

  const pp::ChunkedPauliReader reader(spill, 16);
  const auto reader_plan = session.plan(papi::Problem::spill_reader(reader));
  EXPECT_EQ(reader_plan.strategy, papi::ExecutionStrategy::Fused);
  EXPECT_EQ(reader_plan.chunk_strings, 16u);  // the reader's chunking wins

  const pcore::VectorEdgeStream stream({{0, 1}, {1, 2}});
  EXPECT_EQ(session.plan(papi::Problem::edge_stream(3, stream)).strategy,
            papi::ExecutionStrategy::SemiStreaming);

  fs::remove_all(dir);
}

TEST(SessionPlan, ForcedStrategyMismatchThrows) {
  const auto g = pg::erdos_renyi_dense(40, 0.3, 2);
  const auto problem = papi::Problem::dense(g);
  expect_api_error(
      [&] {
        papi::SessionBuilder()
            .strategy(papi::ExecutionStrategy::SemiStreaming)
            .build()
            .plan(problem);
      },
      papi::ErrorCode::IncompatibleStrategy, "strategy");
  const pcore::VectorEdgeStream stream({{0, 1}, {1, 2}});
  expect_api_error(
      [&] {
        papi::SessionBuilder()
            .strategy(papi::ExecutionStrategy::InMemory)
            .build()
            .plan(papi::Problem::edge_stream(3, stream));
      },
      papi::ErrorCode::IncompatibleStrategy, "strategy");
}

TEST(SessionPlan, ReportCarriesTheExecutedPlan) {
  const auto set = random_set(200, 12, 11);
  pcore::StreamingOptions options;
  options.chunk_strings = 50;
  const auto report = papi::SessionBuilder()
                          .streaming(options)
                          .build()
                          .solve(papi::Problem::pauli(set));
  EXPECT_EQ(report.plan.strategy, papi::ExecutionStrategy::Fused);
  EXPECT_EQ(report.plan.chunk_strings, 50u);
  EXPECT_TRUE(report.result.memory.streamed);
  EXPECT_FALSE(report.plan.summary().empty());
}

// --- Progress and cancellation ----------------------------------------------

TEST(SessionProgress, IterationEventsCoverTheWholeSolve) {
  const auto g = pg::erdos_renyi_dense(200, 0.4, 21);
  std::vector<pcore::ProgressEvent> events;
  papi::SolveOptions options;
  options.progress = [&events](const pcore::ProgressEvent& e) {
    events.push_back(e);
  };
  const auto report =
      papi::Session().solve(papi::Problem::dense(g), options);
  ASSERT_FALSE(events.empty());
  std::uint32_t colored = 0;
  int last_iteration = -1;
  for (const auto& e : events) {
    EXPECT_EQ(e.stage, pcore::ProgressStage::IterationDone);
    EXPECT_GT(e.iteration, last_iteration);
    last_iteration = e.iteration;
    colored += e.colored;
  }
  EXPECT_EQ(events.size(), report.result.iterations.size());
  // converged => every vertex was colored through an iteration event.
  ASSERT_TRUE(report.result.converged);
  EXPECT_EQ(colored, g.num_vertices());
}

TEST(SessionCancel, PreRequestedStopCancelsImmediately) {
  const auto g = pg::erdos_renyi_dense(100, 0.4, 23);
  pcore::StopSource stop;
  stop.request_stop();
  papi::SolveOptions options;
  options.stop = stop.token();
  EXPECT_THROW(papi::Session().solve(papi::Problem::dense(g), options),
               pcore::SolveCancelled);
}

TEST(SessionCancel, MidSolveCancellationStopsAtIterationBoundary) {
  const auto g = pg::erdos_renyi_dense(300, 0.4, 25);
  pcore::StopSource stop;
  papi::SolveOptions options;
  options.stop = stop.token();
  int events_seen = 0;
  options.progress = [&](const pcore::ProgressEvent&) {
    if (++events_seen == 1) stop.request_stop();
  };
  EXPECT_THROW(papi::Session().solve(papi::Problem::dense(g), options),
               pcore::SolveCancelled);
  EXPECT_EQ(events_seen, 1);  // no further iterations ran
}

TEST(SessionCancel, CancelledStreamingSolveLeavesNoSpillFiles) {
  const auto set = random_set(1200, 16, 27);
  const auto dir = fs::temp_directory_path() / "picasso_api_cancel_spill";
  fs::remove_all(dir);

  pcore::StreamingOptions streaming;
  streaming.chunk_strings = 150;  // 8 chunks
  streaming.spill_dir = dir.string();

  pcore::StopSource stop;
  papi::SolveOptions options;
  options.stop = stop.token();
  options.progress = [&](const pcore::ProgressEvent& e) {
    // Cancel from deep inside the first iteration's bucket scans.
    if (e.stage == pcore::ProgressStage::BucketScanned) stop.request_stop();
  };

  const auto session = papi::SessionBuilder().streaming(streaming).build();
  EXPECT_THROW(session.solve(papi::Problem::pauli(set), options),
               pcore::SolveCancelled);

  // The spill directory exists (the run created it) but holds nothing: the
  // cancelled solve removed its spill file on unwind.
  ASSERT_TRUE(fs::exists(dir));
  EXPECT_TRUE(fs::is_empty(dir));
  fs::remove_all(dir);
}

TEST(SessionAsync, CompletesAndReturnsReport) {
  const auto g = pg::erdos_renyi_dense(150, 0.4, 29);
  auto async = papi::Session().solve_async(papi::Problem::dense(g));
  const auto report = async.get();
  EXPECT_TRUE(picasso::coloring::is_valid_coloring(g, report.result.colors));
  // Matches the synchronous solve bit for bit.
  const auto sync = papi::Session().solve(papi::Problem::dense(g));
  EXPECT_EQ(report.result.colors, sync.result.colors);
}

TEST(SessionAsync, RequestStopCancelsTheWorker) {
  const auto g = pg::erdos_renyi_dense(300, 0.4, 31);
  // Deterministic cancellation: the worker's own first progress event waits
  // for the handle to be published, then triggers its stop source.
  std::atomic<papi::AsyncSolve*> handle{nullptr};
  papi::SolveOptions options;
  options.progress = [&](const pcore::ProgressEvent&) {
    papi::AsyncSolve* h = nullptr;
    while ((h = handle.load()) == nullptr) std::this_thread::yield();
    h->request_stop();
  };
  auto async =
      papi::Session().solve_async(papi::Problem::dense(g), options);
  handle.store(&async);
  EXPECT_THROW(async.get(), pcore::SolveCancelled);
}

TEST(SessionAsync, CallerSuppliedTokenAlsoCancels) {
  // solve_async must observe a caller-provided token alongside the
  // handle's own source, not replace it.
  const auto g = pg::erdos_renyi_dense(200, 0.4, 33);
  pcore::StopSource caller;
  caller.request_stop();  // already stopped: first checkpoint cancels
  papi::SolveOptions options;
  options.stop = caller.token();
  auto async = papi::Session().solve_async(papi::Problem::dense(g), options);
  EXPECT_THROW(async.get(), pcore::SolveCancelled);
}

TEST(SessionAsync, BuilderLevelTokenAlsoCancels) {
  // A session-wide stop_token() composes with the handle's source too.
  const auto g = pg::erdos_renyi_dense(200, 0.4, 34);
  pcore::StopSource builder_stop;
  builder_stop.request_stop();
  auto async = papi::SessionBuilder()
                   .stop_token(builder_stop.token())
                   .build()
                   .solve_async(papi::Problem::dense(g));
  EXPECT_THROW(async.get(), pcore::SolveCancelled);
}

TEST(StopToken, AnyOfObservesEverySource) {
  pcore::StopSource a, b, c;
  const auto ab = pcore::StopToken::any_of(a.token(), b.token());
  const auto abc = pcore::StopToken::any_of(ab, c.token());
  EXPECT_TRUE(abc.stop_possible());
  EXPECT_FALSE(abc.stop_requested());
  c.request_stop();  // the nested source still counts
  EXPECT_TRUE(abc.stop_requested());
  EXPECT_FALSE(ab.stop_requested());
  a.request_stop();
  EXPECT_TRUE(ab.stop_requested());
}

// --- Problem factories -------------------------------------------------------

TEST(Problem, FileFactoriesReportStructuredIoErrors) {
  expect_api_error([] { papi::Problem::matrix_market("/nonexistent/x.mtx"); },
                   papi::ErrorCode::IoError, "matrix_market");
  expect_api_error([] { papi::Problem::edge_list("/nonexistent/x.el"); },
                   papi::ErrorCode::IoError, "edge_list");
  expect_api_error([] { papi::Problem::pauli_spill("/nonexistent/x.pset"); },
                   papi::ErrorCode::IoError, "pauli_spill");
  expect_api_error(
      [] { papi::Problem::edge_stream_file("/nonexistent/x.el"); },
      papi::ErrorCode::IoError, "edge_stream_file");
}

TEST(Problem, IntrospectionMatchesThePayload) {
  const auto set = random_set(42, 6, 33);
  const auto problem = papi::Problem::pauli(set);
  EXPECT_EQ(problem.kind(), papi::ProblemKind::Pauli);
  EXPECT_EQ(problem.num_vertices(), 42u);
  EXPECT_EQ(problem.logical_bytes(), set.logical_bytes());

  const auto g = pg::erdos_renyi_dense(30, 0.5, 35);
  EXPECT_EQ(papi::Problem::dense(g).kind(), papi::ProblemKind::Dense);
  EXPECT_EQ(papi::Problem::dense(g).num_vertices(), 30u);
}

TEST(Problem, OwningFactoryKeepsThePayloadAlive) {
  auto problem = papi::Problem::pauli(random_set(50, 6, 37));
  const auto report = papi::Session().solve(problem);
  EXPECT_EQ(report.result.colors.size(), 50u);
  // A copy shares the payload.
  const papi::Problem copy = problem;
  EXPECT_EQ(papi::Session().solve(copy).result.colors,
            report.result.colors);
}

// --- Fused strategy ----------------------------------------------------------

TEST(SessionFused, ForcedFusedMatchesInMemoryAndSkipsTheCsr) {
  const auto set = random_set(250, 18, 41);
  const auto ref = in_memory().solve(papi::Problem::pauli(set));
  const auto fused = papi::SessionBuilder()
                         .strategy(papi::ExecutionStrategy::Fused)
                         .build()
                         .solve(papi::Problem::pauli(set));
  EXPECT_EQ(fused.plan.strategy, papi::ExecutionStrategy::Fused);
  EXPECT_EQ(fused.result.colors, ref.result.colors);
  EXPECT_EQ(fused.result.memory.subsystem_peak[static_cast<unsigned>(
                picasso::util::MemSubsystem::ConflictCsr)],
            0u);
  EXPECT_GT(fused.result.memory.subsystem_peak[static_cast<unsigned>(
                picasso::util::MemSubsystem::FusedFrontier)],
            0u);
}

TEST(SessionFused, BudgetBelowTwiceTheInputStreamsTheFusedSolve) {
  const auto set = random_set(300, 16, 43);
  const auto report = papi::SessionBuilder()
                          .strategy(papi::ExecutionStrategy::Fused)
                          .memory_budget(set.logical_bytes())
                          .build()
                          .solve(papi::Problem::pauli(set));
  EXPECT_EQ(report.plan.strategy, papi::ExecutionStrategy::Fused);
  EXPECT_GT(report.plan.chunk_strings, 0u);
  EXPECT_TRUE(report.result.memory.streamed);
  EXPECT_EQ(report.result.memory.subsystem_peak[static_cast<unsigned>(
                picasso::util::MemSubsystem::ConflictCsr)],
            0u);
  EXPECT_EQ(report.result.colors,
            in_memory().solve(papi::Problem::pauli(set)).result.colors);
}

TEST(SessionFused, TightBudgetEscalatesSpillBackedProblemsToFused) {
  const auto set = random_set(300, 12, 45);
  const auto dir = fs::temp_directory_path() / "picasso_api_fused_spill";
  fs::create_directories(dir);
  const auto spill = (dir / "escalate.pset").string();
  pp::spill_pauli_set(set, spill);

  // Spill-backed input plans the fused streaming engine, which never
  // materializes the conflict CSR; the budget sizes its chunks.
  const auto session =
      papi::SessionBuilder().memory_budget(16 << 10).build();
  const auto plan = session.plan(papi::Problem::pauli_spill(spill));
  EXPECT_EQ(plan.strategy, papi::ExecutionStrategy::Fused);
  EXPECT_GT(plan.chunk_strings, 0u);

  const pp::ChunkedPauliReader reader(spill, 32);
  const auto report = session.solve(papi::Problem::spill_reader(reader));
  EXPECT_EQ(report.plan.strategy, papi::ExecutionStrategy::Fused);
  EXPECT_EQ(report.plan.chunk_strings, 32u);  // the reader's chunking wins
  EXPECT_TRUE(report.result.memory.streamed);
  EXPECT_EQ(report.result.memory.subsystem_peak[static_cast<unsigned>(
                picasso::util::MemSubsystem::ConflictCsr)],
            0u);
  EXPECT_EQ(report.result.colors,
            in_memory().solve(papi::Problem::pauli(set)).result.colors);
  fs::remove_all(dir);
}

TEST(SessionFused, RejectsEdgeStreamProblems) {
  const pcore::VectorEdgeStream stream({{0, 1}, {1, 2}});
  const auto session = papi::SessionBuilder()
                           .strategy(papi::ExecutionStrategy::Fused)
                           .build();
  expect_api_error(
      [&] { session.plan(papi::Problem::edge_stream(3, stream)); },
      papi::ErrorCode::IncompatibleStrategy, "strategy");
}

TEST(SessionFused, RejectsDeviceConfigurations) {
  picasso::device::DeviceContext ctx(1 << 20);
  pcore::PicassoParams params;
  params.device = &ctx;
  expect_api_error(
      [&] {
        papi::SessionBuilder()
            .params(params)
            .strategy(papi::ExecutionStrategy::Fused)
            .build();
      },
      papi::ErrorCode::InvalidConfiguration, "strategy");
}

TEST(SessionFused, BucketProgressEventsFireAndComposeWithIterations) {
  const auto g = pg::erdos_renyi_dense(400, 0.4, 47);
  std::size_t bucket_events = 0;
  std::size_t iteration_events = 0;
  papi::SolveOptions options;
  options.progress = [&](const pcore::ProgressEvent& e) {
    if (e.stage == pcore::ProgressStage::BucketScanned) {
      EXPECT_GT(e.bucket_scans, 0u);
      EXPECT_LE(e.bucket_scans, e.n_active);
      ++bucket_events;
    } else if (e.stage == pcore::ProgressStage::IterationDone) {
      ++iteration_events;
    }
  };
  const auto report = papi::SessionBuilder()
                          .strategy(papi::ExecutionStrategy::Fused)
                          .build()
                          .solve(papi::Problem::dense(g), options);
  EXPECT_GT(bucket_events, 0u);  // 400 first-iteration scans, cadence 256
  EXPECT_EQ(iteration_events, report.result.iterations.size());
}

TEST(SessionFused, MidSolveCancellationStopsAtBucketBoundary) {
  const auto g = pg::erdos_renyi_dense(400, 0.4, 49);
  pcore::StopSource stop;
  papi::SolveOptions options;
  options.stop = stop.token();
  std::size_t bucket_events = 0;
  options.progress = [&](const pcore::ProgressEvent& e) {
    if (e.stage == pcore::ProgressStage::BucketScanned &&
        ++bucket_events == 1) {
      stop.request_stop();  // next bucket scan must observe it
    }
  };
  EXPECT_THROW(papi::SessionBuilder()
                   .strategy(papi::ExecutionStrategy::Fused)
                   .build()
                   .solve(papi::Problem::dense(g), options),
               pcore::SolveCancelled);
  EXPECT_EQ(bucket_events, 1u);  // cancelled inside the first iteration
}

// --- parse_strategy ----------------------------------------------------------

TEST(ParseStrategy, RoundTripsEveryStrategyAndAcceptsShorthands) {
  for (auto strategy :
       {papi::ExecutionStrategy::Auto, papi::ExecutionStrategy::InMemory,
        papi::ExecutionStrategy::SemiStreaming,
        papi::ExecutionStrategy::Fused}) {
    EXPECT_EQ(papi::parse_strategy(papi::to_string(strategy)), strategy);
  }
  EXPECT_EQ(papi::parse_strategy("inmemory"),
            papi::ExecutionStrategy::InMemory);
  // The retired spellings are unknown names now.
  for (const char* retired :
       {"budgeted-streaming", "streaming", "multi-device", "sketch"}) {
    EXPECT_THROW(papi::parse_strategy(retired), std::invalid_argument)
        << retired;
  }
}

TEST(ParseStrategy, WireValuesArePinned) {
  // service::RemoteParams::strategy sends these numbers.
  EXPECT_EQ(static_cast<int>(papi::ExecutionStrategy::Auto), 0);
  EXPECT_EQ(static_cast<int>(papi::ExecutionStrategy::InMemory), 1);
  EXPECT_EQ(static_cast<int>(papi::ExecutionStrategy::SemiStreaming), 3);
  EXPECT_EQ(static_cast<int>(papi::ExecutionStrategy::Fused), 5);
  // 2, 4 and 6 are retired; the retired "sketch" spelling is an unknown
  // name answered with the valid list.
  try {
    papi::parse_strategy("sketch");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("'sketch'"), std::string::npos);
    EXPECT_NE(message.find("valid: auto, in-memory (inmemory), "
                           "semi-streaming, fused)"),
              std::string::npos)
        << message;
  }
  EXPECT_EQ(static_cast<int>(pcore::ProgressStage::IterationDone), 0);
  EXPECT_EQ(static_cast<int>(pcore::ProgressStage::BucketScanned), 2);
  EXPECT_EQ(static_cast<int>(pcore::ProgressStage::VertexInserted), 3);
}

TEST(ParseStrategy, RejectsUnknownNamesWithTheValidList) {
  try {
    papi::parse_strategy("warp-drive");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("warp-drive"), std::string::npos);
    EXPECT_NE(message.find("fused"), std::string::npos);
    EXPECT_NE(message.find("semi-streaming"), std::string::npos);
  }
}

// --- parse_pauli_backend and version ----------------------------------------

TEST(ParseBackend, RoundTripsEveryBackend) {
  for (auto backend :
       {pcore::PauliBackend::Auto, pcore::PauliBackend::Scalar,
        pcore::PauliBackend::Packed, pcore::PauliBackend::PackedScalar}) {
    EXPECT_EQ(pcore::parse_pauli_backend(pcore::to_string(backend)), backend);
  }
}

TEST(ParseBackend, RejectsUnknownNamesWithTheValidList) {
  try {
    pcore::parse_pauli_backend("avx512");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("avx512"), std::string::npos);
    EXPECT_NE(message.find("packed-scalar"), std::string::npos);
  }
}

// --- Problem fingerprint ----------------------------------------------------

namespace {

/// problem_fingerprint of `words` read as a packed set of `size` records.
std::uint64_t view_hash(const std::vector<std::uint64_t>& words,
                        std::size_t size, std::size_t num_qubits,
                        const pcore::PicassoParams& params = {}) {
  const pp::PackedView view{words.data(), size, pp::packed_words(num_qubits)};
  return papi::problem_fingerprint(view, num_qubits, params);
}

}  // namespace

TEST(ProblemFingerprint, SymbolicAndPackedSetsShareAKey) {
  for (std::size_t qubits : {1u, 12u, 64u, 65u, 130u}) {
    const pp::PauliSet set = random_set(23, qubits, qubits);
    const pp::PackedPauliSet packed(set);
    const pcore::PicassoParams params;
    EXPECT_EQ(papi::problem_fingerprint(packed.view(), packed.num_qubits(),
                                        params),
              papi::problem_fingerprint(set, params))
        << "qubits=" << qubits;
  }
}

TEST(ProblemFingerprint, EverySingleBitFlipChangesTheHash) {
  // Word counts 2 (below one 4-word stripe), 14 (three stripes and a
  // 2-word tail) and 18 (three-word planes: four stripes and a 2-word
  // tail), so the lanes, the tail and the short path are all covered.
  for (const auto& [count, qubits] :
       {std::pair<std::size_t, std::size_t>{1, 9}, {7, 12}, {3, 150}}) {
    const pp::PauliSet set = random_set(count, qubits, 31 + count);
    const pp::PackedView view = set.packed_view();
    std::vector<std::uint64_t> words(
        view.data, view.data + view.size * view.record_words());
    const std::uint64_t base = view_hash(words, count, qubits);
    ASSERT_EQ(base, papi::problem_fingerprint(set, pcore::PicassoParams{}));
    std::set<std::uint64_t> seen{base};
    for (std::size_t k = 0; k < words.size(); ++k) {
      for (int bit = 0; bit < 64; ++bit) {
        words[k] ^= std::uint64_t{1} << bit;
        EXPECT_TRUE(seen.insert(view_hash(words, count, qubits)).second)
            << "count=" << count << " word " << k << " bit " << bit;
        words[k] ^= std::uint64_t{1} << bit;
      }
    }
    EXPECT_EQ(seen.size(), 1 + 64 * words.size());
  }
}

TEST(ProblemFingerprint, SwappingTwoRecordsChangesTheHash) {
  // 11 records of 2 words: records 2 apart start in the same lane and
  // records 4 apart sit in the same lanes of consecutive stripes.
  const pp::PauliSet set = random_set(11, 10, 41);
  std::vector<pp::PauliString> strings;
  for (std::size_t i = 0; i < set.size(); ++i) strings.push_back(set.string(i));
  const std::uint64_t base = papi::problem_fingerprint(set, {});
  for (std::size_t i = 0; i < strings.size(); ++i) {
    for (std::size_t j = i + 1; j < strings.size(); ++j) {
      ASSERT_NE(strings[i], strings[j]);
      std::vector<pp::PauliString> swapped = strings;
      std::swap(swapped[i], swapped[j]);
      EXPECT_NE(papi::problem_fingerprint(pp::PauliSet(swapped), {}), base)
          << "records " << i << " and " << j;
    }
  }
}

TEST(ProblemFingerprint, ColoringParamsEnterAndExecutionKnobsDoNot) {
  const pp::PauliSet set = random_set(40, 12, 43);
  const pcore::PicassoParams defaults;
  const std::uint64_t base = papi::problem_fingerprint(set, defaults);

  std::vector<pcore::PicassoParams> coloring(5, defaults);
  coloring[0].palette_percent = 3.0;
  coloring[1].alpha = 30.0;
  coloring[2].seed = 2;
  coloring[3].max_iterations = 63;
  coloring[4].conflict_scheme = pcore::ConflictColoringScheme::StaticNatural;
  for (std::size_t k = 0; k < coloring.size(); ++k) {
    EXPECT_NE(papi::problem_fingerprint(set, coloring[k]), base)
        << "coloring param " << k << " left the hash unchanged";
  }

  pcore::PicassoParams execution = defaults;
  execution.pauli_backend = pcore::PauliBackend::PackedScalar;
  execution.kernel = pcore::ConflictKernel::Reference;
  execution.memory_budget_bytes = 1u << 20;
  execution.runtime.num_threads = 3;
  EXPECT_EQ(papi::problem_fingerprint(set, execution), base);

  // Strategy is a session setting, outside the params: the reports of two
  // strategies carry the same key.
  const papi::SolveReport fused =
      papi::SessionBuilder()
          .strategy(papi::ExecutionStrategy::Fused)
          .build()
          .solve(papi::Problem::pauli(set));
  const papi::SolveReport materialized =
      in_memory().solve(papi::Problem::pauli(set));
  EXPECT_EQ(fused.problem_hash, base);
  EXPECT_EQ(materialized.problem_hash, base);
}

TEST(ApiVersion, MacrosAndHelpersAgree) {
  EXPECT_EQ(papi::kVersionMajor, PICASSO_API_VERSION_MAJOR);
  EXPECT_STREQ(papi::version_string(), PICASSO_API_VERSION);
  EXPECT_EQ(PICASSO_API_VERSION_CODE,
            PICASSO_API_VERSION_MAJOR * 10000 +
                PICASSO_API_VERSION_MINOR * 100 + PICASSO_API_VERSION_PATCH);
}
