// Differential pinning of the session front-end against the materializing
// reference engine: for equal parameters, what Auto plans (the fused
// engine, in memory or streamed off a spill) must produce colorings
// bit-identical to the in-memory oracle driver — for Pauli sets across
// backends, explicit graphs, type-erased oracles, edge streams, tight
// budgets, chunked readers and spill files alike. This is the contract
// that lets Auto plan the fused engine for every such problem.

#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "api/session.hpp"
#include "core/streaming.hpp"
#include "graph/graph_gen.hpp"
#include "graph/oracles.hpp"
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

pcore::PicassoParams test_params(std::uint64_t seed) {
  pcore::PicassoParams params;
  params.palette_percent = 12.5;
  params.alpha = 2.0;
  params.seed = seed;
  return params;
}

/// The materializing reference engine (Auto plans the fused engine).
papi::Session in_memory(const pcore::PicassoParams& params) {
  return papi::SessionBuilder()
      .params(params)
      .strategy(papi::ExecutionStrategy::InMemory)
      .build();
}

}  // namespace

TEST(ApiDifferential, PauliAutoMatchesInMemoryAcrossBackends) {
  const auto set = random_set(250, 14, 41);
  for (auto backend :
       {pcore::PauliBackend::Auto, pcore::PauliBackend::Scalar,
        pcore::PauliBackend::Packed, pcore::PauliBackend::PackedScalar}) {
    auto params = test_params(41);
    params.pauli_backend = backend;
    const auto reference = pcore::solve_pauli(set, params);
    const auto session = papi::Session::from_params(params)
                             .solve(papi::Problem::pauli(set));
    EXPECT_EQ(session.plan.strategy, papi::ExecutionStrategy::Fused);
    EXPECT_EQ(session.result.colors, reference.colors)
        << pcore::to_string(backend);
    EXPECT_EQ(session.result.num_colors, reference.num_colors);
    const auto forced = in_memory(params).solve(papi::Problem::pauli(set));
    EXPECT_EQ(forced.plan.strategy, papi::ExecutionStrategy::InMemory);
    EXPECT_EQ(forced.result.colors, reference.colors);
  }
}

TEST(ApiDifferential, CsrAndDenseAutoMatchInMemory) {
  const auto params = test_params(43);
  const auto csr = pg::erdos_renyi(300, 0.1, 43);
  EXPECT_EQ(papi::Session::from_params(params)
                .solve(papi::Problem::csr(csr))
                .result.colors,
            in_memory(params).solve(papi::Problem::csr(csr)).result.colors);

  const auto dense = pg::erdos_renyi_dense(250, 0.5, 43);
  EXPECT_EQ(papi::Session::from_params(params)
                .solve(papi::Problem::dense(dense))
                .result.colors,
            in_memory(params).solve(papi::Problem::dense(dense)).result.colors);
}

TEST(ApiDifferential, TypeErasedOracleMatchesTemplateDriver) {
  const auto set = random_set(180, 10, 47);
  const pg::ComplementOracle oracle(set);
  const auto params = test_params(47);
  const auto reference = pcore::solve_oracle(oracle, params);
  const auto session = papi::Session::from_params(params)
                           .solve(papi::Problem::oracle(oracle));
  EXPECT_EQ(session.plan.strategy, papi::ExecutionStrategy::Fused);
  EXPECT_EQ(session.result.colors, reference.colors);
}

TEST(ApiDifferential, EdgeStreamMatchesStreamDriver) {
  const auto g = pg::erdos_renyi(280, 0.08, 53);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (pg::VertexId u = 0; u < g.num_vertices(); ++u) {
    for (pg::VertexId v : g.neighbors(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  const pcore::VectorEdgeStream stream(std::move(edges));
  const auto params = test_params(53);
  const auto reference = pcore::solve_stream(g.num_vertices(), stream, params);
  const auto session =
      papi::Session::from_params(params)
          .solve(papi::Problem::edge_stream(g.num_vertices(), stream));
  EXPECT_EQ(session.result.colors, reference.colors);
  EXPECT_EQ(session.plan.strategy, papi::ExecutionStrategy::SemiStreaming);
  // And both match the oracle driver on the same graph.
  EXPECT_EQ(session.result.colors,
            in_memory(params).solve(papi::Problem::csr(g)).result.colors);
}

TEST(ApiDifferential, TightBudgetStreamsAndMatchesInMemory) {
  const auto set = random_set(350, 16, 59);
  for (std::uint64_t seed : {1u, 2u}) {
    auto params = test_params(seed);
    // Budget below twice the encoded input: Auto spills and streams.
    params.memory_budget_bytes = set.logical_bytes();
    pcore::StreamingOptions options;
    options.chunk_strings = seed == 1 ? 0 : 64;  // derived and explicit
    const auto session = papi::SessionBuilder()
                             .params(params)
                             .streaming(options)
                             .build()
                             .solve(papi::Problem::pauli(set));
    EXPECT_EQ(session.plan.strategy, papi::ExecutionStrategy::Fused);
    ASSERT_TRUE(session.result.memory.streamed);
    EXPECT_EQ(session.result.memory.num_chunks,
              (set.size() + session.plan.chunk_strings - 1) /
                  session.plan.chunk_strings);
    EXPECT_EQ(session.result.colors,
              in_memory(test_params(seed))
                  .solve(papi::Problem::pauli(set))
                  .result.colors);
  }
}

TEST(ApiDifferential, InMemoryNeverStreamsEvenUnderTightBudget) {
  // The in-memory engine treats the memory budget as telemetry only — it
  // never spills to disk, and the budget never alters the coloring.
  const auto set = random_set(200, 14, 79);
  auto params = test_params(79);
  params.memory_budget_bytes = 1 << 10;  // far below the encoded input
  const auto forced = in_memory(params).solve(papi::Problem::pauli(set));
  EXPECT_FALSE(forced.result.memory.streamed);
  EXPECT_EQ(forced.result.memory.budget_bytes, std::size_t{1} << 10);
  EXPECT_EQ(forced.result.colors,
            papi::Session::from_params(test_params(79))
                .solve(papi::Problem::pauli(set))
                .result.colors);
}

TEST(ApiDifferential, ChunkedReaderAndSpillFileMatchInMemory) {
  const auto set = random_set(200, 12, 67);
  const auto dir = fs::temp_directory_path() / "picasso_api_diff";
  fs::create_directories(dir);
  const auto spill = (dir / "diff.pset").string();
  pp::spill_pauli_set(set, spill);

  const auto params = test_params(67);
  const auto reference = in_memory(params).solve(papi::Problem::pauli(set));

  const pp::ChunkedPauliReader reader(spill, 48);
  const auto via_reader = papi::Session::from_params(params)
                              .solve(papi::Problem::spill_reader(reader));
  EXPECT_EQ(via_reader.plan.strategy, papi::ExecutionStrategy::Fused);
  EXPECT_EQ(via_reader.result.colors, reference.result.colors);

  pcore::StreamingOptions options;
  options.chunk_strings = 48;
  const auto via_file = papi::SessionBuilder()
                            .params(params)
                            .streaming(options)
                            .build()
                            .solve(papi::Problem::pauli_spill(spill));
  EXPECT_EQ(via_file.result.colors, reference.result.colors);
  EXPECT_EQ(via_file.plan.chunk_strings, 48u);

  fs::remove_all(dir);
}
