// Cross-cutting randomized property tests: algebraic identities of the
// operator layer, the empirical conflict-sparsity of Lemma 2, and
// model-independent invariants that every colorer in the library must
// satisfy on the same random inputs.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "api/session.hpp"
#include "coloring/greedy.hpp"
#include "coloring/jones_plassmann.hpp"
#include "coloring/speculative.hpp"
#include "coloring/verify.hpp"
#include "core/conflict_graph.hpp"
#include "core/picasso.hpp"
#include "graph/graph_gen.hpp"
#include "graph/oracles.hpp"
#include "pauli/jordan_wigner.hpp"
#include "pauli/operator.hpp"
#include "util/rng.hpp"

namespace pp = picasso::pauli;
namespace pg = picasso::graph;
namespace pc = picasso::coloring;
namespace pcore = picasso::core;
namespace papi = picasso::api;

namespace {

pp::PauliOperator random_operator(std::size_t qubits, std::size_t terms,
                                  picasso::util::Xoshiro256& rng) {
  pp::PauliOperator op(qubits);
  for (std::size_t t = 0; t < terms; ++t) {
    pp::PauliString s(qubits);
    for (std::size_t q = 0; q < qubits; ++q) {
      s.set_op(q, static_cast<pp::PauliOp>(rng.bounded(4)));
    }
    op.add_term(s, {rng.uniform() - 0.5, rng.uniform() - 0.5});
  }
  return op;
}

double operator_distance(const pp::PauliOperator& a, const pp::PauliOperator& b) {
  pp::PauliOperator d = a;
  d -= b;
  double worst = 0.0;
  for (const auto& [s, c] : d.terms()) worst = std::max(worst, std::abs(c));
  return worst;
}

/// The in-memory oracle driver, forced: Auto plans the fused engine.
papi::Session in_memory(const pcore::PicassoParams& params) {
  return papi::SessionBuilder()
      .params(params)
      .strategy(papi::ExecutionStrategy::InMemory)
      .build();
}
}  // namespace

// --- Operator algebra identities ---------------------------------------------

class OperatorAlgebra : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OperatorAlgebra, ProductDaggerReversesOrder) {
  picasso::util::Xoshiro256 rng(GetParam());
  const auto a = random_operator(4, 6, rng);
  const auto b = random_operator(4, 6, rng);
  // (AB)† == B† A†.
  const auto lhs = a.multiply(b).dagger();
  const auto rhs = b.dagger().multiply(a.dagger());
  EXPECT_LT(operator_distance(lhs, rhs), 1e-12);
}

TEST_P(OperatorAlgebra, MultiplicationIsAssociative) {
  picasso::util::Xoshiro256 rng(GetParam() ^ 0xabc);
  const auto a = random_operator(3, 4, rng);
  const auto b = random_operator(3, 4, rng);
  const auto c = random_operator(3, 4, rng);
  const auto lhs = a.multiply(b).multiply(c);
  const auto rhs = a.multiply(b.multiply(c));
  EXPECT_LT(operator_distance(lhs, rhs), 1e-12);
}

TEST_P(OperatorAlgebra, MultiplicationDistributesOverAddition) {
  picasso::util::Xoshiro256 rng(GetParam() ^ 0xdef);
  const auto a = random_operator(3, 4, rng);
  const auto b = random_operator(3, 4, rng);
  const auto c = random_operator(3, 4, rng);
  const auto lhs = a.multiply(b + c);
  const auto rhs = a.multiply(b) + a.multiply(c);
  EXPECT_LT(operator_distance(lhs, rhs), 1e-12);
}

TEST_P(OperatorAlgebra, HermitianSquareIsHermitian) {
  picasso::util::Xoshiro256 rng(GetParam() ^ 0x123);
  auto a = random_operator(4, 8, rng);
  const auto h = a + a.dagger();  // Hermitian by construction
  EXPECT_LT(h.max_imaginary_part(), 1e-12);
  const auto h2 = h.multiply(h);
  EXPECT_LT(h2.max_imaginary_part(), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OperatorAlgebra,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(JordanWignerProperties, HermitianFermionOperatorsMapToRealCoefficients) {
  picasso::util::Xoshiro256 rng(99);
  for (int trial = 0; trial < 5; ++trial) {
    pp::FermionOperator f;
    f.num_modes = 6;
    // Random one/two-body terms, each added with its Hermitian conjugate.
    for (int t = 0; t < 10; ++t) {
      const auto p = static_cast<std::uint32_t>(rng.bounded(6));
      const auto q = static_cast<std::uint32_t>(rng.bounded(6));
      const double coef = rng.uniform() - 0.5;
      f.add(pp::one_body(coef, p, q));
      f.add(pp::one_body(coef, q, p));
    }
    for (int t = 0; t < 5; ++t) {
      const auto p = static_cast<std::uint32_t>(rng.bounded(6));
      const auto q = static_cast<std::uint32_t>(rng.bounded(6));
      const auto r = static_cast<std::uint32_t>(rng.bounded(6));
      const auto s = static_cast<std::uint32_t>(rng.bounded(6));
      if (p == q || r == s) continue;
      const double coef = rng.uniform() - 0.5;
      f.add(pp::two_body(coef, p, q, r, s));
      f.add(pp::two_body(coef, s, r, q, p));
    }
    const auto qubit_op = pp::jordan_wigner(f);
    EXPECT_LT(qubit_op.max_imaginary_part(), 1e-10) << "trial " << trial;
  }
}

// --- Lemma 2: empirical conflict sparsity -------------------------------------

TEST(Lemma2, ConflictDegreeScalesWithListOverPalette) {
  // E[deg_Gc(v)] = deg_G(v) * Pr[lists intersect], and for L distinct
  // colors from P the intersection probability is 1 - C(P-L,L)/C(P,L).
  // Check the measured mean conflict degree against this within 15%.
  const std::uint32_t n = 1200;
  const double density = 0.5;
  const auto g = pg::erdos_renyi_dense(n, density, 7);
  const pg::DenseOracle oracle(g);
  std::vector<std::uint32_t> active(n);
  for (std::uint32_t v = 0; v < n; ++v) active[v] = v;

  for (double percent : {10.0, 20.0}) {
    const auto palette = pcore::compute_palette(n, percent, 2.0, 0);
    const auto lists = pcore::assign_random_lists(n, palette, 11, 0);
    const auto conflict = pcore::build_conflict_graph(
        oracle, active, lists, palette.palette_size,
        pcore::ConflictKernel::Indexed);

    // Pr[intersect] = 1 - prod_{i=0..L-1} (P-L-i)/(P-i).
    double miss = 1.0;
    for (std::uint32_t i = 0; i < palette.list_size; ++i) {
      miss *= static_cast<double>(palette.palette_size - palette.list_size - i) /
              static_cast<double>(palette.palette_size - i);
    }
    const double p_share = 1.0 - miss;
    const double expected_edges =
        static_cast<double>(g.num_edges()) * p_share;
    EXPECT_NEAR(static_cast<double>(conflict.num_edges), expected_edges,
                0.15 * expected_edges)
        << "P'=" << percent;
  }
}

TEST(Lemma2, ConflictFractionFallsWithVertexCount) {
  // The sublinearity driver: at fixed P' and alpha, |Ec|/|E| decreases in n
  // because P grows linearly while L grows logarithmically.
  double previous_fraction = 1.1;
  for (std::uint32_t n : {400u, 1600u, 6400u}) {
    const auto g = pg::erdos_renyi_dense(n, 0.5, 13);
    pcore::PicassoParams params;
    params.seed = 13;
    const auto r = in_memory(params).solve(papi::Problem::dense(g)).result;
    const double fraction = static_cast<double>(r.max_conflict_edges) /
                            static_cast<double>(g.num_edges());
    EXPECT_LT(fraction, previous_fraction) << "n=" << n;
    previous_fraction = fraction;
  }
}

// --- Every colorer, same inputs ------------------------------------------------

class AllColorers : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AllColorers, AgreeOnValidityAcrossTheBoard) {
  const std::uint64_t seed = GetParam();
  const auto g = pg::erdos_renyi_dense(350, 0.45, seed);
  const pg::DenseOracle oracle(g);
  const auto check = [&](const std::vector<std::uint32_t>& colors,
                         const char* who) {
    EXPECT_TRUE(pc::is_valid_coloring(g, colors)) << who << " seed " << seed;
  };
  check(pc::greedy_color(g, pc::OrderingKind::LargestFirst, seed).colors, "LF");
  check(pc::greedy_color(g, pc::OrderingKind::SmallestLast, seed).colors, "SL");
  check(pc::greedy_color(g, pc::OrderingKind::DynamicLargestFirst, seed).colors,
        "DLF");
  check(pc::greedy_color(g, pc::OrderingKind::IncidenceDegree, seed).colors,
        "ID");
  check(pc::jones_plassmann(g, pc::JpPriority::LargestDegreeFirst, seed).colors,
        "JP");
  check(pc::speculative_color(g).colors, "speculative");
  pcore::PicassoParams params;
  params.seed = seed;
  check(in_memory(params).solve(papi::Problem::dense(g)).result.colors, "picasso");
}

TEST_P(AllColorers, PicassoColorCountIsAtMostPaletteTotalAndAtLeastClique) {
  const std::uint64_t seed = GetParam();
  // Planted structure: disjoint cliques of size 12 force >= 12 colors.
  const auto g = pg::disjoint_cliques(6, 12);
  pcore::PicassoParams params;
  params.seed = seed;
  params.palette_percent = 30.0;
  params.alpha = 4.0;
  const auto r = in_memory(params).solve(papi::Problem::dense(g)).result;
  EXPECT_GE(r.num_colors, 12u);
  EXPECT_LE(r.num_colors, r.palette_total);
  const pg::DenseOracle oracle(g);
  EXPECT_TRUE(pc::is_valid_coloring_oracle(oracle, r.colors));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllColorers,
                         ::testing::Values(1u, 7u, 21u, 63u));
