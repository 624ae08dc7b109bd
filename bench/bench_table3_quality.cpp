// Table III of the paper: coloring quality (number of colors) on the small
// dataset. Columns: ColPack-style sequential greedy (LF, SL, DLF, ID),
// Picasso Normal (P'=12.5, alpha=2) and Aggressive (P'=3, alpha=30), the
// speculative parallel colorer (Kokkos-EB stand-in) and Jones-Plassmann-LDF
// (ECL-GC-R stand-in). Picasso numbers are averaged over the seed set.
//
// Paper shape to reproduce: DLF is the best (or near-best) greedy; Picasso
// Normal sits above the greedy baselines but below LF's worst cases;
// Picasso Aggressive lands within ~5-10% of the best baseline — often
// matching or beating the parallel colorers.

#include <algorithm>

#include "api/session.hpp"
#include "bench_common.hpp"
#include "coloring/greedy.hpp"
#include "coloring/jones_plassmann.hpp"
#include "coloring/speculative.hpp"
#include "coloring/verify.hpp"
#include "core/picasso.hpp"

int main() {
  using namespace picasso;
  bench::print_banner("Table III", "coloring quality on the small dataset");

  util::Table table({"problem", "|V|", "LF", "SL", "DLF", "ID",
                     "Picasso Norm.", "Picasso Aggr.", "Kokkos-EB*", "ECL-GC*"});

  util::RunningStats norm_vs_best, aggr_vs_best;
  for (const auto& spec : pauli::datasets_in_class(pauli::SizeClass::Small)) {
    const auto& set = pauli::load_dataset(spec);
    const graph::ComplementOracle oracle(set);
    const auto dense = graph::materialize_dense(oracle);

    auto greedy = [&](coloring::OrderingKind kind) {
      const auto r = coloring::greedy_color(dense, kind, 1);
      if (!coloring::is_valid_coloring(dense, r.colors)) std::abort();
      return r.num_colors;
    };
    const std::uint32_t lf = greedy(coloring::OrderingKind::LargestFirst);
    const std::uint32_t sl = greedy(coloring::OrderingKind::SmallestLast);
    const std::uint32_t dlf = greedy(coloring::OrderingKind::DynamicLargestFirst);
    const std::uint32_t id = greedy(coloring::OrderingKind::IncidenceDegree);

    auto picasso_avg = [&](double percent, double alpha) {
      util::RunningStats colors;
      for (std::uint64_t seed : bench::seeds()) {
        core::PicassoParams params;
        params.palette_percent = percent;
        params.alpha = alpha;
        params.seed = seed;
        const auto r = bench::in_memory(params)
                           .solve(api::Problem::pauli(set))
                           .result;
        if (!coloring::is_valid_coloring(dense, r.colors)) std::abort();
        colors.add(static_cast<double>(r.num_colors));
      }
      return colors.mean();
    };
    const double norm = picasso_avg(12.5, 2.0);
    const double aggr = picasso_avg(3.0, 30.0);

    const auto spec_r = coloring::speculative_color(dense);
    const auto jp_r = coloring::jones_plassmann(dense);

    const std::uint32_t best_greedy = std::min({lf, sl, dlf, id});
    norm_vs_best.add(norm / best_greedy);
    aggr_vs_best.add(aggr / best_greedy);

    table.add_row({spec.name,
                   util::Table::fmt_int(static_cast<long long>(set.size())),
                   util::Table::fmt_int(lf), util::Table::fmt_int(sl),
                   util::Table::fmt_int(dlf), util::Table::fmt_int(id),
                   util::Table::fmt(norm, 1), util::Table::fmt(aggr, 1),
                   util::Table::fmt_int(spec_r.num_colors),
                   util::Table::fmt_int(jp_r.num_colors)});
  }
  table.print("Table III analogue: number of colors (lower is better)");
  std::printf(
      "\n*Kokkos-EB/ECL-GC columns are from-scratch implementations of the\n"
      " underlying algorithms (speculative / JP-LDF); see DESIGN.md.\n"
      "Geomean vs best greedy: Picasso Normal %.2fx, Aggressive %.2fx\n"
      "(paper: Aggressive within 5-10%% of DLF, Normal between LF and DLF).\n",
      norm_vs_best.geomean(), aggr_vs_best.geomean());
  return 0;
}
