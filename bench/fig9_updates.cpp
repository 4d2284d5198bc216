// Figure 9: number of updates (edge relaxations) generated by ACIC vs
// the RIKEN-style Δ-stepping baseline on random and RMAT graphs.
//
// Paper shape to reproduce: ACIC generates fewer updates on *both* graph
// types (8–16% fewer on random, 4–18% fewer on RMAT) — the histograms,
// thresholds and priority queue suppress speculative relaxations.

#include <cstdio>

#include "bench/bench_common.hpp"

int main(int argc, char** argv) {
  using namespace acic;
  const util::Options opts(argc, argv);
  const stats::CompareSpec spec =
      bench::compare_spec_from_options(opts, "fig9_updates");

  std::printf("Figure 9: ACIC vs RIKEN delta-stepping update counts\n");
  bench::print_spec(spec);

  const auto rows = stats::run_comparison(spec, bench::progress_line);

  util::Table table({"graph", "nodes", "acic_updates", "riken_updates",
                     "acic_reduction_pct"});
  for (const auto& row : rows) {
    const double pct =
        row.riken_updates > 0.0
            ? 100.0 * (row.riken_updates - row.acic_updates) /
                  row.riken_updates
            : 0.0;
    table.add_row({stats::graph_kind_name(row.graph),
                   util::strformat("%u", row.nodes),
                   util::strformat("%.0f", row.acic_updates),
                   util::strformat("%.0f", row.riken_updates),
                   util::strformat("%.1f%%", pct)});
  }
  table.print();
  std::printf("paper shape: ACIC generates fewer updates on both graph "
              "types\n");
  bench::write_csv(table, opts, "fig9_updates.csv");
  return 0;
}
