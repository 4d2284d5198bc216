// Figure 7: execution time of ACIC vs the RIKEN-style hybrid 2-D
// Δ-stepping baseline, on random and RMAT graphs, across node counts.
//
// Paper shape to reproduce: ACIC faster on random graphs (1.3x at 1–2
// nodes growing to ~1.8x at 8–16), Δ-stepping faster on RMAT (~2.5–3.5x,
// narrowing as nodes increase).
//
// Usage: fig7_exec_time [--scale N] [--trials T] [--nodes 1,2,4,8,16]
//        (environment: ACIC_SCALE / ACIC_TRIALS / ACIC_NODES)

#include <cstdio>

#include "bench/bench_common.hpp"

int main(int argc, char** argv) {
  using namespace acic;
  const util::Options opts(argc, argv);
  const stats::CompareSpec spec =
      bench::compare_spec_from_options(opts, "fig7_exec_time");

  std::printf("Figure 7: ACIC vs RIKEN delta-stepping execution time\n");
  bench::print_spec(spec);

  const auto rows = stats::run_comparison(spec, bench::progress_line);

  util::Table table({"graph", "nodes", "acic_time_s", "riken_time_s",
                     "speedup_acic", "winner"});
  for (const auto& row : rows) {
    const double speedup = row.speedup_acic_over_riken();
    table.add_row({stats::graph_kind_name(row.graph),
                   util::strformat("%u", row.nodes),
                   util::strformat("%.4f", row.acic_time_s),
                   util::strformat("%.4f", row.riken_time_s),
                   util::strformat("%.2fx", speedup),
                   speedup >= 1.0 ? "acic" : "riken"});
  }
  table.print();
  bench::write_csv(table, opts, "fig7_exec_time.csv");
  return 0;
}
