// Figure 8: traversed edges per second (TEPS) of ACIC vs the RIKEN-style
// Δ-stepping baseline on random and RMAT graphs.
//
// Paper shape to reproduce: ACIC's TEPS is 25–63% higher on random
// graphs; Δ-stepping's TEPS is ~3.5–4x higher on RMAT (it brute-forces
// more relaxations per second, even though many are speculative).

#include <cstdio>

#include "bench/bench_common.hpp"

int main(int argc, char** argv) {
  using namespace acic;
  const util::Options opts(argc, argv);
  const stats::CompareSpec spec =
      bench::compare_spec_from_options(opts, "fig8_teps");

  std::printf("Figure 8: ACIC vs RIKEN delta-stepping TEPS\n");
  bench::print_spec(spec);

  const auto rows = stats::run_comparison(spec, bench::progress_line);

  util::Table table({"graph", "nodes", "acic_teps", "riken_teps",
                     "acic_over_riken"});
  for (const auto& row : rows) {
    const double ratio =
        row.riken_teps > 0.0 ? row.acic_teps / row.riken_teps : 0.0;
    table.add_row({stats::graph_kind_name(row.graph),
                   util::strformat("%u", row.nodes),
                   util::strformat("%.3g", row.acic_teps),
                   util::strformat("%.3g", row.riken_teps),
                   util::strformat("%.2fx", ratio)});
  }
  table.print();
  bench::write_csv(table, opts, "fig8_teps.csv");
  return 0;
}
