// Ablation / positioning: every SSSP solver in the registry on the same
// workloads — ACIC, RIKEN-style 2-D hybrid Δ-stepping, 1-D Δ-stepping,
// KLA, distributed control, and the §II.A asynchronous baseline.  This
// is the panorama of the paper's related-work section, dispatched
// through sssp::run_solver so the table covers whatever is registered.

#include <cstdio>
#include <string>

#include "bench/bench_common.hpp"
#include "src/sssp/solver.hpp"
#include "src/util/rng.hpp"

int main(int argc, char** argv) {
  using namespace acic;
  const util::Options opts(argc, argv);
  bench::reject_unknown_options(
      opts, {"scale", "nodes", "trials", "csv"}, "ablation_baselines");
  const auto scale =
      static_cast<std::uint32_t>(opts.get_int("scale", 13));
  const auto nodes =
      static_cast<std::uint32_t>(opts.get_int("nodes", 4));
  const auto trials =
      static_cast<std::uint32_t>(opts.get_int("trials", 3));

  std::printf("All solvers on the paper workloads (scale=%u, %u "
              "mini-nodes, %u trials)\n", scale, nodes, trials);

  // Registry order, skipping the sequential oracle.  The 1-D entry runs
  // without the hybrid Bellman-Ford tail so it stays the pure
  // Δ-stepping comparison point (the 2-D entry keeps it).
  std::vector<std::string> solvers;
  for (const std::string& name : sssp::solver_names()) {
    if (name != "sequential") solvers.push_back(name);
  }

  util::Table table({"graph", "solver", "time_s", "updates_created",
                     "wasted_pct", "sync_cycles"});
  for (const stats::GraphKind kind :
       {stats::GraphKind::kRandom, stats::GraphKind::kRmat}) {
    for (const std::string& name : solvers) {
      double time_s = 0.0;
      double created = 0.0;
      double wasted = 0.0;
      double cycles = 0.0;
      for (std::uint32_t trial = 0; trial < trials; ++trial) {
        stats::ExperimentSpec spec;
        spec.graph = kind;
        spec.scale = scale;
        spec.nodes = nodes;
        spec.seed = util::derive_seed(37, trial);
        const graph::Csr csr = stats::build_graph(spec);
        runtime::Machine machine(spec.topology());
        sssp::SolverOptions solver_opts;
        if (name == "delta_stepping_dist") {
          solver_opts.delta.hybrid_bellman_ford = false;
        }
        const auto run = sssp::run_solver(name, machine, csr,
                                          spec.source, solver_opts);
        time_s += run.sssp.metrics.sim_time_s();
        created += static_cast<double>(run.sssp.metrics.updates_created);
        wasted += run.sssp.metrics.wasted_fraction();
        cycles += static_cast<double>(run.telemetry.cycles);
      }
      table.add_row({stats::graph_kind_name(kind), name,
                     util::strformat("%.5f", time_s / trials),
                     util::strformat("%.0f", created / trials),
                     util::strformat("%.1f%%", 100.0 * wasted / trials),
                     util::strformat("%.0f", cycles / trials)});
    }
  }
  table.print();
  bench::write_csv(table, opts, "ablation_baselines.csv");
  return 0;
}
