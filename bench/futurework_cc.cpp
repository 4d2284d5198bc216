// Future work (§V): asynchronous connected components with continuous
// introspection vs bulk-synchronous label propagation.
//
// The paper proposes carrying ACIC's reduction/broadcast machinery to
// the connected-components problem on random graphs.  This bench runs
// both implementations over a density sweep (sparse graphs have many
// components and long label-propagation chains, where asynchrony pays
// most).

#include <cstdio>

#include "bench/bench_common.hpp"
#include "src/cc/async_cc.hpp"
#include "src/cc/bsp_cc.hpp"
#include "src/cc/union_find.hpp"
#include "src/graph/generators.hpp"
#include "src/util/rng.hpp"

int main(int argc, char** argv) {
  using namespace acic;
  const util::Options opts(argc, argv);
  bench::reject_unknown_options(
      opts, {"scale", "nodes", "trials", "csv"}, "futurework_cc");
  const auto scale =
      static_cast<std::uint32_t>(opts.get_int("scale", 13));
  const auto nodes =
      static_cast<std::uint32_t>(opts.get_int("nodes", 4));
  const auto trials =
      static_cast<std::uint32_t>(opts.get_int("trials", 3));

  std::printf("Future work: asynchronous vs BSP connected components "
              "(random graphs, scale=%u, %u mini-nodes, %u trials)\n",
              scale, nodes, trials);

  util::Table table({"edge_factor", "components", "async_time_s",
                     "bsp_time_s", "async_speedup", "bsp_supersteps",
                     "async_updates", "bsp_updates"});
  for (const std::uint32_t edge_factor : {1u, 2u, 4u, 8u}) {
    double async_time = 0.0;
    double bsp_time = 0.0;
    double components = 0.0;
    double supersteps = 0.0;
    double async_updates = 0.0;
    double bsp_updates = 0.0;
    bool all_match = true;
    for (std::uint32_t trial = 0; trial < trials; ++trial) {
      graph::GenParams params;
      params.num_vertices = graph::VertexId{1} << scale;
      params.num_edges =
          static_cast<std::uint64_t>(edge_factor) * params.num_vertices;
      params.seed = util::derive_seed(47, trial);
      const graph::Csr csr = graph::Csr::from_edge_list(
          graph::generate_uniform_random(params).symmetrized());
      const auto expected = cc::connected_components(csr);
      components += static_cast<double>(cc::count_components(expected));

      const runtime::Topology topo{nodes, 2, 4};
      const auto partition = graph::Partition1D::block(
          csr.num_vertices(), topo.num_pes());

      runtime::Machine m1(topo);
      const auto async_result =
          cc::async_cc(m1, csr, partition, {}, 600e6);
      runtime::Machine m2(topo);
      const auto bsp_result = cc::bsp_cc(m2, csr, partition, {}, 600e6);

      all_match &= async_result.labels == expected &&
                   bsp_result.labels == expected;
      async_time += async_result.sim_time_us * 1e-6;
      bsp_time += bsp_result.sim_time_us * 1e-6;
      supersteps += static_cast<double>(bsp_result.supersteps);
      async_updates += static_cast<double>(async_result.updates_created);
      bsp_updates += static_cast<double>(bsp_result.updates_created);
    }
    if (!all_match) {
      std::printf("LABEL MISMATCH at edge_factor %u\n", edge_factor);
      return 1;
    }
    table.add_row(
        {util::strformat("%u", edge_factor),
         util::strformat("%.0f", components / trials),
         util::strformat("%.5f", async_time / trials),
         util::strformat("%.5f", bsp_time / trials),
         util::strformat("%.2fx", bsp_time / async_time),
         util::strformat("%.0f", supersteps / trials),
         util::strformat("%.0f", async_updates / trials),
         util::strformat("%.0f", bsp_updates / trials)});
  }
  table.print();
  std::printf("all label vectors verified against union-find\n");
  bench::write_csv(table, opts, "futurework_cc.csv");
  return 0;
}
