// google-benchmark micro suite: wall-clock throughput of the library's
// hot substrates — event loop, tram aggregation, reductions, graph
// generation, edge sort and CSR build, sequential SSSP kernels.  These measure the *simulator's*
// real performance (how fast experiments run on the host), complementing
// the fig*/ablation harnesses which measure *simulated* time.

#include <benchmark/benchmark.h>

#include "src/baselines/sequential.hpp"
#include "src/obs/registry.hpp"
#include "src/core/histogram.hpp"
#include "src/core/thresholds.hpp"
#include "src/graph/generators.hpp"
#include "src/runtime/collectives.hpp"
#include "src/runtime/machine.hpp"
#include "src/tram/tram.hpp"
#include "src/util/prefetch.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace acic;
using runtime::Machine;
using runtime::Pe;
using runtime::PeId;
using runtime::Topology;

/// A scale-16 uniform or RMAT edge list, 16 edges per vertex, in a
/// seeded random order.
std::vector<graph::Edge> shuffled_edges(bool rmat) {
  graph::GenParams params;
  params.num_vertices = 1u << 16;
  params.num_edges = 16ull << 16;
  graph::EdgeList list = rmat ? graph::generate_rmat(params)
                              : graph::generate_uniform_random(params);
  std::vector<graph::Edge> edges = std::move(list.edges());
  util::Xoshiro256 rng(3);
  for (std::size_t i = edges.size(); i > 1; --i) {
    std::swap(edges[i - 1], edges[rng.next_below(i)]);
  }
  return edges;
}

void BM_MachineEventThroughput(benchmark::State& state) {
  const auto events = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    Machine machine(Topology::tiny(4));
    std::uint64_t executed = 0;
    for (std::uint64_t i = 0; i < events; ++i) {
      machine.schedule_at(static_cast<double>(i), i % 4,
                          [&executed](Pe&) { ++executed; });
    }
    machine.run();
    benchmark::DoNotOptimize(executed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events) *
                          state.iterations());
}
BENCHMARK(BM_MachineEventThroughput)->Arg(1 << 12)->Arg(1 << 15);

// Observability cost on the event-loop hot path: the same workload as
// BM_MachineEventThroughput with a registry attached (Arg(1)) vs not
// (Arg(0)).  The attached run exercises the per-event counter adds plus
// the batched ready-depth series sampling; the detached run measures the
// cost of the registry branch alone.  The two should stay within a few
// percent of each other (docs/performance.md tracks the target).
void BM_MachineObsOverhead(benchmark::State& state) {
  const bool attach = state.range(0) != 0;
  constexpr std::uint64_t kEvents = 1 << 14;
  for (auto _ : state) {
    Machine machine(Topology::tiny(4));
    obs::Registry registry(machine.topology());
    if (attach) machine.set_registry(&registry);
    std::uint64_t executed = 0;
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      machine.schedule_at(static_cast<double>(i), i % 4,
                          [&executed](Pe&) { ++executed; });
    }
    machine.run();
    benchmark::DoNotOptimize(executed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(kEvents) *
                          state.iterations());
  state.SetLabel(attach ? "registry_attached" : "registry_detached");
}
BENCHMARK(BM_MachineObsOverhead)->Arg(0)->Arg(1);

void BM_MessageRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    Machine machine(Topology{2, 1, 1});
    int bounces = 0;
    std::function<void(Pe&)> bounce = [&](Pe& pe) {
      if (++bounces >= 100) return;
      pe.send(1 - pe.id(), 64, [&](Pe& other) { bounce(other); });
    };
    machine.schedule_at(0.0, 0, [&](Pe& pe) { bounce(pe); });
    machine.run();
    benchmark::DoNotOptimize(bounces);
  }
  state.SetItemsProcessed(100 * state.iterations());
}
BENCHMARK(BM_MessageRoundTrip);

void BM_TramInsertFlush(benchmark::State& state) {
  const auto items = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    Machine machine(Topology{1, 2, 4});
    std::uint64_t delivered = 0;
    tram::TramConfig config;
    config.buffer_items = 256;
    tram::Tram<std::uint64_t> tram(
        machine, config,
        [&delivered](Pe&, const std::uint64_t&) { ++delivered; });
    machine.schedule_at(0.0, 0, [&](Pe& pe) {
      for (std::uint64_t i = 0; i < items; ++i) {
        tram.insert(pe, static_cast<PeId>(i % machine.num_pes()), i);
      }
      tram.flush_all(pe);
    });
    machine.run();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(items) *
                          state.iterations());
}
BENCHMARK(BM_TramInsertFlush)->Arg(1 << 10)->Arg(1 << 14);

void BM_ReductionCycle(benchmark::State& state) {
  const auto pes = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    Machine machine(Topology::tiny(pes));
    runtime::Reducer reducer(
        machine, 8,
        [](Pe&, std::uint64_t,
           const std::vector<double>&) -> std::optional<std::vector<double>> {
          return std::nullopt;
        },
        [](Pe&, std::uint64_t, const std::vector<double>&) {});
    for (PeId p = 0; p < pes; ++p) {
      machine.schedule_at(0.0, p, [&reducer](Pe& pe) {
        reducer.contribute(pe, std::vector<double>(8, 1.0));
      });
    }
    machine.run();
    benchmark::DoNotOptimize(reducer.cycles_completed());
  }
}
BENCHMARK(BM_ReductionCycle)->Arg(16)->Arg(64)->Arg(256);

void BM_GenerateRmat(benchmark::State& state) {
  graph::GenParams params;
  params.num_vertices = 1u << static_cast<std::uint32_t>(state.range(0));
  params.num_edges = params.num_vertices * 16ull;
  for (auto _ : state) {
    auto list = graph::generate_rmat(params);
    benchmark::DoNotOptimize(list.num_edges());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(params.num_edges) *
                          state.iterations());
}
BENCHMARK(BM_GenerateRmat)->Arg(12)->Arg(14);

void BM_GenerateUniformRandom(benchmark::State& state) {
  graph::GenParams params;
  params.num_vertices = 1u << static_cast<std::uint32_t>(state.range(0));
  params.num_edges = params.num_vertices * 16ull;
  for (auto _ : state) {
    auto list = graph::generate_uniform_random(params);
    benchmark::DoNotOptimize(list.num_edges());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(params.num_edges) *
                          state.iterations());
}
BENCHMARK(BM_GenerateUniformRandom)->Arg(12)->Arg(14);

// Generator output is source-sorted, so this times the CSR builder's
// sorted-input path.  Arg = host threads.
void BM_CsrBuild(benchmark::State& state) {
  graph::GenParams params;
  params.num_vertices = 1u << 13;
  params.num_edges = 1u << 17;
  const auto list = graph::generate_uniform_random(params);
  const auto threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    auto csr = graph::Csr::from_edge_list(list, threads);
    benchmark::DoNotOptimize(csr.num_edges());
  }
}
BENCHMARK(BM_CsrBuild)->Arg(1)->Arg(4);

// The shared edge sort on a shuffled scale-16 list, 16 edges per vertex.
// Args = {0 uniform / 1 RMAT, host threads}.
void BM_EdgeSort(benchmark::State& state) {
  static const std::vector<graph::Edge> inputs[2] = {
      shuffled_edges(false), shuffled_edges(true)};
  const std::vector<graph::Edge>& input = inputs[state.range(0)];
  const auto threads = static_cast<unsigned>(state.range(1));
  std::vector<graph::Edge> edges;
  for (auto _ : state) {
    state.PauseTiming();
    edges = input;
    state.ResumeTiming();
    graph::sort_edges(edges, threads);
    benchmark::DoNotOptimize(edges.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(input.size()) *
                          state.iterations());
}
BENCHMARK(BM_EdgeSort)
    ->ArgNames({"rmat", "threads"})
    ->Args({0, 1})
    ->Args({0, 4})
    ->Args({1, 1})
    ->Args({1, 4})
    ->Unit(benchmark::kMillisecond);

void BM_DijkstraSequential(benchmark::State& state) {
  graph::GenParams params;
  params.num_vertices = 1u << static_cast<std::uint32_t>(state.range(0));
  params.num_edges = params.num_vertices * 16ull;
  const auto csr =
      graph::Csr::from_edge_list(graph::generate_uniform_random(params));
  for (auto _ : state) {
    auto dist = baselines::dijkstra(csr, 0);
    benchmark::DoNotOptimize(dist.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(csr.num_edges()) *
                          state.iterations());
}
BENCHMARK(BM_DijkstraSequential)->Arg(12)->Arg(14);

void BM_DeltaSteppingSequential(benchmark::State& state) {
  graph::GenParams params;
  params.num_vertices = 1u << 13;
  params.num_edges = 1u << 17;
  const auto csr =
      graph::Csr::from_edge_list(graph::generate_uniform_random(params));
  for (auto _ : state) {
    auto dist = baselines::delta_stepping_seq(csr, 0);
    benchmark::DoNotOptimize(dist.data());
  }
}
BENCHMARK(BM_DeltaSteppingSequential);

// Prefetch-distance sweep over the update-application loop (the tram
// delivery -> state.dist[local] apply path, including the CSR offsets
// touch an arrival-time expansion does).  The graph is sized well past
// LLC so every update is a cold random access, like a real delivery
// batch mid-query.  Arg = how many items ahead the next update's
// distance slot and offsets entry are prefetched; Arg(0) is the
// no-prefetch baseline.  util::kDeliverPrefetchLookahead is chosen from
// this curve (docs/performance.md "Locality" records the numbers).
void BM_UpdateApplyPrefetch(benchmark::State& state) {
  const auto lookahead = static_cast<std::size_t>(state.range(0));
  constexpr std::uint32_t kVerts = 1u << 20;
  constexpr std::size_t kUpdates = 1u << 20;
  struct Upd {
    std::uint32_t vertex;
    double dist;
  };
  // Built once, shared across all Args: a uniform graph (so rows are
  // short and the dist/offsets misses dominate, as in the apply loop)
  // and a fixed random update stream.
  static const graph::Csr csr = [] {
    graph::GenParams params;
    params.num_vertices = kVerts;
    params.num_edges = static_cast<std::size_t>(kVerts) * 4;
    params.seed = 7;
    return graph::Csr::from_edge_list(graph::generate_uniform_random(params));
  }();
  static const std::vector<Upd> updates = [] {
    std::vector<Upd> stream;
    stream.reserve(kUpdates);
    acic::util::Xoshiro256 rng(11);
    for (std::size_t i = 0; i < kUpdates; ++i) {
      stream.push_back(Upd{static_cast<std::uint32_t>(
                               rng.next_below(kVerts)),
                           rng.next_double(0.0, 1000.0)});
    }
    return stream;
  }();
  std::vector<double> dist(kVerts, 1e300);
  const std::size_t* offsets = csr.offsets().data();
  for (auto _ : state) {
    double acc = 0.0;
    for (std::size_t i = 0; i < kUpdates; ++i) {
      if (lookahead != 0 && i + lookahead < kUpdates) {
        const std::uint32_t ahead = updates[i + lookahead].vertex;
        util::prefetch_read(dist.data() + ahead);
        util::prefetch_read(offsets + ahead);
      }
      const Upd& u = updates[i];
      if (u.dist < dist[u.vertex]) dist[u.vertex] = u.dist;
      // Arrival-time expansion: walk the row like kla/dc's on_deliver.
      for (const graph::Neighbor& nb : csr.out_neighbors(u.vertex)) {
        acc += nb.weight;
      }
    }
    benchmark::DoNotOptimize(acc);
    benchmark::DoNotOptimize(dist.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(kUpdates) *
                          state.iterations());
  state.SetLabel("lookahead=" + std::to_string(lookahead));
}
BENCHMARK(BM_UpdateApplyPrefetch)
    ->Arg(0)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16);

void BM_HistogramOps(benchmark::State& state) {
  core::UpdateHistogram histogram(512, 0.0, 1u << 20);
  acic::util::Xoshiro256 rng(5);
  for (auto _ : state) {
    const double d = rng.next_double(0.0, 10000.0);
    const std::size_t b = histogram.bucket_of(d);
    histogram.increment(b);
    histogram.decrement(b);
    benchmark::DoNotOptimize(b);
  }
}
BENCHMARK(BM_HistogramOps);

void BM_ThresholdWalk(benchmark::State& state) {
  std::vector<double> histogram(512);
  acic::util::Xoshiro256 rng(6);
  double total = 0.0;
  for (auto& c : histogram) {
    c = static_cast<double>(rng.next_below(1000));
    total += c;
  }
  for (auto _ : state) {
    const auto b = core::bucket_at_fraction(histogram, 0.999, total);
    benchmark::DoNotOptimize(b);
  }
}
BENCHMARK(BM_ThresholdWalk);

}  // namespace

BENCHMARK_MAIN();
