// Out-of-core storage tests: the on-disk CSR format, the streaming
// (external-memory) builder's byte-equality contract, the mmap-backed
// view, the frontier-feed ring, and the page prefetcher's determinism
// guarantee (results bit-identical with the prefetcher on, off, or
// racing).  Every suite here is named Ooc* so CI's TSan job can include
// the whole family.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/graph/csr.hpp"
#include "src/graph/csr_file.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/mapped_csr.hpp"
#include "src/graph/ooc_prefetch.hpp"
#include "src/graph/serialize.hpp"
#include "src/obs/registry.hpp"
#include "src/sssp/solver.hpp"
#include "src/stats/experiment.hpp"

namespace {

using namespace acic;
using graph::Csr;
using graph::Edge;
using graph::EdgeList;
using graph::GenParams;
using graph::VertexId;

GenParams make_params(std::uint32_t scale, std::uint64_t seed) {
  GenParams params;
  params.num_vertices = VertexId{1} << scale;
  params.num_edges = 16ull * params.num_vertices;
  params.seed = seed;
  return params;
}

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string slurp_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void expect_same_csr(const Csr& a, const Csr& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_TRUE(std::ranges::equal(a.offsets(), b.offsets()));
  EXPECT_TRUE(std::ranges::equal(a.neighbors(), b.neighbors()));
}

TEST(OocCsrFile, RoundTripMatchesInMemory) {
  for (const std::uint64_t seed : {1ull, 7ull}) {
    for (const std::uint32_t scale : {6u, 9u}) {
      const GenParams params = make_params(scale, seed);
      const Csr csr = Csr::from_edge_list(generate_uniform_random(params));
      const std::string path = tmp_path("ooc_roundtrip.oocsr");
      ASSERT_TRUE(graph::write_csr_file(csr, path));
      const Csr loaded = graph::load_csr_file(path);
      expect_same_csr(csr, loaded);
      std::remove(path.c_str());
    }
  }
}

TEST(OocCsrFile, HeaderGeometryIsPageAligned) {
  const Csr csr =
      Csr::from_edge_list(generate_uniform_random(make_params(8, 3)));
  const std::string path = tmp_path("ooc_header.oocsr");
  ASSERT_TRUE(graph::write_csr_file(csr, path));
  graph::CsrFileHeader header;
  ASSERT_TRUE(graph::probe_csr_file(path, &header));
  EXPECT_EQ(header.magic, graph::kCsrFileMagic);
  EXPECT_EQ(header.version, graph::kCsrFileVersion);
  EXPECT_EQ(header.page_bytes, graph::kCsrFilePageBytes);
  EXPECT_EQ(header.num_vertices, csr.num_vertices());
  EXPECT_EQ(header.num_edges, csr.num_edges());
  EXPECT_EQ(header.offsets_pos % graph::kCsrFilePageBytes, 0u);
  EXPECT_EQ(header.neighbors_pos % graph::kCsrFilePageBytes, 0u);
  EXPECT_EQ(header.offsets_bytes,
            (static_cast<std::uint64_t>(csr.num_vertices()) + 1) * 8);
  EXPECT_EQ(header.neighbors_bytes, csr.num_edges() * 16);
  // The file ends page-aligned, with the sections in declared order.
  const std::string bytes = slurp_bytes(path);
  EXPECT_EQ(bytes.size() % graph::kCsrFilePageBytes, 0u);
  EXPECT_GE(bytes.size(), header.neighbors_pos + header.neighbors_bytes);
  std::remove(path.c_str());
}

// The external-memory builder must produce the *identical file bytes*
// as the in-memory writer, at any chunk size (run count) and any sort
// thread count, and regardless of the order edges were added in.
TEST(OocCsrFile, StreamingBuildIsByteIdentical) {
  const GenParams params = make_params(9, 11);
  const EdgeList edges = generate_uniform_random(params);
  const Csr csr = Csr::from_edge_list(edges);
  const std::string ref_path = tmp_path("ooc_ref.oocsr");
  ASSERT_TRUE(graph::write_csr_file(csr, ref_path));
  const std::string ref_bytes = slurp_bytes(ref_path);

  for (const std::uint64_t chunk : {64ull, 1ull << 12, 1ull << 22}) {
    for (const unsigned threads : {1u, 4u}) {
      const std::string path = tmp_path("ooc_stream.oocsr");
      graph::StreamingCsrWriter::Options opts;
      opts.chunk_edges = chunk;
      opts.threads = threads;
      graph::StreamingCsrWriter writer(path, params.num_vertices, opts);
      writer.add(std::span<const Edge>(edges.edges()));
      if (chunk == 64) {
        EXPECT_GT(writer.num_runs(), 1u);
      }
      ASSERT_TRUE(writer.finish());
      EXPECT_EQ(slurp_bytes(path), ref_bytes)
          << "chunk=" << chunk << " threads=" << threads;
      std::remove(path.c_str());
    }
  }

  // Reversed insertion order: same multiset, same file.
  std::vector<Edge> reversed = edges.edges();
  std::reverse(reversed.begin(), reversed.end());
  const std::string path = tmp_path("ooc_stream_rev.oocsr");
  graph::StreamingCsrWriter::Options opts;
  opts.chunk_edges = 1000;  // non-power-of-two chunking
  graph::StreamingCsrWriter writer(path, params.num_vertices, opts);
  for (const Edge& e : reversed) writer.add(e);
  ASSERT_TRUE(writer.finish());
  EXPECT_EQ(slurp_bytes(path), ref_bytes);
  std::remove(path.c_str());
  std::remove(ref_path.c_str());
}

// The chunked streaming generators emit the same edge multiset as the
// materializing ones, so generator -> StreamingCsrWriter -> file equals
// generate -> from_edge_list -> write_csr_file byte for byte.
TEST(OocCsrFile, StreamedGeneratorsMatchMaterialized) {
  struct Arm {
    const char* name;
    EdgeList (*materialize)(const GenParams&);
    void (*stream)(const GenParams&, const graph::EdgeSink&);
  };
  const Arm arms[] = {
      {"random",
       [](const GenParams& p) { return graph::generate_uniform_random(p); },
       [](const GenParams& p, const graph::EdgeSink& sink) {
         graph::stream_uniform_random(p, sink);
       }},
      {"rmat",
       [](const GenParams& p) {
         return graph::generate_rmat(p, graph::RmatParams{});
       },
       [](const GenParams& p, const graph::EdgeSink& sink) {
         graph::stream_rmat(p, sink, graph::RmatParams{});
       }},
  };
  for (const Arm& arm : arms) {
    const GenParams params = make_params(9, 5);
    const Csr csr = Csr::from_edge_list(arm.materialize(params));
    const std::string ref_path = tmp_path("ooc_gen_ref.oocsr");
    ASSERT_TRUE(graph::write_csr_file(csr, ref_path));

    const std::string path = tmp_path("ooc_gen_stream.oocsr");
    graph::StreamingCsrWriter::Options opts;
    opts.chunk_edges = 1 << 12;
    graph::StreamingCsrWriter writer(path, params.num_vertices, opts);
    arm.stream(params, [&writer](std::span<const Edge> chunk) {
      writer.add(chunk);
    });
    ASSERT_TRUE(writer.finish());
    EXPECT_EQ(slurp_bytes(path), slurp_bytes(ref_path)) << arm.name;
    std::remove(path.c_str());
    std::remove(ref_path.c_str());
  }
}

TEST(OocMappedCsr, ViewMatchesInMemory) {
  const Csr csr =
      Csr::from_edge_list(generate_uniform_random(make_params(9, 2)));
  const std::string path = tmp_path("ooc_view.oocsr");
  ASSERT_TRUE(graph::write_csr_file(csr, path));
  graph::MappedCsr mapped(path);
  EXPECT_FALSE(mapped.csr().owns_storage());
  expect_same_csr(csr, mapped.csr());
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    const auto a = csr.out_neighbors(v);
    const auto b = mapped.csr().out_neighbors(v);
    ASSERT_TRUE(std::ranges::equal(a, b)) << "vertex " << v;
  }
  std::remove(path.c_str());
}

// Every registered solver, run on the mmap-backed view, must produce
// elementwise-identical distances to the in-memory run.
TEST(OocMappedCsr, AllSolversMatchInMemory) {
  const Csr csr =
      Csr::from_edge_list(generate_uniform_random(make_params(9, 4)));
  const std::string path = tmp_path("ooc_solvers.oocsr");
  ASSERT_TRUE(graph::write_csr_file(csr, path));
  graph::MappedCsr mapped(path);
  stats::ExperimentSpec spec;
  spec.nodes = 2;
  for (const std::string& solver : sssp::solver_names()) {
    runtime::Machine mem_machine(spec.topology());
    const sssp::SolverRun mem_run =
        sssp::run_solver(solver, mem_machine, csr, 0);
    runtime::Machine map_machine(spec.topology());
    const sssp::SolverRun map_run =
        sssp::run_solver(solver, map_machine, mapped.csr(), 0);
    ASSERT_EQ(mem_run.sssp.dist.size(), map_run.sssp.dist.size());
    for (std::size_t v = 0; v < mem_run.sssp.dist.size(); ++v) {
      ASSERT_EQ(mem_run.sssp.dist[v], map_run.sssp.dist[v])
          << solver << " vertex " << v;
    }
    EXPECT_EQ(mem_run.sssp.metrics.sim_time_us,
              map_run.sssp.metrics.sim_time_us)
        << solver;
  }
  std::remove(path.c_str());
}

TEST(OocSerialize, LoadCsrRejectsOnDiskFormat) {
  const Csr csr =
      Csr::from_edge_list(generate_uniform_random(make_params(6, 1)));
  const std::string path = tmp_path("ooc_wrong_loader.oocsr");
  ASSERT_TRUE(graph::write_csr_file(csr, path));
  try {
    graph::load_csr(path);
    FAIL() << "load_csr accepted an out-of-core file";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("MappedCsr"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(OocCsrFile, ProbeRejectsMissingAndForeignFiles) {
  graph::CsrFileHeader header;
  EXPECT_FALSE(graph::probe_csr_file(tmp_path("ooc_no_such_file"), &header));

  // A legacy CSR cache is not an out-of-core file: probe says "not
  // mine" without throwing, and load_csr_file refuses it.
  const Csr csr =
      Csr::from_edge_list(generate_uniform_random(make_params(6, 1)));
  const std::string cache = tmp_path("ooc_foreign_cache.bin");
  ASSERT_TRUE(graph::save_csr(csr, cache));
  EXPECT_FALSE(graph::probe_csr_file(cache, &header));
  EXPECT_THROW(graph::load_csr_file(cache), std::runtime_error);
  std::remove(cache.c_str());
}

// --- FrontierFeed -------------------------------------------------------

TEST(OocFeed, SingleThreadedPublishPop) {
  graph::ooc::FrontierFeed feed(64);
  EXPECT_EQ(feed.capacity(), 64u);
  for (VertexId v = 0; v < 64; ++v) EXPECT_TRUE(feed.try_publish(v));
  EXPECT_FALSE(feed.try_publish(64));  // full -> dropped, counted
  EXPECT_EQ(feed.overflows(), 1u);
  for (VertexId v = 0; v < 64; ++v) {
    VertexId got = 0;
    ASSERT_TRUE(feed.try_pop(&got));
    EXPECT_EQ(got, v);  // FIFO
  }
  VertexId got = 0;
  EXPECT_FALSE(feed.try_pop(&got));
}

// Multi-producer stress with a concurrent consumer: every published
// value arrives exactly once, overflow accounting balances, and TSan
// (CI includes Ooc* in its filter) sees the real interleavings.
TEST(OocFeed, ConcurrentProducersStress) {
  graph::ooc::FrontierFeed feed(128);
  constexpr unsigned kProducers = 4;
  constexpr VertexId kPerProducer = 5000;
  std::vector<std::uint64_t> seen(kProducers * kPerProducer, 0);
  std::thread consumer([&feed, &seen] {
    VertexId v = 0;
    std::uint64_t idle = 0;
    while (idle < 200000) {
      if (feed.try_pop(&v)) {
        ASSERT_LT(v, seen.size());
        ++seen[v];
        idle = 0;
      } else {
        ++idle;
        std::this_thread::yield();
      }
    }
  });
  std::vector<std::thread> producers;
  for (unsigned p = 0; p < kProducers; ++p) {
    producers.emplace_back([&feed, p] {
      for (VertexId i = 0; i < kPerProducer; ++i) {
        feed.try_publish(p * kPerProducer + i);  // drops are fine
      }
    });
  }
  for (std::thread& t : producers) t.join();
  consumer.join();
  // Drain what the consumer left behind.
  VertexId v = 0;
  while (feed.try_pop(&v)) ++seen[v];
  std::uint64_t delivered = 0;
  for (const std::uint64_t count : seen) {
    EXPECT_LE(count, 1u);  // exactly-once
    delivered += count;
  }
  EXPECT_EQ(delivered + feed.overflows(),
            static_cast<std::uint64_t>(kProducers) * kPerProducer);
  EXPECT_EQ(delivered, feed.published());
}

// --- PagePrefetcher -----------------------------------------------------

struct PrefetchRun {
  std::vector<graph::Dist> dist;
  double sim_time_us = 0.0;
  std::uint64_t updates = 0;
};

PrefetchRun solve_acic(const Csr& csr, unsigned threads,
                       graph::ooc::FrontierFeed* feed) {
  stats::ExperimentSpec spec;
  spec.nodes = 2;
  runtime::Machine machine(spec.topology());
  machine.set_threads(threads);
  sssp::SolverOptions opts;
  opts.storage.frontier_feed = feed;
  sssp::SolverRun run = sssp::run_solver("acic", machine, csr, 0, opts);
  return {std::move(run.sssp.dist), run.sssp.metrics.sim_time_us,
          run.sssp.metrics.updates_created};
}

void expect_same_run(const PrefetchRun& a, const PrefetchRun& b) {
  EXPECT_EQ(a.sim_time_us, b.sim_time_us);
  EXPECT_EQ(a.updates, b.updates);
  ASSERT_EQ(a.dist.size(), b.dist.size());
  for (std::size_t v = 0; v < a.dist.size(); ++v) {
    ASSERT_EQ(a.dist[v], b.dist[v]) << "vertex " << v;
  }
}

// The determinism contract: prefetcher off, on, and on-with-overflowing
// ring all produce bit-identical results — madvise is a hint, never an
// effect the simulation can observe.
TEST(OocPrefetch, OnOffBitIdentical) {
  const Csr csr =
      Csr::from_edge_list(generate_uniform_random(make_params(10, 9)));
  const std::string path = tmp_path("ooc_prefetch.oocsr");
  ASSERT_TRUE(graph::write_csr_file(csr, path));
  graph::MappedCsr mapped(path);

  const PrefetchRun base = solve_acic(csr, 1, nullptr);
  const PrefetchRun mapped_off = solve_acic(mapped.csr(), 1, nullptr);
  expect_same_run(base, mapped_off);

  {
    graph::ooc::FrontierFeed feed;
    graph::ooc::PagePrefetcher prefetcher(mapped, feed);
    const PrefetchRun on = solve_acic(mapped.csr(), 1, &feed);
    expect_same_run(base, on);
  }
  {
    // A 64-slot ring under a whole frontier guarantees drops; dropped
    // hints must be just as invisible as delivered ones.
    graph::ooc::FrontierFeed feed(64);
    graph::ooc::PagePrefetcher prefetcher(mapped, feed);
    const PrefetchRun overflow = solve_acic(mapped.csr(), 1, &feed);
    expect_same_run(base, overflow);
  }
  std::remove(path.c_str());
}

// Same contract under the parallel engine.  ("threads4" in the name
// keeps it in CI's TSan include list twice over: Ooc* and *threads4*.)
TEST(OocPrefetch, OnOffBitIdentical_threads4) {
  const Csr csr =
      Csr::from_edge_list(generate_uniform_random(make_params(10, 9)));
  const std::string path = tmp_path("ooc_prefetch4.oocsr");
  ASSERT_TRUE(graph::write_csr_file(csr, path));
  graph::MappedCsr mapped(path);
  const PrefetchRun base = solve_acic(csr, 4, nullptr);
  expect_same_run(base, solve_acic(csr, 1, nullptr));  // engine invariant
  graph::ooc::FrontierFeed feed;
  graph::ooc::PagePrefetcher prefetcher(mapped, feed);
  expect_same_run(base, solve_acic(mapped.csr(), 4, &feed));
  std::remove(path.c_str());
}

TEST(OocPrefetch, DrainsFeedAndPublishesCounters) {
  const Csr csr =
      Csr::from_edge_list(generate_uniform_random(make_params(8, 6)));
  const std::string path = tmp_path("ooc_counters.oocsr");
  ASSERT_TRUE(graph::write_csr_file(csr, path));
  graph::MappedCsr mapped(path);
  graph::ooc::FrontierFeed feed;
  graph::ooc::PagePrefetcher prefetcher(mapped, feed);
  for (VertexId v = 0; v < csr.num_vertices(); ++v) feed.try_publish(v);
  prefetcher.stop();  // final drain happens before the thread exits
  const auto stats = prefetcher.stats();
  EXPECT_EQ(stats.vertices_consumed + feed.overflows(),
            csr.num_vertices());
  EXPECT_GT(stats.hints_issued + stats.hints_coalesced, 0u);

  obs::Registry registry(stats::ExperimentSpec{}.topology());
  prefetcher.publish_stats(registry);
  EXPECT_EQ(registry.total("ooc/vertices_consumed"),
            stats.vertices_consumed);
  EXPECT_EQ(registry.total("ooc/hints_issued"), stats.hints_issued);
  EXPECT_EQ(registry.total("ooc/pages_hinted"), stats.pages_hinted);
  std::remove(path.c_str());
}

TEST(OocPrefetch, ResidencyBudgetEvicts) {
  const Csr csr =
      Csr::from_edge_list(generate_uniform_random(make_params(10, 8)));
  const std::string path = tmp_path("ooc_budget.oocsr");
  ASSERT_TRUE(graph::write_csr_file(csr, path));
  graph::MappedCsr mapped(path);
  // Touch every neighbor page so the section is resident, then ask the
  // prefetcher to keep only a sliver of it.
  std::size_t touched = 0;
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    for (const graph::Neighbor& n : mapped.csr().out_neighbors(v)) {
      touched += n.dst;
    }
  }
  ASSERT_GE(touched, 0u);
  graph::ooc::FrontierFeed feed;
  graph::ooc::PagePrefetcher::Options popts;
  popts.residency_budget_bytes = 16 * 4096;
  popts.sample_interval = 1;
  popts.idle_sleep_us = 50;
  graph::ooc::PagePrefetcher prefetcher(mapped, feed, popts);
  // Keep the thread awake until it has sampled at least once.
  for (int spin = 0; spin < 2000; ++spin) {
    feed.try_publish(static_cast<VertexId>(spin) % csr.num_vertices());
    if (prefetcher.stats().residency_samples > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  prefetcher.stop();
  const auto stats = prefetcher.stats();
  EXPECT_GT(stats.residency_samples, 0u);
  // Eviction is advisory (the kernel may have dropped pages on its
  // own), so only the accounting invariant is pinned: every eviction
  // dropped at least one page.
  if (stats.evictions > 0) {
    EXPECT_GE(stats.pages_dropped, stats.evictions);
  }
  std::remove(path.c_str());
}

}  // namespace
