// Determinism contract of the parallel engine: Machine::set_threads is
// a wall-clock knob, never a results knob.  Every built-in solver must
// produce bit-identical distances, simulated times, metrics and machine
// totals at any thread count, and the conservative window merge must
// break timestamp ties exactly like the serial event queue.  The
// ParallelWindow suite attacks the window-widening rule directly: a
// cross-node send landing exactly on the widened boundary, sparse
// traffic that must run in a single window, more nodes than threads,
// time-limited runs resumed slice by slice, and hand-built mail
// schedules at the window's edges.  The graph builders carry the same
// contract for their thread parameter.

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/acic.hpp"
#include "src/graph/csr.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/partition.hpp"
#include "src/runtime/machine.hpp"
#include "src/sssp/solver.hpp"
#include "src/stats/experiment.hpp"

namespace {

using acic::graph::Csr;
using acic::graph::Edge;
using acic::graph::EdgeList;
using acic::graph::GenParams;
using acic::runtime::Machine;
using acic::runtime::Pe;
using acic::runtime::PeId;
using acic::runtime::RunStats;
using acic::runtime::Topology;

/// Host-side diagnostics that legitimately vary with the engine
/// configuration (never part of the bit-identical contract).
struct Diag {
  std::uint64_t windows = 0;
  unsigned threads_used = 0;
};

/// Everything a run exposes that must be independent of the host
/// thread count.
struct Observed {
  std::vector<acic::graph::Dist> dist;
  double sim_time_us = 0.0;
  std::uint64_t cycles = 0;
  std::uint64_t updates_created = 0;
  std::uint64_t updates_processed = 0;
  std::uint64_t updates_rejected = 0;
  std::uint64_t network_messages = 0;
  std::uint64_t network_bytes = 0;
  std::uint64_t machine_events = 0;
  std::uint64_t machine_messages = 0;
  std::uint64_t machine_bytes = 0;
  std::uint64_t tasks = 0;
  std::vector<double> pe_busy_us;
};

Observed run_solver_observed(const std::string& solver,
                             const acic::stats::ExperimentSpec& spec,
                             const Csr& csr, unsigned threads,
                             Diag* diag = nullptr) {
  Machine machine(spec.topology());
  machine.set_threads(threads);
  acic::sssp::SolverOptions opts;
  const acic::sssp::SolverRun run =
      acic::sssp::run_solver(solver, machine, csr, spec.source, opts);
  Observed o;
  o.dist = run.sssp.dist;
  o.sim_time_us = run.sssp.metrics.sim_time_us;
  o.cycles = run.telemetry.cycles;
  o.updates_created = run.sssp.metrics.updates_created;
  o.updates_processed = run.sssp.metrics.updates_processed;
  o.updates_rejected = run.sssp.metrics.updates_rejected;
  o.network_messages = run.sssp.metrics.network_messages;
  o.network_bytes = run.sssp.metrics.network_bytes;
  o.machine_events = machine.total_events_processed();
  o.machine_messages = machine.total_messages_sent();
  o.machine_bytes = machine.total_bytes_sent();
  o.pe_busy_us = run.telemetry.pe_busy_us;
  for (PeId p = 0; p < machine.num_pes(); ++p) {
    o.tasks += machine.pe_tasks_run(p);
  }
  if (diag != nullptr) {
    diag->windows = machine.total_windows();
    diag->threads_used = machine.last_threads_used();
  }
  return o;
}

void expect_identical(const Observed& a, const Observed& b,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.dist, b.dist);
  EXPECT_EQ(a.sim_time_us, b.sim_time_us);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.updates_created, b.updates_created);
  EXPECT_EQ(a.updates_processed, b.updates_processed);
  EXPECT_EQ(a.updates_rejected, b.updates_rejected);
  EXPECT_EQ(a.network_messages, b.network_messages);
  EXPECT_EQ(a.network_bytes, b.network_bytes);
  EXPECT_EQ(a.machine_events, b.machine_events);
  EXPECT_EQ(a.machine_messages, b.machine_messages);
  EXPECT_EQ(a.machine_bytes, b.machine_bytes);
  EXPECT_EQ(a.tasks, b.tasks);
  EXPECT_EQ(a.pe_busy_us, b.pe_busy_us);
}

TEST(ParallelEngine, EverySolverMatchesSerialAtAnyThreadCount) {
  for (const std::uint64_t seed : {1ull, 2ull}) {
    acic::stats::ExperimentSpec spec;
    spec.graph = acic::stats::GraphKind::kRandom;
    spec.scale = 10;
    spec.edge_factor = 8;
    spec.seed = seed;
    spec.nodes = 4;  // 4 nodes x 8 PEs: real cross-node traffic
    const Csr csr = acic::stats::build_graph(spec);
    for (const std::string& solver : acic::sssp::solver_names()) {
      const Observed serial = run_solver_observed(solver, spec, csr, 1);
      for (const unsigned threads : {2u, 4u}) {
        Diag diag;
        const Observed parallel =
            run_solver_observed(solver, spec, csr, threads, &diag);
        expect_identical(serial, parallel,
                         solver + " seed=" + std::to_string(seed) +
                             " threads=" + std::to_string(threads));
        // The sequential baseline never drives the machine, so the
        // parallel engine (and its thread clamp) only engages for the
        // event-driven solvers — visible as a nonzero window count.
        if (diag.windows > 0) {
          EXPECT_EQ(diag.threads_used, threads);
        } else {
          EXPECT_EQ(solver, "sequential");
        }
      }
    }
  }
}

// Adversarial timestamp ties: six senders on three different nodes all
// deliver to PE 0 at the exact same simulated instant.  The serial
// engine breaks the tie by the composite (node, counter) sequence key;
// the window merge must reproduce that order exactly, not just some
// deterministic order of its own.
TEST(ParallelEngine, WindowMergeBreaksTimestampTiesLikeSerial) {
  auto run_once = [](unsigned threads) {
    Machine machine(Topology{4, 1, 2});
    machine.set_threads(threads);
    std::vector<int> order;
    // PEs 2..7 live on nodes 1..3; node 0 only receives.
    for (PeId p = 2; p < 8; ++p) {
      machine.schedule_at(0.0, p, [&order, p](Pe& pe) {
        pe.send(0, 64, [&order, p](Pe&) {
          order.push_back(static_cast<int>(p));
        });
        pe.send(0, 64, [&order, p](Pe&) {
          order.push_back(100 + static_cast<int>(p));
        });
      });
    }
    const RunStats stats = machine.run();
    return std::pair(order, stats.end_time_us);
  };

  const auto [serial_order, serial_end] = run_once(1);
  EXPECT_EQ(serial_order.size(), 12u);
  for (const unsigned threads : {2u, 4u}) {
    SCOPED_TRACE(threads);
    const auto [order, end] = run_once(threads);
    EXPECT_EQ(order, serial_order);
    EXPECT_EQ(end, serial_end);
  }
}

// --- Window-widening suite -------------------------------------------

// A cross-node send whose arrival lands *exactly* on the widened window
// boundary.  Two nodes, one PE each, inter-node latency 4, zero
// overheads and zero-byte messages so arrivals sit at send_time + 4
// exactly.  PE 0 runs a(t=0) which mails node 1; node 1's handler at
// t=4 mails a response back that lands at t=8 — exactly the feedback
// bound a(0)'s own send imposes on shard 0 (arrival 4 + lookahead 4).
// The correct order interleaves the response before c(t=9).  An engine
// that widened shard 0's window by the static rule alone (other shards'
// minima only) would run c — and anything after it — before the
// response could land.
TEST(ParallelWindow, CrossNodeArrivalExactlyOnWidenedBoundary) {
  acic::runtime::NetworkModel net;
  net.send_overhead_us = 0.0;
  net.recv_overhead_us = 0.0;
  net.latency_inter_node_us = 4.0;

  // The response task runs on PE 0, so it can record into the same
  // vector as the locally scheduled probes without a cross-shard write.
  auto run_once = [&net](unsigned threads) {
    Machine machine(Topology{2, 1, 1}, net);
    machine.set_threads(threads);
    std::vector<char> order;
    machine.schedule_at(0.0, 0, [&order](Pe& pe) {
      order.push_back('a');
      pe.send(1, 0, [&order](Pe& peer) {
        peer.send(0, 0, [&order](Pe&) { order.push_back('r'); });
      });
    });
    machine.schedule_at(6.0, 0, [&order](Pe&) { order.push_back('b'); });
    machine.schedule_at(9.0, 0, [&order](Pe&) { order.push_back('c'); });
    const RunStats stats = machine.run();
    return std::tuple(order, stats.end_time_us, machine.total_windows());
  };

  const auto [serial_order, serial_end, serial_windows] = run_once(1);
  EXPECT_EQ(std::string(serial_order.begin(), serial_order.end()), "abrc");
  EXPECT_EQ(serial_windows, 0u);  // serial loop runs no windows
  const auto [order, end, windows] = run_once(2);
  EXPECT_EQ(order, serial_order);
  EXPECT_EQ(end, serial_end);
  EXPECT_GT(windows, 0u);
}

// Sparse cross-node traffic is where window widening pays: node 0
// carries a chain of local events spaced 10 simulated-us apart (far
// wider than the 3 us lookahead) and node 1 stays silent.  A window
// fixed at one lookahead wide would need one window per event; the
// widened window covers the whole run in one because no other shard
// can ever interfere.
TEST(ParallelWindow, AdaptiveStrictlyReducesWindowsOnSparseTraffic) {
  Machine machine(Topology{2, 1, 1});
  machine.set_threads(2);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    machine.schedule_at(10.0 * i, 0, [&order, i](Pe&) { order.push_back(i); });
  }
  const RunStats stats = machine.run();
  EXPECT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(stats.end_time_us, 90.0);
  EXPECT_EQ(stats.windows, 1u);  // silent peer => unbounded widening
  // No cross-node sends anywhere: every merge phase must be skipped.
  EXPECT_EQ(stats.window_merges, 0u);
}

// More nodes than threads with a skewed R-MAT degree distribution: each
// of the 4 threads owns 3 shards for the whole run, and per-shard work
// within a window is uneven.  Results must stay bit-identical to
// serial, and the clamp must report the requested thread count (12
// nodes >= 4 threads).
TEST(ParallelWindow, MoreNodesThanThreadsMatchesSerial) {
  acic::stats::ExperimentSpec spec;
  spec.graph = acic::stats::GraphKind::kRmat;
  spec.scale = 9;
  spec.edge_factor = 8;
  spec.seed = 5;
  spec.nodes = 12;
  const Csr csr = acic::stats::build_graph(spec);
  const Observed serial = run_solver_observed("acic", spec, csr, 1);
  Diag diag;
  const Observed parallel = run_solver_observed("acic", spec, csr, 4, &diag);
  expect_identical(serial, parallel, "threads=4");
  EXPECT_EQ(diag.threads_used, 4u);
}

/// Per-slice record of a run driven as a sequence of run(limit) calls.
struct Slice {
  double end_time_us = 0.0;
  bool hit_time_limit = false;
  std::uint64_t messages = 0;
  bool operator==(const Slice&) const = default;
};

void PrintTo(const Slice& s, std::ostream* os) {
  *os << "{end=" << s.end_time_us << " limit_hit=" << s.hit_time_limit
      << " messages=" << s.messages << "}";
}

/// Runs acic on `csr` as run(limit) slices, one per entry of `limits`,
/// then to completion; returns every slice's stats and the distances.
std::pair<std::vector<Slice>, std::vector<acic::graph::Dist>>
run_acic_sliced(const acic::stats::ExperimentSpec& spec, const Csr& csr,
                const std::vector<double>& limits, unsigned threads) {
  Machine machine(spec.topology());
  machine.set_threads(threads);
  const acic::graph::Partition1D partition =
      acic::graph::Partition1D::block(csr.num_vertices(), machine.num_pes());
  acic::core::AcicEngine engine(machine, csr, partition, spec.source, {});
  std::vector<Slice> slices;
  auto run_slice = [&](double limit) {
    const RunStats stats = machine.run(limit);
    slices.push_back(
        Slice{stats.end_time_us, stats.hit_time_limit, stats.messages_sent});
  };
  for (const double limit : limits) run_slice(limit);
  run_slice(acic::runtime::kNoTimeLimit);
  EXPECT_TRUE(engine.complete());
  return {slices, engine.collect().sssp.dist};
}

// A run stopped at its time limit must resume exactly where the serial
// loop would.  The limits split the solve into slices much shorter than
// its busy phase, so cross-node mail sent in the last window before a
// limit is still buffered when that slice stops; it must reach the
// global queue with the rest of the unprocessed events.  Tasks already
// queued on a PE when a slice stops must run in the next slice, on
// either engine.
TEST(ParallelWindow, TimeLimitedRunsResumeLikeSerial) {
  acic::stats::ExperimentSpec spec;
  spec.graph = acic::stats::GraphKind::kRmat;
  spec.scale = 9;
  spec.edge_factor = 8;
  spec.seed = 3;
  spec.nodes = 4;
  const Csr csr = acic::stats::build_graph(spec);
  const double total = run_acic_sliced(spec, csr, {}, 1).first[0].end_time_us;
  ASSERT_GT(total, 0.0);
  std::vector<double> limits;
  for (int k = 1; k < 24; ++k) limits.push_back(total * k / 24.0 + 0.37);
  const auto serial = run_acic_sliced(spec, csr, limits, 1);
  ASSERT_EQ(serial.first.size(), limits.size() + 1);
  for (std::size_t i = 0; i < limits.size(); ++i) {
    EXPECT_TRUE(serial.first[i].hit_time_limit) << "slice " << i;
  }
  EXPECT_FALSE(serial.first.back().hit_time_limit);
  for (const unsigned threads : {2u, 4u}) {
    SCOPED_TRACE(threads);
    const auto parallel = run_acic_sliced(spec, csr, limits, threads);
    EXPECT_EQ(parallel.first, serial.first);
    EXPECT_EQ(parallel.second, serial.second);
  }
}

// The engine clamps nthreads to the node count; RunStats must report
// the effective number, not the requested one.
TEST(ParallelWindow, ThreadCountClampedToNodeCount) {
  Machine machine(Topology{4, 1, 2});
  machine.set_threads(8);
  int ran = 0;
  machine.schedule_at(0.0, 0, [&ran](Pe&) { ++ran; });
  const RunStats stats = machine.run();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(stats.threads_used, 4u);
  EXPECT_EQ(machine.last_threads_used(), 4u);
}

// --- Hand-built mail schedules -----------------------------------------
//
// Cross-node mail landing among a shard's own events at the edges of a
// window: below later local events, tied with a local event at exactly
// the window limit, and one sender mailing two shards at once.  Each
// schedule runs at threads {2, 3} and must reproduce the serial
// per-node record exactly.

/// Per-node record of executed payload values.  A task appends only to
/// its own node's vector, so shards never share a record.
class NodeRecorder {
 public:
  explicit NodeRecorder(const Machine& machine)
      : topology_(machine.topology()), per_node_(topology_.nodes) {}

  void record(const Pe& pe, int value) {
    per_node_[topology_.node_of(pe.id())].push_back(value);
  }
  const std::vector<std::vector<int>>& records() const { return per_node_; }

 private:
  Topology topology_;
  std::vector<std::vector<int>> per_node_;
};

/// Zero-overhead network with a 4 us inter-node wire: arrivals land at
/// send time + 4 exactly, and the engine's lookahead (and thus the
/// window limit off a t=0 minimum) is exactly 4.
acic::runtime::NetworkModel wire4() {
  acic::runtime::NetworkModel net;
  net.send_overhead_us = 0.0;
  net.recv_overhead_us = 0.0;
  net.latency_inter_node_us = 4.0;
  return net;
}

using Schedule = void (*)(Machine&, NodeRecorder&);

/// Runs `schedule` on a fresh wire4 machine; returns the per-node
/// records and the end time.
std::pair<std::vector<std::vector<int>>, double> run_recorded(
    Topology topology, Schedule schedule, unsigned threads) {
  Machine machine(topology, wire4());
  machine.set_threads(threads);
  NodeRecorder rec(machine);
  schedule(machine, rec);
  const RunStats stats = machine.run();
  return {rec.records(), stats.end_time_us};
}

/// Checks the serial record against `expected`, then every parallel
/// configuration against the serial run.
void expect_parallel_matches_serial(
    Topology topology, Schedule schedule,
    const std::vector<std::vector<int>>& expected) {
  const auto serial = run_recorded(topology, schedule, 1);
  EXPECT_EQ(serial.first, expected);
  for (const unsigned threads : {2u, 3u}) {
    SCOPED_TRACE(threads);
    EXPECT_EQ(run_recorded(topology, schedule, threads), serial);
  }
}

// Node 0 has local events at t=0, 5 and 6; node 1's t=0 handler mails
// node 0 with a t=4 arrival.  Node 0's window off the t=0 minima ends
// at 4, so the mail must merge before node 0 runs t=5 and t=6.
TEST(ParallelWindow, MailBelowLaterLocalEventsMatchesSerial) {
  expect_parallel_matches_serial(
      Topology{2, 1, 1},
      [](Machine& machine, NodeRecorder& rec) {
        machine.schedule_at(0.0, 0, [&rec](Pe& pe) { rec.record(pe, 10); });
        machine.schedule_at(5.0, 0, [&rec](Pe& pe) { rec.record(pe, 11); });
        machine.schedule_at(6.0, 0, [&rec](Pe& pe) { rec.record(pe, 12); });
        machine.schedule_at(0.0, 1, [&rec](Pe& pe) {
          rec.record(pe, 20);
          pe.send(0, 0, [&rec](Pe& peer) { rec.record(peer, 99); });
        });
      },
      {{10, 99, 11, 12}, {20}});
}

// The mail's arrival ties with a node-0 local event at exactly the
// window limit (t=4, and 4 is not < 4).  The composite key breaks the
// tie by creating node: the local event (node 0) runs first.
TEST(ParallelWindow, MailTiedWithLocalEventAtWindowLimitMatchesSerial) {
  expect_parallel_matches_serial(
      Topology{2, 1, 1},
      [](Machine& machine, NodeRecorder& rec) {
        machine.schedule_at(0.0, 0, [&rec](Pe& pe) { rec.record(pe, 10); });
        machine.schedule_at(4.0, 0, [&rec](Pe& pe) { rec.record(pe, 11); });
        machine.schedule_at(0.0, 1, [&rec](Pe& pe) {
          rec.record(pe, 20);
          pe.send(0, 0, [&rec](Pe& peer) { rec.record(peer, 99); });
        });
      },
      {{10, 11, 99}, {20}});
}

// One sender, two receiving shards: node 2's t=0 handler mails nodes 0
// and 1, and both have local events after the t=4 arrival.  Both
// merges happen at the same barrier.
TEST(ParallelWindow, OneSenderMailsTwoShardsMatchesSerial) {
  expect_parallel_matches_serial(
      Topology{3, 1, 1},
      [](Machine& machine, NodeRecorder& rec) {
        for (PeId p = 0; p < 2; ++p) {
          const int base = 10 * (1 + static_cast<int>(p));
          machine.schedule_at(0.0, p, [&rec, base](Pe& pe) {
            rec.record(pe, base);
          });
          machine.schedule_at(5.0, p, [&rec, base](Pe& pe) {
            rec.record(pe, base + 1);
          });
          machine.schedule_at(6.0, p, [&rec, base](Pe& pe) {
            rec.record(pe, base + 2);
          });
        }
        machine.schedule_at(0.0, 2, [&rec](Pe& pe) {
          rec.record(pe, 30);
          pe.send(0, 0, [&rec](Pe& peer) { rec.record(peer, 98); });
          pe.send(1, 0, [&rec](Pe& peer) { rec.record(peer, 99); });
        });
      },
      {{10, 98, 11, 12}, {20, 99, 21, 22}, {30}});
}

void expect_same_edges(const EdgeList& a, const EdgeList& b) {
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (std::size_t i = 0; i < a.num_edges(); ++i) {
    const Edge& x = a.edges()[i];
    const Edge& y = b.edges()[i];
    ASSERT_EQ(x.src, y.src) << "edge " << i;
    ASSERT_EQ(x.dst, y.dst) << "edge " << i;
    ASSERT_EQ(x.weight, y.weight) << "edge " << i;
  }
}

TEST(ParallelEngine, GeneratorsIdenticalAtAnyThreadCount) {
  GenParams params;
  params.num_vertices = 1u << 12;
  // Several chunks plus a ragged tail, so the chunk seams are exercised.
  params.num_edges = (1ull << 17) + 12345;
  params.seed = 7;

  using Generator = EdgeList (*)(const GenParams&);
  const Generator generators[] = {
      [](const GenParams& p) { return acic::graph::generate_rmat(p); },
      [](const GenParams& p) {
        return acic::graph::generate_uniform_random(p);
      },
      [](const GenParams& p) {
        return acic::graph::generate_erdos_renyi(p);
      },
  };
  for (const Generator gen : generators) {
    GenParams serial = params;
    serial.threads = 1;
    const EdgeList reference = gen(serial);
    for (const unsigned threads : {2u, 4u}) {
      GenParams parallel = params;
      parallel.threads = threads;
      expect_same_edges(reference, gen(parallel));
    }
  }
}

TEST(ParallelEngine, CsrBuildIdenticalAtAnyThreadCount) {
  GenParams params;
  params.num_vertices = 1u << 12;
  params.num_edges = (1ull << 17) + 999;
  params.seed = 11;
  const EdgeList list = acic::graph::generate_rmat(params);

  const Csr serial = Csr::from_edge_list(list, 1);
  for (const unsigned threads : {2u, 4u}) {
    SCOPED_TRACE(threads);
    const Csr parallel = Csr::from_edge_list(list, threads);
    EXPECT_TRUE(std::ranges::equal(serial.offsets(), parallel.offsets()));
    ASSERT_EQ(serial.neighbors().size(), parallel.neighbors().size());
    for (std::size_t i = 0; i < serial.neighbors().size(); ++i) {
      ASSERT_EQ(serial.neighbors()[i].dst, parallel.neighbors()[i].dst)
          << "slot " << i;
      ASSERT_EQ(serial.neighbors()[i].weight,
                parallel.neighbors()[i].weight)
          << "slot " << i;
    }
  }
}

}  // namespace
