// perfbench — the repository benchmark (perfbench/README.md).
//
//   perfbench --workload solve-uniform|solve-rmat
//             --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// Host time of what a user of the library runs, end to end:
// generate a graph, build the CSR, partition, solve and validate, or
// construct a QueryService and push an open-loop query stream through
// it.  The benchmark drives the library only through its public calls
// and times them from outside; it touches nothing under src/.
//
// Every run has two phases, so every end-to-end metric is reported on
// every workload:
//   * the solve phase runs `sequential` (Dijkstra, the COST
//     denominator), `acic` on 1 and on 4 host threads and
//     `delta_stepping_dist` on 4 host threads, round by round over
//     seeded sources on three seeded scale-18 graphs, until --seconds
//     have passed;
//   * the serve phase drives independent QueryServices (batching and
//     landmarks on, Zipf sources, 30% point-to-point) on scale-10
//     graphs, each with its own open-loop stream, a fixed number of
//     queries served in slices.
// Serve slices and solve rounds alternate, so host noise lands on every
// metric alike.  solve-uniform solves uniform graphs and serves under
// churn (DynamicGraph plus a mutation stream); solve-rmat solves RMAT
// graphs and serves statically.
//
// Single-threaded calls (sequential, acic on one thread, serving) are
// timed on the process CPU clock, which on a shared virtual machine
// leaves out the time the host takes the CPU away; calls that run four
// host threads (graph set-up, acic and delta on four threads) are timed
// on the wall clock.
//
// Simulated-side results (sim times, latency percentiles) come from
// fixed work, so they are exact functions of the seed; rounds added to
// fill --seconds add host-time samples only.
//
// Correctness gate (outside every timed region): every solve is
// compared with Dijkstra, whose output passes graph::validate_sssp; the
// checksum, simulated time, messages, tasks and updates of a solve must
// be bit-identical across repeats and between 1 and 4 host threads.
// On static serving every point-to-point answer, retained vector and
// cached vector is compared with Dijkstra for its source; under churn
// answers are exact per epoch, so only completion is checked.  Any
// failure counts in `failed` and makes the exit code nonzero.
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}.  --trace 0 reports the end-to-end metrics;
// --trace 1 reports the per-layer metrics, records host spans around
// every library call, and writes a Perfetto-loadable trace plus a
// self-time table to --out-dir.

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "src/baselines/sequential.hpp"
#include "src/dynamic/dynamic_graph.hpp"
#include "src/graph/csr.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/partition.hpp"
#include "src/graph/validate.hpp"
#include "src/obs/registry.hpp"
#include "src/runtime/machine.hpp"
#include "src/server/service.hpp"
#include "src/server/workload.hpp"
#include "src/sssp/solver.hpp"
#include "src/stats/experiment.hpp"
#include "src/util/assert.hpp"
#include "src/util/rng.hpp"
#include "src/util/stats.hpp"

namespace {

using namespace acic;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU seconds of the whole process, helper threads included.
double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(const std::vector<double>& v) {
  return util::percentile(v, 50.0);
}

/// Typical value over a run's sources: the interquartile mean.  Solve
/// times vary by up to 40% between sources of an RMAT graph; over a
/// dozen sources this moved less from seed to seed than the median did,
/// and unlike a plain mean a few solves stalled by the host cannot move
/// it.
double across_sources(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 4;
  double sum = 0.0;
  for (std::size_t i = cut; i + cut < v.size(); ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

/// Delta's solves are bimodal: its hybrid Bellman-Ford switch fires
/// after two or three buckets on about 30% of uniform-graph sources,
/// which then take four times as long.  Its metrics take the lower
/// quartile over sources, which stays in the common mode unless three
/// quarters of them switch early, where a median flips whenever half
/// do.  baselines.delta_slow_frac reports the other mode.
double delta_statistic(const std::vector<double>& v) {
  return util::percentile(v, 25.0);
}

// ---------------------------------------------------------------------
// Host speed

/// Fixed work of the benchmark's own, shaped like a label-setting
/// solve: a binary heap fed by dependent random reads of a 32 MiB table
/// (a scale-18 CSR's size).  The speed of this VM's CPUs drifts by up to
/// 40% for minutes at a time with load elsewhere on the host, which no
/// clock leaves out; the probe, timed between the library calls,
/// measures that drift, and host-time metrics are reported at the speed
/// the probe has on a quiet host.
class HostProbe {
 public:
  /// Median probe CPU time on a quiet host: the fastest run medians
  /// seen on a 4-vCPU Xeon VM.
  static constexpr double kNominalS = 0.031;

  HostProbe() : table_(kTableSize) {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::uint32_t& slot : table_) {
      x += 0x9e3779b97f4a7c15ULL;  // splitmix64
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      slot = static_cast<std::uint32_t>(z ^ (z >> 31));
    }
  }

  /// Runs the probe once and records its CPU seconds.
  void sample() {
    const double c0 = cpu_now();
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>>
        heap;
    std::uint32_t x = 1;
    std::uint64_t sum = 0;
    for (std::uint32_t i = 0; i < kOps; ++i) {
      x = table_[x & (kTableSize - 1)] ^ i;
      heap.push((static_cast<std::uint64_t>(x) << 32) | i);
      if (heap.size() > kHeapSize) {
        sum += heap.top();
        heap.pop();
      }
    }
    sink_ = sum;
    samples_.push_back(cpu_now() - c0);
  }

  double median_s() const { return median(samples_); }
  std::size_t count() const { return samples_.size(); }
  /// Measured host time x factor() = host time at the quiet host's speed.
  double factor() const { return kNominalS / median_s(); }

 private:
  static constexpr std::uint32_t kTableSize = 1u << 23;
  static constexpr std::uint32_t kOps = 200000;
  static constexpr std::size_t kHeapSize = 4096;
  std::vector<std::uint32_t> table_;
  volatile std::uint64_t sink_ = 0;  // keeps the work observable
  std::vector<double> samples_;
};

// ---------------------------------------------------------------------
// Host spans

/// In-memory host span log.  A span is opened around each library call
/// the benchmark makes; its parent is the innermost open span and its
/// `op` is the benchmark operation (setup, solve round, serving replica)
/// it belongs to.  Disabled logs record nothing and cost one branch.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  int begin(const char* name, std::uint64_t op) {
    if (!enabled_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, op, parent, now_us(), 0.0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
    stack_.pop_back();
  }

  std::size_t size() const { return spans_.size(); }

  /// Self time per span name: duration minus the time its direct
  /// children cover (children nest strictly: the benchmark runs on one
  /// thread).
  struct SelfTime {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, SelfTime> self_times() const {
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
      }
    }
    std::map<std::string, SelfTime> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const double dur = spans_[i].end_us - spans_[i].start_us;
      SelfTime& t = out[spans_[i].name];
      ++t.count;
      t.total_s += dur * 1e-6;
      t.self_s += (dur - child_us[i]) * 1e-6;
    }
    return out;
  }

  /// Chrome trace-event JSON ("X" complete events), which Perfetto and
  /// chrome://tracing load directly.
  bool write_chrome_trace(const std::string& path,
                          const std::string& run_id) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string name = s.name;
      const std::string layer = name.substr(0, name.find('/'));
      char line[512];
      std::snprintf(line, sizeof(line),
                    "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                    "\"args\":{\"run\":\"%s\",\"op\":%llu,\"span\":%zu,"
                    "\"parent\":%d}}\n",
                    i == 0 ? "" : ",", name.c_str(), layer.c_str(),
                    s.start_us, s.end_us - s.start_us, run_id.c_str(),
                    static_cast<unsigned long long>(s.op), i, s.parent);
      out << line;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name;
    std::uint64_t op;
    int parent;
    double start_us;
    double end_us;
  };

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }

  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(SpanLog& log, const char* name, std::uint64_t op)
      : log_(log), id_(log.begin(name, op)) {}
  ~Scope() { log_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

// ---------------------------------------------------------------------
// Results

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // sample count or provenance, printed only
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for stderr

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
};

/// FNV-1a over the distance bits.
std::uint64_t checksum(const std::vector<graph::Dist>& dist) {
  std::uint64_t h = 1469598103934665603ull;
  for (const graph::Dist d : dist) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    for (int shift = 0; shift < 64; shift += 8) {
      h ^= (bits >> shift) & 0xffull;
      h *= 1099511628211ull;
    }
  }
  return h;
}

// ---------------------------------------------------------------------
// Graph set-up

graph::EdgeList generate(stats::GraphKind kind, unsigned scale,
                         std::uint64_t seed, unsigned threads) {
  // The parameters stats::build_graph uses for the same spec.
  graph::GenParams params;
  params.num_vertices = graph::VertexId{1} << scale;
  params.num_edges = 16ull * params.num_vertices;
  params.seed = seed;
  params.threads = threads;
  return kind == stats::GraphKind::kRmat
             ? graph::generate_rmat(params)
             : graph::generate_uniform_random(params);
}

// ---------------------------------------------------------------------
// Solve phase

constexpr unsigned kSolveScale = 18;
constexpr unsigned kSimNodes = 4;
/// Graphs per run, built before the first round.
constexpr unsigned kGraphs = 3;
/// Graph set-ups per run (setup_s takes their median, plus the median
/// set-up of a serving system): the first kGraphs build the graphs, the
/// rest rebuild one before every kRebuildEvery-th round.
constexpr unsigned kSetups = 6;
constexpr unsigned kRebuildEvery = 3;
/// A slot is one (graph, source) pair, slot s on graph s % kGraphs; a
/// round solves one slot with every solver.  Every run solves the first
/// kFixedSlots slots, and the simulated metrics come from them.  The
/// simulated time of an RMAT acic solve varies by up to 40% between
/// sources, so its median needs a dozen of them to settle.
constexpr unsigned kFixedSlots = 12;
/// Rounds every run makes: the fixed slots, then slot 0 again to check
/// it against its first solve.  Rounds that fill the rest of --seconds
/// solve further slots, host-time samples only.
constexpr unsigned kMinRounds = kFixedSlots + 1;

enum Arm { kSeq = 0, kAcic1, kAcic4, kDelta4, kNumArms };
constexpr const char* kArmSolver[kNumArms] = {
    "sequential", "acic", "acic", "delta_stepping_dist"};
constexpr const char* kArmSpan[kNumArms] = {
    "sssp/sequential", "sssp/acic_t1", "sssp/acic_t4", "sssp/delta_t4"};
/// Arms that run one host thread, timed on the CPU clock.
constexpr bool kArmSerial[kNumArms] = {true, true, false, false};

/// Simulated-side fingerprint of one solve: must repeat bit for bit.
struct Fingerprint {
  std::uint64_t checksum = 0;
  double sim_time_us = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t tasks = 0;
  std::uint64_t updates = 0;
  std::uint64_t cycles = 0;
  bool operator==(const Fingerprint&) const = default;
};

struct SolveResults {
  graph::VertexId vertices = 0;
  std::size_t edges = 0;
  std::vector<double> setup_s, build_s, partition_s;
  /// Host seconds per arm, per slot, every solve.
  std::vector<std::vector<double>> host_s[kNumArms];
  unsigned rounds = 0;
  // Per fixed slot (first solve of each), deterministic.
  std::vector<double> acic_sim_ms, delta_sim_ms;
  std::vector<double> acic_events, acic_tasks, acic_updates, acic_useful,
      acic_cycles, delta_updates, delta_cycles, seq_relaxations;
  // Host-side engine diagnostics of the acic t=4 solves.
  std::vector<double> windows, window_merges, steals;
  unsigned threads_used = 1;
  // From the registry-attached run (trace only).
  std::map<std::string, double> registry;

  /// Each slot's median host time for one arm: the repeat of slot 0
  /// narrows its own estimate without weighting it over the others.
  std::vector<double> slot_medians(Arm arm) const {
    std::vector<double> out;
    for (const std::vector<double>& v : host_s[arm]) out.push_back(median(v));
    return out;
  }
  std::size_t solves(Arm arm) const {
    std::size_t n = 0;
    for (const std::vector<double>& v : host_s[arm]) n += v.size();
    return n;
  }
};

runtime::Topology solve_topology(stats::GraphKind kind) {
  stats::ExperimentSpec exp;
  exp.graph = kind;
  exp.scale = kSolveScale;
  exp.nodes = kSimNodes;
  return exp.topology();
}

/// The four solvers, round by round, on kGraphs graphs.
class SolvePhase {
 public:
  SolvePhase(stats::GraphKind kind, std::uint64_t seed, unsigned threads,
             SpanLog& log, Outcome& outcome)
      : kind_(kind),
        seed_(seed),
        threads_(threads),
        topo_(solve_topology(kind)),
        log_(log),
        outcome_(outcome),
        source_rng_(util::derive_seed(seed, 2)) {
    csrs_.resize(kGraphs);
    for (unsigned k = 0; k < kGraphs; ++k) set_up(k);
    res_.vertices = csrs_[0].num_vertices();
    res_.edges = csrs_[0].num_edges();
  }

  unsigned rounds() const { return res_.rounds; }
  const SolveResults& results() const { return res_; }

  void round() {
    const unsigned round = res_.rounds++;
    Scope round_span(log_, "bench/round", round);
    const unsigned slot = round < kFixedSlots    ? round
                          : round == kFixedSlots ? 0
                                                 : round - 1;
    if (slot == sources_.size()) add_slot();
    const auto setups = static_cast<unsigned>(res_.setup_s.size());
    if (round > 0 && round % kRebuildEvery == 0 && setups < kSetups) {
      set_up(setups);
    }
    std::vector<Solve> done;
    for (unsigned k = 0; k < kNumArms; ++k) {
      // Rotate the order so host drift within a round hits every arm.
      done.push_back(solve(static_cast<Arm>((k + round) % kNumArms), slot,
                           round));
    }
    // Checks after the round: the round's sequential solve is the
    // Dijkstra reference.
    Scope check_span(log_, "check/dijkstra", round);
    const std::vector<graph::Dist>& ref =
        std::find_if(done.begin(), done.end(), [](const Solve& d) {
          return d.arm == kSeq;
        })->dist;
    const graph::ValidationResult v =
        graph::validate_sssp(graph_of(slot), sources_[slot], ref);
    outcome_.check(v.ok, "Dijkstra output invalid: " + v.error);
    for (const Solve& d : done) {
      outcome_.check(d.dist == ref,
                     std::string(kArmSpan[d.arm]) + " differs from Dijkstra");
      std::optional<Fingerprint>& prior = seen_[slot][fingerprint_arm(d.arm)];
      if (prior.has_value()) {
        outcome_.check(*prior == d.fp, std::string(kArmSpan[d.arm]) +
                                           " not bit-identical to its repeat");
      } else {
        prior = d.fp;
      }
    }
    if (slot == 0) reference0_ = ref;
  }

  /// Trace only: the tram, net and acic counts come from one extra
  /// untimed acic solve with a registry attached.  A registry forces the
  /// serial event loop; the counts match the parallel run's because the
  /// fingerprint check shows t=1 and t=4 execute the same schedule.
  void collect_registry() {
    Scope s(log_, "obs/registry_run", 0);
    runtime::Machine machine(topo_);
    obs::Registry registry(machine.topology());
    sssp::SolverOptions opts;
    opts.registry = &registry;
    const sssp::SolverRun run =
        sssp::run_solver("acic", machine, graph_of(0), sources_[0], opts);
    outcome_.check(run.sssp.dist == reference0_,
                   "registry-attached acic differs from Dijkstra");
    for (const char* name :
         {"tram/items_inserted", "tram/aggregate_messages",
          "tram/auto_flushes", "tram/manual_flushes",
          "net/messages_inter_node", "net/bytes_inter_node",
          "net/messages_intra_node", "net/messages_intra_process",
          "acic/updates_held_pq", "acic/updates_held_tram",
          "runtime/idle_polls"}) {
      res_.registry[name] = static_cast<double>(registry.total(name));
    }
  }

 private:
  struct Solve {
    Arm arm;
    std::vector<graph::Dist> dist;
    Fingerprint fp;
  };

  const graph::Csr& graph_of(unsigned slot) const {
    return csrs_[slot % kGraphs];
  }

  /// Set-up k: generate, CSR and partition graph k % kGraphs.  Set-ups
  /// past the first kGraphs rebuild a graph in place, bit-identical, so
  /// that a stall of the host's CPUs during the first ones does not set
  /// setup_s alone.
  void set_up(unsigned k) {
    const unsigned g = k % kGraphs;
    csrs_[g] = graph::Csr();  // the old copy is not part of the set-up
    Scope setup_span(log_, "bench/setup", k);
    const auto t0 = Clock::now();
    graph::EdgeList edges;
    {
      Scope s(log_, "graph/generate", k);
      edges = generate(kind_, kSolveScale, util::derive_seed(seed_, 1 + g),
                       threads_);
    }
    {
      Scope s(log_, "graph/csr", k);
      csrs_[g] = graph::Csr::from_edge_list(edges, threads_);
    }
    const auto t1 = Clock::now();
    {
      // Part of a user's set-up; run_solver builds the same block
      // partition internally for each solve.
      Scope s(log_, "graph/partition", k);
      partition_.emplace(
          graph::Partition1D::block(csrs_[g].num_vertices(), topo_.num_pes()));
    }
    const auto t2 = Clock::now();
    res_.build_s.push_back(seconds_between(t0, t1));
    res_.partition_s.push_back(seconds_between(t1, t2));
    res_.setup_s.push_back(seconds_between(t0, t2));
  }

  /// Draws the next slot's source: seeded, distinct on its graph, with
  /// at least one out-edge.
  void add_slot() {
    const unsigned slot = static_cast<unsigned>(sources_.size());
    const graph::Csr& csr = graph_of(slot);
    for (;;) {
      const auto v = static_cast<graph::VertexId>(
          source_rng_.next_below(csr.num_vertices()));
      bool taken = false;
      for (unsigned s = slot % kGraphs; s < slot; s += kGraphs) {
        taken = taken || sources_[s] == v;
      }
      if (csr.out_degree(v) > 0 && !taken) {
        sources_.push_back(v);
        break;
      }
    }
    seen_.emplace_back();
    for (auto& samples : res_.host_s) samples.emplace_back();
  }
  /// acic t=1 and t=4 share one fingerprint: they must agree.
  static unsigned fingerprint_arm(Arm arm) {
    return arm == kAcic4 ? kAcic1 : arm;
  }

  /// Runs and times one solve; records its samples.
  Solve solve(Arm arm, unsigned slot, unsigned round) {
    runtime::Machine machine(topo_);
    machine.set_threads(kArmSerial[arm] ? 1 : threads_);
    sssp::SolverRun run;
    {
      Scope s(log_, kArmSpan[arm], round);
      const double c0 = cpu_now();
      const auto t0 = Clock::now();
      run = sssp::run_solver(kArmSolver[arm], machine, graph_of(slot),
                             sources_[slot]);
      res_.host_s[arm][slot].push_back(kArmSerial[arm]
                                           ? cpu_now() - c0
                                           : seconds_between(t0, Clock::now()));
    }
    Solve out{arm, std::move(run.sssp.dist), {}};
    out.fp.checksum = checksum(out.dist);
    out.fp.sim_time_us = run.sssp.metrics.sim_time_us;
    out.fp.messages = machine.total_messages_sent();
    out.fp.bytes = machine.total_bytes_sent();
    for (runtime::PeId p = 0; p < machine.num_pes(); ++p) {
      out.fp.tasks += machine.pe_tasks_run(p);
    }
    out.fp.updates = run.sssp.metrics.updates_created;
    out.fp.cycles = run.telemetry.cycles;

    if (arm == kAcic4) {
      res_.windows.push_back(static_cast<double>(machine.total_windows()));
      res_.window_merges.push_back(
          static_cast<double>(machine.total_window_merges()));
      res_.steals.push_back(static_cast<double>(machine.total_shard_steals()));
      res_.threads_used = machine.last_threads_used();
    }
    // Simulated metrics: each fixed slot's first solve.
    if (slot >= kFixedSlots || seen_[slot][fingerprint_arm(arm)].has_value()) {
      return out;
    }
    const sssp::SsspMetrics& m = run.sssp.metrics;
    switch (arm) {
      case kSeq:
        res_.seq_relaxations.push_back(run.telemetry.extra("relaxations"));
        break;
      case kAcic1:
        res_.acic_sim_ms.push_back(m.sim_time_us * 1e-3);
        res_.acic_events.push_back(
            static_cast<double>(machine.total_events_processed()));
        res_.acic_tasks.push_back(static_cast<double>(out.fp.tasks));
        res_.acic_updates.push_back(static_cast<double>(m.updates_created));
        res_.acic_useful.push_back(1.0 - m.wasted_fraction());
        res_.acic_cycles.push_back(static_cast<double>(run.telemetry.cycles));
        break;
      case kDelta4:
        res_.delta_sim_ms.push_back(m.sim_time_us * 1e-3);
        res_.delta_updates.push_back(static_cast<double>(m.updates_created));
        res_.delta_cycles.push_back(static_cast<double>(run.telemetry.cycles));
        break;
      default:
        break;
    }
    return out;
  }

  const stats::GraphKind kind_;
  const std::uint64_t seed_;
  const unsigned threads_;
  const runtime::Topology topo_;
  SpanLog& log_;
  Outcome& outcome_;
  std::vector<graph::Csr> csrs_;
  std::optional<graph::Partition1D> partition_;
  util::Xoshiro256 source_rng_;
  std::vector<graph::VertexId> sources_;  // per slot
  std::vector<std::array<std::optional<Fingerprint>, kNumArms>> seen_;
  std::vector<graph::Dist> reference0_;  // slot 0's Dijkstra distances
  SolveResults res_;
};

// ---------------------------------------------------------------------
// Serve phase

/// Each service serves one open-loop stream: a warm-up slice fills the
/// result cache, then measured slices of kSliceQueries.  Fixed work, so
/// the simulated latencies are exact functions of the seed.
constexpr std::uint64_t kWarmupQueries = 300;
constexpr std::uint64_t kSliceQueries = 1000;

// Churn: 5 two-edge mutation epochs per simulated second.
constexpr double kMutationRate = 10.0;  // edge mutations per sim second
constexpr std::size_t kMutationBatch = 2;

/// Every serve phase runs on scale-10 uniform graphs, Topology{2,2,2},
/// with an open loop of 1000 queries per simulated second, well below
/// the backlog knee (perfbench/README.md).
constexpr unsigned kServeScale = 10;
constexpr double kServeQps = 1000.0;

struct ServeSpec {
  bool churn = false;
  /// Independent services, each with its own graph, Zipf universe and
  /// (under churn) mutation stream; latencies pool across them.  The
  /// tail of one service depends on its inputs; pooling steadies it.
  unsigned replicas = 1;
  /// Measured slices, dealt round-robin over the services.
  unsigned slices = 10;
};

struct ServeResults {
  std::vector<double> setup_s, construct_s;
  // Measured slices.
  std::vector<double> slice_qps;  // queries per CPU second in run()
  double run_cpu_s = 0.0;         // CPU seconds in QueryService::run
  std::vector<double> latency_us;
  std::uint64_t cache_hits = 0, batched = 0, landmark = 0, goal_directed = 0,
                engine = 0, repaired = 0, recompute = 0;
  std::uint64_t batches_started = 0, mutations = 0, invalidations = 0,
                stale_dropped = 0;
  std::uint32_t max_queue_depth = 0;
};

/// A serving system; members are destroyed service-first.
struct ServeSystem {
  explicit ServeSystem(const runtime::Topology& topo) : machine(topo) {}
  runtime::Machine machine;
  graph::Csr csr;
  std::optional<dynamic::DynamicGraph> dyn;
  std::optional<graph::Partition1D> part;
  std::optional<server::QueryService> service;
};

/// QueryServices fed open-loop streams, slice by slice.
class ServePhase {
 public:
  ServePhase(const ServeSpec& spec, std::uint64_t seed, SpanLog& log,
             Outcome& outcome)
      : spec_(spec),
        seed_(seed),
        log_(log),
        outcome_(outcome),
        replicas_(spec.replicas) {
    ACIC_ASSERT_MSG(spec_.slices % spec_.replicas == 0,
                    "slices must divide evenly over the replicas");
    for (unsigned r = 0; r < spec_.replicas; ++r) {
      Replica& rep = replicas_[r];
      rep.sys = build(util::derive_seed(seed, 100 + r), r);
      server::WorkloadConfig wl;
      wl.seed = util::derive_seed(seed, 200 + r);
      wl.qps = kServeQps;
      wl.num_queries =
          kWarmupQueries + spec_.slices / spec_.replicas * kSliceQueries;
      wl.source_universe = 48;
      wl.p2p_fraction = 0.3;
      {
        Scope s(log_, "server/workload_gen", r);
        rep.stream = server::generate_workload(wl, vertices(*rep.sys));
      }
      serve(rep, kWarmupQueries, std::nullopt, "server/warmup_run");
      const server::QueryService& service = *rep.sys->service;
      rep.first_record = service.records().size();
      rep.first_sample = service.queue_samples().size();
      rep.batches_before = service.batches_started();
    }
  }

  unsigned slices_done() const {
    return static_cast<unsigned>(res_.slice_qps.size());
  }
  unsigned slices_left() const { return spec_.slices - slices_done(); }
  bool done() const { return slices_left() == 0; }

  void slice() {
    const unsigned i = slices_done();
    std::optional<std::uint64_t> mutation_seed;
    if (spec_.churn) mutation_seed = util::derive_seed(seed_, 300 + i);
    const double run_cpu_s = serve(replicas_[i % spec_.replicas],
                                   kSliceQueries, mutation_seed, "server/run");
    res_.run_cpu_s += run_cpu_s;
    res_.slice_qps.push_back(static_cast<double>(kSliceQueries) / run_cpu_s);
  }

  /// Collects the measured slices' records and runs the correctness gate.
  const ServeResults& finish() {
    for (const Replica& rep : replicas_) {
      const server::QueryService& service = *rep.sys->service;
      const std::vector<server::QueryRecord>& records = service.records();
      for (std::size_t i = rep.first_record; i < records.size(); ++i) {
        const server::QueryRecord& rec = records[i];
        res_.latency_us.push_back(rec.latency_us());
        res_.cache_hits += rec.cache_hit() ? 1 : 0;
        res_.batched += rec.tier == server::ServeTier::kBatch ? 1 : 0;
        res_.landmark += rec.tier == server::ServeTier::kLandmark ? 1 : 0;
        res_.goal_directed +=
            rec.tier == server::ServeTier::kGoalDirected ? 1 : 0;
        const bool engine = rec.tier == server::ServeTier::kEngine;
        res_.engine += engine ? 1 : 0;
        res_.repaired += rec.repaired ? 1 : 0;
        // A solo cold engine admission under churn is what the service
        // counts as a recompute (server/recompute_queries).
        res_.recompute += spec_.churn && engine && !rec.repaired ? 1 : 0;
      }
      const auto& samples = service.queue_samples();
      for (std::size_t i = rep.first_sample; i < samples.size(); ++i) {
        res_.max_queue_depth =
            std::max(res_.max_queue_depth, samples[i].waiting);
      }
      res_.batches_started += service.batches_started() - rep.batches_before;
      res_.mutations += service.mutations_applied();
      res_.invalidations += service.summary().cache_invalidations;
      res_.stale_dropped += service.stale_results_dropped();
      check_answers(*rep.sys);
    }
    std::sort(res_.latency_us.begin(), res_.latency_us.end());
    return res_;
  }

 private:
  struct Replica {
    std::unique_ptr<ServeSystem> sys;
    std::vector<server::Query> stream;
    std::size_t next = 0;  // first stream index not yet submitted
    std::size_t first_record = 0;
    std::size_t first_sample = 0;
    std::uint64_t batches_before = 0;
  };

  graph::VertexId vertices(const ServeSystem& sys) const {
    return spec_.churn ? sys.dyn->num_vertices() : sys.csr.num_vertices();
  }

  std::unique_ptr<ServeSystem> build(std::uint64_t graph_seed, unsigned k) {
    Scope setup_span(log_, "bench/setup", k);
    const auto t0 = Clock::now();
    auto sys = std::make_unique<ServeSystem>(runtime::Topology{2, 2, 2});
    graph::EdgeList edges;
    {
      Scope s(log_, "graph/generate", k);
      edges = generate(stats::GraphKind::kRandom, kServeScale, graph_seed, 1);
    }
    if (spec_.churn) {
      Scope s(log_, "dynamic/graph_build", k);
      sys->dyn.emplace(std::move(edges));
    } else {
      Scope s(log_, "graph/csr", k);
      sys->csr = graph::Csr::from_edge_list(edges);
    }
    {
      Scope s(log_, "graph/partition", k);
      sys->part.emplace(
          graph::Partition1D::block(vertices(*sys), sys->machine.num_pes()));
    }
    server::ServiceConfig config;
    config.max_inflight = 3;
    config.cache_capacity = 24;
    config.batching.max_batch = 8;
    config.landmarks.num_landmarks = 8;
    config.retain_full_results = !spec_.churn;
    const auto tc = Clock::now();
    {
      Scope s(log_, "server/construct", k);
      if (spec_.churn) {
        sys->service.emplace(sys->machine, *sys->dyn, *sys->part, config);
      } else {
        sys->service.emplace(sys->machine, sys->csr, *sys->part, config);
      }
    }
    const auto t1 = Clock::now();
    res_.construct_s.push_back(seconds_between(tc, t1));
    res_.setup_s.push_back(seconds_between(t0, t1));
    return sys;
  }

  /// Serves the replica's next `count` stream queries and returns the
  /// CPU seconds run() took (the service runs one host thread).  The
  /// slice keeps its inter-arrival gaps but is shifted to start no
  /// earlier than the machine's clock (run() drained the previous slice).
  /// With a mutation seed a mutation stream covering the slice's span
  /// rides along.
  double serve(Replica& rep, std::size_t count,
               std::optional<std::uint64_t> mutation_seed,
               const char* run_span) {
    ServeSystem& sys = *rep.sys;
    const std::size_t begin = rep.next;
    rep.next += count;
    const runtime::SimTime shift = std::max(
        0.0, sys.machine.current_time() - rep.stream[begin].arrival_us);
    std::vector<server::Query> slice(rep.stream.begin() + begin,
                                     rep.stream.begin() + rep.next);
    for (server::Query& q : slice) q.arrival_us += shift;
    {
      Scope s(log_, "server/submit", begin);
      sys.service->submit(slice);
    }
    if (mutation_seed.has_value()) {
      server::MutationWorkloadConfig mw;
      mw.seed = *mutation_seed;
      mw.mutation_rate = kMutationRate;
      mw.batch_size = kMutationBatch;
      mw.start_us = slice.front().arrival_us;
      const double span_s =
          (slice.back().arrival_us - slice.front().arrival_us) * 1e-6;
      mw.num_batches = static_cast<std::uint64_t>(
          span_s * kMutationRate / static_cast<double>(kMutationBatch) + 1.0);
      std::vector<server::MutationEvent> mutations;
      {
        Scope s(log_, "dynamic/mutation_gen", begin);
        mutations = server::generate_mutation_stream(mw, sys.dyn->csr());
      }
      Scope s(log_, "server/submit", begin);
      sys.service->submit_mutations(mutations);
    }
    Scope s(log_, run_span, begin);
    const double c0 = cpu_now();
    sys.service->run();
    return cpu_now() - c0;
  }

  void check_answers(const ServeSystem& sys) {
    Scope check_span(log_, "check/dijkstra", 0);
    const server::QueryService& service = *sys.service;
    outcome_.check(service.completed_count() == service.submitted_count(),
                   "serving left queries incomplete");
    if (spec_.churn) {
      // Answers are exact for their admission epoch, which a solver on
      // the final graph cannot reproduce: check completion only.
      for (const server::QueryRecord& rec : service.records()) {
        outcome_.check(rec.complete_us >= rec.arrival_us,
                       "query " + std::to_string(rec.id) + " never completed");
      }
      return;
    }
    std::map<graph::VertexId, std::vector<graph::Dist>> refs;
    auto ref = [&](graph::VertexId source) -> const std::vector<graph::Dist>& {
      auto it = refs.find(source);
      if (it == refs.end()) {
        it = refs.emplace(source, baselines::dijkstra(sys.csr, source)).first;
      }
      return it->second;
    };
    for (const server::QueryRecord& rec : service.records()) {
      const server::QueryResult* result = service.result_of(rec.id);
      const bool ok = result != nullptr &&
                      (rec.mode == server::ResultMode::kPointToPoint
                           ? result->distance == ref(rec.source)[rec.target]
                           : result->distances == ref(rec.source));
      outcome_.check(ok, "query " + std::to_string(rec.id) +
                             " differs from Dijkstra");
    }
    for (const graph::VertexId source : service.cache().cached_sources()) {
      outcome_.check(*service.cache().peek(source) == ref(source),
                     "cached vector for source " + std::to_string(source) +
                         " differs from Dijkstra");
    }
  }

  const ServeSpec spec_;
  const std::uint64_t seed_;
  SpanLog& log_;
  Outcome& outcome_;
  std::vector<Replica> replicas_;
  ServeResults res_;
};

// ---------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  stats::GraphKind solve_graph;
  ServeSpec serve;
};

std::vector<Workload> workloads() {
  // Static serving rides along on solve-rmat, serving under churn on
  // solve-uniform.  Each pools independent services, so one service's
  // inputs do not set the tail: p99 spread 0.03 over ten seeds with five
  // static services and 0.09 with nine under churn, against 0.2-0.3
  // with three.
  return {
      {"solve-uniform", stats::GraphKind::kRandom,
       ServeSpec{.churn = true, .replicas = 9, .slices = 27}},
      {"solve-rmat", stats::GraphKind::kRmat,
       ServeSpec{.churn = false, .replicas = 6, .slices = 12}},
  };
}

unsigned host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return 1;
}

double load_average_1m() {
  double load[1] = {0.0};
  return getloadavg(load, 1) == 1 ? load[0] : -1.0;
}

struct Usage {
  double cpu_s = 0.0;
  double max_rss_mb = 0.0;
  double minor_faults = 0.0;
  double major_faults = 0.0;
  double involuntary_switches = 0.0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                       ru.ru_stime.tv_usec);
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
  u.minor_faults = static_cast<double>(ru.ru_minflt);
  u.major_faults = static_cast<double>(ru.ru_majflt);
  u.involuntary_switches = static_cast<double>(ru.ru_nivcsw);
  return u;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int usage_error(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n",
               msg);
  return 2;
}

bool parse_uint(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s.size() > 19) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      return usage_error("malformed arguments");
    }
    args[key.substr(2)] = argv[i + 1];
  }
  for (const auto& [key, value] : args) {
    if (key != "workload" && key != "seed" && key != "seconds" &&
        key != "trace" && key != "out-dir") {
      return usage_error(("unknown option --" + key).c_str());
    }
  }
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  std::uint64_t trace = 0;
  if (!parse_uint(args["seed"], &seed)) return usage_error("bad --seed");
  if (!parse_uint(args["seconds"], &seconds) || seconds == 0 ||
      seconds > 600) {
    return usage_error("bad --seconds");
  }
  if (!parse_uint(args["trace"], &trace) || trace > 1) {
    return usage_error("bad --trace");
  }
  const std::vector<Workload> all = workloads();
  const auto it =
      std::find_if(all.begin(), all.end(), [&](const Workload& w) {
        return args["workload"] == w.name;
      });
  if (it == all.end()) return usage_error("unknown --workload");
  Workload wk = *it;
  const bool traced = trace == 1;

  // Host noise, recorded per run.  Never more host threads than CPUs.
  const unsigned cpus = host_cpus();
  const double load_start = load_average_1m();
  const unsigned threads = std::min(4u, cpus);
  std::printf("perfbench: workload=%s seed=%llu seconds=%llu trace=%d\n",
              wk.name, static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seconds), traced ? 1 : 0);
  std::printf("host: nproc=%u load1_start=%.2f host_threads=%u\n", cpus,
              load_start, threads);

  const double budget = static_cast<double>(seconds);
  HostProbe probe;
  SpanLog log(traced);
  Outcome outcome;
  const auto run_start = Clock::now();
  SolveResults solve;
  ServeResults serve;
  {
    Scope root(log, "bench/run", 0);
    {
      Scope s(log, "bench/probe", 0);
      probe.sample();
    }
    ServePhase serving(wk.serve, seed, log, outcome);
    SolvePhase solving(wk.solve_graph, seed, threads, log, outcome);
    // Serve slices and solve rounds alternate by host time spent, so a
    // burst of host noise lands on every metric alike.  Serving is fixed
    // work; solve rounds go on while the budget has room for them and
    // for the slices still to serve.
    double serve_s = 0.0;
    double solve_s = 0.0;
    for (;;) {
      const double elapsed = seconds_between(run_start, Clock::now());
      const double round_s =
          solving.rounds() > 0 ? solve_s / solving.rounds() : 0.0;
      const double serve_left_s =
          serving.slices_done() > 0
              ? serve_s / serving.slices_done() * serving.slices_left()
              : 0.0;
      const bool more_rounds = solving.rounds() < kMinRounds ||
                               elapsed + round_s + serve_left_s <= budget;
      if (!serving.done() || more_rounds) {
        Scope s(log, "bench/probe", probe.count());
        probe.sample();
      }
      const auto t0 = Clock::now();
      if (!serving.done() && (serve_s <= solve_s || !more_rounds)) {
        serving.slice();
        serve_s += seconds_between(t0, Clock::now());
      } else if (more_rounds) {
        solving.round();
        solve_s += seconds_between(t0, Clock::now());
      } else {
        break;
      }
    }
    serve = serving.finish();
    if (traced) solving.collect_registry();
    solve = solving.results();
  }
  const double run_wall_s = seconds_between(run_start, Clock::now());
  const Usage usage = usage_now();

  // Host times at the quiet host's speed (HostProbe): multiply by
  // `speed` for times, divide for rates.  Set-up allocates and faults in
  // fresh memory on four threads, which the probe does not resemble, so
  // it is reported as measured.
  const double speed = probe.factor();
  // Solve timings: over slots, each slot's median.
  const double seq_s = across_sources(solve.slot_medians(kSeq)) * speed;
  const double acic_s = across_sources(solve.slot_medians(kAcic4)) * speed;
  const double acic1_s = across_sources(solve.slot_medians(kAcic1)) * speed;
  const double delta_s = delta_statistic(solve.slot_medians(kDelta4)) * speed;
  const double delta_sim_ms = delta_statistic(solve.delta_sim_ms);
  const double delta_slow_frac =
      solve.delta_sim_ms.empty()
          ? 0.0
          : static_cast<double>(std::count_if(
                solve.delta_sim_ms.begin(), solve.delta_sim_ms.end(),
                [&](double ms) { return ms > 2.0 * delta_sim_ms; })) /
                static_cast<double>(solve.delta_sim_ms.size());
  const double serve_qps = median(serve.slice_qps) / speed;
  // Not a bounded end-to-end metric: a static-serving median is a cache
  // hit waiting for the front-end PE and lands where few latencies fall,
  // so it spread 0.19-0.30 across seeds however many queries ran.  It is
  // printed here and reported as the per-layer server.sim_p50_ms.
  const double sim_p50_ms = util::percentile(serve.latency_us, 50.0) * 1e-3;
  const double fail_frac =
      outcome.attempted > 0 ? static_cast<double>(outcome.failed) /
                                  static_cast<double>(outcome.attempted)
                            : 1.0;
  auto n = [](std::size_t count) { return "n=" + std::to_string(count); };
  const std::string slots =
      " over " + std::to_string(solve.host_s[kSeq].size()) + " sources";

  const std::vector<Metric> end_to_end = {
      {"setup_s", median(solve.setup_s) + median(serve.setup_s), "s",
       "graph " + n(solve.setup_s.size()) + " + service " +
           n(serve.setup_s.size()) + ", wall"},
      {"seq_solve_s", seq_s, "s", n(solve.solves(kSeq)) + slots + ", CPU"},
      {"acic_solve_s", acic_s, "s", n(solve.solves(kAcic4)) + slots + ", wall"},
      {"acic_serial_solve_s", acic1_s, "s",
       n(solve.solves(kAcic1)) + slots + ", CPU"},
      {"delta_solve_s", delta_s, "s",
       "lower quartile, " + n(solve.solves(kDelta4)) + slots + ", wall"},
      {"acic_vs_seq", acic_s > 0.0 ? seq_s / acic_s : 0.0, "ratio", ""},
      {"delta_vs_seq", delta_s > 0.0 ? seq_s / delta_s : 0.0, "ratio", ""},
      {"acic_sim_ms", across_sources(solve.acic_sim_ms), "ms",
       n(solve.acic_sim_ms.size()) + " sources"},
      {"delta_sim_ms", delta_sim_ms, "ms",
       "lower quartile, " + n(solve.delta_sim_ms.size()) + " sources"},
      {"serve_qps", serve_qps, "queries/s",
       n(serve.slice_qps.size()) + " slices of " +
           std::to_string(kSliceQueries) + " queries, CPU"},
      {"sim_p99_ms", util::percentile(serve.latency_us, 99.0) * 1e-3, "ms",
       n(serve.latency_us.size())},
      {"peak_rss_mb", usage.max_rss_mb, "MB", ""},
  };

  std::vector<Metric> per_layer;
  if (traced) {
    const double events = across_sources(solve.acic_events);
    const double windows = across_sources(solve.windows);
    const double hit_rate =
        serve.latency_us.empty()
            ? 0.0
            : static_cast<double>(serve.cache_hits) /
                  static_cast<double>(serve.latency_us.size());
    auto reg = [&](const char* name) { return solve.registry[name]; };
    const double inserted = reg("tram/items_inserted");
    const double aggregates = reg("tram/aggregate_messages");
    per_layer = {
        {"graph.build_s", median(solve.build_s), "s", "generate + CSR"},
        {"graph.partition_s", median(solve.partition_s), "s", ""},
        {"runtime.events", events, "count", "acic t=1"},
        {"runtime.tasks", across_sources(solve.acic_tasks), "count", ""},
        {"runtime.idle_polls", reg("runtime/idle_polls"), "count",
         "registry run"},
        {"runtime.ns_per_event", events > 0.0 ? acic1_s * 1e9 / events : 0.0,
         "ns", ""},
        {"runtime.windows", windows, "count", "acic t=4"},
        {"runtime.window_merges", across_sources(solve.window_merges),
         "count", ""},
        {"runtime.steals", across_sources(solve.steals), "count", ""},
        {"runtime.events_per_window", windows > 0.0 ? events / windows : 0.0,
         "count", ""},
        {"runtime.us_per_window", windows > 0.0 ? acic_s * 1e6 / windows : 0.0,
         "us", ""},
        {"runtime.threads_used", static_cast<double>(solve.threads_used),
         "count", ""},
        {"runtime.parallel_speedup", acic_s > 0.0 ? acic1_s / acic_s : 0.0,
         "ratio", ""},
        {"tram.items_inserted", inserted, "count", "registry run"},
        {"tram.aggregate_messages", aggregates, "count", ""},
        {"tram.items_per_message",
         aggregates > 0.0 ? inserted / aggregates : 0.0, "ratio", ""},
        {"tram.auto_flushes", reg("tram/auto_flushes"), "count", ""},
        {"tram.manual_flushes", reg("tram/manual_flushes"), "count", ""},
        {"net.messages_inter_node", reg("net/messages_inter_node"), "count",
         ""},
        {"net.bytes_inter_node", reg("net/bytes_inter_node"), "bytes", ""},
        {"net.messages_intra_node", reg("net/messages_intra_node"), "count",
         ""},
        {"net.messages_intra_process", reg("net/messages_intra_process"),
         "count", ""},
        {"core.updates_created", across_sources(solve.acic_updates), "count",
         ""},
        {"core.useful_ratio", across_sources(solve.acic_useful), "ratio", ""},
        {"core.updates_held_pq", reg("acic/updates_held_pq"), "count",
         "registry run"},
        {"core.updates_held_tram", reg("acic/updates_held_tram"), "count",
         "registry run"},
        {"collectives.cycles", across_sources(solve.acic_cycles), "count", ""},
        {"baselines.delta_updates_created",
         delta_statistic(solve.delta_updates),
         "count", ""},
        {"baselines.delta_cycles", delta_statistic(solve.delta_cycles),
         "count", ""},
        {"baselines.delta_slow_frac", delta_slow_frac, "ratio",
         "first solves over twice the lower-quartile simulated time"},
        {"baselines.seq_ns_per_edge",
         across_sources(solve.seq_relaxations) > 0.0
             ? seq_s * 1e9 / across_sources(solve.seq_relaxations)
             : 0.0,
         "ns", "per relaxation"},
        {"server.construct_s", median(serve.construct_s) * speed, "s",
         ""},
        {"server.run_s", serve.run_cpu_s * speed, "s",
         "measured slices, CPU"},
        {"server.host_us_per_query", serve_qps > 0.0 ? 1e6 / serve_qps : 0.0,
         "us", ""},
        {"server.sim_p50_ms", sim_p50_ms, "ms", ""},
        {"server.cache_hit_rate", hit_rate, "ratio", ""},
        {"server.batches_started", static_cast<double>(serve.batches_started),
         "count", ""},
        {"server.batched_queries", static_cast<double>(serve.batched),
         "count", ""},
        {"server.landmark_exact", static_cast<double>(serve.landmark),
         "count", ""},
        {"server.goal_directed", static_cast<double>(serve.goal_directed),
         "count", ""},
        {"server.engine_queries", static_cast<double>(serve.engine), "count",
         ""},
        {"server.max_queue_depth", static_cast<double>(serve.max_queue_depth),
         "count", ""},
        {"dynamic.mutations_applied", static_cast<double>(serve.mutations),
         "count", ""},
        {"dynamic.cache_invalidations",
         static_cast<double>(serve.invalidations), "count", ""},
        {"dynamic.repaired_queries", static_cast<double>(serve.repaired),
         "count", ""},
        {"dynamic.recompute_queries", static_cast<double>(serve.recompute),
         "count", ""},
        {"dynamic.stale_results_dropped",
         static_cast<double>(serve.stale_dropped), "count", ""},
        {"proc.cpu_s", usage.cpu_s, "s", ""},
        {"proc.minor_faults", usage.minor_faults, "count", ""},
        {"proc.major_faults", usage.major_faults, "count", ""},
        {"proc.involuntary_ctx_switches", usage.involuntary_switches, "count",
         ""},
        {"host.nproc", static_cast<double>(cpus), "count", ""},
        {"host.load1_start", load_start, "load", ""},
        {"host.probe_ms", probe.median_s() * 1e3, "ms", "measured"},
        {"trace.spans", static_cast<double>(log.size()), "count", ""},
    };
  }

  // Human-readable report.
  std::printf("solve phase: %u %s scale-%u graphs (first |V|=%u |E|=%zu), "
              "%u rounds over %u sources, %u simulated nodes\n",
              kGraphs, stats::graph_kind_name(wk.solve_graph), kSolveScale,
              solve.vertices, solve.edges, solve.rounds,
              static_cast<unsigned>(solve.host_s[kSeq].size()), kSimNodes);
  for (const auto& [name, sims] :
       {std::pair{"acic", &solve.acic_sim_ms},
        std::pair{"delta", &solve.delta_sim_ms}}) {
    std::printf("simulated ms per source, %s:", name);
    for (const double ms : *sims) std::printf(" %.3f", ms);
    std::printf("\n");
  }
  std::printf("serve phase: uniform scale %u%s, %.0f offered qps, %u "
              "service(s), %zu measured queries after %llu warm-up queries "
              "each\n",
              kServeScale, wk.serve.churn ? " under churn" : "", kServeQps,
              wk.serve.replicas, serve.latency_us.size(),
              static_cast<unsigned long long>(kWarmupQueries));
  std::printf("run wall %.3f s, involuntary context switches %.0f\n",
              run_wall_s, usage.involuntary_switches);
  std::printf("host speed: probe %.3f ms (median of %zu), %.3f ms on a quiet "
              "host: solve times below are measured x %.4f, serve_qps "
              "measured / %.4f, setup_s as measured\n",
              probe.median_s() * 1e3, probe.count(), HostProbe::kNominalS * 1e3,
              speed, speed);
  for (const Metric& m : end_to_end) {
    std::printf("  %-22s %14.6f %-10s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::printf("  %-22s %14.6f %-10s n=%zu (per-layer server.sim_p50_ms)\n",
              "sim_p50_ms", sim_p50_ms, "ms", serve.latency_us.size());
  std::printf("  %-22s %14.6f %-10s failed %llu of %llu\n", "fail_frac",
              fail_frac, "ratio",
              static_cast<unsigned long long>(outcome.failed),
              static_cast<unsigned long long>(outcome.attempted));
  for (const std::string& f : outcome.failures) {
    std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  }

  if (traced) {
    std::printf("per-layer (traced run; tram/net/core registry counts come "
                "from one extra untimed acic run, which a registry forces "
                "onto the serial loop):\n");
    for (const Metric& m : per_layer) {
      std::printf("  %-32s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
    // Self-time table: every span's time minus its children's.
    const auto table = log.self_times();
    std::printf("self time by span (wall %.3f s):\n", run_wall_s);
    std::printf("  %-24s %8s %12s %12s %8s\n", "span", "count", "total_s",
                "self_s", "self_%");
    double self_sum = 0.0;
    for (const auto& [name, t] : table) {
      self_sum += t.self_s;
      std::printf("  %-24s %8llu %12.6f %12.6f %7.2f%%\n", name.c_str(),
                  static_cast<unsigned long long>(t.count), t.total_s,
                  t.self_s, 100.0 * t.self_s / run_wall_s);
    }
    std::printf("  sum of self times %.6f s = %.2f%% of run wall\n",
                self_sum, 100.0 * self_sum / run_wall_s);
    const std::string out_dir =
        args.count("out-dir") != 0 ? args["out-dir"] : ".";
    const std::string run_id =
        std::string(wk.name) + "-" + std::to_string(seed);
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    const std::string path = out_dir + "/trace-" + run_id + ".json";
    if (log.write_chrome_trace(path, run_id)) {
      std::printf("trace written to %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
    }
  }

  const std::vector<Metric>& reported = traced ? per_layer : end_to_end;
  std::string json = "{\"correct\": ";
  json += outcome.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + reported[i].name +
            "\": {\"value\": " + json_number(reported[i].value) +
            ", \"unit\": \"" + reported[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return outcome.failed == 0 ? 0 : 1;
}
