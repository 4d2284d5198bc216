#pragma once
// Helpers shared by the figure-reproduction bench binaries: option
// parsing into CompareSpec/ExperimentSpec, progress printing, CSV output.

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/export.hpp"
#include "src/obs/registry.hpp"
#include "src/runtime/trace.hpp"
#include "src/stats/compare.hpp"
#include "src/stats/experiment.hpp"
#include "src/util/options.hpp"
#include "src/util/table.hpp"

namespace acic::bench {

/// Parses `tok` as a plain decimal number no larger than `max`: digits
/// only, no sign, whitespace or suffix.  False on anything else.
inline bool parse_decimal(const std::string& tok, std::uint64_t max,
                          std::uint64_t* out) {
  if (tok.empty()) return false;
  std::uint64_t value = 0;
  for (const char c : tok) {
    if (c < '0' || c > '9') return false;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (max - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

/// Parses a comma-separated list of unsigned integers.  A token that is
/// not a plain decimal number (e.g. `--nodes=1,x`) is an option error:
/// the harness prints which token of which option was bad and exits,
/// instead of dying in an uncaught std::stoul exception.
inline std::vector<std::uint32_t> parse_list(const std::string& csv,
                                             const char* option = "list") {
  std::vector<std::uint32_t> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string tok =
        csv.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!tok.empty()) {
      std::uint64_t value = 0;
      if (!parse_decimal(tok, 0xffffffffull, &value)) {
        std::fprintf(stderr,
                     "option error: --%s: invalid token '%s' in '%s' "
                     "(want comma-separated unsigned integers)\n",
                     option, tok.c_str(), csv.c_str());
        std::exit(2);
      }
      out.push_back(static_cast<std::uint32_t>(value));
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

/// Parses a comma-separated `--threads` list (host worker threads for
/// the engine and graph build).  Shares parse_list's non-numeric
/// handling (a leading '-' is not a digit, so negatives are rejected
/// there) and additionally rejects 0: "zero threads" is always a typo,
/// not a request for a serial run — that is `--threads 1`.
inline std::vector<unsigned> parse_threads_list(
    const std::string& csv, const char* option = "threads") {
  std::vector<unsigned> out;
  for (const std::uint32_t v : parse_list(csv, option)) {
    if (v == 0) {
      std::fprintf(stderr,
                   "option error: --%s: thread counts must be >= 1 "
                   "(got 0 in '%s')\n",
                   option, csv.c_str());
      std::exit(2);
    }
    out.push_back(v);
  }
  if (out.empty()) {
    std::fprintf(stderr, "option error: --%s: empty thread list '%s'\n",
                 option, csv.c_str());
    std::exit(2);
  }
  return out;
}

/// Single-value form of parse_threads_list for binaries that take one
/// `--threads N`.
inline unsigned parse_threads(const std::string& value,
                              const char* option = "threads") {
  const std::vector<unsigned> list = parse_threads_list(value, option);
  if (list.size() != 1) {
    std::fprintf(stderr,
                 "option error: --%s: expected one thread count, got "
                 "'%s'\n",
                 option, value.c_str());
    std::exit(2);
  }
  return list.front();
}

/// Value of the single unsigned `--option`, or `fallback` when it is
/// not given.  A value that is not a plain decimal number, exceeds
/// `max` or is below `min` (e.g. `--trials 0`) exits 2 naming the
/// option, instead of strtoll's silent 0.
inline std::uint64_t option_uint(
    const util::Options& opts, const char* option, std::uint64_t fallback,
    std::uint64_t min = 0,
    std::uint64_t max = std::numeric_limits<std::uint32_t>::max()) {
  if (!opts.has(option)) return fallback;
  const std::string value = opts.get(option, "");
  std::uint64_t out = 0;
  if (!parse_decimal(value, max, &out)) {
    std::fprintf(stderr,
                 "option error: --%s: invalid value '%s' (want an unsigned "
                 "integer <= %llu)\n",
                 option, value.c_str(), static_cast<unsigned long long>(max));
    std::exit(2);
  }
  if (out < min) {
    std::fprintf(stderr, "option error: --%s: must be >= %llu (got %s)\n",
                 option, static_cast<unsigned long long>(min),
                 value.c_str());
    std::exit(2);
  }
  return out;
}

/// Value of the single non-negative real `--option`, or `fallback` when
/// it is not given.  Anything strtod does not consume whole, and
/// negative or non-finite values, exit 2 naming the option.
inline double option_nonneg_double(const util::Options& opts,
                                   const char* option, double fallback) {
  if (!opts.has(option)) return fallback;
  const std::string value = opts.get(option, "");
  char* end = nullptr;
  const double out = std::strtod(value.c_str(), &end);
  if (value.empty() || std::isspace(static_cast<unsigned char>(value[0])) ||
      end != value.c_str() + value.size() || !std::isfinite(out) ||
      out < 0.0) {
    std::fprintf(stderr,
                 "option error: --%s: invalid value '%s' (want a "
                 "non-negative number)\n",
                 option, value.c_str());
    std::exit(2);
  }
  return out;
}

/// Exits 2 naming every command-line key `program` does not accept, so
/// a typo (`--enigne-mode`) or a removed option fails instead of
/// silently running the default sweep.  ACIC_* environment defaults are
/// not checked: every binary shares them.
inline void reject_unknown_options(
    const util::Options& opts, std::initializer_list<std::string_view> accepted,
    const char* program) {
  std::string unknown;
  for (const std::string& key : opts.keys()) {
    if (std::find(accepted.begin(), accepted.end(), key) == accepted.end()) {
      unknown += " --" + key;
    }
  }
  if (unknown.empty()) return;
  std::fprintf(stderr, "%s: unknown option(s):%s\n", program,
               unknown.c_str());
  std::exit(2);
}

inline stats::CompareSpec compare_spec_from_options(
    const util::Options& opts) {
  stats::CompareSpec spec;
  spec.scale =
      static_cast<std::uint32_t>(opts.get_int("scale", spec.scale));
  spec.edge_factor = static_cast<std::uint32_t>(
      opts.get_int("edge-factor", spec.edge_factor));
  spec.trials =
      static_cast<std::uint32_t>(opts.get_int("trials", spec.trials));
  spec.base_seed =
      static_cast<std::uint64_t>(opts.get_int("seed", 1));
  if (opts.has("nodes")) {
    spec.nodes_list = parse_list(opts.get("nodes", ""), "nodes");
  }
  spec.buffer_override =
      static_cast<std::size_t>(opts.get_int("buffer", 0));
  spec.full_scale_nodes = opts.get_bool("full-nodes", false);
  return spec;
}

inline void print_spec(const stats::CompareSpec& spec) {
  std::printf(
      "  scale=%u (|V|=%u, |E|=%u*|V|), trials=%u, nodes={", spec.scale,
      1u << spec.scale, spec.edge_factor, spec.trials);
  for (std::size_t i = 0; i < spec.nodes_list.size(); ++i) {
    std::printf("%s%u", i ? "," : "", spec.nodes_list[i]);
  }
  std::printf("}  [paper: scale=26, 10 trials, real Delta/Frontier nodes]\n");
}

inline void progress_line(const char* line) {
  std::printf("%s\n", line);
  std::fflush(stdout);
}

inline void write_csv(const util::Table& table, const util::Options& opts,
                      const std::string& default_name) {
  const std::string path = opts.get("csv", default_name);
  if (table.write_csv(path)) {
    std::printf("wrote %s\n", path.c_str());
  }
}

/// One divergence between two supposedly identical runs, for the
/// bit-identity gates (cross-thread, cross-window-mode, cross-storage,
/// repeat-trial): the simulated-side field that differed
/// and both values, pre-rendered.
struct FieldDiff {
  const char* field;
  std::string a;
  std::string b;
};

/// Prints every diverging field with both values, then — so the reader
/// of a failure knows what was deliberately NOT compared — the
/// host-side diagnostic fields the comparison excludes (they describe
/// how the host executed the schedule, not the schedule itself, and
/// legitimately vary with threads / window mode), then exits 4.
[[noreturn]] inline void die_divergence(const std::string& context,
                                        const std::vector<FieldDiff>& diffs) {
  for (const FieldDiff& d : diffs) {
    std::fprintf(stderr, "bench: %s: %s diverged (%s vs %s)\n",
                 context.c_str(), d.field, d.a.c_str(), d.b.c_str());
  }
  std::fprintf(stderr,
               "bench: host-side diagnostic fields excluded from this "
               "comparison: threads_used, windows, window_merges, "
               "shard_steals\n");
  std::exit(4);
}

/// Process-wide resource high-water marks, for per-config reporting next
/// to wall time.  max_rss_bytes is getrusage's peak resident set — a
/// monotone process-lifetime number, so a harness comparing configs
/// in-process can only attribute it to the *first* config that reached
/// the peak; single-run tools (ooc_smoke) report it per phase honestly.
/// major_faults counts page faults that hit storage — the out-of-core
/// cost the prefetcher exists to hide.
struct ResourceUsage {
  std::uint64_t max_rss_bytes = 0;
  std::uint64_t major_faults = 0;
  std::uint64_t minor_faults = 0;
};

inline ResourceUsage resource_usage() {
  ResourceUsage out;
  struct rusage ru = {};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    // Linux reports ru_maxrss in kilobytes.
    out.max_rss_bytes = static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
    out.major_faults = static_cast<std::uint64_t>(ru.ru_majflt);
    out.minor_faults = static_cast<std::uint64_t>(ru.ru_minflt);
  }
  return out;
}

/// Shared `--trace-json PATH` / `--obs-csv PATH` handling: exports the
/// attached tracer/registry as a Perfetto-loadable Chrome trace and as
/// counter time-series CSV.  Either pointer may be null; flags that were
/// not given are ignored.  If the tracer overflowed its capacity bound,
/// says so (the exported window covers only the most recent spans).
inline void export_observability(const util::Options& opts,
                                 const runtime::Topology& topology,
                                 const runtime::Tracer* tracer,
                                 const obs::Registry* registry) {
  const std::string trace_path = opts.get("trace-json", "");
  if (!trace_path.empty() &&
      obs::write_chrome_trace(trace_path, topology, tracer, registry)) {
    std::printf("wrote %s (open in https://ui.perfetto.dev)\n",
                trace_path.c_str());
  }
  const std::string series_path = opts.get("obs-csv", "");
  if (!series_path.empty() && registry != nullptr &&
      obs::write_timeseries_csv(series_path, *registry)) {
    std::printf("wrote %s\n", series_path.c_str());
  }
  if (tracer != nullptr && tracer->overflowed()) {
    std::printf("note: tracer dropped %llu oldest spans (capacity %zu); "
                "exports cover the most recent window\n",
                static_cast<unsigned long long>(tracer->dropped_spans()),
                tracer->capacity());
  }
}

}  // namespace acic::bench
