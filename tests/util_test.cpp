// Unit tests for src/util: RNG determinism/quality, options parsing,
// summary statistics and the table printer; plus the strict option
// checks the bench harnesses build on it (bench/bench_common.hpp).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/util/options.hpp"
#include "src/util/rng.hpp"
#include "src/util/stats.hpp"
#include "src/util/table.hpp"

namespace {

using acic::util::Options;
using acic::util::SplitMix64;
using acic::util::Table;
using acic::util::Xoshiro256;

TEST(SplitMix64, DeterministicSequence) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, KnownFirstValue) {
  // Reference value of splitmix64(seed=0) from the published algorithm.
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
}

TEST(Xoshiro256, DifferentSeedsDiverge) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Xoshiro256, NextBelowInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Xoshiro256, NextBelowCoversAllResidues) {
  Xoshiro256 rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Xoshiro256, DoubleInHalfOpenUnitInterval) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Xoshiro256, DoubleRangeRespectsBounds) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double(2.5, 9.75);
    EXPECT_GE(x, 2.5);
    EXPECT_LT(x, 9.75);
  }
}

TEST(Xoshiro256, MeanOfUniformIsCentered) {
  Xoshiro256 rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(DeriveSeed, StreamsAreIndependent) {
  const auto s0 = acic::util::derive_seed(99, 0);
  const auto s1 = acic::util::derive_seed(99, 1);
  EXPECT_NE(s0, s1);
  EXPECT_EQ(s0, acic::util::derive_seed(99, 0));
}

TEST(Options, ParsesKeyValueForms) {
  // Note: `--key value` consumes the next token as the value, so bare
  // flags must come last or use `--flag=1`; positionals precede options.
  const char* argv[] = {"prog", "pos", "--scale", "18", "--p-tram=0.5",
                        "--flag"};
  Options opts(6, const_cast<char**>(argv));
  EXPECT_EQ(opts.get_int("scale", 0), 18);
  EXPECT_DOUBLE_EQ(opts.get_double("p-tram", 0.0), 0.5);
  EXPECT_TRUE(opts.get_bool("flag", false));
  ASSERT_EQ(opts.positional().size(), 1u);
  EXPECT_EQ(opts.positional()[0], "pos");
}

TEST(Options, FallbackWhenMissing) {
  Options opts;
  EXPECT_EQ(opts.get_int("nope", -7), -7);
  EXPECT_EQ(opts.get("nope", "x"), "x");
  EXPECT_FALSE(opts.has("nope"));
}

TEST(Options, EnvironmentProvidesDefault) {
  ::setenv("ACIC_UT_ENV_KEY", "123", 1);
  Options opts;
  EXPECT_EQ(opts.get_int("ut-env-key", 0), 123);
  ::unsetenv("ACIC_UT_ENV_KEY");
}

TEST(Options, CommandLineOverridesEnvironment) {
  ::setenv("ACIC_UT_ENV_KEY2", "123", 1);
  const char* argv[] = {"prog", "--ut-env-key2", "456"};
  Options opts(3, const_cast<char**>(argv));
  EXPECT_EQ(opts.get_int("ut-env-key2", 0), 456);
  ::unsetenv("ACIC_UT_ENV_KEY2");
}

TEST(Options, KeysListsCommandLineKeysOnly) {
  ::setenv("ACIC_UT_ENV_ONLY", "1", 1);
  const char* argv[] = {"prog", "pos", "--scale", "18", "--p-tram=0.5",
                        "--flag"};
  Options opts(6, const_cast<char**>(argv));
  // Sorted, positionals excluded, and the environment default is
  // visible through has() but not listed.
  EXPECT_EQ(opts.keys(),
            (std::vector<std::string>{"flag", "p-tram", "scale"}));
  EXPECT_TRUE(opts.has("ut-env-only"));
  ::unsetenv("ACIC_UT_ENV_ONLY");
}

TEST(BenchOptions, UnknownKeysExitTwoNamingEachKey) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char* argv[] = {"prog", "--engine-mode", "optimistic", "--scale",
                        "16", "--enigne-mode=x", "--window-mode", "fixed"};
  Options opts(8, const_cast<char**>(argv));
  EXPECT_EXIT(acic::bench::reject_unknown_options(opts, {"scale"}, "prog"),
              ::testing::ExitedWithCode(2),
              "prog: unknown option\\(s\\): --engine-mode --enigne-mode "
              "--window-mode");
  // Accepted keys pass, and environment defaults are never checked.
  ::setenv("ACIC_UT_UNLISTED", "1", 1);
  acic::bench::reject_unknown_options(
      opts, {"scale", "engine-mode", "enigne-mode", "window-mode"}, "prog");
  ::unsetenv("ACIC_UT_UNLISTED");
}

TEST(BenchOptions, StrictUnsignedValues) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Options opts;
  opts.set("trials", "5");
  EXPECT_EQ(acic::bench::option_uint(opts, "trials", 3, 1), 5u);
  EXPECT_EQ(acic::bench::option_uint(opts, "missing", 3, 1), 3u);
  opts.set("seed", "18446744073709551615");
  EXPECT_EQ(acic::bench::option_uint(
                opts, "seed", 1, 0, std::numeric_limits<std::uint64_t>::max()),
            std::numeric_limits<std::uint64_t>::max());
  for (const char* bad : {"abc", "", "-1", "1.5", "12x", " 7", "+3"}) {
    SCOPED_TRACE(bad);
    opts.set("scale", bad);
    EXPECT_EXIT(acic::bench::option_uint(opts, "scale", 16),
                ::testing::ExitedWithCode(2), "--scale: invalid value");
  }
  opts.set("nodes", "4294967296");  // one past the default uint32 bound
  EXPECT_EXIT(acic::bench::option_uint(opts, "nodes", 2, 1),
              ::testing::ExitedWithCode(2), "--nodes: invalid value");
  opts.set("trials", "0");
  EXPECT_EXIT(acic::bench::option_uint(opts, "trials", 3, 1),
              ::testing::ExitedWithCode(2), "--trials: must be >= 1");
}

TEST(BenchOptions, StrictNonNegativeDoubles) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Options opts;
  opts.set("max-regress", "0.25");
  EXPECT_DOUBLE_EQ(
      acic::bench::option_nonneg_double(opts, "max-regress", 0.5), 0.25);
  EXPECT_DOUBLE_EQ(acic::bench::option_nonneg_double(opts, "missing", 0.5),
                   0.5);
  for (const char* bad : {"abc", "", "-0.1", "0.2x", "nan", "inf", " 1"}) {
    SCOPED_TRACE(bad);
    opts.set("max-regress", bad);
    EXPECT_EXIT(acic::bench::option_nonneg_double(opts, "max-regress", 0.5),
                ::testing::ExitedWithCode(2), "--max-regress: invalid value");
  }
}

TEST(BenchOptions, CompareSpecParsesStrictly) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Options opts;
  opts.set("scale", "9");
  opts.set("edge-factor", "4");
  opts.set("trials", "2");
  opts.set("seed", "18446744073709551615");
  opts.set("buffer", "512");
  const acic::stats::CompareSpec spec =
      acic::bench::compare_spec_from_options(opts, "prog");
  EXPECT_EQ(spec.scale, 9u);
  EXPECT_EQ(spec.edge_factor, 4u);
  EXPECT_EQ(spec.trials, 2u);
  EXPECT_EQ(spec.base_seed, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(spec.buffer_override, 512u);
  for (const char* option :
       {"scale", "edge-factor", "trials", "seed", "buffer"}) {
    SCOPED_TRACE(option);
    Options bad = opts;
    bad.set(option, "abc");
    EXPECT_EXIT(acic::bench::compare_spec_from_options(bad, "prog"),
                ::testing::ExitedWithCode(2),
                std::string("--") + option + ": invalid value");
  }
  Options zero = opts;
  zero.set("trials", "0");
  EXPECT_EXIT(acic::bench::compare_spec_from_options(zero, "prog"),
              ::testing::ExitedWithCode(2), "--trials: must be >= 1");
  Options typo = opts;
  typo.set("trails", "1");
  EXPECT_EXIT(acic::bench::compare_spec_from_options(typo, "prog"),
              ::testing::ExitedWithCode(2),
              "prog: unknown option\\(s\\): --trails");
}

TEST(BenchOptions, RegressionCheckNeedsAnEntryOnBothSides) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // A pre_pr record before the top-level results must never be matched,
  // and threads 1 must not match a threads-16 entry.
  const std::string baseline =
      "{\"pre_pr\": {\"results\": [\n"
      "  {\"solver\": \"acic\", \"scale\": 10, \"threads\": 1, "
      "\"events_per_sec\": 1.0}]},\n"
      "\"results\": [\n"
      "  {\"solver\": \"acic\", \"scale\": 10, \"threads\": 16, "
      "\"events_per_sec\": 500.0},\n"
      "  {\"solver\": \"acic\", \"scale\": 10, \"threads\": 1, "
      "\"events_per_sec\": 1000.0}\n]}\n";
  EXPECT_EQ(acic::bench::find_events_per_sec(baseline, "acic", 10, 1),
            1000.0);
  EXPECT_EQ(acic::bench::find_events_per_sec(baseline, "acic", 10, 16),
            500.0);
  EXPECT_FALSE(acic::bench::find_events_per_sec(baseline, "acic", 10, 4));
  EXPECT_FALSE(acic::bench::find_events_per_sec(baseline, "nosuch", 10, 1));

  const std::string current =
      "{\"results\": [\n"
      "  {\"solver\": \"acic\", \"scale\": 10, \"threads\": 1, "
      "\"events_per_sec\": 800.0}\n]}\n";
  EXPECT_EQ(acic::bench::check_events_per_sec(baseline, "base.json", current,
                                              "acic", 10, 1, 0.25),
            0);
  EXPECT_EQ(acic::bench::check_events_per_sec(baseline, "base.json", current,
                                              "acic", 10, 1, 0.1),
            3);
  // Nothing to compare is a failure that names the missing key.
  EXPECT_EXIT(std::exit(acic::bench::check_events_per_sec(
                  baseline, "base.json", current, "nosuch", 10, 1, 0.25)),
              ::testing::ExitedWithCode(2),
              "base.json has no entry for solver=nosuch scale=10 threads=1");
  EXPECT_EXIT(std::exit(acic::bench::check_events_per_sec(
                  baseline, "base.json", current, "acic", 10, 16, 0.25)),
              ::testing::ExitedWithCode(2),
              "this run has no entry for solver=acic scale=10 threads=16");
}

TEST(Stats, MeanAndStddev) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(acic::util::mean(xs), 5.0);
  EXPECT_NEAR(acic::util::stddev(xs), 2.138, 1e-3);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(acic::util::percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(acic::util::percentile(xs, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(acic::util::percentile(xs, 50.0), 2.5);
}

TEST(Stats, GeomeanOfPowers) {
  EXPECT_NEAR(acic::util::geomean({1.0, 100.0}), 10.0, 1e-9);
}

TEST(Table, FormatsAndCountsRows) {
  Table t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, WritesCsv) {
  Table t({"x", "y"});
  t.add_row({"1", "2"});
  const std::string path = ::testing::TempDir() + "/acic_table_test.csv";
  ASSERT_TRUE(t.write_csv(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[64];
  ASSERT_NE(std::fgets(buf, sizeof buf, f), nullptr);
  EXPECT_STREQ(buf, "x,y\n");
  ASSERT_NE(std::fgets(buf, sizeof buf, f), nullptr);
  EXPECT_STREQ(buf, "1,2\n");
  std::fclose(f);
  std::remove(path.c_str());
}

TEST(Strformat, ProducesFormattedString) {
  EXPECT_EQ(acic::util::strformat("%d-%s", 7, "x"), "7-x");
}

}  // namespace
