#pragma once
// Minimal command-line / environment option parser shared by examples and
// benchmark harnesses.
//
// Syntax: `--key value` or `--key=value`; bare `--flag` sets "1".  For any
// option `foo`, the environment variable `ACIC_FOO` (upper-cased, dashes
// replaced by underscores) provides a default that the command line can
// override, so experiment scale can be raised fleet-wide via the
// environment (`ACIC_SCALE=20 ./bench/...`).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace acic::util {

class Options {
 public:
  Options() = default;
  Options(int argc, char** argv) { parse(argc, argv); }

  /// Parses argv; unrecognized positional arguments are kept in order.
  void parse(int argc, char** argv);

  bool has(const std::string& key) const;

  std::string get(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Keys given on the command line (or through set()), sorted.  ACIC_*
  /// environment defaults are not included: they are shared by every
  /// binary, so a caller checking for unknown keys must not see them.
  std::vector<std::string> keys() const;

  /// Programmatic override (used by tests).
  void set(const std::string& key, const std::string& value) {
    values_[key] = value;
  }

 private:
  /// Looks up --key, then the ACIC_KEY environment variable.
  bool lookup(const std::string& key, std::string* out) const;

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace acic::util
