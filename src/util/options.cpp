#include "src/util/options.hpp"

#include <cstdlib>

namespace acic::util {

namespace {

std::string env_name(const std::string& key) {
  std::string name = "ACIC_";
  for (char c : key) {
    if (c == '-') {
      name.push_back('_');
    } else {
      name.push_back(static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
    }
  }
  return name;
}

}  // namespace

void Options::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // `--key value` if the next token is not itself an option; else a flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "1";
    }
  }
}

bool Options::lookup(const std::string& key, std::string* out) const {
  const auto it = values_.find(key);
  if (it != values_.end()) {
    *out = it->second;
    return true;
  }
  if (const char* env = std::getenv(env_name(key).c_str())) {
    *out = env;
    return true;
  }
  return false;
}

bool Options::has(const std::string& key) const {
  std::string unused;
  return lookup(key, &unused);
}

std::string Options::get(const std::string& key,
                         const std::string& fallback) const {
  std::string value;
  return lookup(key, &value) ? value : fallback;
}

std::int64_t Options::get_int(const std::string& key,
                              std::int64_t fallback) const {
  std::string value;
  if (!lookup(key, &value)) return fallback;
  return std::strtoll(value.c_str(), nullptr, 10);
}

double Options::get_double(const std::string& key, double fallback) const {
  std::string value;
  if (!lookup(key, &value)) return fallback;
  return std::strtod(value.c_str(), nullptr);
}

std::vector<std::string> Options::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [key, value] : values_) out.push_back(key);
  return out;
}

bool Options::get_bool(const std::string& key, bool fallback) const {
  std::string value;
  if (!lookup(key, &value)) return fallback;
  return value == "1" || value == "true" || value == "yes" || value == "on";
}

}  // namespace acic::util
