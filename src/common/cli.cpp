#include "common/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "common/check.hpp"

namespace ucr {

CliArgs::CliArgs(int argc, const char* const* argv,
                 const std::vector<std::string>& allowed_keys) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const auto eq = arg.find('=');
    const std::string key =
        eq == std::string::npos ? arg.substr(2) : arg.substr(2, eq - 2);
    const std::string value =
        eq == std::string::npos ? "1" : arg.substr(eq + 1);
    UCR_REQUIRE(std::find(allowed_keys.begin(), allowed_keys.end(), key) !=
                    allowed_keys.end(),
                "unknown option --" + key);
    values_[key] = value;
  }
}

std::optional<std::string> CliArgs::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::uint64_t CliArgs::get_u64(const std::string& key,
                               std::uint64_t def) const {
  const auto v = get(key);
  if (!v) return def;
  return parse_u64_strict(*v, "--" + key);
}

double CliArgs::get_double(const std::string& key, double def) const {
  const auto v = get(key);
  if (!v) return def;
  return parse_finite_double(*v, "--" + key);
}

bool CliArgs::get_bool(const std::string& key, bool def) const {
  const auto v = get(key);
  if (!v) return def;
  if (*v == "1" || *v == "true" || *v == "yes" || *v == "on") return true;
  UCR_REQUIRE(*v == "0" || *v == "false" || *v == "no" || *v == "off",
              "--" + key + " must be 1/true/yes/on or 0/false/no/off, got '" +
                  *v + "'");
  return false;
}

std::uint64_t parse_u64_strict(const std::string& text,
                               const std::string& source) {
  UCR_REQUIRE(!text.empty() && text.find_first_not_of("0123456789") ==
                                   std::string::npos,
              source + " must be an unsigned integer, got '" + text + "'");
  errno = 0;
  const std::uint64_t value = std::strtoull(text.c_str(), nullptr, 10);
  UCR_REQUIRE(errno == 0, source + " is out of range: '" + text + "'");
  return value;
}

double parse_finite_double(const std::string& text,
                           const std::string& source) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  UCR_REQUIRE(!text.empty() && *end == '\0' && std::isfinite(value),
              source + " must be a finite number, got '" + text + "'");
  return value;
}

unsigned parse_thread_count(const std::string& text,
                            const std::string& source) {
  UCR_REQUIRE(!text.empty(), source + " must be a positive integer (or be "
                                 "omitted to use all hardware threads)");
  std::uint64_t value = 0;
  for (const char c : text) {
    UCR_REQUIRE(c >= '0' && c <= '9',
                source + " must be a positive integer, got '" + text + "'");
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
    UCR_REQUIRE(value <= 1'000'000,
                source + " is implausibly large: '" + text + "'");
  }
  UCR_REQUIRE(value > 0, source + " must be at least 1 (omit it to use all "
                                      "hardware threads), got '" +
                             text + "'");
  return static_cast<unsigned>(value);
}

unsigned thread_count_option(const CliArgs& args, const char* env_name) {
  if (const auto flag = args.get("threads")) {
    return parse_thread_count(*flag, "--threads");
  }
  if (env_name != nullptr) {
    const char* env = std::getenv(env_name);
    if (env != nullptr && *env != '\0') {
      return parse_thread_count(env, env_name);
    }
  }
  return 0;  // auto: all hardware threads
}

}  // namespace ucr
