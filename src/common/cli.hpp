// Tiny command-line helper shared by every binary (ucr_cli, the daemons,
// the reproduction harnesses), plus the strict number parsers behind it:
//   ./fig1_makespan --kmax=1000000 --runs=10 --seed=42
// Unknown --flags are rejected so typos in experiment scripts fail loudly.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ucr {

/// Parsed `--key=value` options plus positional arguments.
class CliArgs {
 public:
  /// Parses argv; throws ContractViolation on malformed `--key` without '='
  /// unless the flag is boolean-style (then value is "1").
  CliArgs(int argc, const char* const* argv,
          const std::vector<std::string>& allowed_keys);

  std::optional<std::string> get(const std::string& key) const;
  /// A present value must be a decimal unsigned integer (parse_u64_strict)
  /// or, for get_double, one finite number in full; anything else throws
  /// ContractViolation naming the flag rather than running with a
  /// truncated value ("--k=1e3" as k = 1, "--seed=0x10" as seed 0).
  std::uint64_t get_u64(const std::string& key, std::uint64_t def) const;
  double get_double(const std::string& key, double def) const;
  /// A present value must be 1/true/yes/on or 0/false/no/off (a bare
  /// `--key` reads "1"); anything else throws ContractViolation naming the
  /// flag rather than reading as false ("--batched=ture", "--csv=True").
  bool get_bool(const std::string& key, bool def) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// Strict unsigned-64 parsing: decimal digits only, in range, nothing
/// else. Throws ContractViolation naming `source` otherwise — the shared
/// loud-failure parser for values where silent truncation or saturation
/// would corrupt an experiment description (--ks lists, shard selectors,
/// arrival and channel arguments, archived CSV cells).
std::uint64_t parse_u64_strict(const std::string& text,
                               const std::string& source);

/// Strict floating-point parsing, the twin of parse_u64_strict: the whole
/// of `text` must be one finite number. strtod alone stops at the first
/// bad character ("1e3x" read as 1000) and accepts inf/nan. Throws
/// ContractViolation naming `source` otherwise.
double parse_finite_double(const std::string& text, const std::string& source);

/// Strict worker-thread-count parsing shared by every binary that takes
/// --threads / UCR_THREADS. A present value must be a positive decimal
/// integer: junk ("abc", "4x", "-1") and explicit 0 throw ContractViolation
/// with a message naming the offending source — silently mapping them to
/// "all cores" (what strtoull-based parsing did) hides typos in experiment
/// scripts. Absent means auto (returns 0 = all hardware threads).
unsigned parse_thread_count(const std::string& text, const std::string& source);

/// Resolves the effective --threads value: the CLI flag if present, else
/// the environment variable `env_name` (when non-null and set), else 0
/// (auto). Both sources are validated with parse_thread_count.
unsigned thread_count_option(const CliArgs& args, const char* env_name);

}  // namespace ucr
