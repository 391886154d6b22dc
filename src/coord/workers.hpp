// The worker fleet description consumed by the sweep coordinator
// (coord/coordinator.hpp): a line-oriented text file, one worker per
// line, in the same loud-failure style as the spec format
// (exp/spec_io.hpp). Format, by example ('#' starts a comment):
//
//   local                       # fork/exec ucr_cli on this host
//   local capacity=2            # holds two shards in flight
//   exec: ssh node7 /opt/ucr/bin/ucr_cli-wrapper
//   exec capacity=4 name=slurm: srun --ntasks=1
//
// `local` workers run the coordinator's own ucr_cli binary as a child
// process. `exec` workers prepend the argv prefix after the ':' to the
// exact same ucr_cli invocation — the coordinator never knows about ssh
// or slurm, the prefix does (a wrapper script covers anything needing
// quoting; the prefix itself splits on whitespace). Options before the
// ':' (or after `local`):
//
//   capacity=N   shards the worker holds concurrently (default 1);
//                dispatch is capacity-weighted round-robin
//   name=STR     label in status output and log/cache paths
//                (default local-<n> / exec-<n> by position)
//
// docs/SERVICE.md is the format reference.
#pragma once

#include <string>
#include <vector>

namespace ucr::coord {

/// One worker of the fleet.
struct WorkerSpec {
  enum class Kind { kLocal, kExec };

  Kind kind = Kind::kLocal;
  /// kExec: argv tokens prepended to the ucr_cli invocation.
  std::vector<std::string> exec_prefix;
  /// Concurrent shards this worker holds (>= 1).
  unsigned capacity = 1;
  /// Status / path label; unique across the fleet.
  std::string name;

  bool operator==(const WorkerSpec&) const = default;
};

/// Parses a workers file. Throws ContractViolation naming the offending
/// line on: unknown worker kind (with the two valid spellings), malformed
/// or duplicate options, capacity 0, an empty exec prefix, a duplicate
/// worker name, or an empty fleet.
std::vector<WorkerSpec> parse_workers(const std::string& text);

/// Reads `path` and parse_workers()s it; throws ContractViolation naming
/// the path when the file cannot be opened.
std::vector<WorkerSpec> load_workers_file(const std::string& path);

}  // namespace ucr::coord
