// compile(): ExperimentSpec -> ExperimentPlan.
//
// Compilation is where every spec error surfaces — unknown protocol names,
// missing engine views, malformed shards, empty grids — so run() only ever
// sees a well-formed plan. The plan owns this shard's SweepPoints plus the
// metadata sinks need (cell identity, grid position, shard bounds).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "exp/spec.hpp"
#include "sim/sweep.hpp"

namespace ucr::exp {

/// Identity of one grid cell, as sinks see it.
struct CellInfo {
  /// Position in the *full* flattened grid (not shard-relative), so a
  /// sharded run reports the same indices the unsharded run would.
  std::size_t index = 0;
  std::string protocol;
  std::uint64_t k = 0;
  ArrivalSpec arrival;
  /// The channel model this cell runs under (channel/model.hpp).
  ChannelModel channel;
  /// The engine this cell actually runs on. Non-batch arrivals (and kNode
  /// / kNodeBatched specs) run per-station: exact (kNode) under
  /// fair-mode specs, batched (kNodeBatched) under batched-mode specs.
  /// Batch cells keep the spec's fair/batched mode. Cells with a
  /// non-clean channel always run on the exact node engine — the fair
  /// engines rest on a common-feedback symmetry imperfect channels break,
  /// and the batched fast paths skip slots whose channel coins must be
  /// drawn — so `engine` is kNode there whatever the spec says. The
  /// distinction matters downstream because batched runs are a different
  /// sample path than exact runs from the same seed wherever a stretch is
  /// skipped.
  EngineMode engine = EngineMode::kFair;

  bool node_engine() const {
    return engine == EngineMode::kNode || engine == EngineMode::kNodeBatched;
  }
  bool batched_engine() const {
    return engine == EngineMode::kBatched ||
           engine == EngineMode::kNodeBatched;
  }
};

/// A compiled, validated, shard-filtered sweep: points[i] is the work of
/// cells[i], in grid order.
struct ExperimentPlan {
  std::vector<SweepPoint> points;
  std::vector<CellInfo> cells;
  /// Size of the full grid across all shards.
  std::size_t total_cells = 0;
  ShardSpec shard;
  /// Content hash of the canonical spec text (exp/spec_io.hpp),
  /// shard-normalized: every shard of one sweep carries the same value.
  /// The streaming sinks stamp it on each emitted row as provenance.
  std::string spec_hash;
};

/// Compiles and validates a spec against a protocol catalogue (names in
/// spec.protocol_names are resolved with find_protocol — exact, then
/// unique case-insensitive, then a did-you-mean ContractViolation).
/// Throws ContractViolation on: no protocols, no k grid (and k_max < 10),
/// k == 0 cells, runs == 0, invalid shard, invalid arrival parameters, a
/// protocol lacking the engine view its cells need, or a per-slot
/// observer attached to a grid with more than one (cell, run) work item
/// or to a batched-mode spec (skipped slots are never materialized).
ExperimentPlan compile(const ExperimentSpec& spec,
                       const std::vector<ProtocolFactory>& catalogue);

/// Compiles a spec whose protocols are all explicit factories.
ExperimentPlan compile(const ExperimentSpec& spec);

}  // namespace ucr::exp
