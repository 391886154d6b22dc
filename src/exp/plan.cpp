#include "exp/plan.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "core/registry.hpp"
#include "exp/spec_io.hpp"

namespace ucr::exp {

namespace {

// Arrival substreams live far above the engine substreams (run r of every
// cell draws its engine randomness from stream(seed, r), r < runs), so a
// workload draw can never alias an engine stream. Within the arrival
// range, (workload cell, run) maps to base + workload_cell * runs + run,
// where workload_cell indexes the (k, arrival) pair WITHOUT the protocol
// or channel axes: every protocol and every channel model of the sweep
// sees the identical per-run workload draws (a paired design — columns
// differ only by protocol/channel behaviour, not by workload-sampling
// noise). Still a pure function of the spec, which is what makes sharded
// and unsharded compilations of the same grid produce identical
// workloads.
constexpr std::uint64_t kArrivalStreamBase = 1ULL << 32;

}  // namespace

ExperimentPlan compile(const ExperimentSpec& spec,
                       const std::vector<ProtocolFactory>& catalogue) {
  UCR_REQUIRE(spec.runs > 0, "experiment spec needs runs >= 1");
  spec.shard.validate();

  // Resolve the protocol axis: names through the catalogue, then explicit
  // factories, in spec order.
  std::vector<ProtocolFactory> protocols;
  protocols.reserve(spec.protocol_names.size() + spec.protocols.size());
  for (const std::string& name : spec.protocol_names) {
    protocols.push_back(find_protocol(catalogue, name));
  }
  for (const ProtocolFactory& factory : spec.protocols) {
    protocols.push_back(factory);
  }
  UCR_REQUIRE(!protocols.empty(),
              "experiment spec selects no protocols (add protocol_names "
              "or explicit factories)");

  // Resolve the k axis.
  std::vector<std::uint64_t> ks = spec.ks;
  if (ks.empty()) {
    UCR_REQUIRE(spec.k_max >= 10,
                "experiment spec has no k grid: set ks explicitly or "
                "k_max >= 10 for the paper sweep");
    ks = paper_k_sweep(spec.k_max);
  }
  for (const std::uint64_t k : ks) {
    UCR_REQUIRE(k > 0, "experiment spec contains a k == 0 cell");
  }

  // Resolve the arrival axis.
  std::vector<ArrivalSpec> arrivals = spec.arrivals;
  if (arrivals.empty()) arrivals.push_back(ArrivalSpec::batch());
  for (const ArrivalSpec& arrival : arrivals) {
    arrival.validate();
  }

  // Resolve the channel axis.
  std::vector<ChannelModel> channels = spec.channels;
  if (channels.empty()) channels.push_back(ChannelModel::clean());
  for (const ChannelModel& channel : channels) {
    channel.validate();
  }
  const bool grid_has_imperfect =
      std::any_of(channels.begin(), channels.end(),
                  [](const ChannelModel& c) { return !c.is_clean(); });

  // Engine resolution: node-mode specs (and every non-batch cell) run
  // per-station; batched-mode specs take the batched fast path of
  // whichever engine a cell lands on. One spec-level switch, the whole
  // grid accelerated.
  const bool spec_forces_node = spec.engine == EngineMode::kNode ||
                                spec.engine == EngineMode::kNodeBatched;
  const bool spec_is_batched = spec.engine == EngineMode::kBatched ||
                               spec.engine == EngineMode::kNodeBatched;

  // Validate engine views against the whole grid up front: a spec that
  // cannot run should fail at compile(), not mid-sweep.
  const bool grid_has_node_cells =
      spec_forces_node || grid_has_imperfect ||
      std::any_of(arrivals.begin(), arrivals.end(),
                  [](const ArrivalSpec& a) { return !a.is_batch(); });
  const bool grid_has_fair_cells =
      !spec_forces_node &&
      std::any_of(arrivals.begin(), arrivals.end(),
                  [](const ArrivalSpec& a) { return a.is_batch(); }) &&
      std::any_of(channels.begin(), channels.end(),
                  [](const ChannelModel& c) { return c.is_clean(); });
  for (const ProtocolFactory& factory : protocols) {
    if (grid_has_node_cells) {
      UCR_REQUIRE(static_cast<bool>(factory.node),
                  "protocol '" + factory.name +
                      "' has no per-node view, required by this spec's "
                      "non-batch or kNode cells");
    }
    if (grid_has_fair_cells) {
      UCR_REQUIRE(factory.has_fair(),
                  "protocol '" + factory.name +
                      "' has no fair-engine view, required by this spec's "
                      "batch cells");
    }
  }

  const std::size_t total =
      protocols.size() * ks.size() * arrivals.size() * channels.size();
  UCR_CHECK(total > 0, "flattened grid cannot be empty here");

  // A per-slot observer is a single mutable object; it cannot be shared by
  // concurrent work items, so it is only accepted for a one-run grid.
  if (spec.engine_options.observer != nullptr) {
    UCR_REQUIRE(total == 1 && spec.runs == 1,
                "a per-slot observer can only be attached to a "
                "single-cell, single-run spec (grids run in parallel)");
    UCR_REQUIRE(!spec_is_batched,
                "the batched engines never materialize skipped slots; "
                "per-slot observers require kFair or kNode");
  }

  // This shard's contiguous block of the flattened grid. 128-bit
  // intermediate so index * total cannot overflow for pathological counts.
  const auto shard_bound = [&](std::uint64_t i) {
    return static_cast<std::size_t>(static_cast<unsigned __int128>(i) *
                                    total / spec.shard.count);
  };
  const std::size_t begin = shard_bound(spec.shard.index);
  const std::size_t end = shard_bound(spec.shard.index + 1);

  ExperimentPlan plan;
  plan.total_cells = total;
  plan.shard = spec.shard;
  plan.spec_hash = exp::spec_hash(spec);
  plan.points.reserve(end - begin);
  plan.cells.reserve(end - begin);

  std::size_t index = 0;
  for (const ProtocolFactory& factory : protocols) {
    for (std::size_t k_index = 0; k_index < ks.size(); ++k_index) {
      const std::uint64_t k = ks[k_index];
      for (std::size_t arrival_index = 0; arrival_index < arrivals.size();
           ++arrival_index) {
        const ArrivalSpec& arrival = arrivals[arrival_index];
        for (const ChannelModel& channel : channels) {
          const std::size_t cell = index++;
          if (cell < begin || cell >= end) continue;

          CellInfo info;
          info.index = cell;
          info.protocol = factory.name;
          info.k = k;
          info.arrival = arrival;
          info.channel = channel;
          const bool imperfect = !channel.is_clean();
          const bool node_cell =
              spec_forces_node || imperfect || !arrival.is_batch();
          info.engine = imperfect ? EngineMode::kNode
                        : node_cell
                            ? (spec_is_batched ? EngineMode::kNodeBatched
                                               : EngineMode::kNode)
                            : spec.engine;

          EngineOptions options = spec.engine_options;
          options.batched = info.batched_engine();
          options.channel = channel;

          SweepPoint point;
          if (!node_cell) {
            point =
                SweepPoint::fair(factory, k, spec.runs, spec.seed, options);
          } else if (arrival.is_random()) {
            // Heterogeneous cell: each run draws its own arrival pattern
            // from the substream block of its (k, arrival) pair — the
            // same block for every protocol AND every channel model, so
            // columns are compared on identical workload draws.
            const std::uint64_t stream_base =
                kArrivalStreamBase +
                (static_cast<std::uint64_t>(k_index) * arrivals.size() +
                 arrival_index) *
                    spec.runs;
            const std::uint64_t seed = spec.seed;
            point = SweepPoint::node_per_run(
                factory, k,
                [arrival, k, seed, stream_base](std::uint64_t run) {
                  return arrival.materialize(k, seed, stream_base + run);
                },
                spec.runs, spec.seed, options);
          } else {
            point = SweepPoint::node(factory,
                                     arrival.materialize(k, spec.seed, 0),
                                     spec.runs, spec.seed, options);
          }
          plan.points.push_back(std::move(point));
          plan.cells.push_back(std::move(info));
        }
      }
    }
  }
  UCR_CHECK(plan.points.size() == end - begin,
            "shard block does not match the emitted cell count");
  return plan;
}

ExperimentPlan compile(const ExperimentSpec& spec) {
  return compile(spec, {});
}

}  // namespace ucr::exp
