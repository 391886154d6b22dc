// The typed station tables against the boxed reference. For every
// catalogue protocol with a node view, NodeView::run (the per-run entry
// point run_single_node calls, with stations held by value as their
// concrete class) must give the same RunMetrics, field for field, as
// run_node_engine over a NodeFactory that boxes the same stations
// (ProtocolFactory::node(k, rng), one virtual call per protocol method).
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "sim/arrival.hpp"
#include "sim/node_engine.hpp"
#include "sim/runner.hpp"

namespace ucr {
namespace {

constexpr std::uint64_t kSeed = 2026;
constexpr std::uint64_t kRuns = 3;

struct Case {
  std::string label;
  ArrivalPattern arrivals;
  EngineOptions options;
};

EngineOptions recording(std::uint64_t max_slots) {
  EngineOptions options;
  options.max_slots = max_slots;
  options.record_latencies = true;
  options.record_deliveries = true;
  return options;
}

std::vector<Case> cases() {
  Xoshiro256 arrival_rng = Xoshiro256::stream(kSeed, 99);
  const ArrivalPattern poisson = poisson_arrivals(60, 0.05, arrival_rng);
  const ArrivalPattern burst = burst_arrivals(3, 20, 300);
  // Sustained arrivals at 0.5 per slot stall One-Fail Adaptive (its fresh
  // stations flood the BT steps), so its runs hit this cap.
  const ArrivalPattern stalling = poisson_arrivals(60, 0.5, arrival_rng);

  std::vector<Case> all;
  for (const bool batched : {false, true}) {
    const std::string mode = batched ? "batched" : "exact";
    EngineOptions options = recording(30000);
    options.batched = batched;
    all.push_back({mode + " poisson", poisson, options});
    all.push_back({mode + " burst", burst, options});
  }
  EngineOptions jammed = recording(30000);
  jammed.channel = ChannelModel::jamming(0.1);
  all.push_back({"exact poisson jamming(0.1)", poisson, jammed});
  EngineOptions captured = recording(30000);
  captured.channel = ChannelModel::capture(0.5);
  all.push_back({"exact poisson capture(0.5)", poisson, captured});
  all.push_back({"exact capped", stalling, recording(3000)});
  return all;
}

void expect_equal(const RunMetrics& typed, const RunMetrics& boxed,
                  const std::string& where) {
  EXPECT_EQ(typed.completed, boxed.completed) << where;
  EXPECT_EQ(typed.k, boxed.k) << where;
  EXPECT_EQ(typed.slots, boxed.slots) << where;
  EXPECT_EQ(typed.deliveries, boxed.deliveries) << where;
  EXPECT_EQ(typed.silence_slots, boxed.silence_slots) << where;
  EXPECT_EQ(typed.success_slots, boxed.success_slots) << where;
  EXPECT_EQ(typed.collision_slots, boxed.collision_slots) << where;
  EXPECT_EQ(typed.transmissions, boxed.transmissions) << where;
  // Bit-for-bit: both sum the same doubles in the same order.
  EXPECT_EQ(typed.expected_transmissions, boxed.expected_transmissions)
      << where;
  EXPECT_EQ(typed.max_station_transmissions, boxed.max_station_transmissions)
      << where;
  EXPECT_EQ(typed.delivery_slots, boxed.delivery_slots) << where;
  EXPECT_EQ(typed.latencies, boxed.latencies) << where;
}

std::vector<std::string> node_protocols() {
  std::vector<std::string> names;
  for (const ProtocolFactory& p : default_catalogue()) {
    if (p.node) names.push_back(p.name);
  }
  return names;
}

class TypedStations : public ::testing::TestWithParam<std::string> {};

TEST_P(TypedStations, RunsEqualBoxedRuns) {
  const std::vector<ProtocolFactory> catalogue = default_catalogue();
  const ProtocolFactory& factory = find_protocol(catalogue, GetParam());
  std::uint64_t capped_runs = 0;
  for (const Case& c : cases()) {
    const std::uint64_t k = c.arrivals.size();
    const NodeFactory boxed = [&](Xoshiro256& rng) {
      return factory.node(k, rng);
    };
    for (std::uint64_t run = 0; run < kRuns; ++run) {
      const RunMetrics typed =
          run_single_node(factory, c.arrivals, run, kSeed, c.options);
      Xoshiro256 rng = Xoshiro256::stream(kSeed, run);
      const RunMetrics reference =
          run_node_engine(boxed, c.arrivals, rng, c.options);
      expect_equal(typed, reference,
                   c.label + ", run " + std::to_string(run));
      capped_runs += typed.completed ? 0 : 1;
    }
  }
  if (GetParam() == "One-Fail Adaptive") {
    EXPECT_GT(capped_runs, 0u) << "no run exercised the slot cap";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Catalogue, TypedStations, ::testing::ValuesIn(node_protocols()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace ucr
