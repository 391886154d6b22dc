#include "sim/node_engine.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/check.hpp"

namespace ucr {
namespace {

// Always transmits: with one station this solves in one slot; with two it
// deadlocks into permanent collisions (the cap must kick in).
class AlwaysTransmit final : public NodeProtocol {
 public:
  double transmit_probability() override { return 1.0; }
  void on_slot_end(const Feedback&) override {}
};

// Fixed probability p forever.
class FixedProb final : public NodeProtocol {
 public:
  explicit FixedProb(double p) : p_(p) {}
  double transmit_probability() override { return p_; }
  void on_slot_end(const Feedback&) override {}

 private:
  double p_;
};

// Misbehaving protocol for the contract test.
class BadProb final : public NodeProtocol {
 public:
  double transmit_probability() override { return 1.5; }
  void on_slot_end(const Feedback&) override {}
};

// Records the feedback it sees (for observation tests).
class Recorder final : public NodeProtocol {
 public:
  explicit Recorder(std::vector<Feedback>* sink, double p)
      : sink_(sink), p_(p) {}
  double transmit_probability() override { return p_; }
  void on_slot_end(const Feedback& fb) override { sink_->push_back(fb); }

 private:
  std::vector<Feedback>* sink_;
  double p_;
};

TEST(NodeEngine, SingleStationSolvesInOneSlot) {
  Xoshiro256 rng(1);
  const NodeFactory factory = [](Xoshiro256&) {
    return std::make_unique<AlwaysTransmit>();
  };
  const RunMetrics m =
      run_node_engine(factory, batched_arrivals(1), rng, EngineOptions{});
  EXPECT_TRUE(m.completed);
  EXPECT_EQ(m.slots, 1u);
  EXPECT_EQ(m.deliveries, 1u);
  EXPECT_EQ(m.success_slots, 1u);
  EXPECT_EQ(m.transmissions, 1u);
}

TEST(NodeEngine, PermanentCollisionHitsCap) {
  Xoshiro256 rng(2);
  const NodeFactory factory = [](Xoshiro256&) {
    return std::make_unique<AlwaysTransmit>();
  };
  EngineOptions opts;
  opts.max_slots = 200;
  const RunMetrics m =
      run_node_engine(factory, batched_arrivals(2), rng, opts);
  EXPECT_FALSE(m.completed);
  EXPECT_EQ(m.slots, 200u);
  EXPECT_EQ(m.deliveries, 0u);
  EXPECT_EQ(m.collision_slots, 200u);
}

TEST(NodeEngine, FixedProbEventuallySolves) {
  Xoshiro256 rng(3);
  const NodeFactory factory = [](Xoshiro256&) {
    return std::make_unique<FixedProb>(0.1);
  };
  const RunMetrics m =
      run_node_engine(factory, batched_arrivals(10), rng, EngineOptions{});
  EXPECT_TRUE(m.completed);
  EXPECT_EQ(m.deliveries, 10u);
  EXPECT_EQ(m.success_slots, 10u);
}

TEST(NodeEngine, MakespanEndsAtLastDelivery) {
  Xoshiro256 rng(4);
  const NodeFactory factory = [](Xoshiro256&) {
    return std::make_unique<FixedProb>(0.2);
  };
  EngineOptions opts;
  opts.record_deliveries = true;
  const RunMetrics m =
      run_node_engine(factory, batched_arrivals(5), rng, opts);
  ASSERT_TRUE(m.completed);
  ASSERT_EQ(m.delivery_slots.size(), 5u);
  EXPECT_EQ(m.slots, m.delivery_slots.back() + 1);
}

TEST(NodeEngine, RejectsUnsortedArrivals) {
  Xoshiro256 rng(5);
  const NodeFactory factory = [](Xoshiro256&) {
    return std::make_unique<AlwaysTransmit>();
  };
  ArrivalPattern arrivals{5, 3, 1};
  EXPECT_THROW(run_node_engine(factory, arrivals, rng, EngineOptions{}),
               ContractViolation);
}

TEST(NodeEngine, RejectsEmptyWorkload) {
  Xoshiro256 rng(6);
  const NodeFactory factory = [](Xoshiro256&) {
    return std::make_unique<AlwaysTransmit>();
  };
  EXPECT_THROW(run_node_engine(factory, {}, rng, EngineOptions{}),
               ContractViolation);
}

TEST(NodeEngine, RejectsOutOfRangeProbability) {
  Xoshiro256 rng(7);
  const NodeFactory factory = [](Xoshiro256&) {
    return std::make_unique<BadProb>();
  };
  EXPECT_THROW(
      run_node_engine(factory, batched_arrivals(2), rng, EngineOptions{}),
      ContractViolation);
}

TEST(NodeEngine, LateArrivalDelaysCompletion) {
  Xoshiro256 rng(8);
  const NodeFactory factory = [](Xoshiro256&) {
    return std::make_unique<AlwaysTransmit>();
  };
  ArrivalPattern arrivals{0, 50};  // second station appears at slot 50
  const RunMetrics m =
      run_node_engine(factory, arrivals, rng, EngineOptions{});
  // Station 1 delivers at slot 0; station 2 at slot 50.
  EXPECT_TRUE(m.completed);
  EXPECT_EQ(m.slots, 51u);
  EXPECT_EQ(m.silence_slots, 49u);
}

TEST(NodeEngine, LatencyMeasuredFromArrival) {
  Xoshiro256 rng(9);
  const NodeFactory factory = [](Xoshiro256&) {
    return std::make_unique<AlwaysTransmit>();
  };
  ArrivalPattern arrivals{0, 50};
  EngineOptions options;
  options.record_latencies = true;
  const RunMetrics m = run_node_engine(factory, arrivals, rng, options);
  ASSERT_EQ(m.latencies.size(), 2u);
  EXPECT_EQ(m.latencies[0], 1u);  // delivered in its arrival slot
  EXPECT_EQ(m.latencies[1], 1u);
}

TEST(NodeEngine, RecordLatenciesFillsRunMetrics) {
  // EngineOptions::record_latencies carries the per-message latencies
  // inside RunMetrics — the form that survives aggregation and the
  // parallel sweep pipeline. Off by default.
  Xoshiro256 rng_a(9);
  Xoshiro256 rng_b(9);
  const NodeFactory factory = [](Xoshiro256&) {
    return std::make_unique<AlwaysTransmit>();
  };
  ArrivalPattern arrivals{0, 50};
  const RunMetrics plain =
      run_node_engine(factory, arrivals, rng_a, EngineOptions{});
  EXPECT_TRUE(plain.latencies.empty());  // off by default

  EngineOptions options;
  options.record_latencies = true;
  const RunMetrics recorded =
      run_node_engine(factory, arrivals, rng_b, options);
  // delivery_slot - arrival_slot + 1 per message, in delivery order.
  ASSERT_EQ(recorded.latencies.size(), 2u);
  EXPECT_EQ(recorded.latencies[0], 1u);
  EXPECT_EQ(recorded.latencies[1], 1u);
}

TEST(NodeEngine, ListenersHearDeliveries) {
  Xoshiro256 rng(10);
  std::vector<Feedback> heard;
  int instance = 0;
  const NodeFactory factory =
      [&](Xoshiro256&) -> std::unique_ptr<NodeProtocol> {
    // First station transmits always; second never (records only).
    if (instance++ == 0) return std::make_unique<AlwaysTransmit>();
    return std::make_unique<Recorder>(&heard, 0.0);
  };
  EngineOptions opts;
  opts.max_slots = 10;
  const RunMetrics m =
      run_node_engine(factory, batched_arrivals(2), rng, opts);
  EXPECT_FALSE(m.completed);  // the silent recorder never delivers
  ASSERT_FALSE(heard.empty());
  EXPECT_TRUE(heard.front().heard_delivery);
  EXPECT_FALSE(heard.front().delivered_mine);
  // After the first delivery the channel is silent: no more deliveries.
  for (std::size_t i = 1; i < heard.size(); ++i) {
    EXPECT_FALSE(heard[i].heard_delivery);
  }
}

// `options` with EngineOptions::batched set.
EngineOptions batched_mode(EngineOptions options = {}) {
  options.batched = true;
  return options;
}

// Stationary protocol for the batched-mode contract tests: constant p
// forever, unbounded hint, bulk advance counts the slots it was told about.
class StationaryProb final : public NodeProtocol {
 public:
  StationaryProb(double p, std::uint64_t* advanced = nullptr)
      : p_(p), advanced_(advanced) {}
  double transmit_probability() override { return p_; }
  void on_slot_end(const Feedback&) override {
    if (advanced_ != nullptr) ++*advanced_;
  }
  std::uint64_t stationary_slots() const override {
    return ~std::uint64_t{0};
  }
  void on_non_delivery_slots(std::uint64_t count) override {
    if (advanced_ != nullptr) *advanced_ += count;
  }

 private:
  double p_;
  std::uint64_t* advanced_;
};

RunMetrics run_both_modes_must_match(const NodeFactory& factory,
                                       const ArrivalPattern& arrivals,
                                       std::uint64_t seed,
                                       const EngineOptions& options) {
  Xoshiro256 exact_rng(seed);
  Xoshiro256 batched_rng(seed);
  const RunMetrics exact =
      run_node_engine(factory, arrivals, exact_rng, options);
  const RunMetrics batched =
      run_node_engine(factory, arrivals, batched_rng, batched_mode(options));
  EXPECT_EQ(exact.completed, batched.completed);
  EXPECT_EQ(exact.slots, batched.slots);
  EXPECT_EQ(exact.deliveries, batched.deliveries);
  EXPECT_EQ(exact.silence_slots, batched.silence_slots);
  EXPECT_EQ(exact.collision_slots, batched.collision_slots);
  EXPECT_EQ(exact.transmissions, batched.transmissions);
  EXPECT_DOUBLE_EQ(exact.expected_transmissions,
                   batched.expected_transmissions);
  return batched;
}

TEST(BatchedNodeEngine, DefaultHintWorkloadIsBitIdentical) {
  // Protocols keeping the conservative stationary_slots() == 1 resolve
  // every busy slot with the exact engine's draws in the exact order, and
  // empty arrival gaps consume no randomness in either engine — so the
  // batched engine is a bit-identical drop-in, gaps and all.
  const NodeFactory factory = [](Xoshiro256&) {
    return std::make_unique<FixedProb>(0.2);
  };
  ArrivalPattern arrivals{0, 0, 0, 700, 700, 5000};
  const RunMetrics m =
      run_both_modes_must_match(factory, arrivals, 21, EngineOptions{});
  EXPECT_TRUE(m.completed);
}

TEST(BatchedNodeEngine, SkipsEmptyGapToTheCap) {
  // One undeliverable silent station and a second arrival the cap cuts
  // off: the batched engine must jump the gap and the tail in bulk and
  // still report exact per-outcome counts.
  Xoshiro256 rng(22);
  const NodeFactory factory = [](Xoshiro256&) {
    return std::make_unique<StationaryProb>(0.0);
  };
  ArrivalPattern arrivals{100, 400};
  EngineOptions opts;
  opts.max_slots = 5000;
  const RunMetrics m =
      run_node_engine(factory, arrivals, rng, batched_mode(opts));
  EXPECT_FALSE(m.completed);
  EXPECT_EQ(m.slots, 5000u);
  EXPECT_EQ(m.silence_slots, 5000u);
  EXPECT_EQ(m.deliveries, 0u);
  EXPECT_EQ(m.transmissions, 0u);
}

TEST(BatchedNodeEngine, ArrivalsTruncateStationaryStretches) {
  // Both stations certify an unbounded stationary horizon, but the second
  // arrival must still cut the first station's stretch: every station's
  // bulk advance has to cover exactly the slots it was active for.
  Xoshiro256 rng(23);
  std::uint64_t advanced_first = 0;
  std::uint64_t advanced_second = 0;
  int instance = 0;
  const NodeFactory factory = [&](Xoshiro256&) {
    return std::make_unique<StationaryProb>(
        0.0, instance++ == 0 ? &advanced_first : &advanced_second);
  };
  ArrivalPattern arrivals{0, 100};
  EngineOptions opts;
  opts.max_slots = 300;
  const RunMetrics m =
      run_node_engine(factory, arrivals, rng, batched_mode(opts));
  EXPECT_FALSE(m.completed);
  EXPECT_EQ(m.slots, 300u);
  EXPECT_EQ(advanced_first, 300u);
  EXPECT_EQ(advanced_second, 200u);
}

TEST(BatchedNodeEngine, PermanentCollisionStretchMatchesExactEngine) {
  // Two always-transmitting stationary stations: success probability 0,
  // silence probability 0 — the whole capped run is one bulk collision
  // stretch, and neither engine consumes randomness. Outcome counts are
  // identical; the realized transmission count of the skipped slots is
  // not materialized and shows up in expected_transmissions instead (the
  // documented accounting of the batched engine).
  const NodeFactory factory = [](Xoshiro256&) {
    return std::make_unique<StationaryProb>(1.0);
  };
  EngineOptions opts;
  opts.max_slots = 200;
  Xoshiro256 exact_rng(24);
  Xoshiro256 batched_rng(24);
  const RunMetrics exact =
      run_node_engine(factory, batched_arrivals(2), exact_rng, opts);
  const RunMetrics batched = run_node_engine(
      factory, batched_arrivals(2), batched_rng, batched_mode(opts));
  EXPECT_FALSE(batched.completed);
  EXPECT_EQ(batched.collision_slots, 200u);
  EXPECT_EQ(exact.slots, batched.slots);
  EXPECT_EQ(exact.silence_slots, batched.silence_slots);
  EXPECT_EQ(exact.collision_slots, batched.collision_slots);
  EXPECT_EQ(exact.transmissions, 400u);  // 2 stations x 200 slots
  EXPECT_EQ(batched.transmissions, 0u);  // nothing materialized
  EXPECT_DOUBLE_EQ(exact.expected_transmissions,
                   batched.expected_transmissions);
}

TEST(BatchedNodeEngine, StationaryStretchDeliversWithLatencies) {
  Xoshiro256 rng(25);
  const NodeFactory factory = [](Xoshiro256&) {
    return std::make_unique<StationaryProb>(0.25);
  };
  ArrivalPattern arrivals{7};
  EngineOptions opts;
  opts.record_deliveries = true;
  opts.record_latencies = true;
  const RunMetrics m =
      run_node_engine(factory, arrivals, rng, batched_mode(opts));
  ASSERT_TRUE(m.completed);
  ASSERT_EQ(m.delivery_slots.size(), 1u);
  EXPECT_GE(m.delivery_slots[0], 7u);  // cannot deliver before arrival
  EXPECT_EQ(m.slots, m.delivery_slots[0] + 1);
  ASSERT_EQ(m.latencies.size(), 1u);
  EXPECT_EQ(m.latencies[0], m.delivery_slots[0] - 7 + 1);
  EXPECT_EQ(m.transmissions, 1u);  // only the success slot materializes
}

TEST(BatchedNodeEngine, ExpectedTransmissionsIsUnbiasedOverStretches) {
  // Two stationary stations with p = 0.4 (p_sum = 0.8): every run is one
  // or two bulk stretches ending in a success. The stretch accounting
  // must credit p_sum per elapsed slot including the success slot (Wald)
  // — crediting the realized 1 instead would bias the mean by
  // 1 - p_sum = +0.2 per delivery, far outside the tolerance below.
  const NodeFactory factory = [](Xoshiro256&) {
    return std::make_unique<StationaryProb>(0.4);
  };
  const std::uint64_t runs = 20000;
  double exact_sum = 0.0;
  double batched_sum = 0.0;
  for (std::uint64_t r = 0; r < runs; ++r) {
    Xoshiro256 exact_rng = Xoshiro256::stream(91, r);
    Xoshiro256 batched_rng = Xoshiro256::stream(92, r);
    exact_sum += run_node_engine(factory, batched_arrivals(2), exact_rng,
                                 EngineOptions{})
                     .expected_transmissions;
    batched_sum += run_node_engine(factory, batched_arrivals(2), batched_rng,
                                   batched_mode())
                       .expected_transmissions;
  }
  const double exact_mean = exact_sum / static_cast<double>(runs);
  const double batched_mean = batched_sum / static_cast<double>(runs);
  // Means are ~2.67 with per-run stddev ~2; 20k runs put the combined
  // standard error near 0.02, so 0.1 covers the Monte-Carlo noise while
  // catching the 0.4-per-run bias of the wrong convention.
  EXPECT_NEAR(exact_mean, batched_mean, 0.1);
}

TEST(BatchedNodeEngine, RejectsUnsortedArrivalsAndEmptyWorkloads) {
  Xoshiro256 rng(26);
  const NodeFactory factory = [](Xoshiro256&) {
    return std::make_unique<AlwaysTransmit>();
  };
  ArrivalPattern unsorted{5, 3, 1};
  EXPECT_THROW(run_node_engine(factory, unsorted, rng, batched_mode()),
               ContractViolation);
  EXPECT_THROW(run_node_engine(factory, {}, rng, batched_mode()),
               ContractViolation);
}

TEST(NodeEngine, ValidatedMetricsInvariants) {
  Xoshiro256 rng(11);
  const NodeFactory factory = [](Xoshiro256&) {
    return std::make_unique<FixedProb>(0.05);
  };
  const RunMetrics m =
      run_node_engine(factory, batched_arrivals(20), rng, EngineOptions{});
  // validate() ran inside; spot-check the identities here as well.
  EXPECT_EQ(m.silence_slots + m.success_slots + m.collision_slots, m.slots);
  EXPECT_EQ(m.success_slots, m.deliveries);
  EXPECT_GE(m.transmissions, m.deliveries);
}

}  // namespace
}  // namespace ucr
