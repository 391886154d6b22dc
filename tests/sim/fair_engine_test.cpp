#include "sim/fair_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/mathx.hpp"
#include "common/samplers.hpp"
#include "common/stats.hpp"
#include "sim/observer.hpp"

namespace ucr {
namespace {

// `options` with EngineOptions::batched set.
EngineOptions batched_mode(EngineOptions options = {}) {
  options.batched = true;
  return options;
}

// Fixed shared probability (the simplest fair protocol). Keeps the
// default one-slot cycle, so batched mode takes its thinned step.
class FixedFair : public FairSlotProtocol {
 public:
  explicit FixedFair(double p) : p_(p) {}
  double transmit_probability() const override { return p_; }
  void on_slot_end(bool) override {}

 private:
  double p_;
};

// The unbounded constant-probability cycle (period 1) at p.
SlotCycle constant_cycle(double p) { return {~std::uint64_t{0}, 1, 0, p, p}; }

// Same protocol, advertising its constant probability to batched mode.
class ConstantFair final : public FixedFair {
 public:
  using FixedFair::FixedFair;
  SlotCycle slot_cycle() const override {
    return constant_cycle(transmit_probability());
  }
  void on_non_delivery_slots(std::uint64_t) override {}
};

// Counts every observer callback, split by outcome.
class CountingObserver final : public SlotObserver {
 public:
  void on_slot(const SlotView& view) override {
    ++total;
    if (view.outcome == SlotOutcome::kSilence) ++silences;
    last_slot = view.slot;
  }
  std::uint64_t total = 0;
  std::uint64_t silences = 0;
  std::uint64_t last_slot = 0;
};

// Cycles through a script of probabilities, one entry per slot. Keeps the
// default one-slot cycle, so batched mode takes its thinned step.
class ScriptedFair final : public FairSlotProtocol {
 public:
  explicit ScriptedFair(std::vector<double> script)
      : script_(std::move(script)) {}
  double transmit_probability() const override {
    return script_[step_ % script_.size()];
  }
  void on_slot_end(bool) override { ++step_; }

 private:
  std::vector<double> script_;
  std::size_t step_ = 0;
};

// A constant probability certified on one side of the first delivery
// only: before it, so a batched run takes a geometric stretch and then
// thinned steps, or from it on, so the run takes a thinned step and then
// geometric stretches.
class CertifiedAroundDeliveryFair final : public FairSlotProtocol {
 public:
  CertifiedAroundDeliveryFair(double p, bool after_first_delivery)
      : p_(p), after_(after_first_delivery) {}
  double transmit_probability() const override { return p_; }
  void on_slot_end(bool delivery) override { delivered_ |= delivery; }
  SlotCycle slot_cycle() const override {
    return delivered_ == after_ ? constant_cycle(p_) : SlotCycle{};
  }
  void on_non_delivery_slots(std::uint64_t) override {}

 private:
  double p_;
  bool after_;
  bool delivered_ = false;
};

class BadFair final : public FairSlotProtocol {
 public:
  double transmit_probability() const override { return -0.1; }
  void on_slot_end(bool) override {}
};

// Fixed window size forever.
class FixedWindow final : public WindowSchedule {
 public:
  explicit FixedWindow(std::uint64_t w) : w_(w) {}
  std::uint64_t next_window_slots() override { return w_; }

 private:
  std::uint64_t w_;
};

TEST(FairSlotEngine, SingleStationFullProbability) {
  FixedFair protocol(1.0);
  Xoshiro256 rng(1);
  const RunMetrics m = run_fair_slot_engine(protocol, 1, rng, {});
  EXPECT_TRUE(m.completed);
  EXPECT_EQ(m.slots, 1u);
  EXPECT_DOUBLE_EQ(m.expected_transmissions, 1.0);
}

TEST(FairSlotEngine, TwoStationsFullProbabilityDeadlocks) {
  FixedFair protocol(1.0);
  Xoshiro256 rng(2);
  EngineOptions opts;
  opts.max_slots = 100;
  const RunMetrics m = run_fair_slot_engine(protocol, 2, rng, opts);
  EXPECT_FALSE(m.completed);
  EXPECT_EQ(m.collision_slots, 100u);
}

TEST(FairSlotEngine, SolvesWithReasonableProbability) {
  FixedFair protocol(0.05);
  Xoshiro256 rng(3);
  const RunMetrics m = run_fair_slot_engine(protocol, 20, rng, {});
  EXPECT_TRUE(m.completed);
  EXPECT_EQ(m.deliveries, 20u);
}

TEST(FairSlotEngine, RejectsZeroK) {
  FixedFair protocol(0.5);
  Xoshiro256 rng(4);
  EXPECT_THROW(run_fair_slot_engine(protocol, 0, rng, {}),
               ContractViolation);
}

TEST(FairSlotEngine, RejectsBadProbability) {
  BadFair protocol;
  Xoshiro256 rng(5);
  EXPECT_THROW(run_fair_slot_engine(protocol, 2, rng, {}),
               ContractViolation);
}

TEST(FairSlotEngine, RecordsDeliverySlots) {
  FixedFair protocol(0.1);
  Xoshiro256 rng(6);
  EngineOptions opts;
  opts.record_deliveries = true;
  const RunMetrics m = run_fair_slot_engine(protocol, 10, rng, opts);
  ASSERT_TRUE(m.completed);
  ASSERT_EQ(m.delivery_slots.size(), 10u);
  EXPECT_EQ(m.slots, m.delivery_slots.back() + 1);
}

// The fair slot engine written out with one stateless
// sample_slot_category(rng, m, p) call per slot: the reference its stored
// slot laws must reproduce draw for draw.
RunMetrics reference_slot_run(const std::vector<double>& script,
                              std::uint64_t k, std::uint64_t cap,
                              Xoshiro256& rng) {
  RunMetrics metrics;
  metrics.k = k;
  KahanSum expected_tx;
  std::uint64_t m = k;
  while (m > 0 && metrics.slots < cap) {
    const double p = script[metrics.slots % script.size()];
    expected_tx.add(static_cast<double>(m) * p);
    switch (sample_slot_category(rng, m, p)) {
      case SlotCategory::kSilence:
        ++metrics.silence_slots;
        break;
      case SlotCategory::kSuccess:
        ++metrics.success_slots;
        ++metrics.deliveries;
        --m;
        metrics.delivery_slots.push_back(metrics.slots);
        break;
      case SlotCategory::kCollision:
        ++metrics.collision_slots;
        break;
    }
    ++metrics.slots;
  }
  metrics.expected_transmissions = expected_tx.value();
  metrics.completed = m == 0;
  return metrics;
}

TEST(FairSlotEngine, StoredSlotLawsMatchPerSlotSampling) {
  // The engine keeps the slot laws of the last two (m, p) pairs. Three
  // probabilities force it to evict and refill — in `a, b, a, c` order `a`
  // stays stored while `b` and `c` replace each other — and every delivery
  // changes m under all of them. A p == 0 entry must stay draw-free.
  const std::vector<std::vector<double>> scripts = {
      {0.3, 0.02, 0.3, 0.11}, {0.45, 0.0, 0.45, 0.07}, {0.2, 0.05, 0.6}};
  for (const std::vector<double>& script : scripts) {
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
      const std::uint64_t k = 40;
      const std::uint64_t cap = 3000;
      ScriptedFair protocol(script);
      Xoshiro256 rng = Xoshiro256::stream(950, seed);
      EngineOptions opts;
      opts.max_slots = cap;
      opts.record_deliveries = true;
      const RunMetrics got = run_fair_slot_engine(protocol, k, rng, opts);
      Xoshiro256 reference_rng = Xoshiro256::stream(950, seed);
      const RunMetrics want = reference_slot_run(script, k, cap, reference_rng);
      SCOPED_TRACE(::testing::Message()
                   << "script[1]=" << script[1] << " seed=" << seed);
      EXPECT_GT(got.deliveries, 1u);
      EXPECT_EQ(got.completed, want.completed);
      EXPECT_EQ(got.k, want.k);
      EXPECT_EQ(got.slots, want.slots);
      EXPECT_EQ(got.deliveries, want.deliveries);
      EXPECT_EQ(got.silence_slots, want.silence_slots);
      EXPECT_EQ(got.success_slots, want.success_slots);
      EXPECT_EQ(got.collision_slots, want.collision_slots);
      EXPECT_EQ(got.transmissions, want.transmissions);
      EXPECT_EQ(got.expected_transmissions, want.expected_transmissions);
      EXPECT_EQ(got.max_station_transmissions,
                want.max_station_transmissions);
      EXPECT_EQ(got.delivery_slots, want.delivery_slots);
      EXPECT_EQ(got.latencies, want.latencies);
      EXPECT_EQ(rng.next_u64(), reference_rng.next_u64());
    }
  }
}

TEST(FairWindowEngine, WindowOfOneWithOneStation) {
  FixedWindow schedule(1);
  Xoshiro256 rng(7);
  const RunMetrics m = run_fair_window_engine(schedule, 1, rng, {});
  EXPECT_TRUE(m.completed);
  EXPECT_EQ(m.slots, 1u);
  EXPECT_EQ(m.transmissions, 1u);
}

TEST(FairWindowEngine, WindowOfOneWithManyDeadlocks) {
  // Every station picks the single slot of every window: all collide.
  FixedWindow schedule(1);
  Xoshiro256 rng(8);
  EngineOptions opts;
  opts.max_slots = 50;
  const RunMetrics m = run_fair_window_engine(schedule, 3, rng, opts);
  EXPECT_FALSE(m.completed);
  EXPECT_EQ(m.collision_slots, 50u);
  EXPECT_EQ(m.transmissions, 150u);  // 3 per slot
}

TEST(FairWindowEngine, LargeWindowSolvesQuickly) {
  FixedWindow schedule(64);
  Xoshiro256 rng(9);
  const RunMetrics m = run_fair_window_engine(schedule, 8, rng, {});
  EXPECT_TRUE(m.completed);
  EXPECT_EQ(m.deliveries, 8u);
}

TEST(FairWindowEngine, EveryStationTransmitsOncePerFullWindow) {
  // With w slots and m stations, exactly m transmissions happen per full
  // window (delivered stations leave the pool for later windows).
  FixedWindow schedule(16);
  Xoshiro256 rng(10);
  EngineOptions opts;
  opts.max_slots = 16;  // exactly one window
  const RunMetrics m = run_fair_window_engine(schedule, 5, rng, opts);
  EXPECT_EQ(m.transmissions, 5u);
}

TEST(FairWindowEngine, MeanDeliveriesMatchSingletonExpectation) {
  // m balls into w = m bins: expected singletons = m (1 - 1/m)^{m-1}.
  const std::uint64_t m0 = 64;
  RunningStats singles;
  for (int trial = 0; trial < 400; ++trial) {
    FixedWindow schedule(m0);
    Xoshiro256 rng = Xoshiro256::stream(11, trial);
    EngineOptions opts;
    opts.max_slots = m0;  // exactly one window
    const RunMetrics m = run_fair_window_engine(schedule, m0, rng, opts);
    singles.add(static_cast<double>(m.deliveries));
  }
  const double expected =
      static_cast<double>(m0) *
      std::pow(1.0 - 1.0 / static_cast<double>(m0), m0 - 1);
  EXPECT_NEAR(singles.mean(), expected, 0.05 * expected);
}

TEST(FairWindowEngine, CapInsideWindowRespected) {
  FixedWindow schedule(1000);
  Xoshiro256 rng(12);
  EngineOptions opts;
  opts.max_slots = 10;
  const RunMetrics m = run_fair_window_engine(schedule, 500, rng, opts);
  EXPECT_FALSE(m.completed);
  EXPECT_EQ(m.slots, 10u);
}

TEST(FairWindowEngine, RejectsZeroK) {
  FixedWindow schedule(4);
  Xoshiro256 rng(13);
  EXPECT_THROW(run_fair_window_engine(schedule, 0, rng, {}),
               ContractViolation);
}

TEST(FairWindowEngine, ObserverSeesBulkSilenceSlots) {
  // Regression: the pending == 0 fast path advanced metrics.slots without
  // emitting observer callbacks, so observer-derived traces disagreed
  // with RunMetrics. Every elapsed slot must reach the observer.
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    FixedWindow schedule(32);
    Xoshiro256 rng = Xoshiro256::stream(900, seed);
    CountingObserver observer;
    EngineOptions opts;
    opts.observer = &observer;
    const RunMetrics m = run_fair_window_engine(schedule, 3, rng, opts);
    ASSERT_TRUE(m.completed);
    EXPECT_EQ(observer.total, m.slots) << "seed " << seed;
    EXPECT_EQ(observer.silences, m.silence_slots) << "seed " << seed;
    EXPECT_EQ(observer.last_slot, m.slots - 1) << "seed " << seed;
  }
}

TEST(FairWindowEngine, ObserverSeesBulkSilenceUpToCap) {
  // The same path truncated by the slot cap mid-window.
  FixedWindow schedule(1000);
  Xoshiro256 rng(901);
  CountingObserver observer;
  EngineOptions opts;
  opts.observer = &observer;
  opts.max_slots = 40;
  const RunMetrics m = run_fair_window_engine(schedule, 2, rng, opts);
  EXPECT_EQ(m.slots, 40u);
  EXPECT_EQ(observer.total, 40u);
  EXPECT_EQ(observer.silences, m.silence_slots);
}

// ------------------------------------------- slot engine, batched mode

TEST(BatchedSlotEngine, SingleStationFullProbability) {
  ConstantFair protocol(1.0);
  Xoshiro256 rng(40);
  const RunMetrics m = run_fair_slot_engine(protocol, 1, rng, batched_mode());
  EXPECT_TRUE(m.completed);
  EXPECT_EQ(m.slots, 1u);
  EXPECT_DOUBLE_EQ(m.expected_transmissions, 1.0);
}

TEST(BatchedSlotEngine, TwoStationsFullProbabilityDeadlocks) {
  // p = 1 with two stations: every slot collides; the geometric draw must
  // return the whole stretch and the silence/collision split must label
  // all of it collision.
  ConstantFair protocol(1.0);
  Xoshiro256 rng(41);
  EngineOptions opts;
  opts.max_slots = 100;
  const RunMetrics m =
      run_fair_slot_engine(protocol, 2, rng, batched_mode(opts));
  EXPECT_FALSE(m.completed);
  EXPECT_EQ(m.collision_slots, 100u);
  EXPECT_EQ(m.silence_slots, 0u);
}

TEST(BatchedSlotEngine, ZeroProbabilityIsAllSilence) {
  ConstantFair protocol(0.0);
  Xoshiro256 rng(42);
  EngineOptions opts;
  opts.max_slots = 1000;
  const RunMetrics m =
      run_fair_slot_engine(protocol, 5, rng, batched_mode(opts));
  EXPECT_FALSE(m.completed);
  EXPECT_EQ(m.silence_slots, 1000u);
  EXPECT_DOUBLE_EQ(m.expected_transmissions, 0.0);
}

TEST(BatchedSlotEngine, SolvesAndRecordsDeliveries) {
  ConstantFair protocol(0.05);
  Xoshiro256 rng(43);
  EngineOptions opts;
  opts.record_deliveries = true;
  const RunMetrics m =
      run_fair_slot_engine(protocol, 20, rng, batched_mode(opts));
  ASSERT_TRUE(m.completed);
  EXPECT_EQ(m.deliveries, 20u);
  ASSERT_EQ(m.delivery_slots.size(), 20u);
  EXPECT_EQ(m.slots, m.delivery_slots.back() + 1);
}

TEST(BatchedSlotEngine, ConstantStretchesAreSampleStretchDraws) {
  // A period-1 cycle runs to the next delivery or the cap as one
  // sample_stretch draw at the slot law of its m stations. Replaying those
  // draws from a copy of the generator gives the run's counts and leaves
  // the generator where the run left it, with and without a cap that
  // cuts a stretch.
  const double p = 0.05;
  const std::uint64_t k = 20;
  for (const std::uint64_t max_slots : {std::uint64_t{0}, std::uint64_t{60}}) {
    EngineOptions opts;
    opts.max_slots = max_slots;
    const std::uint64_t cap = opts.resolved_cap(k);
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      SCOPED_TRACE(::testing::Message()
                   << "max_slots=" << max_slots << " seed=" << seed);
      ConstantFair protocol(p);
      Xoshiro256 rng = Xoshiro256::stream(987, seed);
      Xoshiro256 replay = rng;
      const RunMetrics got =
          run_fair_slot_engine(protocol, k, rng, batched_mode(opts));

      std::uint64_t slots = 0;
      std::uint64_t deliveries = 0;
      std::uint64_t silent = 0;
      std::uint64_t collisions = 0;
      for (std::uint64_t m = k; m > 0 && slots < cap; --m) {
        const SlotLaw law = slot_law(m, p);
        const std::uint64_t limit = cap - slots;
        const Stretch stretch =
            sample_stretch(replay, law.success, law.silence, limit);
        silent += stretch.silent;
        collisions += stretch.failures - stretch.silent;
        slots += stretch.failures;
        if (stretch.failures == limit) break;  // cut by the cap
        ++slots;
        ++deliveries;
      }
      EXPECT_TRUE(got.silence_collision_sampled);
      EXPECT_EQ(got.slots, slots);
      EXPECT_EQ(got.deliveries, deliveries);
      EXPECT_EQ(got.completed, deliveries == k);
      EXPECT_EQ(got.silence_slots, silent);
      EXPECT_EQ(got.collision_slots, collisions);
      EXPECT_EQ(rng.next_u64(), replay.next_u64());
    }
  }
}

// ------------------------------------ slot engine, batched thinned step

TEST(ThinnedSlotEngine, FirstDeliveryFollowsItsExactLaw) {
  // The analytic check of the thinned step: with m = 5 stations on a
  // default-hint script, the first delivery slot T has P[T = t] =
  // s_t · prod_{j<t} (1 − s_j), s_t = slot_law(5, p_t).success. The
  // script holds p = 1/m = 0.2, where s sits next to the envelope, and a
  // 1% error in the acceptance probability moves the statistic far past
  // the critical value.
  const std::vector<double> script = {0.3, 0.02, 0.2, 0.11, 0.6, 0.2};
  const std::uint64_t m = 5;
  const std::uint64_t runs = 400'000;
  constexpr std::size_t kBins = 30;  // T = 0..29, then the tail T >= 30
  EngineOptions opts;
  opts.max_slots = kBins;
  opts.record_deliveries = true;
  std::vector<double> observed(kBins + 1, 0.0);
  for (std::uint64_t run = 0; run < runs; ++run) {
    ScriptedFair protocol(script);
    Xoshiro256 rng = Xoshiro256::stream(960, run);
    const RunMetrics r = run_fair_slot_engine(protocol, m, rng,
                                              batched_mode(opts));
    ++observed[r.delivery_slots.empty() ? kBins : r.delivery_slots.front()];
  }
  double statistic = 0.0;
  double undelivered = 1.0;
  for (std::size_t t = 0; t <= kBins; ++t) {
    const double s =
        t < kBins ? slot_law(m, script[t % script.size()]).success : 1.0;
    const double expected = static_cast<double>(runs) * undelivered * s;
    undelivered *= 1.0 - s;
    statistic += (observed[t] - expected) * (observed[t] - expected) /
                 expected;
  }
  // The 0.999 quantile of chi-square with 30 degrees of freedom.
  std::printf("[ thinned-law ] first delivery: chi-square %.1f, critical "
              "59.703\n",
              statistic);
  EXPECT_LT(statistic, 59.703);
}

TEST(ThinnedSlotEngine, ExpectedTransmissionsArePerSlotKahanSums) {
  // Every slot of a thinned step adds m·p, delivery or not: recomputing
  // the sum from the script and the recorded deliveries must give the
  // engine's value bit for bit.
  const std::vector<double> script = {0.3, 0.02, 0.3, 0.11};
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    ScriptedFair protocol(script);
    Xoshiro256 rng = Xoshiro256::stream(970, seed);
    EngineOptions opts;
    opts.max_slots = 3000;
    opts.record_deliveries = true;
    const RunMetrics got =
        run_fair_slot_engine(protocol, 40, rng, batched_mode(opts));
    ASSERT_GT(got.deliveries, 1u);
    KahanSum want;
    std::uint64_t m = 40;
    std::size_t next = 0;
    for (std::uint64_t slot = 0; slot < got.slots; ++slot) {
      want.add(static_cast<double>(m) * script[slot % script.size()]);
      if (next < got.delivery_slots.size() &&
          got.delivery_slots[next] == slot) {
        --m;
        ++next;
      }
    }
    EXPECT_EQ(next, got.delivery_slots.size()) << "seed " << seed;
    EXPECT_EQ(got.expected_transmissions, want.value()) << "seed " << seed;
    EXPECT_FALSE(got.silence_collision_sampled);
    EXPECT_EQ(got.silence_slots, 0u);
    EXPECT_EQ(got.collision_slots, 0u);
  }
}

TEST(ThinnedSlotEngine, RunThatCannotDeliverEndsAtTheCap) {
  // p = 1 with two stations never succeeds: s = 0 on every slot.
  FixedFair protocol(1.0);
  Xoshiro256 rng(46);
  EngineOptions opts;
  opts.max_slots = 100;
  const RunMetrics m =
      run_fair_slot_engine(protocol, 2, rng, batched_mode(opts));
  EXPECT_FALSE(m.completed);
  EXPECT_EQ(m.slots, 100u);
  EXPECT_EQ(m.deliveries, 0u);
  EXPECT_FALSE(m.silence_collision_sampled);
  EXPECT_DOUBLE_EQ(m.expected_transmissions, 200.0);
}

TEST(ThinnedSlotEngine, MixedStepsReportNoPartialSplit) {
  // Geometric stretches sample the split, thinned steps do not: a run that
  // takes both reports it as not sampled, with both counts 0.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    CertifiedAroundDeliveryFair protocol(0.02, false);
    Xoshiro256 rng = Xoshiro256::stream(980, seed);
    const RunMetrics m =
        run_fair_slot_engine(protocol, 20, rng, batched_mode());
    ASSERT_TRUE(m.completed);
    EXPECT_FALSE(m.silence_collision_sampled);
    EXPECT_EQ(m.silence_slots, 0u);
    EXPECT_EQ(m.collision_slots, 0u);
    EXPECT_EQ(m.success_slots, 20u);
  }
}

TEST(ThinnedSlotEngine, StretchesAfterAThinnedStepDrawNoSplit) {
  // A thinned step leaves the run's silence/collision split unsampled, so
  // the constant-probability stretches after it must not draw one: the
  // generator has to end exactly where the thinned uniforms and the
  // stretches' geometric draws alone leave it.
  const double p = 0.05;
  const std::uint64_t k = 20;
  const std::uint64_t cap = EngineOptions{}.resolved_cap(k);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    CertifiedAroundDeliveryFair protocol(p, true);
    Xoshiro256 rng = Xoshiro256::stream(985, seed);
    Xoshiro256 replay = rng;
    EngineOptions opts;
    opts.record_deliveries = true;
    const RunMetrics got =
        run_fair_slot_engine(protocol, k, rng, batched_mode(opts));
    ASSERT_TRUE(got.completed);
    EXPECT_FALSE(got.silence_collision_sampled);

    // The thinned step: one uniform per slot up to the first delivery.
    std::vector<std::uint64_t> want;
    std::uint64_t slot = 0;
    while (!(replay.next_double() < prob_success(k, p))) ++slot;
    want.push_back(slot++);
    // Then one geometric draw per delivery, and nothing else.
    for (std::uint64_t m = k - 1; m > 0; --m) {
      slot += sample_geometric_failures(replay, prob_success(m, p),
                                        cap - slot);
      want.push_back(slot++);
    }
    EXPECT_EQ(got.delivery_slots, want);
    EXPECT_EQ(rng.next_u64(), replay.next_u64());
  }
}

// p = factor / m, at most 1, with factors[t] on slot t (cycling) while
// m stations remain.
double near_peak(const std::vector<double>& factors, std::uint64_t slot,
                 std::uint64_t m) {
  return std::min(1.0, factors[slot % factors.size()] / static_cast<double>(m));
}

// Sends near_peak(factors, t, m) on slot t: near the peak of
// m·p·(1 − p)^(m−1), p = 1/m. Keeps the default one-slot cycle, so batched
// mode takes its thinned step.
class NearPeakFair final : public FairSlotProtocol {
 public:
  NearPeakFair(std::uint64_t k, std::vector<double> factors)
      : m_(k), factors_(std::move(factors)) {}
  double transmit_probability() const override {
    return near_peak(factors_, step_, m_);
  }
  void on_slot_end(bool delivery) override {
    m_ -= delivery ? 1 : 0;
    ++step_;
  }

 private:
  std::uint64_t m_;
  std::vector<double> factors_;
  std::size_t step_ = 0;
};

TEST(ThinnedSlotEngine, BracketDecidesEachSlotAsTheLawWould) {
  // With m = 2..5 stations near p = 1/m the bracket of the success law is
  // widest (its exponents lie (m − 1)·p²/(1 − p) ≈ 1/m apart) and the
  // engine falls back on the law most often. Deciding u < s by the
  // bracket must still give what deciding it by s on every slot gives:
  // the same delivery slots, and the generator left in the same place.
  const std::vector<double> factors = {1.0, 0.9, 1.1, 1.0 - 1e-9, 1.3, 0.75};
  for (std::uint64_t k = 2; k <= 5; ++k) {
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
      SCOPED_TRACE(::testing::Message() << "k=" << k << " seed=" << seed);
      NearPeakFair protocol(k, factors);
      Xoshiro256 rng = Xoshiro256::stream(986, seed);
      Xoshiro256 replay = rng;
      EngineOptions opts;
      opts.max_slots = 400;
      opts.record_deliveries = true;
      const RunMetrics got =
          run_fair_slot_engine(protocol, k, rng, batched_mode(opts));

      std::vector<std::uint64_t> want;
      std::uint64_t m = k;
      for (std::uint64_t slot = 0; m > 0 && slot < opts.max_slots; ++slot) {
        const double p = near_peak(factors, slot, m);
        if (replay.next_double() < prob_success(m, p)) {
          want.push_back(slot);
          --m;
        }
      }
      EXPECT_EQ(got.delivery_slots, want);
      EXPECT_EQ(rng.next_u64(), replay.next_u64());
    }
  }
}

// ------------------------------------ slot engine, batched cycle step

// A two-probability cycle of period 3 with its BT slots at steps 0, 3,
// 6, ...: BT slots send with `bt`, and AT slots with the AT laws in turn,
// each held for `block` AT slots, so the AT law changes at a crossing
// every `block` AT slots. Deliveries move nothing.
class ScriptedCycleFair final : public FairSlotProtocol {
 public:
  static constexpr std::uint64_t kPeriod = 3;
  ScriptedCycleFair(double bt, std::vector<double> ats, std::uint64_t block)
      : bt_(bt), ats_(std::move(ats)), block_(block) {}

  double transmit_probability() const override {
    return step_ % kPeriod == 0 ? bt_ : at();
  }
  void on_slot_end(bool) override {
    if (step_ % kPeriod != 0) ++at_steps_;
    ++step_;
  }
  // Up to and including the last AT slot of the current AT law.
  SlotCycle slot_cycle() const override {
    std::uint64_t slots = 0;
    for (std::uint64_t left = block_ - at_steps_ % block_; left > 0;) {
      if ((step_ + slots) % kPeriod != 0) --left;
      ++slots;
    }
    const std::uint64_t to_bt = (kPeriod - step_ % kPeriod) % kPeriod;
    return {slots, kPeriod, to_bt, at(), bt_};
  }
  void on_non_delivery_slots(std::uint64_t count) override {
    for (std::uint64_t i = 0; i < count; ++i) on_slot_end(false);
  }

 private:
  double at() const { return ats_[at_steps_ / block_ % ats_.size()]; }

  double bt_;
  std::vector<double> ats_;
  std::uint64_t block_;
  std::uint64_t step_ = 0;
  std::uint64_t at_steps_ = 0;
};

// The probabilities of a script's first `slots` slots.
std::vector<double> probabilities(ScriptedCycleFair protocol,
                                  std::uint64_t slots) {
  std::vector<double> out;
  for (std::uint64_t t = 0; t < slots; ++t) {
    out.push_back(protocol.transmit_probability());
    protocol.on_slot_end(false);
  }
  return out;
}

// A cycle that holds forever: BT slots every `period` slots from step 0
// on, and a bulk advance of any length in O(1).
class FixedCycleFair final : public FairSlotProtocol {
 public:
  FixedCycleFair(std::uint64_t period, double at, double bt)
      : period_(period), at_(at), bt_(bt) {}
  double transmit_probability() const override {
    return step_ % period_ == 0 ? bt_ : at_;
  }
  void on_slot_end(bool) override { ++step_; }
  SlotCycle slot_cycle() const override {
    return {~std::uint64_t{0}, period_, (period_ - step_ % period_) % period_,
            at_, bt_};
  }
  void on_non_delivery_slots(std::uint64_t count) override { step_ += count; }
  std::uint64_t step() const { return step_; }

 private:
  std::uint64_t period_;
  double at_;
  double bt_;
  std::uint64_t step_ = 0;
};

// The AT laws a cycle step walks, one uniform per AT slot, rather than
// drawing a geometric: those whose bracket's lower side is at least 1/16
// (sim/fair_engine.cpp).
bool walked(std::uint64_t m, double at) {
  const SuccessBounds bounds = success_bounds(m, at);
  return bounds.lower >= 1.0 / 16 && bounds.upper < 1.0;
}

// The analytic check of the cycle step, as for the thinned step: with
// m = 5 stations the first delivery slot T has P[T = t] =
// s_t · prod_{j<t} (1 − s_j), s_t = prob_success(5, p_t). The script
// starts on a BT slot, and its AT law changes at a crossing every four AT
// slots, so most steps end at a crossing inside the 30 slots observed,
// and the cap cuts the last one. Returns the chi-square statistic.
double first_delivery_chi_square(const ScriptedCycleFair& script,
                                 std::uint64_t stream) {
  const std::uint64_t m = 5;
  const std::uint64_t runs = 400'000;
  constexpr std::size_t kBins = 30;  // T = 0..29, then the tail T >= 30
  const std::vector<double> p = probabilities(script, kBins);
  EngineOptions opts;
  opts.max_slots = kBins;
  opts.record_deliveries = true;
  std::vector<double> observed(kBins + 1, 0.0);
  for (std::uint64_t run = 0; run < runs; ++run) {
    ScriptedCycleFair protocol = script;
    Xoshiro256 rng = Xoshiro256::stream(stream, run);
    const RunMetrics r = run_fair_slot_engine(protocol, m, rng,
                                              batched_mode(opts));
    ++observed[r.delivery_slots.empty() ? kBins : r.delivery_slots.front()];
  }
  double statistic = 0.0;
  double undelivered = 1.0;
  for (std::size_t t = 0; t <= kBins; ++t) {
    const double s = t < kBins ? prob_success(m, p[t]) : 1.0;
    const double expected = static_cast<double>(runs) * undelivered * s;
    undelivered *= 1.0 - s;
    statistic += (observed[t] - expected) * (observed[t] - expected) /
                 expected;
  }
  return statistic;
}

TEST(CycleSlotEngine, FirstDeliveryFollowsItsExactLaw) {
  // AT laws s = 0.092 and 0.20, both walked.
  ASSERT_TRUE(walked(5, 0.02) && walked(5, 0.05));
  const ScriptedCycleFair script(0.1, {0.02, 0.05}, 4);
  const double statistic = first_delivery_chi_square(script, 990);
  // The 0.999 quantile of chi-square with 30 degrees of freedom.
  std::printf("[ cycle-law ] first delivery, walked AT laws: chi-square "
              "%.1f, critical 59.703\n",
              statistic);
  EXPECT_LT(statistic, 59.703);
}

TEST(CycleSlotEngine, FirstDeliveryBelowTheWalkFollowsItsExactLaw) {
  // AT laws s = 0.025 and 0.039, both drawn as truncated geometrics.
  ASSERT_FALSE(walked(5, 0.005) || walked(5, 0.008));
  const ScriptedCycleFair script(0.1, {0.005, 0.008}, 4);
  const double statistic = first_delivery_chi_square(script, 996);
  std::printf("[ cycle-law ] first delivery, geometric AT laws: chi-square "
              "%.1f, critical 59.703\n",
              statistic);
  EXPECT_LT(statistic, 59.703);
}

TEST(CycleSlotEngine, WalkTakesOneUniformPerAtSlotUpToItsSuccess) {
  // With BT laws of 0, which need no draw, and walked AT laws, a run must
  // draw one uniform per AT slot up to and including each delivery and
  // none after it: exactly what deciding u < s on every AT slot draws.
  // The AT law changes at a crossing every four AT slots, so many steps
  // end without a success, and the cap cuts the last one.
  const ScriptedCycleFair script(0.0, {0.1, 0.2, 0.15}, 4);
  const std::uint64_t k = 5;
  for (const double at : {0.1, 0.2, 0.15}) {
    for (std::uint64_t m = 1; m <= k; ++m) {
      ASSERT_TRUE(walked(m, at)) << "m=" << m << " at=" << at;
    }
  }
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    ScriptedCycleFair protocol = script;
    Xoshiro256 rng = Xoshiro256::stream(997, seed);
    Xoshiro256 replay = rng;
    EngineOptions opts;
    opts.max_slots = 120;
    opts.record_deliveries = true;
    const RunMetrics got =
        run_fair_slot_engine(protocol, k, rng, batched_mode(opts));

    const std::vector<double> p = probabilities(script, opts.max_slots);
    std::vector<std::uint64_t> want;
    std::uint64_t m = k;
    for (std::uint64_t slot = 0; m > 0 && slot < opts.max_slots; ++slot) {
      if (p[slot] == 0.0) continue;  // a BT slot
      if (replay.next_double() < prob_success(m, p[slot])) {
        want.push_back(slot);
        --m;
      }
    }
    EXPECT_EQ(got.delivery_slots, want);
    EXPECT_EQ(rng.next_u64(), replay.next_u64());
  }
}

TEST(CycleSlotEngine, ExpectedTransmissionsArePerSlotSums) {
  // A cycle step adds m·(at·#AT + bt·#BT) over its elapsed slots, the
  // success slot included: the per-slot m·p sum up to rounding.
  const ScriptedCycleFair script(0.1, {0.02, 0.05}, 4);
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    ScriptedCycleFair protocol = script;
    Xoshiro256 rng = Xoshiro256::stream(991, seed);
    EngineOptions opts;
    opts.max_slots = 3000;
    opts.record_deliveries = true;
    const RunMetrics got =
        run_fair_slot_engine(protocol, 40, rng, batched_mode(opts));
    ASSERT_GT(got.deliveries, 1u);
    const std::vector<double> p = probabilities(script, got.slots);
    KahanSum want;
    std::uint64_t m = 40;
    std::size_t next = 0;
    for (std::uint64_t slot = 0; slot < got.slots; ++slot) {
      want.add(static_cast<double>(m) * p[slot]);
      if (next < got.delivery_slots.size() &&
          got.delivery_slots[next] == slot) {
        --m;
        ++next;
      }
    }
    EXPECT_EQ(next, got.delivery_slots.size()) << "seed " << seed;
    EXPECT_NEAR(got.expected_transmissions, want.value(),
                1e-12 * want.value())
        << "seed " << seed;
    EXPECT_FALSE(got.silence_collision_sampled);
    EXPECT_EQ(got.silence_slots, 0u);
    EXPECT_EQ(got.collision_slots, 0u);
  }
}

TEST(CycleSlotEngine, CapInsideACycle) {
  // Two stations sending with probability 1 never succeed (s = 0 on every
  // slot, decided without a draw): the run ends at the cap, 37 slots into
  // a cycle of period 4, and the protocol has advanced exactly that far.
  FixedCycleFair protocol(4, 1.0, 1.0);
  Xoshiro256 rng(992);
  Xoshiro256 untouched = rng;
  EngineOptions opts;
  opts.max_slots = 37;
  const RunMetrics m =
      run_fair_slot_engine(protocol, 2, rng, batched_mode(opts));
  EXPECT_FALSE(m.completed);
  EXPECT_EQ(m.slots, 37u);
  EXPECT_EQ(protocol.step(), 37u);
  EXPECT_DOUBLE_EQ(m.expected_transmissions, 74.0);
  EXPECT_EQ(rng.next_u64(), untouched.next_u64());
}

TEST(CycleSlotEngine, BtLawOfZeroDeliversOnlyOnAtSlots) {
  // bt = 0: a BT slot never succeeds and its law needs no draw, so every
  // delivery lands on an AT slot.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    FixedCycleFair protocol(3, 0.1, 0.0);
    Xoshiro256 rng = Xoshiro256::stream(993, seed);
    EngineOptions opts;
    opts.record_deliveries = true;
    const RunMetrics m =
        run_fair_slot_engine(protocol, 10, rng, batched_mode(opts));
    ASSERT_TRUE(m.completed);
    for (const std::uint64_t slot : m.delivery_slots) {
      EXPECT_NE(slot % 3, 0u) << "seed " << seed << " slot " << slot;
    }
  }
}

TEST(CycleSlotEngine, OneStationSucceedsWithItsOwnProbability) {
  // m = 1: a slot succeeds with exactly p. At bt = 0 and at = 1 neither
  // law needs a draw: the station delivers on slot 1, the first AT slot.
  FixedCycleFair protocol(3, 1.0, 0.0);
  Xoshiro256 rng(994);
  Xoshiro256 untouched = rng;
  EngineOptions opts;
  opts.record_deliveries = true;
  const RunMetrics m =
      run_fair_slot_engine(protocol, 1, rng, batched_mode(opts));
  ASSERT_TRUE(m.completed);
  EXPECT_EQ(m.slots, 2u);
  EXPECT_EQ(m.delivery_slots, std::vector<std::uint64_t>{1});
  EXPECT_EQ(protocol.step(), 2u);
  EXPECT_DOUBLE_EQ(m.expected_transmissions, 1.0);
  EXPECT_EQ(rng.next_u64(), untouched.next_u64());
}

TEST(CycleSlotEngine, GeometricDrawPast2To64TruncatesAtTheCap) {
  // At p = 1e-300 both geometric draws come out near 10^300 slots, far
  // past 2^64, and must truncate at the slots the cap leaves, as
  // doubles, before any cast to an integer.
  FixedCycleFair protocol(2, 1e-300, 1e-300);
  Xoshiro256 rng(995);
  EngineOptions opts;
  opts.max_slots = ~std::uint64_t{0};
  const RunMetrics m =
      run_fair_slot_engine(protocol, 2, rng, batched_mode(opts));
  EXPECT_FALSE(m.completed);
  EXPECT_EQ(m.slots, ~std::uint64_t{0});
  EXPECT_EQ(protocol.step(), ~std::uint64_t{0});
  EXPECT_EQ(m.deliveries, 0u);
}

TEST(BatchedSlotEngine, MeanMakespanMatchesExactEngine) {
  // Same protocol, batched vs exact: the laws must agree (here via the
  // mean over independent runs; the integration suite covers the real
  // protocols).
  RunningStats exact_stats;
  RunningStats batched_stats;
  const int runs = 400;
  for (int r = 0; r < runs; ++r) {
    FixedFair exact_protocol(0.06);
    ConstantFair batched_protocol(0.06);
    Xoshiro256 rng_a = Xoshiro256::stream(920, r);
    Xoshiro256 rng_b = Xoshiro256::stream(921, r);
    exact_stats.add(static_cast<double>(
        run_fair_slot_engine(exact_protocol, 12, rng_a, {}).slots));
    batched_stats.add(static_cast<double>(
        run_fair_slot_engine(batched_protocol, 12, rng_b, batched_mode())
            .slots));
  }
  const double se = std::sqrt(exact_stats.variance() / runs +
                              batched_stats.variance() / runs);
  EXPECT_NEAR(exact_stats.mean(), batched_stats.mean(),
              4.0 * se + 0.02 * exact_stats.mean());
}

TEST(BatchedSlotEngine, RejectsObserver) {
  ConstantFair protocol(0.5);
  Xoshiro256 rng(44);
  CountingObserver observer;
  EngineOptions opts;
  opts.observer = &observer;
  EXPECT_THROW(run_fair_slot_engine(protocol, 2, rng, batched_mode(opts)),
               ContractViolation);
}

TEST(BatchedSlotEngine, RejectsZeroK) {
  ConstantFair protocol(0.5);
  Xoshiro256 rng(45);
  EXPECT_THROW(run_fair_slot_engine(protocol, 0, rng, batched_mode()),
               ContractViolation);
}

// ----------------------------------------- window engine, batched mode

TEST(BatchedWindowEngine, WindowOfOneWithOneStation) {
  FixedWindow schedule(1);
  Xoshiro256 rng(50);
  const RunMetrics m = run_fair_window_engine(schedule, 1, rng, batched_mode());
  EXPECT_TRUE(m.completed);
  EXPECT_EQ(m.slots, 1u);
  EXPECT_EQ(m.transmissions, 1u);
}

TEST(BatchedWindowEngine, WindowOfOneWithManyDeadlocks) {
  FixedWindow schedule(1);
  Xoshiro256 rng(51);
  EngineOptions opts;
  opts.max_slots = 50;
  const RunMetrics m =
      run_fair_window_engine(schedule, 3, rng, batched_mode(opts));
  EXPECT_FALSE(m.completed);
  EXPECT_EQ(m.collision_slots, 50u);
  EXPECT_EQ(m.transmissions, 150u);  // 3 per slot
}

TEST(BatchedWindowEngine, LargeWindowSolvesQuickly) {
  FixedWindow schedule(64);
  Xoshiro256 rng(52);
  const RunMetrics m = run_fair_window_engine(schedule, 8, rng, batched_mode());
  EXPECT_TRUE(m.completed);
  EXPECT_EQ(m.deliveries, 8u);
}

TEST(BatchedWindowEngine, EveryStationTransmitsOncePerFullWindow) {
  FixedWindow schedule(16);
  Xoshiro256 rng(53);
  EngineOptions opts;
  opts.max_slots = 16;  // exactly one window
  const RunMetrics m =
      run_fair_window_engine(schedule, 5, rng, batched_mode(opts));
  EXPECT_EQ(m.transmissions, 5u);
}

TEST(BatchedWindowEngine, MeanDeliveriesMatchSingletonExpectation) {
  // m balls into w = m bins: expected singletons = m (1 - 1/m)^{m-1} —
  // the same law the exact engine is pinned against.
  const std::uint64_t m0 = 64;
  RunningStats singles;
  for (int trial = 0; trial < 400; ++trial) {
    FixedWindow schedule(m0);
    Xoshiro256 rng = Xoshiro256::stream(54, trial);
    EngineOptions opts;
    opts.max_slots = m0;  // exactly one window
    const RunMetrics m =
        run_fair_window_engine(schedule, m0, rng, batched_mode(opts));
    singles.add(static_cast<double>(m.deliveries));
  }
  const double expected =
      static_cast<double>(m0) *
      std::pow(1.0 - 1.0 / static_cast<double>(m0), m0 - 1);
  EXPECT_NEAR(singles.mean(), expected, 0.05 * expected);
}

TEST(BatchedWindowEngine, CapInsideWindowRespected) {
  FixedWindow schedule(1000);
  Xoshiro256 rng(55);
  EngineOptions opts;
  opts.max_slots = 10;
  const RunMetrics m =
      run_fair_window_engine(schedule, 500, rng, batched_mode(opts));
  EXPECT_FALSE(m.completed);
  EXPECT_EQ(m.slots, 10u);
}

// A batched window of W slots with `pending` stations takes the Poisson
// batch when W <= pending/8, the bitmap walk when usable/64 <= pending
// and the sorted walk otherwise, where usable is the part of the window
// the cap leaves. Each case sits on one side of a gate for its first
// window.
struct WindowCase {
  std::uint64_t k;
  std::uint64_t window;
  std::uint64_t max_slots;  // 0: the default cap
};

TEST(BatchedWindowEngine, RecordingDeliveriesMovesNoMetric) {
  // Recording reads the same choices through the same walk, so every
  // metric must agree draw for draw with a run that does not record.
  const WindowCase cases[] = {
      {800, 100, 0},        // W = k/8: the Poisson batch
      {800, 101, 0},        // one slot more: the bitmap walk
      {70, 4480, 0},        // W = 64k: the bitmap walk
      {70, 4544, 0},        // one bitmap word more: the sorted walk
      {500, 1000, 10},      // a cap inside a bitmap-walk window
      {10, 100000, 50000},  // a cap inside a sorted-walk window
  };
  for (const WindowCase& c : cases) {
    SCOPED_TRACE(testing::Message() << "k=" << c.k << " W=" << c.window);
    std::uint64_t mid_window = 0;
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      SCOPED_TRACE(testing::Message() << "seed=" << seed);
      EngineOptions opts;
      opts.max_slots = c.max_slots;
      FixedWindow plain_schedule(c.window);
      Xoshiro256 plain_rng = Xoshiro256::stream(930, seed);
      const RunMetrics plain = run_fair_window_engine(
          plain_schedule, c.k, plain_rng, batched_mode(opts));

      opts.record_deliveries = true;
      FixedWindow recording_schedule(c.window);
      Xoshiro256 recording_rng = Xoshiro256::stream(930, seed);
      const RunMetrics recorded = run_fair_window_engine(
          recording_schedule, c.k, recording_rng, batched_mode(opts));

      EXPECT_EQ(plain.slots, recorded.slots);
      EXPECT_EQ(plain.silence_slots, recorded.silence_slots);
      EXPECT_EQ(plain.success_slots, recorded.success_slots);
      EXPECT_EQ(plain.collision_slots, recorded.collision_slots);
      EXPECT_EQ(plain.deliveries, recorded.deliveries);
      EXPECT_EQ(plain.transmissions, recorded.transmissions);
      EXPECT_EQ(plain.expected_transmissions, recorded.expected_transmissions);
      EXPECT_EQ(plain.completed, recorded.completed);
      ASSERT_EQ(recorded.delivery_slots.size(), recorded.deliveries);
      if (recorded.completed) {
        // The makespan ends at the last delivery.
        EXPECT_EQ(recorded.slots, recorded.delivery_slots.back() + 1);
        if (recorded.slots % c.window != 0) ++mid_window;
      } else {
        EXPECT_EQ(recorded.slots, c.max_slots);
      }
    }
    // Every uncapped case has runs that end before their last window
    // does, through the walks' early exit.
    if (c.max_slots == 0) {
      EXPECT_GT(mid_window, 0u);
    }
  }
}

TEST(BatchedWindowEngine, RecordedSlotsAreTheSortedSingletonChoices) {
  // One window cut by the cap. fill_uniform_below draws exactly as
  // sequential next_below calls do, so a copy of the engine stream
  // replays every station's choice; the recorded delivery slots must be
  // the offsets under the cap that exactly one station chose, in order.
  const WindowCase cases[] = {
      {3000, 1000, 700},    // a dense window: the bitmap walk
      {300, 1000, 700},     // a sparse window: the bitmap walk
      {20, 100000, 60000},  // the sorted walk
  };
  for (const WindowCase& c : cases) {
    SCOPED_TRACE(testing::Message() << "k=" << c.k << " W=" << c.window);
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
      SCOPED_TRACE(testing::Message() << "seed=" << seed);
      Xoshiro256 rng = Xoshiro256::stream(931, seed);
      Xoshiro256 replay = rng;
      std::vector<std::uint64_t> hits(c.max_slots, 0);
      for (std::uint64_t station = 0; station < c.k; ++station) {
        const std::uint64_t slot = replay.next_below(c.window);
        if (slot < c.max_slots) ++hits[slot];
      }
      std::vector<std::uint64_t> singletons;
      for (std::uint64_t slot = 0; slot < c.max_slots; ++slot) {
        if (hits[slot] == 1) singletons.push_back(slot);
      }

      FixedWindow schedule(c.window);
      EngineOptions opts;
      opts.max_slots = c.max_slots;
      opts.record_deliveries = true;
      const RunMetrics m =
          run_fair_window_engine(schedule, c.k, rng, batched_mode(opts));
      EXPECT_EQ(m.delivery_slots, singletons);
    }
  }
}

// P[Binomial(n, p) = t], 0 < p <= 1.
double binomial_pmf(std::uint64_t n, double p, std::uint64_t t) {
  const double nd = static_cast<double>(n);
  const double td = static_cast<double>(t);
  if (p == 1.0) return t == n ? 1.0 : 0.0;
  return std::exp(std::lgamma(nd + 1.0) - std::lgamma(td + 1.0) -
                  std::lgamma(nd - td + 1.0) + td * std::log(p) +
                  (nd - td) * std::log1p(-p));
}

// The joint law of (successes, empty slots) over the first `usable`
// slots of a W-slot window that n stations enter, each choosing one slot
// uniformly: by the chain rule, slot j takes Binomial(left, 1/(W − j)) of
// the `left` stations not yet placed. Indexed [successes][empties].
std::vector<std::vector<double>> occupancy_law(std::uint64_t n,
                                               std::uint64_t window,
                                               std::uint64_t usable) {
  const std::size_t side = static_cast<std::size_t>(usable) + 1;
  // law[left][successes][empties] after the slots walked so far.
  std::vector<std::vector<std::vector<double>>> law(
      n + 1, std::vector<std::vector<double>>(
                 side, std::vector<double>(side, 0.0)));
  law[n][0][0] = 1.0;
  for (std::uint64_t j = 0; j < usable; ++j) {
    const double hazard = 1.0 / static_cast<double>(window - j);
    auto next = law;
    for (auto& by_left : next) {
      for (auto& by_successes : by_left) {
        std::fill(by_successes.begin(), by_successes.end(), 0.0);
      }
    }
    for (std::uint64_t left = 0; left <= n; ++left) {
      std::vector<double> pmf(left + 1);
      for (std::uint64_t t = 0; t <= left; ++t) {
        pmf[t] = binomial_pmf(left, hazard, t);
      }
      for (std::size_t s = 0; s < side; ++s) {
        for (std::size_t e = 0; e < side; ++e) {
          const double mass = law[left][s][e];
          if (mass == 0.0) continue;
          for (std::uint64_t t = 0; t <= left; ++t) {
            next[left - t][s + (t == 1)][e + (t == 0)] += mass * pmf[t];
          }
        }
      }
    }
    law = std::move(next);
  }
  std::vector<std::vector<double>> joint(side, std::vector<double>(side, 0.0));
  for (const auto& by_left : law) {
    for (std::size_t s = 0; s < side; ++s) {
      for (std::size_t e = 0; e < side; ++e) joint[s][e] += by_left[s][e];
    }
  }
  return joint;
}

TEST(BatchedWindowEngine, DenseWindowFollowsTheOccupancyLaw) {
  // One dense window (W <= n/8, the Poisson batch) of n stations, run as
  // a whole run cut at its usable slots. Where n and W are small, a
  // chi-square test of the joint law of successes and empty slots
  // against occupancy_law, cells of expected count under 5 pooled; else
  // a 5-sigma check of the means of both, n(1 − 1/W)^(n−1) and
  // W(1 − 1/W)^n over a whole window. The last case's cap cuts the
  // window to 7 of its 12 slots, so its n is a binomial draw too.
  struct DenseCase {
    std::uint64_t n;
    std::uint64_t window;
    std::uint64_t usable;
    bool exact_law;
  };
  const DenseCase cases[] = {
      {8, 1, 1, true},          {30, 3, 3, true},
      {64, 8, 8, true},         {100, 12, 12, true},
      {1000, 100, 100, false},  {10000, 1000, 1000, false},
      {100, 12, 7, true},
  };
  for (const DenseCase& c : cases) {
    SCOPED_TRACE(testing::Message() << "n=" << c.n << " W=" << c.window
                                    << " usable=" << c.usable);
    ASSERT_LE(c.window, c.n / 8);
    const int runs = c.exact_law ? 50'000 : 10'000;
    const std::size_t side = static_cast<std::size_t>(c.usable) + 1;
    std::vector<double> observed(side * side, 0.0);
    RunningStats successes;
    RunningStats empties;
    RunningStats transmissions;
    for (int run = 0; run < runs; ++run) {
      FixedWindow schedule(c.window);
      Xoshiro256 rng = Xoshiro256::stream(990 + c.n + c.usable, run);
      EngineOptions opts;
      opts.max_slots = c.usable;
      const RunMetrics m =
          run_fair_window_engine(schedule, c.n, rng, batched_mode(opts));
      ASSERT_EQ(m.slots, c.usable);
      ASSERT_EQ(m.success_slots + m.silence_slots + m.collision_slots,
                c.usable);
      if (c.usable == c.window) {
        ASSERT_EQ(m.transmissions, c.n);
      }
      ++observed[m.success_slots * side + m.silence_slots];
      successes.add(static_cast<double>(m.success_slots));
      empties.add(static_cast<double>(m.silence_slots));
      transmissions.add(static_cast<double>(m.transmissions));
    }
    const double wd = static_cast<double>(c.window);
    const double nd = static_cast<double>(c.n);
    const double share = static_cast<double>(c.usable) / wd;
    EXPECT_NEAR(transmissions.mean(), nd * share,
                5.0 * std::sqrt(nd * share * (1.0 - share) / runs) + 1e-9);
    if (!c.exact_law) {
      const double mean_successes = nd * std::pow(1.0 - 1.0 / wd, nd - 1.0);
      const double mean_empties = wd * std::pow(1.0 - 1.0 / wd, nd);
      EXPECT_NEAR(successes.mean(), mean_successes,
                  5.0 * successes.stddev() / std::sqrt(runs));
      EXPECT_NEAR(empties.mean(), mean_empties,
                  5.0 * empties.stddev() / std::sqrt(runs));
      continue;
    }
    const auto law = occupancy_law(c.n, c.window, c.usable);
    // Cells of expected count 5 or more, the rest pooled into one, which
    // joins the likeliest cell if it too falls under 5.
    std::vector<double> cell_observed;
    std::vector<double> cell_expected;
    double pooled_observed = 0.0;
    double pooled_expected = 0.0;
    for (std::size_t s = 0; s < side; ++s) {
      for (std::size_t e = 0; e < side; ++e) {
        const double expected = law[s][e] * runs;
        if (expected >= 5.0) {
          cell_observed.push_back(observed[s * side + e]);
          cell_expected.push_back(expected);
        } else {
          pooled_observed += observed[s * side + e];
          pooled_expected += expected;
        }
      }
    }
    if (pooled_expected >= 5.0) {
      cell_observed.push_back(pooled_observed);
      cell_expected.push_back(pooled_expected);
    } else {
      const auto likeliest =
          std::max_element(cell_expected.begin(), cell_expected.end()) -
          cell_expected.begin();
      cell_observed[likeliest] += pooled_observed;
      cell_expected[likeliest] += pooled_expected;
    }
    if (cell_expected.size() < 2) {
      EXPECT_EQ(cell_observed[0], static_cast<double>(runs));
      continue;
    }
    const double df = static_cast<double>(cell_expected.size() - 1);
    const double statistic = chi_square_statistic(cell_observed, cell_expected);
    std::printf("[ window-law ] n=%llu W=%llu usable=%llu: chi-square %.1f, "
                "%g df, critical %.1f\n",
                static_cast<unsigned long long>(c.n),
                static_cast<unsigned long long>(c.window),
                static_cast<unsigned long long>(c.usable), statistic, df,
                chi_square_critical_999(df));
    EXPECT_LT(statistic, chi_square_critical_999(df));
  }
}

// One Poisson batch replayed from a copy of the engine's stream: the
// stations that choose a usable slot (a binomial draw when the cap cuts
// the window), usable Poisson counts at λ' = (n − ⌈3√n⌉)/usable, redrawn
// while they sum past n, then the other stations one uniform choice
// each. Returns every slot's count and adds the batch's redraws.
std::vector<std::uint64_t> replay_poisson_batch(Xoshiro256& rng,
                                                std::uint64_t pending,
                                                std::uint64_t window,
                                                std::uint64_t usable,
                                                std::uint64_t& redraws) {
  std::uint64_t n = pending;
  if (usable < window) {
    n = sample_binomial(rng, pending, static_cast<double>(usable) /
                                          static_cast<double>(window));
  }
  const double nd = static_cast<double>(n);
  const PoissonLaw law(std::max(0.0, nd - std::ceil(3.0 * std::sqrt(nd))) /
                       static_cast<double>(usable));
  std::vector<std::uint64_t> counts(usable);
  for (;;) {
    std::uint64_t drawn = 0;
    for (std::uint64_t& count : counts) {
      count = law.draw(rng);
      drawn += count;
    }
    if (drawn <= n) {
      for (std::uint64_t i = drawn; i < n; ++i) {
        ++counts[rng.next_below(usable)];
      }
      return counts;
    }
    ++redraws;
  }
}

TEST(BatchedWindowEngine, PoissonBatchReplaysFromACopyOfTheStream) {
  // The recorded delivery slots of one dense window must be the offsets
  // of a replayed batch that exactly one station took, with every count
  // and the generator's state after the window equal. The first two
  // cases draw their counts by the CDF walk (λ' near 9), the third by
  // PTRS (λ' = 45), and the last has its window cut by the cap; across
  // their seeds some batches sum past n and are redrawn.
  const WindowCase cases[] = {
      {1000, 100, 100},  // λ' = 9.05
      {200, 25, 25},     // λ' = 6.24
      {1000, 20, 20},    // λ' = 45.25
      {1000, 100, 60},   // a binomial n near 600, λ' near 8.8
  };
  std::uint64_t redraws = 0;
  for (const WindowCase& c : cases) {
    SCOPED_TRACE(testing::Message() << "k=" << c.k << " W=" << c.window
                                    << " cap=" << c.max_slots);
    for (std::uint64_t seed = 0; seed < 3000; ++seed) {
      SCOPED_TRACE(testing::Message() << "seed=" << seed);
      Xoshiro256 rng = Xoshiro256::stream(932, seed);
      Xoshiro256 replay = rng;
      const std::vector<std::uint64_t> counts = replay_poisson_batch(
          replay, c.k, c.window, c.max_slots, redraws);
      std::vector<std::uint64_t> singletons;
      std::uint64_t stations = 0;
      std::uint64_t silent = 0;
      std::uint64_t collided = 0;
      for (std::uint64_t slot = 0; slot < counts.size(); ++slot) {
        stations += counts[slot];
        if (counts[slot] == 0) ++silent;
        if (counts[slot] == 1) singletons.push_back(slot);
        if (counts[slot] >= 2) ++collided;
      }

      FixedWindow schedule(c.window);
      EngineOptions opts;
      opts.max_slots = c.max_slots;
      opts.record_deliveries = true;
      const RunMetrics m =
          run_fair_window_engine(schedule, c.k, rng, batched_mode(opts));
      ASSERT_EQ(m.delivery_slots, singletons);
      ASSERT_EQ(m.transmissions, stations);
      ASSERT_EQ(m.silence_slots, silent);
      ASSERT_EQ(m.collision_slots, collided);
      ASSERT_EQ(rng.next_u64(), replay.next_u64());
    }
  }
  EXPECT_GT(redraws, 0u);
}

TEST(BatchedWindowEngine, MeanMakespanMatchesExactEngine) {
  RunningStats exact_stats;
  RunningStats batched_stats;
  const int runs = 300;
  for (int r = 0; r < runs; ++r) {
    FixedWindow exact_schedule(32);
    FixedWindow batched_schedule(32);
    Xoshiro256 rng_a = Xoshiro256::stream(940, r);
    Xoshiro256 rng_b = Xoshiro256::stream(941, r);
    exact_stats.add(static_cast<double>(
        run_fair_window_engine(exact_schedule, 24, rng_a, {}).slots));
    batched_stats.add(static_cast<double>(
        run_fair_window_engine(batched_schedule, 24, rng_b, batched_mode())
            .slots));
  }
  const double se = std::sqrt(exact_stats.variance() / runs +
                              batched_stats.variance() / runs);
  EXPECT_NEAR(exact_stats.mean(), batched_stats.mean(),
              4.0 * se + 0.02 * exact_stats.mean());
}

TEST(BatchedWindowEngine, RejectsObserver) {
  FixedWindow schedule(8);
  Xoshiro256 rng(56);
  CountingObserver observer;
  EngineOptions opts;
  opts.observer = &observer;
  EXPECT_THROW(run_fair_window_engine(schedule, 2, rng, batched_mode(opts)),
               ContractViolation);
}

TEST(BatchedWindowEngine, RejectsZeroK) {
  FixedWindow schedule(4);
  Xoshiro256 rng(57);
  EXPECT_THROW(run_fair_window_engine(schedule, 0, rng, batched_mode()),
               ContractViolation);
}

}  // namespace
}  // namespace ucr
