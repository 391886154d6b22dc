// The per-node engine's loop, written once as a function template over the
// station element type (sim/node_engine.hpp, run_node_engine<Station>).
//
// Include this header only where the loop is instantiated, once per
// station element type:
//  * node_engine.cpp explicitly, for BoxedStation;
//  * window_node.cpp explicitly, for WindowNodeProtocol (every window
//    protocol);
//  * the .cpp file defining each slot protocol's make_*_factory,
//    implicitly: its slot_protocol_factory call (sim/runner.hpp) builds a
//    node_view<FairSlotStation<Fair>>, whose run entry point instantiates
//    the loop for FairSlotStation<Fair> there.
//
// Station state lives in a StationSoA<Station> (sim/station_soa.hpp):
// parallel arrays instead of a vector of per-station structs, so each
// per-slot pass is a tight loop over contiguous arrays, and for a catalogue
// class the protocol calls inline into it. The passes visit stations in
// index order — the same order as the historical struct-of-vectors loops,
// and the protocol automata consume no engine randomness in
// transmit_probability() — so the RNG stream is consumed identically and
// both modes are bit-identical to the pre-SoA layout for every element
// type (pinned by tests/integration/golden_test.cpp, the spec-catalogue
// outputs and tests/sim/typed_station_test.cpp).
#pragma once

#include <algorithm>
#include <vector>

#include "common/check.hpp"
#include "common/mathx.hpp"
#include "common/samplers.hpp"
#include "sim/node_engine.hpp"
#include "sim/observer.hpp"
#include "sim/station_soa.hpp"

namespace ucr {

template <class Station>
RunMetrics run_node_engine(const StationFactory<Station>& factory,
                           const ArrivalPattern& arrivals, Xoshiro256& rng,
                           const EngineOptions& options) {
  UCR_REQUIRE(std::is_sorted(arrivals.begin(), arrivals.end()),
              "arrival pattern must be sorted");
  const std::uint64_t k = arrivals.size();
  UCR_REQUIRE(k > 0, "workload must contain at least one message");
  options.channel.validate();
  if (options.batched) {
    UCR_REQUIRE(options.observer == nullptr,
                "the batched engine never materializes skipped slots; "
                "per-slot observers require the exact engine");
    UCR_REQUIRE(options.channel.is_clean(),
                "the batched node engine's stationary-stretch certificates "
                "assume the clean channel; imperfect channel models "
                "(channel/model.hpp) require the exact node engine — the exp "
                "pipeline routes non-clean grids there automatically");
  }

  RunMetrics metrics;
  metrics.k = k;
  // At most k deliveries: reserved once, no growth transient.
  if (options.record_deliveries) metrics.delivery_slots.reserve(k);
  if (options.record_latencies) metrics.latencies.reserve(k);
  const std::uint64_t cap = options.resolved_cap(k);
  KahanSum expected_tx;

  StationSoA<Station> active;
  active.reserve(std::min<std::uint64_t>(k, 1u << 20));
  std::size_t next_arrival = 0;
  std::vector<double> weights;  // success-attribution weights, reused

  std::uint64_t now = 0;
  std::uint64_t last_delivery_slot = 0;

  // Shared success bookkeeping of the one-slot step and the stretch path.
  const auto finish_delivery = [&](std::size_t index) {
    ++metrics.success_slots;
    ++metrics.deliveries;
    last_delivery_slot = now;
    if (options.record_deliveries) {
      metrics.delivery_slots.push_back(now);
    }
    if (options.record_latencies) {
      metrics.latencies.push_back(now - active.arrival_slot(index) + 1);
    }
    // Fold the delivered station's energy, then swap-remove it (station
    // order is irrelevant to the model).
    metrics.max_station_transmissions =
        std::max(metrics.max_station_transmissions, active.sent(index));
    active.swap_remove(index);
  };

  while (metrics.deliveries < k && now < cap) {
    while (next_arrival < arrivals.size() && arrivals[next_arrival] <= now) {
      active.activate(factory, rng, arrivals[next_arrival]);
      ++next_arrival;
    }

    if (options.batched && active.empty()) {
      // No station can transmit before the next arrival: the whole gap is
      // silence. No randomness is consumed — exact mode draws no coins in
      // empty clean-channel slots either, so bit-identity survives the
      // skip. Exact mode never skips: a jammed slot draws its coin even
      // when nobody transmits.
      const std::uint64_t until =
          next_arrival < arrivals.size()
              ? std::min(arrivals[next_arrival], cap)
              : cap;
      metrics.silence_slots += until - now;
      now = until;
      continue;
    }

    // Exact mode: one fused pass draws every station's probability and
    // coin. Batched mode: the first pass gathers the probabilities, the
    // joint stationarity horizon and the slot's category law; only a
    // one-slot step then draws the coins.
    typename StationSoA<Station>::SlotLaw law;
    std::uint64_t stretch = 1;
    std::uint64_t transmitters = 0;
    if (!options.batched) {
      transmitters = active.gather_and_draw(rng, law.p_sum);
    } else {
      law = active.gather_slot_law();
      UCR_CHECK(law.horizon >= 1, "stationary horizon must be >= 1");
      stretch = std::min(law.horizon, cap - now);
      if (next_arrival < arrivals.size()) {
        // A new station voids every stationarity certificate: truncate the
        // stretch at the next arrival (> now after the activation loop).
        stretch = std::min(stretch, arrivals[next_arrival] - now);
      }
      if (stretch == 1) transmitters = active.draw_transmissions(rng);
    }

    if (stretch == 1) {
      // One slot: one Bernoulli coin per station, in index order — the
      // same draws in both modes, which is the bit-identity contract for
      // default-hint workloads. The channel model then classifies the slot
      // (clean draws no coins; jam and capture coins come from the
      // engine's stream, after the per-station Bernoulli draws).
      const SlotOutcome outcome =
          options.channel.resolve(now, transmitters, rng);
      metrics.transmissions += transmitters;
      expected_tx.add(static_cast<double>(transmitters));

      if (options.observer != nullptr) {
        // SlotView::probability is the mean per-station probability (0
        // with no active stations) — the heterogeneous-state
        // generalization of the fair engines' common probability.
        const double mean_probability =
            active.empty()
                ? 0.0
                : law.p_sum / static_cast<double>(active.size());
        options.observer->on_slot(
            SlotView{now, active.size(), mean_probability, outcome});
      }

      // Who delivered? On the clean channel a success slot has exactly one
      // transmitter. Under capture the slot can have several: the winner
      // is uniform among them (i.i.d. fading ranks), drawn only then — the
      // clean path consumes no extra randomness.
      std::size_t delivered_index = active.size();
      if (outcome == SlotOutcome::kSuccess) {
        UCR_CHECK(transmitters >= 1, "success slot without any transmitter");
        delivered_index = active.nth_transmitter(
            transmitters == 1 ? 0 : rng.next_below(transmitters));
      }

      // Feedback. make_feedback covers the clean-channel observations; a
      // captured slot adds the one case it cannot express — a transmitter
      // that was NOT delivered during a success slot. Half-duplex radios
      // cannot receive while transmitting, so such a station hears nothing
      // (every flag false except its own `transmitted`), exactly like a
      // collision without CD.
      for (std::size_t i = 0; i < active.size(); ++i) {
        Feedback fb;
        if (outcome == SlotOutcome::kSuccess && active.transmitted(i) &&
            i != delivered_index) {
          fb.transmitted = true;
        } else {
          fb = make_feedback(outcome, active.transmitted(i),
                             options.collision_detection);
        }
        active.protocol(i).on_slot_end(fb);
      }
      if (outcome == SlotOutcome::kSuccess) {
        finish_delivery(delivered_index);
      } else if (outcome == SlotOutcome::kSilence) {
        ++metrics.silence_slots;
      } else {
        ++metrics.collision_slots;
      }
      ++now;
      continue;
    }

    // Stationary stretch: slots are i.i.d. categorical until the first
    // success, so the non-success run length is Geometric(s) truncated at
    // the stretch, the skipped slots split into silence vs collision with
    // one binomial draw, and every station advances in bulk. Only the
    // state-changing slot — the success, if the run ended in one — is
    // materialized. Deterministic silence (p_sum == 0, the pre-drawn
    // window adapter's certified run-ups and tails) flows through the same
    // code draw-free: the truncated geometric at s == 0 returns the full
    // stretch and the binomial at conditional == 1 returns it back without
    // touching the engine stream, preserving bit-identity with exact mode
    // across the skip.
    const auto [failures, silent] = sample_stretch(rng, law.s, law.q, stretch);
    const bool delivered = failures < stretch;
    metrics.silence_slots += silent;
    metrics.collision_slots += failures - silent;
    // Unconditional per-slot expectation over the whole stretch, success
    // slot included — the stopping time (first success) is adapted, so by
    // Wald's identity p_sum * E[stretch length] equals the expected
    // realized transmission count; adding the realized 1 of the success
    // slot instead would bias the estimator by 1 - p_sum per delivery
    // (the fair slot engine's batched mode uses the same convention).
    expected_tx.add(law.p_sum *
                    static_cast<double>(failures + (delivered ? 1 : 0)));
    now += failures;
    for (std::size_t i = 0; i < active.size(); ++i) {
      active.protocol(i).on_non_delivery_slots(failures);
    }
    if (!delivered) continue;

    // The success slot has exactly one transmitter: station i with
    // probability proportional to w_i = p_i * prod_{j != i} (1 - p_j).
    // With one active station the attribution is deterministic — the
    // common case under sparse arrivals. Otherwise suffix products
    // followed by a prefix walk keep the weights exact for p in {0, 1}.
    const std::vector<double>& probs = active.probs();
    std::size_t chosen = 0;
    if (active.size() > 1) {
      weights.resize(active.size());
      double suffix = 1.0;
      for (std::size_t i = active.size(); i-- > 0;) {
        weights[i] = probs[i] * suffix;
        suffix *= 1.0 - probs[i];
      }
      double total = 0.0;
      double prefix = 1.0;
      for (std::size_t i = 0; i < active.size(); ++i) {
        weights[i] *= prefix;
        total += weights[i];
        prefix *= 1.0 - probs[i];
      }
      UCR_CHECK(total > 0.0, "success slot with zero success probability");
      double u = rng.next_double() * total;
      chosen = active.size();
      for (std::size_t i = 0; i < active.size(); ++i) {
        if (weights[i] <= 0.0) continue;
        chosen = i;  // last positive-weight station absorbs rounding
        if (u < weights[i]) break;
        u -= weights[i];
      }
      UCR_CHECK(chosen < active.size(),
                "failed to attribute the success slot to a transmitter");
    }
    ++metrics.transmissions;
    active.add_sent(chosen);
    for (std::size_t i = 0; i < active.size(); ++i) {
      const Feedback fb = make_feedback(SlotOutcome::kSuccess, i == chosen,
                                        options.collision_detection);
      active.protocol(i).on_slot_end(fb);
    }
    finish_delivery(chosen);
    ++now;
  }
  // Incomplete runs (and stations that never drained): their energy
  // spend counts too.
  metrics.max_station_transmissions =
      std::max(metrics.max_station_transmissions, active.max_sent());

  metrics.completed = metrics.deliveries == k;
  // Makespan is measured to the last delivery for completed runs (trailing
  // empty slots cannot occur: the loop exits right after the k-th delivery).
  metrics.slots = metrics.completed ? last_delivery_slot + 1 : cap;
  metrics.expected_transmissions = expected_tx.value();
  metrics.validate();
  return metrics;
}

}  // namespace ucr
