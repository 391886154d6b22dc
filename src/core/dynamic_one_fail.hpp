// Dynamic One-Fail Adaptive — this repository's instantiation of the
// paper's Section 6 future work ("the study of the dynamic version of the
// problem when messages arrive at different times").
//
// Why a variant is needed at all: the dynamic-arrival experiments
// (bench/dynamic_arrivals_bench, EXPERIMENTS.md) show that Algorithm 1
// as published LIVELOCKS under sustained arrivals — every newly activated
// station has sigma = 0 and therefore transmits with probability 1 in
// every BT step, so with a steady arrival stream the BT sub-channel
// collides forever, and the fresh stations' low initial estimators keep
// disrupting the AT sub-channel too.
//
// The variant keeps the One-Fail estimator dynamics (+1 per silent step,
// -(delta) net per heard delivery, floor delta+1) but
//  * drops the BT interleave entirely — every slot is an AT slot (the BT
//    algorithm exists to finish a *batch's* O(log k) tail; a dynamic
//    system has no final tail), and
//  * starts new arrivals in a sawtooth FAST-START until the first heard
//    delivery: kappa~ doubles every silent slot, and whenever it crosses
//    the current ceiling it resets to the floor and the ceiling doubles
//    (the Exp Back-on/Back-off trick applied to the probability scale).
//    Plain doubling alone would be incorrect: an isolated station's total
//    transmission probability sum_t 1/(F*2^t) converges to ~0.54, so it
//    might never transmit at all; the sawtooth revisits the high
//    probabilities once per phase and keeps every station live, while a
//    late arrival still reaches the backlog's scale in O(log^2) slots
//    instead of disrupting the channel for Theta(backlog) slots.
//
// Dropping BT removes Algorithm 1's escape hatch against estimator
// overshoot (when kappa~ >> kappa, silence makes kappa~ grow further and
// the last stragglers starve — BT's sigma-based probability was immune to
// that). The variant's replacement: after kSilenceLimit consecutive slots
// without hearing any delivery, the station re-enters the sawtooth
// fast-start from the floor. The resweep revisits every probability scale
// in O(log^2) slots, so both an isolated station and an over-estimated
// tail recover; during a healthy drain deliveries arrive every ~(1+delta)
// slots and the limit is never hit.
//
// Under batched arrivals the variant is fair and solves static k-selection
// in ~(delta+1)k slots — HALF of Algorithm 1's 2(delta+1)k, because no
// slots are spent on BT steps (it forfeits Algorithm 1's analyzed
// O(log^2 k) tail guarantee in exchange). Under Poisson arrivals it
// remains live where the original livelocks; its measured envelope is
// reported in EXPERIMENTS.md.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>

#include "core/one_fail_adaptive.hpp"

namespace ucr {

/// The dynamic variant's state machine: the shared state of all active
/// stations under batched arrivals; under dynamic arrivals (the case that
/// matters) each station runs its own copy (FairSlotStation,
/// sim/protocol.hpp).
class DynamicOneFail final : public FairSlotProtocol {
 public:
  explicit DynamicOneFail(const OneFailParams& params = {});

  /// Per-station transmission probability (1/kappa~ every slot).
  double transmit_probability() const override { return 1.0 / kappa_; }

  /// End-of-slot update; `heard_delivery` as in
  /// OneFailAdaptive::on_slot_end.
  void on_slot_end(bool heard_delivery) override {
    const double floor = params_.delta + 1.0;
    if (heard_delivery) {
      fast_start_ = false;
      silent_run_ = 0;
      // Same net effect as Algorithm 1's AT success: -(delta).
      kappa_ = std::max(kappa_ - params_.delta, floor);
      return;
    }
    if (fast_start_) {
      kappa_ *= 2.0;
      if (kappa_ > ceiling_) {
        // Sawtooth: restart the sweep one octave higher (see file comment).
        kappa_ = floor;
        ceiling_ *= 2.0;
      }
      return;
    }
    kappa_ += 1.0;  // One-Fail climb
    if (++silent_run_ >= kSilenceLimit) {
      // The channel has gone quiet: our estimate is likely far above the
      // true density. Resweep all scales (see file comment).
      fast_start_ = true;
      silent_run_ = 0;
      kappa_ = floor;
      ceiling_ = 2.0 * floor;
    }
  }

  // No slot_cycle() override, like OneFailAdaptive: kappa~ moves on
  // every slot — +1 per silent track step, doubling (or the sawtooth
  // reset) per fast-start step, -(1+delta) on deliveries — so no two
  // consecutive slots share a probability, and the default one-slot cycle
  // holds. The batched fair engine takes its thinned step
  // (sim/fair_engine.hpp); the batched node engine degenerates to (and
  // stays bit-identical with) the exact per-slot path.

  double kappa_estimate() const { return kappa_; }
  /// True while sweeping (before the first heard delivery, or after a
  /// silence-triggered resweep).
  bool in_fast_start() const { return fast_start_; }
  /// Current fast-start ceiling (phase upper bound on kappa~).
  double fast_start_ceiling() const { return ceiling_; }
  /// Consecutive slots without a heard delivery (track mode only).
  std::uint64_t silent_run() const { return silent_run_; }

  /// Delivery-free slots tolerated in track mode before a resweep.
  static constexpr std::uint64_t kSilenceLimit = 32;

 private:
  OneFailParams params_;
  double kappa_;
  double ceiling_;
  bool fast_start_ = true;
  std::uint64_t silent_run_ = 0;
};

/// Bundles both views for the experiment runner.
ProtocolFactory make_dynamic_one_fail_factory(
    const OneFailParams& params = {},
    std::string name = "Dynamic One-Fail Adaptive");

}  // namespace ucr
