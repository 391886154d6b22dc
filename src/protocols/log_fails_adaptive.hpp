// Log-Fails Adaptive — the comparison baseline of the paper, i.e. the
// k-selection protocol of Fernández Anta & Mosteiro (DMAA 2(4), 2010),
// reference [7] of the paper.
//
// RECONSTRUCTION NOTICE: [7]'s pseudocode is not reproduced in the paper,
// so this is a reconstruction from the paper's own description of it. What
// that description fixes, and why each remaining choice was made, is in
// docs/PROTOCOLS.md "Log-Fails Adaptive (2)".
//
// Reconstruction (two phases, each updating only after a logarithmic
// number of accumulated silent AT steps — "fails"):
//
//   SEARCH (no delivery heard yet): every F_s =
//   ceil((1/xi_beta) ln^2(1/epsilon)) fails multiply kappa~ by
//   (1 + xi_delta).
//
//   TRACK (after the first delivery): every F_t =
//   ceil((1/xi_beta) ln(1/epsilon)) accumulated silent AT steps add F_t to
//   kappa~ (a batched version of One-Fail Adaptive's +1 per AT step), and
//   every delivery subtracts e from kappa~.
//
// A BT step occurs once every round(1/xi_t) slots and transmits with the
// fixed probability 1/(1 + log2(1/epsilon)); every other step is an AT
// step transmitting with 1/kappa~.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>

#include "common/check.hpp"
#include "sim/protocol.hpp"
#include "sim/runner.hpp"

namespace ucr {

/// Tunables of Log-Fails Adaptive (defaults are the paper's choices).
struct LogFailsParams {
  /// Interleaving fraction: one BT step every round(1/xi_t) slots.
  double xi_t = 0.5;
  /// Multiplicative estimator increase factor (1 + xi_delta) in SEARCH.
  double xi_delta = 0.1;
  /// Fail-threshold scale: F_s = ceil((1/xi_beta) ln^2(1/epsilon)) during
  /// SEARCH, F_t = ceil((1/xi_beta) ln(1/epsilon)) during TRACK.
  double xi_beta = 0.1;
  /// Error parameter; must satisfy epsilon <= 1/(k+1). 0 means "derive
  /// 1/(k+1) from the workload when the factory is instantiated".
  double epsilon = 0.0;

  void validate() const;
};

/// The state machine (see file comment for the reconstruction): the shared
/// state of all active stations under batched arrivals; under dynamic
/// arrivals each station runs its own copy (FairSlotStation,
/// sim/protocol.hpp).
class LogFailsAdaptive final : public FairSlotProtocol {
 public:
  /// `k` is used only to derive epsilon when params.epsilon == 0.
  LogFailsAdaptive(const LogFailsParams& params, std::uint64_t k);

  /// Steps are 1-based; step t is a BT step iff t is a multiple of
  /// bt_period().
  bool is_bt_step() const { return phase_ == 0; }
  double transmit_probability() const override {
    return is_bt_step() ? bt_prob_ : at_prob_;
  }
  void on_slot_end(bool heard_delivery) override {
    if (heard_delivery) {
      hear_delivery();
    } else if (!is_bt_step()) {
      // A silent/collided AT step is a "fail"; the estimator is adjusted
      // only once F of them accumulate (hence "Log-fails").
      ++fails_;
      if (fails_ >= fail_threshold()) cross_fail_threshold();
    }
    if (++phase_ == bt_period_) phase_ = 0;
  }

  /// The batching hint: BT steps every bt_period() slots with the fixed
  /// BT probability, AT steps with 1/kappa~ in between, up to and
  /// including the AT step that reaches the fail threshold, the last one
  /// whose probability is known before it is taken. After a SEARCH->TRACK
  /// switch fails_ may already be at or above the (smaller) TRACK
  /// threshold; the very next AT fail then updates kappa, and the cycle
  /// ends there.
  SlotCycle slot_cycle() const override {
    const std::uint64_t threshold = fail_threshold();
    const std::uint64_t at_steps = fails_ >= threshold ? 1 : threshold - fails_;
    const std::uint64_t to_bt = phase_ == 0 ? 0 : bt_period_ - phase_;
    // The at_steps-th AT step is among the to_bt steps before the next BT
    // step, or else AT step `after` of the bt_period_ - 1 that follow each
    // BT step from the next one on.
    std::uint64_t slots = at_steps;
    if (at_steps > to_bt) {
      const std::uint64_t after = at_steps - to_bt - 1;
      const std::uint64_t per_period = bt_period_ - 1;
      slots = to_bt + 2 + after / per_period * bt_period_ + after % per_period;
    }
    return {slots, bt_period_, to_bt, at_prob_, bt_prob_};
  }

  /// Bulk equivalent of `count` on_slot_end(false) calls, in O(1) with
  /// one division. Requires count <= slot_cycle().slots: the skipped BT
  /// steps are no fails, the AT steps are, and at most the final AT step
  /// crosses the fail threshold.
  void on_non_delivery_slots(std::uint64_t count) override {
    if (count == 0) return;
    // The count steps are phase_ .. phase_ + count - 1 modulo bt_period_,
    // and the BT steps among them are the multiples of bt_period_.
    const std::uint64_t last = phase_ + count - 1;
    const std::uint64_t bt_steps = last / bt_period_ + (phase_ == 0 ? 1 : 0);
    phase_ = last % bt_period_ + 1;
    if (phase_ == bt_period_) phase_ = 0;
    const std::uint64_t at_steps = count - bt_steps;
    if (at_steps == 0) return;
    const std::uint64_t threshold = fail_threshold();
    UCR_CHECK(fails_ + at_steps <= std::max(threshold, fails_ + 1),
              "bulk advance beyond the fail-threshold crossing");
    fails_ += at_steps;
    if (fails_ >= threshold) cross_fail_threshold();
  }

  /// True while no delivery has been heard yet (multiplicative climb).
  bool in_search_phase() const { return searching_; }

  double kappa_estimate() const { return kappa_; }
  std::uint64_t fail_count() const { return fails_; }
  /// The active threshold (SEARCH or TRACK value depending on the phase).
  std::uint64_t fail_threshold() const {
    return searching_ ? search_threshold_ : track_threshold_;
  }
  std::uint64_t search_threshold() const { return search_threshold_; }
  std::uint64_t track_threshold() const { return track_threshold_; }
  std::uint64_t bt_period() const { return bt_period_; }
  double bt_probability() const { return bt_prob_; }

  /// Initial (and minimum) estimator value.
  static constexpr double kKappaFloor = 2.0;
  /// TRACK-phase decrease per delivery (e; see file comment).
  static double track_decrease();

 private:
  // on_slot_end()'s rare branches, out of line: a heard delivery, and the
  // estimator update once fails_ reaches the threshold.
  void hear_delivery();
  void cross_fail_threshold();
  void set_kappa(double kappa) {
    kappa_ = kappa;
    at_prob_ = 1.0 / kappa_;
  }

  LogFailsParams params_;
  std::uint64_t bt_period_;
  std::uint64_t search_threshold_;
  std::uint64_t track_threshold_;
  double bt_prob_;
  double kappa_ = kKappaFloor;
  double at_prob_ = 1.0 / kKappaFloor;  // 1.0 / kappa_, set with kappa_
  bool searching_ = true;
  std::uint64_t fails_ = 0;
  // The current step modulo bt_period_ (steps are 1-based, so step 1 is
  // phase 1): a counter instead of a division per step.
  std::uint64_t phase_ = 1;
};

/// Factory; the default name encodes xi_t the way the paper labels curves,
/// e.g. "Log-Fails Adaptive (2)" for xi_t = 1/2.
ProtocolFactory make_log_fails_factory(const LogFailsParams& params = {},
                                       std::string name = "");

}  // namespace ucr
