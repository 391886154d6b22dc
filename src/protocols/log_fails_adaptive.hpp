// Log-Fails Adaptive — the comparison baseline of the paper, i.e. the
// k-selection protocol of Fernández Anta & Mosteiro (DMAA 2(4), 2010),
// reference [7] of the paper.
//
// RECONSTRUCTION NOTICE (see DESIGN.md §5.1): [7]'s pseudocode is not
// reproduced in the paper, so this is a faithful-in-spirit reconstruction
// from the paper's own description of it:
//   * two interleaved algorithms AT/BT, like One-Fail Adaptive;
//   * the BT transmission probability is *fixed* (vs. OFA's adaptive one);
//   * the AT probability is 1/kappa~, with the estimator updated only
//     "after some steps without communication" (vs. OFA's every step) —
//     hence the name the paper gives it: *Log-fails* Adaptive;
//   * it requires knowledge of epsilon <= 1/(n+1), i.e. of a bound on the
//     number of stations; the evaluation uses epsilon ~= 1/(k+1).
//
// Reconstruction (two phases, each updating only after a logarithmic
// number of accumulated silent AT steps — "fails"):
//
//   SEARCH (no delivery heard yet): every F_s =
//   ceil((1/xi_beta) ln^2(1/epsilon)) fails multiply kappa~ by
//   (1 + xi_delta). The quadratic threshold (a union bound over the whole
//   climb, which must succeed w.p. 1-epsilon) is the expensive
//   Theta(log^3) cold start that reproduces [7]'s observed pathology at
//   small-to-moderate k.
//
//   TRACK (after the first delivery): every F_t =
//   ceil((1/xi_beta) ln(1/epsilon)) accumulated silent AT steps add F_t to
//   kappa~ (a batched version of One-Fail Adaptive's +1 per AT step), and
//   every delivery subtracts e from kappa~. The drift balance
//   (+1 per silent AT step amortized, -e per delivery) makes the estimator
//   lock onto the true density, for an asymptotic per-delivery cost of
//   ~(e+1) AT steps — matching [7]'s published (e+1+xi)k bound and hence
//   the Table 1 "Analysis" entries 7.8 (xi_t = 1/2) and 4.4 (xi_t = 1/10)
//   once divided by the AT-step density 1 - xi_t.
//
// A BT step occurs once every round(1/xi_t) slots (the only reading of
// xi_t under which [7]'s two analysis ratios follow from its bound).
// BT transmits with the fixed probability 1/(1 + log2(1/epsilon)).
#pragma once

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
    next_steps(1);
  }

  /// Slots (including the current one) over which transmit_probability()
  /// stays constant absent a delivery: up to the next BT step or the next
  /// fail-threshold crossing, whichever comes first. Always >= 1; the
  /// batched fair engine uses it to resolve whole runs of AT fails at
  /// once.
  std::uint64_t constant_probability_slots() const override {
    if (is_bt_step()) return 1;  // the next step is AT with p = 1/kappa
    const std::uint64_t to_bt_step = bt_period_ - phase_;
    // A SEARCH->TRACK switch can leave fails_ at or above the (smaller)
    // TRACK threshold; the very next AT fail then updates kappa.
    const std::uint64_t threshold = fail_threshold();
    const std::uint64_t to_threshold =
        fails_ >= threshold ? 1 : threshold - fails_;
    return to_bt_step < to_threshold ? to_bt_step : to_threshold;
  }

  /// Bulk equivalent of `count` on_slot_end(false) calls. Requires
  /// count <= constant_probability_slots(): every skipped step is then an
  /// AT fail and at most the final one crosses the fail threshold.
  void on_non_delivery_slots(std::uint64_t count) override {
    UCR_CHECK(count <= constant_probability_slots(),
              "bulk advance beyond the constant-probability horizon");
    if (is_bt_step()) {
      // Horizon is 1 here and a BT step is not a fail; replay exactly.
      for (; count > 0; --count) on_slot_end(false);
      return;
    }
    fails_ += count;
    next_steps(count);
    if (fails_ >= fail_threshold()) cross_fail_threshold();
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
  // Moves `count` steps on; never past the next BT step (count <=
  // bt_period_ - phase_ whenever phase_ > 0, and count == 1 at phase 0).
  void next_steps(std::uint64_t count) {
    phase_ += count;
    if (phase_ == bt_period_) phase_ = 0;
  }
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
