// One-Fail Adaptive — Algorithm 1 of the paper (the primary contribution).
//
// Two interleaved sub-algorithms handle different contention regimes:
//  * AT (odd communication steps): transmit with probability 1/kappa~, where
//    kappa~ is a *density estimator* raised by 1 every AT step and lowered
//    by delta+1 on every reception (so the net effect of a successful AT
//    step is -delta);
//  * BT (even communication steps): transmit with probability
//    1/(1 + log2(sigma + 1)), where sigma counts messages received so far —
//    intended for the regime where only O(log) messages remain.
//
// Constant: e < delta <= sum_{j=1..5} (5/6)^j ≈ 2.9906; the paper's
// evaluation uses delta = 2.72.
//
// Theorem 1: solves static k-selection within 2(delta+1)k + O(log^2 k)
// steps with probability at least 1 - 2/(1+k). With delta = 2.72 the linear
// coefficient is 7.44 — the "7.4" analysis entry of Table 1.
#pragma once

#include <cstdint>
#include <memory>

#include "sim/protocol.hpp"
#include "sim/runner.hpp"

namespace ucr {

/// Tunables of One-Fail Adaptive.
struct OneFailParams {
  /// The paper's delta; must satisfy e < delta <= sum_{j=1..5}(5/6)^j.
  double delta = 2.72;

  /// Largest admissible delta: sum_{j=1..5} (5/6)^j.
  static double delta_upper_bound();

  /// Throws ContractViolation if delta is outside the admissible range.
  void validate() const;
};

/// Algorithm 1's state machine. Under batched arrivals it is the shared
/// state of every active station (the fair view); under dynamic arrivals
/// each station runs its own copy through FairSlotStation
/// (sim/protocol.hpp). Communication steps are numbered from 1; step t is
/// a BT step iff t ≡ 0 (mod 2), matching the pseudocode.
class OneFailAdaptive final : public FairSlotProtocol {
 public:
  explicit OneFailAdaptive(const OneFailParams& params = {});

  /// True if the *current* step (the one whose probability
  /// transmit_probability() reports) is a BT step.
  bool is_bt_step() const { return step_ % 2 == 0; }

  /// Transmission probability for the current step: line 8's
  /// 1/(1 + log2(sigma + 1)) on a BT step, line 10's 1/kappa~ on an AT
  /// step (kappa~ >= delta + 1 > 1, so it is a probability).
  double transmit_probability() const override {
    return is_bt_step() ? bt_probability_ : 1.0 / kappa_;
  }

  /// Applies the end-of-step updates (Task 1 line 11 and Task 2) and moves
  /// to the next step. `heard_delivery` is true iff some other station's
  /// message was delivered in this step.
  void on_slot_end(bool heard_delivery) override {
    if (heard_delivery) {
      hear_delivery();
    } else if (!is_bt_step()) {
      kappa_ += 1.0;  // Task 1 line 11 (every AT step)
    }
    ++step_;
  }

  /// The estimator moves every AT step and AT/BT steps alternate, so no
  /// two consecutive slots share a probability: the batched engine
  /// degenerates to (and stays bit-identical with) the exact per-slot
  /// path.
  std::uint64_t constant_probability_slots() const override { return 1; }

  double kappa_estimate() const { return kappa_; }
  std::uint64_t sigma() const { return sigma_; }
  std::uint64_t step() const { return step_; }
  const OneFailParams& params() const { return params_; }

 private:
  // on_slot_end()'s heard-delivery branch, out of line: the same updates
  // as a silent step plus Task 2's decrease and the sigma / line 8 update.
  void hear_delivery();

  OneFailParams params_;
  double kappa_;          // the density estimator kappa~
  std::uint64_t sigma_ = 0;  // messages received so far
  std::uint64_t step_ = 1;   // current communication step (1-based)
  // Line 8's 1/(1 + log2(sigma + 1)), recomputed only when sigma moves.
  double bt_probability_ = 1.0;
};

/// Bundles both views for the experiment runner.
ProtocolFactory make_one_fail_factory(const OneFailParams& params = {},
                                      std::string name = "One-Fail Adaptive");

}  // namespace ucr
