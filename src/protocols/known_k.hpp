// Known-k genie — a fair protocol that transmits with probability 1/kappa
// where kappa is the *true* number of still-active stations (it knows k and
// counts deliveries, which are common knowledge).
//
// Not a contender (it uses information the problem denies); it realizes the
// remark in Section 5 of the paper that "the smallest ratio expected by any
// algorithm in which nodes use the same probability at any step is e", and
// serves as the optimum reference line in the benches.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/check.hpp"
#include "sim/protocol.hpp"
#include "sim/runner.hpp"

namespace ucr {

/// The genie's automaton: k minus the deliveries heard so far. Under
/// batched arrivals it is the shared state of all active stations; under
/// dynamic arrivals each station keeps its own count (FairSlotStation,
/// sim/protocol.hpp).
class KnownKGenie final : public FairSlotProtocol {
 public:
  explicit KnownKGenie(std::uint64_t k);

  double transmit_probability() const override {
    UCR_CHECK(remaining_ > 0, "probability requested after completion");
    return 1.0 / static_cast<double>(remaining_);
  }
  void on_slot_end(bool delivery) override {
    if (delivery) {
      UCR_CHECK(remaining_ > 0, "delivery after completion");
      --remaining_;
    }
  }

  /// The genie's probability changes only on deliveries: its cycle is an
  /// unbounded constant-probability stretch (period 1), so the batched
  /// engines may skip any number of non-delivery slots at once — the whole
  /// run costs O(k) regardless of makespan — and the bulk advance is a
  /// no-op.
  SlotCycle slot_cycle() const override {
    const double p = transmit_probability();
    return {~std::uint64_t{0}, 1, 0, p, p};  // constant until a delivery
  }
  void on_non_delivery_slots(std::uint64_t /*count*/) override {}

  std::uint64_t remaining() const { return remaining_; }

 private:
  std::uint64_t remaining_;
};

/// Factory for the experiment runner.
ProtocolFactory make_known_k_factory(std::string name = "Known-k genie (1/k)");

}  // namespace ucr
