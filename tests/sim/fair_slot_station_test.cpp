// FairSlotStation<Fair> — the per-station view every slot protocol gets
// from its one automaton class — against the bare automaton. One walk per
// slot protocol feeds the station every kind of per-station feedback the
// node engine produces and the bare automaton the common "did another
// station deliver" bit it stands for; the two must report the same
// transmission probability and horizon at every step.
#include "sim/protocol.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "channel/slot.hpp"
#include "common/rng.hpp"
#include "core/dynamic_one_fail.hpp"
#include "core/one_fail_adaptive.hpp"
#include "protocols/known_k.hpp"
#include "protocols/log_fails_adaptive.hpp"

namespace ucr {
namespace {

// Log-Fails at xi_t = 1/10 certifies multi-slot horizons, so the walk's
// bulk advances are more than one slot; the genie's k leaves room for
// every heard delivery of the walk.
template <class Fair>
Fair make_automaton() {
  if constexpr (std::is_same_v<Fair, LogFailsAdaptive>) {
    LogFailsParams params;
    params.xi_t = 0.1;
    return LogFailsAdaptive(params, 1000);
  } else if constexpr (std::is_same_v<Fair, KnownKGenie>) {
    return KnownKGenie(100000);
  } else {
    return Fair(OneFailParams{});
  }
}

enum class Step {
  kOwnDelivery,    // the station's own message got through
  kHeardDelivery,  // another station's message got through
  kSilence,
  kCollision,      // with or without its own coin, with or without CD
  kCapturedLoss,   // transmitted in a captured success, not delivered
  kBulk,           // on_non_delivery_slots within the horizon
};
constexpr std::uint64_t kStepKinds = 6;

template <class Fair>
class FairSlotStationTest : public ::testing::Test {};

using SlotProtocols = ::testing::Types<OneFailAdaptive, LogFailsAdaptive,
                                       DynamicOneFail, KnownKGenie>;

struct ProtocolName {
  template <class Fair>
  static std::string GetName(int) {
    if (std::is_same_v<Fair, OneFailAdaptive>) return "OneFail";
    if (std::is_same_v<Fair, LogFailsAdaptive>) return "LogFails";
    if (std::is_same_v<Fair, DynamicOneFail>) return "DynamicOneFail";
    return "KnownKGenie";
  }
};
TYPED_TEST_SUITE(FairSlotStationTest, SlotProtocols, ProtocolName);

TYPED_TEST(FairSlotStationTest, TracksTheBareAutomaton) {
  FairSlotStation<TypeParam> station(make_automaton<TypeParam>());
  TypeParam bare = make_automaton<TypeParam>();

  // An own delivery on the first step, then one on a step after two heard
  // deliveries moved every automaton (for One-Fail: a BT step at sigma = 2,
  // whose cached line-8 probability must survive), then a random walk.
  std::vector<Step> steps = {Step::kOwnDelivery, Step::kHeardDelivery,
                             Step::kHeardDelivery, Step::kSilence,
                             Step::kOwnDelivery};
  Xoshiro256 rng(2026);
  while (steps.size() < 4000) {
    steps.push_back(static_cast<Step>(rng.next_below(kStepKinds)));
  }

  for (std::size_t i = 0; i < steps.size(); ++i) {
    ASSERT_EQ(station.transmit_probability(), bare.transmit_probability())
        << "step " << i;
    ASSERT_EQ(station.stationary_slots(), bare.constant_probability_slots())
        << "step " << i;
    if constexpr (std::is_same_v<TypeParam, OneFailAdaptive>) {
      if (i == 4) {
        ASSERT_TRUE(station.automaton().is_bt_step());
        ASSERT_EQ(station.automaton().sigma(), 2u);
      }
    }
    switch (steps[i]) {
      case Step::kOwnDelivery:  // the station stops: nothing may move
        station.on_slot_end(make_feedback(SlotOutcome::kSuccess, true));
        break;
      case Step::kHeardDelivery:
        station.on_slot_end(make_feedback(SlotOutcome::kSuccess, false));
        bare.on_slot_end(true);
        break;
      case Step::kSilence:
        station.on_slot_end(make_feedback(SlotOutcome::kSilence, false));
        bare.on_slot_end(false);
        break;
      case Step::kCollision: {
        const bool transmitted = rng.next_bernoulli(0.5);
        const bool collision_detection = rng.next_bernoulli(0.5);
        station.on_slot_end(make_feedback(SlotOutcome::kCollision,
                                          transmitted, collision_detection));
        bare.on_slot_end(false);
        break;
      }
      case Step::kCapturedLoss: {
        Feedback fb;  // half-duplex: a losing transmitter hears nothing
        fb.transmitted = true;
        station.on_slot_end(fb);
        bare.on_slot_end(false);
        break;
      }
      case Step::kBulk: {
        const std::uint64_t horizon =
            std::min<std::uint64_t>(bare.constant_probability_slots(), 64);
        const std::uint64_t count = 1 + rng.next_below(horizon);
        station.on_non_delivery_slots(count);
        bare.on_non_delivery_slots(count);
        break;
      }
    }
  }
}

}  // namespace
}  // namespace ucr
