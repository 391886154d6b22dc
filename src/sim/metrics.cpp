#include "sim/metrics.hpp"

#include "common/check.hpp"

namespace ucr {

double RunMetrics::ratio() const {
  UCR_REQUIRE(k > 0, "ratio undefined for k == 0");
  return static_cast<double>(slots) / static_cast<double>(k);
}

void RunMetrics::validate() const {
  if (silence_collision_sampled) {
    UCR_CHECK(silence_slots + success_slots + collision_slots == slots,
              "slot outcome counts do not sum to the makespan");
  } else {
    UCR_CHECK(silence_slots == 0 && collision_slots == 0,
              "a run that did not sample the silence/collision split "
              "reports both counts as 0");
    UCR_CHECK(success_slots <= slots, "more success slots than slots");
  }
  UCR_CHECK(deliveries == success_slots,
            "every success slot delivers exactly one message");
  if (completed) {
    UCR_CHECK(deliveries == k, "completed run must deliver exactly k messages");
  } else {
    UCR_CHECK(deliveries < k,
              "incomplete run cannot have delivered k messages");
  }
  if (!latencies.empty()) {
    UCR_CHECK(latencies.size() == deliveries,
              "recorded latency count mismatch");
  }
  if (!delivery_slots.empty()) {
    UCR_CHECK(delivery_slots.size() == deliveries,
              "recorded delivery count mismatch");
    for (std::size_t i = 1; i < delivery_slots.size(); ++i) {
      UCR_CHECK(delivery_slots[i - 1] < delivery_slots[i],
                "delivery slots must be strictly increasing");
    }
  }
}

std::uint64_t EngineOptions::resolved_cap(std::uint64_t k) const {
  if (max_slots != 0) return max_slots;
  return 1'000'000ULL + 100'000ULL * k;
}

}  // namespace ucr
