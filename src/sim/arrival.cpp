#include "sim/arrival.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/check.hpp"
#include "common/samplers.hpp"

namespace ucr {

namespace {

/// Floors an arrival time to its slot, saturating at UINT64_MAX: a time
/// at or past 2^64 slots (a tiny rate or a huge heavy-tailed gap) never
/// arrives. The bare cast is undefined there; x86-64 yields 0, which
/// would put a message that never arrives into a slot-0 batch.
std::uint64_t arrival_slot(double t) {
  return t < 0x1p64 ? static_cast<std::uint64_t>(t) : UINT64_MAX;
}

}  // namespace

ArrivalPattern batched_arrivals(std::uint64_t k) {
  return ArrivalPattern(k, 0);
}

ArrivalPattern poisson_arrivals(std::uint64_t k, double lambda,
                                Xoshiro256& rng) {
  UCR_REQUIRE(lambda > 0.0, "arrival rate must be positive");
  ArrivalPattern arrivals;
  arrivals.reserve(k);
  double t = 0.0;
  for (std::uint64_t i = 0; i < k; ++i) {
    // Exponential inter-arrival with mean 1/lambda slots.
    const double u = rng.next_double();
    t += -std::log1p(-u) / lambda;
    arrivals.push_back(arrival_slot(t));
  }
  return arrivals;
}

ArrivalPattern burst_arrivals(std::uint64_t bursts, std::uint64_t burst_size,
                              std::uint64_t gap) {
  UCR_REQUIRE(bursts > 0 && burst_size > 0, "empty burst workload");
  ArrivalPattern arrivals;
  arrivals.reserve(bursts * burst_size);
  for (std::uint64_t b = 0; b < bursts; ++b) {
    const std::uint64_t at = b * gap;
    for (std::uint64_t i = 0; i < burst_size; ++i) {
      arrivals.push_back(at);
    }
  }
  return arrivals;
}

ArrivalPattern schedule_arrivals(const std::vector<std::uint64_t>& slots,
                                 std::uint64_t k) {
  UCR_REQUIRE(!slots.empty(), "schedule arrival list must not be empty");
  for (std::size_t i = 1; i < slots.size(); ++i) {
    UCR_REQUIRE(slots[i - 1] <= slots[i],
                "schedule arrival list must be sorted non-decreasing (slot " +
                    std::to_string(slots[i]) + " after " +
                    std::to_string(slots[i - 1]) + ")");
  }
  const std::uint64_t period = slots.back() + 1;
  ArrivalPattern arrivals;
  arrivals.reserve(k);
  for (std::uint64_t i = 0; i < k; ++i) {
    arrivals.push_back(slots[i % slots.size()] + (i / slots.size()) * period);
  }
  return arrivals;
}

ArrivalPattern mmpp_arrivals(std::uint64_t k, double lambda_hi,
                             double lambda_lo, std::uint64_t dwell,
                             Xoshiro256& rng) {
  UCR_REQUIRE(lambda_hi > 0.0, "MMPP burst-state rate must be positive");
  UCR_REQUIRE(lambda_lo >= 0.0, "MMPP quiet-state rate must be >= 0");
  UCR_REQUIRE(dwell >= 1, "MMPP dwell must be >= 1 slot");
  const double switch_prob = 1.0 / static_cast<double>(dwell);
  const PoissonLaw burst(lambda_hi);
  const PoissonLaw quiet(lambda_lo);  // a rate of 0 draws nothing
  ArrivalPattern arrivals;
  arrivals.reserve(k);
  bool burst_state = true;
  std::uint64_t slot = 0;
  while (arrivals.size() < k) {
    std::uint64_t count = (burst_state ? burst : quiet).draw(rng);
    count = std::min<std::uint64_t>(count, k - arrivals.size());
    for (std::uint64_t i = 0; i < count; ++i) arrivals.push_back(slot);
    if (rng.next_bernoulli(switch_prob)) burst_state = !burst_state;
    ++slot;
  }
  return arrivals;
}

ArrivalPattern pareto_arrivals(std::uint64_t k, double alpha, double xm,
                               Xoshiro256& rng) {
  UCR_REQUIRE(alpha > 0.0, "Pareto shape alpha must be positive");
  UCR_REQUIRE(xm > 0.0, "Pareto scale xm must be positive");
  ArrivalPattern arrivals;
  arrivals.reserve(k);
  double t = 0.0;
  for (std::uint64_t i = 0; i < k; ++i) {
    // Inverse-CDF: X = xm * (1 - u)^(-1/alpha), u in [0, 1) so 1 - u is
    // in (0, 1] and X >= xm always.
    const double u = rng.next_double();
    t += xm * std::pow(1.0 - u, -1.0 / alpha);
    arrivals.push_back(arrival_slot(t));
  }
  return arrivals;
}

}  // namespace ucr
