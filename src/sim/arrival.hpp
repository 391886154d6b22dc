// Message-arrival workloads.
//
// The paper's evaluation is entirely *static* (batched) k-selection: all k
// messages arrive at slot 0. The dynamic models are provided for the
// future-work study the paper proposes in Section 6 (message arrivals at
// different times, statistical or adversarial).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace ucr {

/// A concrete workload: arrival_slot[i] is the slot at whose beginning
/// station i is activated with one message. Always sorted non-decreasing.
/// The random generators saturate a time at or past 2^64 slots to
/// UINT64_MAX, a message that never arrives within any slot cap.
using ArrivalPattern = std::vector<std::uint64_t>;

/// All k messages arrive simultaneously at slot 0 (the paper's setting).
ArrivalPattern batched_arrivals(std::uint64_t k);

/// k messages with exponential inter-arrival times of rate `lambda`
/// (expected `lambda` messages per slot, Poisson process discretized to
/// slot granularity).
ArrivalPattern poisson_arrivals(std::uint64_t k, double lambda,
                                Xoshiro256& rng);

/// Adversarial bursts: `bursts` batches of `burst_size` messages, separated
/// by `gap` silent slots — the bursty worst-case pattern cited by the paper
/// ([11, 17]) as the motivation for batched analysis.
ArrivalPattern burst_arrivals(std::uint64_t bursts, std::uint64_t burst_size,
                              std::uint64_t gap);

/// Fixed worst-case schedule: the first k arrivals of the adversary's slot
/// list `slots` (sorted non-decreasing, non-empty), tiled with period
/// slots.back() + 1 when k exceeds the list — so a spec-embedded schedule
/// of any length materializes a deterministic pattern for any k. Throws
/// ContractViolation on an empty or unsorted list.
ArrivalPattern schedule_arrivals(const std::vector<std::uint64_t>& slots,
                                 std::uint64_t k);

/// Markov-modulated Poisson process: a two-state arrival source that emits
/// Poisson(lambda_hi) arrivals per slot in the burst state and
/// Poisson(lambda_lo) in the quiet state, switching state with probability
/// 1/dwell after each slot (geometric dwell times with mean `dwell`).
/// Starts in the burst state; truncated to exactly k arrivals.
ArrivalPattern mmpp_arrivals(std::uint64_t k, double lambda_hi,
                             double lambda_lo, std::uint64_t dwell,
                             Xoshiro256& rng);

/// Heavy-tailed inter-arrivals: gaps drawn from a Pareto(alpha, xm)
/// distribution (X = xm * U^(-1/alpha), floored to slot granularity), the
/// classic model for self-similar bursty traffic. alpha <= 1 gives an
/// infinite-mean gap distribution — legal, but expect enormous quiet
/// stretches.
ArrivalPattern pareto_arrivals(std::uint64_t k, double alpha, double xm,
                               Xoshiro256& rng);

}  // namespace ucr
