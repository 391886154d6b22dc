// Aggregate simulation engine for fair protocols under batched arrivals.
//
// Correctness argument (why aggregation is exact, not an approximation):
// under batched arrivals the feedback history — the only input to a
// station's state besides its private coins — is identical at every active
// station, so all active stations hold the same state and transmit with the
// same probability p. The number of transmitters in a slot is therefore
// exactly Binomial(m, p) given (m, p), and the channel outcome depends on it
// only through the category {0, 1, >= 2}. Sampling the category directly
// from its closed-form probabilities yields a process with exactly the same
// joint law of outcomes as the per-node engine — in O(1) per slot.
//
// Batched mode's thinned step rests on the same law with less of it: given
// (m, p) a slot delivers with probability s = m·p·(1 − p)^(m−1), so a
// uniform u delivers iff u < s, with P[u < s] = s.
//
// Window protocols additionally need the exact transmitter count (a
// transmitter leaves the within-window pending pool even on collision); the
// count at slot j of a W-slot window is Binomial(pending, 1/(W - j)) by the
// chain rule on uniform slot choices, sampled with the exact samplers in
// common/samplers.hpp.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "sim/metrics.hpp"
#include "sim/protocol.hpp"

namespace ucr {

// Both fair engines run in two modes, chosen by EngineOptions::batched.
// Exact mode resolves one slot per step and accepts an
// EngineOptions::observer. Batched mode — the paper-scale mode — resolves
// a whole stretch of slots per step wherever the protocol certifies one,
// and decides each uncertified slot with one uniform against its success
// probability, producing a process with exactly the same law of outcomes
// (no approximation is involved) but a different RNG consumption pattern:
// a batched run and an exact run from the same seed are different sample
// paths of the same distribution, pinned statistically (tests/integration,
// tests/sim/fair_engine_test.cpp) and by golden outputs of each mode
// (tests/integration/spec_golden_test.cpp). Batched mode never
// materializes skipped slots, so it throws ContractViolation if an
// observer is attached.

/// Runs a fair slot-probability protocol on a batch of k messages.
///
/// Exact mode: one categorical draw per slot, O(1) work per slot. Batched
/// mode picks its step by the protocol's batching hint
/// (FairSlotProtocol::constant_probability_slots):
///  * a hint above 1 certifies a stretch of constant p, over which the
///    number of non-success slots before the next success is
///    Geometric(P[success]); the engine draws it in O(1) and splits the
///    skipped slots into silence/collision with one binomial draw. For a
///    constant-p protocol that is O(k) in total, whatever the makespan.
///  * a hint of 1 (One-Fail Adaptive, Log-Fails Adaptive (2), Dynamic
///    One-Fail) gets the thinned step, run to the next delivery or the
///    cap: one uniform u per slot, and the slot delivers iff
///    u < s = m·p·(1 − p)^(m−1). s peaks at p = 1/m (the paper's Fact
///    4) below (1 + 1/m)/e, so a u above that envelope decides the slot
///    with no law at all, which is about 63% of slots; the rest look s
///    up among the last two it computed. O(1) per slot, the automaton
///    stepping through on_slot_end, and no silence/collision split: a run
///    that takes this step reports both counts as 0 and
///    RunMetrics::silence_collision_sampled as false.
RunMetrics run_fair_slot_engine(FairSlotProtocol& protocol, std::uint64_t k,
                                Xoshiro256& rng, const EngineOptions& options);

/// Runs a fair contention-window protocol on a batch of k messages.
///
/// Exact mode: one Binomial(pending, 1/(W-j)) draw per slot, O(1) expected
/// work per slot. Batched mode keeps that chain for very dense windows
/// (W <= pending/8) and otherwise samples each pending station's chosen
/// slot directly (the two formulations are equivalent by the chain rule on
/// uniform slot choices), walking only the occupied slots. Cost:
/// O(active stations) per window instead of O(W) — the win at paper scale,
/// where monotone back-off windows grow to >> k slots that are almost
/// entirely silent. RunMetrics::transmissions is exact in both modes;
/// expected_transmissions is the sum of per-slot expectations in exact
/// mode and mirrors transmissions in batched mode (the realized count is
/// the conditional expectation given the choices).
RunMetrics run_fair_window_engine(WindowSchedule& schedule, std::uint64_t k,
                                  Xoshiro256& rng,
                                  const EngineOptions& options);

}  // namespace ucr
