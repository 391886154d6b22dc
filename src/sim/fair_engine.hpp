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
// Batched mode's steps rest on the same law with less of it: given (m, p)
// a slot delivers with probability s = m·p·(1 − p)^(m−1), independently
// of every other slot, so a uniform u delivers iff u < s (P[u < s] = s),
// and over slots of one law the first delivery is geometric.
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
/// (FairSlotProtocol::slot_cycle, a SlotCycle):
///  * the default one-slot cycle (One-Fail Adaptive, Dynamic One-Fail)
///    gets the thinned step, run to the next delivery or the cap: one
///    uniform u per slot, and the slot delivers iff
///    u < s = m·p·(1 − p)^(m−1). s peaks at p = 1/m (the paper's Fact
///    4) below (1 + 1/m)/e, so a u above that envelope decides the slot
///    with no law at all, which is about 63% of slots; the rest look s
///    up among the last two it computed. O(1) per slot, the automaton
///    stepping through on_slot_end.
///  * any other cycle gets the cycle step over its slots, cut at the
///    cap: the first success among its AT slots is Geometric(s_at) and
///    among its BT slots Geometric(s_bt), independent, and the earlier
///    one is the delivery. So the step is one truncated geometric draw
///    over the AT slots and one over the BT slots before that AT success
///    (none for a law of 0, as at paper scale for Log-Fails' BT slots),
///    then one bulk advance (on_non_delivery_slots) and on a delivery
///    on_slot_end(true). Log-Fails Adaptive takes one step per delivery
///    or fail-threshold crossing; the known-k genie, whose cycle is one
///    unbounded constant-p stretch (period 1), one per delivery, O(k) in
///    total whatever the makespan.
/// Both steps decide each slot only as delivery or not: a run that takes
/// a thinned step or a cycle of period > 1 reports both silence and
/// collision counts as 0 and RunMetrics::silence_collision_sampled as
/// false. A constant-p stretch splits its non-success slots into silence
/// and collision with one binomial draw, as long as the run still
/// samples the split. expected_transmissions adds m·p per elapsed slot,
/// a cycle step as m·(at·#AT + bt·#BT).
RunMetrics run_fair_slot_engine(FairSlotProtocol& protocol, std::uint64_t k,
                                Xoshiro256& rng, const EngineOptions& options);

/// Runs a fair contention-window protocol on a batch of k messages.
///
/// Exact mode: one Binomial(pending, 1/(W-j)) draw per slot, O(1) expected
/// work per slot. Batched mode keeps that chain for very dense windows
/// (W <= pending/8) and otherwise samples each pending station's chosen
/// slot directly (the two formulations are equivalent by the chain rule on
/// uniform slot choices). Window size alone picks how the choices are
/// tallied: in two occupancy bitmaps walked in slot order while they fit
/// (usable/64 <= pending, usable being the slots the cap leaves), else in
/// a sorted choice list. Cost: O(active stations) per window instead of
/// O(W) — the win at paper scale, where monotone back-off windows grow to
/// >> k slots that are almost entirely silent. Recording delivery slots
/// reads the same walk and moves no draw. RunMetrics::transmissions is
/// exact in both modes; expected_transmissions is the sum of per-slot
/// expectations in exact mode and mirrors transmissions in batched mode
/// (the realized count is the conditional expectation given the choices).
RunMetrics run_fair_window_engine(WindowSchedule& schedule, std::uint64_t k,
                                  Xoshiro256& rng,
                                  const EngineOptions& options);

}  // namespace ucr
