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
// and over slots of one law the first delivery is geometric. Where u
// falls outside a certified bracket of s (success_bounds,
// common/samplers.hpp) the bracket decides u < s without s.
//
// Window protocols additionally need the exact transmitter count (a
// transmitter leaves the within-window pending pool even on collision). A
// W-slot window's counts are Multinomial(pending, uniform over its slots):
// exact mode takes them slot by slot, the count at slot j being
// Binomial(left, 1/(W - j)) by the chain rule on uniform slot choices,
// and batched mode takes them whole, by independent Poisson counts
// topped up to the exact total or by each station's own choice, sampled
// with the exact samplers in common/samplers.hpp.
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
///    u < s = m·p·(1 − p)^(m−1), decided by s's bracket; s is evaluated
///    only for a u inside it, 0.2% of slots and 0.016 evaluations per
///    delivery for One-Fail at k = 10^6, and checked against its bracket
///    and against (1 + 1/m)/e, the bound on its peak at p = 1/m (the
///    paper's Fact 4). O(1) per slot, the automaton stepping through
///    on_slot_end.
///  * any other cycle gets the cycle step over its slots, cut at the
///    cap: the first success among its AT slots is Geometric(s_at) and
///    among its BT slots Geometric(s_bt), independent, and the earlier
///    one is the delivery. So the step draws the AT success, then one
///    truncated geometric draw over the BT slots before it (none for a
///    law of 0, as at paper scale for Log-Fails' BT slots), then takes
///    one bulk advance (on_non_delivery_slots) and on a delivery
///    on_slot_end(true). The AT success is a walk of one uniform per AT
///    slot, decided as in the thinned step, when the bracket certifies
///    s_at >= 1/16, and else one truncated geometric draw. Log-Fails
///    Adaptive takes one step per delivery or fail-threshold crossing;
///    the known-k genie, whose cycle is one unbounded constant-p stretch
///    (period 1, no AT slots), one per delivery, O(k) in total whatever
///    the makespan.
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
/// Exact mode: one Binomial(left, 1/(W-j)) draw per slot, O(1) expected
/// work per slot. Batched mode takes a window's counts whole, by one of
/// three steps that window size alone picks, usable being the slots of the
/// window the cap leaves:
///  * the Poisson batch, for very dense windows (W <= pending/8): of the n
///    stations that choose a usable slot (pending, or a binomial draw when
///    the cap cuts the window), usable independent Poisson counts at
///    λ' = max(0, n − ⌈3√n⌉)/usable, redrawn whole while their sum S
///    exceeds n (about 0.1% of batches), then the other n − S stations
///    one uniform choice each. Poisson counts given their sum are
///    multinomial, so this is Multinomial(n, uniform), exactly. O(usable)
///    independent draws, where exact mode's chain waits on each slot's
///    binomial before the next; one byte per slot holds min(count, 2);
///  * the bitmap walk: each pending station's chosen slot drawn directly
///    (equivalent to the chain by the chain rule on uniform slot choices)
///    and tallied in two occupancy bitmaps walked in slot order, while
///    they fit (usable/64 <= pending);
///  * the sorted walk: the same choices in a sorted list, for windows of
///    more than 64 slots per pending station.
/// Cost: O(active stations) per window instead of O(W) — the
/// win at paper scale, where monotone back-off windows grow to >> k slots
/// that are almost entirely silent. Recording delivery slots reads the
/// same pass and moves no draw. RunMetrics::transmissions is exact in both
/// modes; expected_transmissions is the sum of per-slot expectations in
/// exact mode and mirrors transmissions in batched mode (the realized
/// count is the conditional expectation given the choices).
RunMetrics run_fair_window_engine(WindowSchedule& schedule, std::uint64_t k,
                                  Xoshiro256& rng,
                                  const EngineOptions& options);

}  // namespace ucr
