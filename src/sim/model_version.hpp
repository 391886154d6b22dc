// The version of the simulation model: which sample path every engine
// draws, and from which law, for a given spec.
//
// Bump kModelVersion whenever a change moves any engine's sample path or
// law under an unchanged spec, so that nothing keyed on the spec alone
// replays results of the old model. The result cache folds it into every
// record's address (svc/result_cache.hpp), and a tier-1 test holds the
// digest of tests/golden/ for each version (tests/integration/
// golden_test.cpp), so re-recording a golden without a bump fails. It
// stays out of the result rows and out of spec_hash, so a bump moves no
// pinned output byte.
//
// History:
//   1  every model up to the thinned step;
//   2  the batched fair slot engine's thinned step for protocols whose
//      batching hint is 1 (sim/fair_engine.hpp);
//   3  its cycle step for two-probability cycles (Log-Fails Adaptive),
//      and no silence/collision split drawn once a run stops sampling it.
#pragma once

#include <cstdint>

namespace ucr {

inline constexpr std::uint64_t kModelVersion = 3;

}  // namespace ucr
