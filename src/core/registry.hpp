// Registry of the protocol configurations used by the paper's evaluation
// (Section 5) plus the extra ablation baselines of this repository.
#pragma once

#include <string>
#include <vector>

#include "sim/runner.hpp"

namespace ucr {

/// The five curves of Figure 1 / rows of Table 1, in the paper's order:
/// Log-Fails Adaptive (xi_t = 1/2), Log-Fails Adaptive (xi_t = 1/10),
/// One-Fail Adaptive (delta = 2.72), Exp Back-on/Back-off (delta = 0.366),
/// LogLog-Iterated Back-off (r = 2).
std::vector<ProtocolFactory> paper_protocols();

/// Extra baselines: r-exponential back-off (r = 2) and the known-k genie.
std::vector<ProtocolFactory> extra_protocols();

/// paper_protocols() followed by extra_protocols().
std::vector<ProtocolFactory> all_protocols();

/// The live catalogue every name-resolving front end shares:
/// all_protocols() plus this repository's Dynamic One-Fail variant.
/// ucr_cli, the sweep daemons and the specs/ round-trip tests all
/// resolve protocol names against this, so a spec file means the same
/// sweep everywhere.
std::vector<ProtocolFactory> default_catalogue();

/// Looks `name` up in a catalogue: first exact match (first wins — the
/// registry never carries duplicate names, but a user-assembled catalogue
/// might), then a case-insensitive match, accepted only when unique.
/// Returns nullptr when nothing (or nothing unambiguous) matches.
const ProtocolFactory* try_find_protocol(
    const std::vector<ProtocolFactory>& catalogue, const std::string& name);

/// Same lookup, but a failed match throws ContractViolation whose message
/// names the closest catalogue entry ("did you mean ...?", closest_name
/// in common/strings.hpp) — the loud replacement for the silent
/// last-match-wins linear scan ucr_cli used.
const ProtocolFactory& find_protocol(
    const std::vector<ProtocolFactory>& catalogue, const std::string& name);

}  // namespace ucr
