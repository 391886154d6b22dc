// LogLog-Iterated Back-off — the monotone baseline of the paper, i.e. the
// best strategy of Bender, Farach-Colton, He, Kuszmaul & Leiserson,
// "Adversarial contention resolution for simple channels" (SPAA 2005),
// reference [2] of the paper. Makespan Theta(k loglog k / logloglog k)
// w.h.p. for batched arrivals; uses no knowledge of k or n.
//
// RECONSTRUCTION NOTICE: implemented from [2]'s specification of the
// strategy, not from code: contention windows that grow by the slow
// multiplicative factor (1 + 1/lglg w) — monotone back-off — starting from
// w = r = 2, with lg lg w clamped below at 1. The rationale is in
// docs/PROTOCOLS.md "LogLog-Iterated Back-off".
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "sim/protocol.hpp"
#include "sim/runner.hpp"

namespace ucr {

/// Tunables of LogLog-Iterated Back-off.
struct LogLogParams {
  /// Initial window size (the paper simulates r = 2).
  double r = 2.0;

  void validate() const;
};

/// The monotone window-size generator.
class LogLogIteratedBackoff final : public WindowSchedule {
 public:
  explicit LogLogIteratedBackoff(const LogLogParams& params = {});

  std::uint64_t next_window_slots() override;

  /// Real-valued window variable of the *next* window.
  double window_real() const { return w_; }

 private:
  LogLogParams params_;
  double w_;
};

/// Bundles schedule + per-node views for the experiment runner.
ProtocolFactory make_loglog_factory(
    const LogLogParams& params = {},
    std::string name = "LogLog-Iterated Back-off");

}  // namespace ucr
