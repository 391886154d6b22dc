// Imperfect-channel models layered over the clean collision channel.
//
// The paper's model is the clean channel: 0 transmitters -> silence,
// 1 -> success, >= 2 -> collision (channel/slot.hpp). The contention-
// resolution literature the paper sits in also argues over noisy and
// capture-prone channels, so ChannelModel generalizes the per-slot
// classification:
//
//   clean              the identity model; draws no randomness, so every
//                      clean-channel run is bit-identical to the engines
//                      before this layer existed.
//   capture(p)         capture effect: in a collision slot (>= 2
//                      transmitters) the strongest transmitter's message
//                      is decoded with probability p; the winner is
//                      uniform among the transmitters (i.i.d. fading
//                      ranks). p = 0 degenerates to clean.
//   jamming(q)         random noise: each slot is jammed independently
//                      with probability q and then reads as collision to
//                      every station, whatever the transmitter count —
//                      in particular a jammed success slot delivers
//                      nothing.
//   jam_burst(T,L)     deterministic adversarial jamming: slots
//                      t with (t mod T) < L are jammed (a periodic
//                      L-of-T burst schedule); draws no randomness.
//
// Only the exact per-node engine implements the imperfect models: the
// fair aggregate engines rest on a common-feedback symmetry argument that
// capture breaks (a losing transmitter of a captured slot cannot hear the
// delivery), and the batched fast paths rest on stationarity certificates
// that per-slot jamming and capture coins void. compile() (exp/plan.cpp)
// therefore routes every cell of a non-clean grid onto the exact node
// engine, and the other engines reject non-clean options loudly. See
// docs/SCENARIOS.md for the support matrix.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "channel/slot.hpp"
#include "common/rng.hpp"

namespace ucr {

/// Value-type description of the channel's per-slot behaviour. Carried in
/// EngineOptions (sim/metrics.hpp) and, as a grid axis, in ExperimentSpec
/// (exp/spec.hpp).
struct ChannelModel {
  enum class Kind { kClean, kCapture, kJamming, kJamBurst };

  Kind kind = Kind::kClean;
  /// capture: probability that a collision slot is captured by its
  /// strongest transmitter. Valid range [0, 1].
  double p_capture = 0.5;
  /// jamming: per-slot independent jam probability. Valid range [0, 1].
  double jam_prob = 0.1;
  /// jam_burst: slots t with (t mod jam_period) < jam_len are jammed.
  std::uint64_t jam_period = 16;
  std::uint64_t jam_len = 4;

  static ChannelModel clean();
  static ChannelModel capture(double p);
  static ChannelModel jamming(double q);
  static ChannelModel jam_burst(std::uint64_t period, std::uint64_t len);

  bool is_clean() const { return kind == Kind::kClean; }

  /// Human/JSONL label: "clean", "capture(0.5)", "jamming(0.1)",
  /// "jam_burst(16,4)". Doubles at 6-decimal display precision; the
  /// spec-file serialization (exp/spec_io.cpp) uses shortest-round-trip
  /// notation instead.
  std::string label() const;

  /// Parses the label syntax back (whitespace tolerated); an unknown kind
  /// gets a ContractViolation naming the closest of kind_names()
  /// (closest_name, common/strings.hpp) before the list of grammars.
  /// Inverse of the spec-file serialization: parse(text(m)) == m exactly.
  static ChannelModel parse(const std::string& text);

  /// The spec keywords, in canonical order — shared by parse()'s
  /// did-you-mean hint and the docs drift test
  /// (tests/docs/scenarios_doc_test.cpp), so docs/SCENARIOS.md cannot go
  /// stale against the live registry.
  static const std::vector<std::string>& kind_names();

  /// Throws ContractViolation on out-of-range parameters (probabilities
  /// outside [0, 1], jam_period == 0, jam_len > jam_period).
  void validate() const;

  /// Whether `slot` is jammed. Draws one coin per call for kJamming;
  /// deterministic for every other kind.
  bool slot_jammed(std::uint64_t slot, Xoshiro256& rng) const;

  /// Classifies one slot: jam check first (jammed slots read as collision
  /// whatever the transmitter count), then the capture coin on >= 2
  /// transmitters, else the clean classification. The clean model draws
  /// no randomness, preserving bit-identity of every pre-existing run.
  SlotOutcome resolve(std::uint64_t slot, std::uint64_t num_transmitters,
                      Xoshiro256& rng) const;

  bool operator==(const ChannelModel&) const = default;
};

}  // namespace ucr
