// Slot-level semantics of the multiple-access channel (Radio Network model
// of Section 2 of the paper): synchronous slots; exactly one transmitter
// means delivery, zero or many means noise, and — crucially — stations
// cannot distinguish background noise (silence) from interference noise
// (collision): the channel has *no collision detection*.
#pragma once

#include <cstdint>
#include <string>

namespace ucr {

/// Ground-truth outcome of a communication slot (what an omniscient observer
/// sees; stations only observe the Feedback derived from it).
enum class SlotOutcome : std::uint8_t {
  kSilence = 0,    ///< no station transmitted
  kSuccess = 1,    ///< exactly one station transmitted: message delivered
  kCollision = 2,  ///< two or more stations transmitted: all garbled
};

/// Maps a transmitter count to the slot outcome.
SlotOutcome resolve_outcome(std::uint64_t num_transmitters);

/// Human-readable name ("silence" / "success" / "collision").
std::string to_string(SlotOutcome outcome);

/// What one station legally observes at the end of a slot under the
/// paper's model (no collision detection, with delivery acknowledgement).
struct Feedback {
  /// True iff some *other* station's message was delivered this slot and
  /// therefore received by this station.
  bool heard_delivery = false;
  /// True iff this station transmitted and its own message was delivered
  /// (the model's MAC-level acknowledgement; the station then goes idle).
  bool delivered_mine = false;
  /// Whether this station itself transmitted this slot (its own action,
  /// trivially known to it; needed by window protocols to track their
  /// once-per-window transmission).
  bool transmitted = false;
  /// True iff the slot was a collision AND the channel model provides
  /// collision detection. Always false in the paper's model; populated
  /// only by engines run with EngineOptions::collision_detection — the
  /// model extension used by the CD baselines (tree/stack algorithms of
  /// the related work).
  bool heard_collision = false;
};

/// Derives the per-station feedback from the ground truth.
/// `transmitted` is whether this station transmitted this slot;
/// `collision_detection` selects the channel model (the paper's model is
/// without CD, the default). Inline: the per-node engine calls it once per
/// station-slot.
inline Feedback make_feedback(SlotOutcome outcome, bool transmitted,
                              bool collision_detection = false) {
  Feedback fb;
  fb.transmitted = transmitted;
  if (outcome == SlotOutcome::kSuccess) {
    if (transmitted) {
      fb.delivered_mine = true;
    } else {
      fb.heard_delivery = true;
    }
  } else if (outcome == SlotOutcome::kCollision && collision_detection) {
    fb.heard_collision = true;
  }
  // Without collision detection, silence and collision are
  // indistinguishable noise to every station: all flags stay false.
  return fb;
}

}  // namespace ucr
