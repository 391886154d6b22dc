// Protocol interfaces — the contract between contention-resolution
// protocols and the two simulation engines.
//
// Three views of a protocol:
//
//  * NodeProtocol     — one instance per station; the ground-truth view.
//                       Works for any protocol, including non-fair states
//                       (dynamic arrivals). O(m) per slot.
//  * FairSlotProtocol — one *shared* state for all active stations of a
//                       fair slot-probability protocol (all active stations
//                       provably hold identical state under batched
//                       arrivals, because channel feedback is common
//                       knowledge). O(1) per slot.
//  * WindowSchedule   — the window-size generator of a fair contention-
//                       window protocol (each pending station picks exactly
//                       one uniform slot per window).
//
// A slot protocol is written once, as its final FairSlotProtocol class;
// under dynamic arrivals each station runs its own copy of that automaton,
// and FairSlotStation<Fair> below is that per-station NodeProtocol. A
// window protocol is its WindowSchedule, and WindowNodeProtocol
// (protocols/window_node.hpp) is its per-station view.
//
// How the per-node engine calls NodeProtocol (sim/node_engine.hpp): its
// station table is typed by element. A catalogue protocol's stations are
// held by value as their final class, whose per-slot methods are defined
// inline in its header, so the engine's calls are direct and inline into
// its per-station passes. Only the boxed element (BoxedStation, used by
// test protocols and run_node_engine(const NodeFactory&, ...)) calls
// through the virtual interface. Either way, each slot calls
// transmit_probability() once per active station, in station order, and
// draws that station's coin right after it (exact mode) or after the
// whole gather (batched mode) — so transmit_probability() must not draw
// from the engine stream, or the two modes' draws would diverge.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "channel/slot.hpp"

namespace ucr {

/// Per-station protocol automaton driven by the per-node engine.
class NodeProtocol {
 public:
  virtual ~NodeProtocol() = default;

  /// Probability with which this station transmits in the current slot.
  /// Must be in [0, 1]. Called once per slot while the station is active.
  virtual double transmit_probability() = 0;

  /// End-of-slot feedback (legal observations only, see channel/slot.hpp).
  /// Called once per slot while active; when `fb.delivered_mine` is true the
  /// engine deactivates the station after this call.
  virtual void on_slot_end(const Feedback& fb) = 0;

  /// Batching hint for the per-node fast path (sim/node_engine.hpp): the
  /// number of upcoming slots — counting the current one — over which this
  /// station is *stationary* as long as no slot is a success: its
  /// transmit_probability() stays constant, and its end-of-slot update is
  /// independent of both its own `transmitted` flag and the silence /
  /// collision distinction, so the skipped on_slot_end calls are together
  /// equivalent to one on_non_delivery_slots(count) call. Must be >= 1.
  /// Queried right after transmit_probability() in the same slot.
  ///
  /// This is the per-station analogue of the constant part of
  /// FairSlotProtocol::slot_cycle() (FairSlotProtocol::constant_slots()),
  /// generalized to heterogeneous state: the batched node engine skips
  /// min-over-stations stretches. The
  /// conservative default of 1 keeps every protocol on the exact per-slot
  /// path (bit-identical to exact mode from the same seed).
  ///
  /// A protocol that resolves its randomness ahead of time can certify
  /// long deterministic stretches even before it first transmits: the
  /// window adapter (protocols/window_node.hpp) pre-draws its one
  /// in-window transmission slot from a private substream, so every slot
  /// it reports has probability exactly 0 or 1 and the certificate spans
  /// the whole silent run to the next probability change. That pattern —
  /// moving protocol randomness out of the engine stream so the remaining
  /// per-slot law is degenerate — is what lets the batched engine skip
  /// dense dynamic cells instead of degenerating to one exact slot per
  /// not-yet-transmitted station.
  virtual std::uint64_t stationary_slots() const { return 1; }

  /// Bulk equivalent of `count` consecutive on_slot_end calls with
  /// non-success feedback; the batched engine uses it to advance a station
  /// across a skipped stretch. Requires count <= stationary_slots() as of
  /// the first skipped slot. The default replays per-slot calls (correct
  /// for any protocol honouring the stationarity contract above, which
  /// makes its state evolution independent of the per-slot feedback
  /// detail); protocols advertising a horizon > 1 should override it with
  /// an O(1) update so skipped slots really cost nothing.
  virtual void on_non_delivery_slots(std::uint64_t count) {
    const Feedback fb{};
    for (std::uint64_t i = 0; i < count; ++i) on_slot_end(fb);
  }

 protected:
  // The engine's station table holds catalogue stations by value and
  // moves them; protected, so no caller can slice a NodeProtocol.
  NodeProtocol() = default;
  NodeProtocol(const NodeProtocol&) = default;
  NodeProtocol(NodeProtocol&&) = default;
  NodeProtocol& operator=(const NodeProtocol&) = default;
  NodeProtocol& operator=(NodeProtocol&&) = default;
};

/// A fair slot protocol's batching hint (FairSlotProtocol::slot_cycle):
/// absent a delivery, for the next `slots` slots (counting the current
/// one), every slot at offset to_bt + j·period (j = 0, 1, ...) sends with
/// probability `bt` and every other slot with `at`. Both probabilities
/// are in [0, 1], and both counts are >= 1.
///
/// Three shapes occur:
///  * the default, one slot of period 1 ({}): no certificate beyond the
///    current slot, whose probability transmit_probability() gives;
///  * period 1 with to_bt = 0, more than one slot: a constant-probability
///    stretch at `bt` (the known-k genie: unbounded);
///  * a longer period: a fixed BT probability every period-th slot and
///    an AT probability that holds in between, up to and including the
///    last slot it is certified for (Log-Fails Adaptive: to its next
///    fail-threshold crossing).
struct SlotCycle {
  std::uint64_t slots = 1;
  std::uint64_t period = 1;
  std::uint64_t to_bt = 0;
  double at = 0.0;
  double bt = 0.0;

  /// Slots, counting the current one, over which the probability stays
  /// constant absent a delivery: the whole cycle at period 1; at a longer
  /// period 1 on a BT slot, else the AT slots before the next BT slot.
  std::uint64_t constant_slots() const {
    if (period == 1) return slots;
    return to_bt == 0 ? 1 : std::min(slots, to_bt);
  }
};

/// Shared-state automaton of a fair slot-probability protocol.
class FairSlotProtocol {
 public:
  virtual ~FairSlotProtocol() = default;

  /// Per-station transmission probability for the current slot, in [0, 1].
  virtual double transmit_probability() const = 0;

  /// Advances the shared state; `delivery` is true iff the slot was a
  /// success (every remaining active station heard it).
  virtual void on_slot_end(bool delivery) = 0;

  /// Batching hint for the batched fair slot engine (sim/fair_engine.hpp):
  /// the upcoming slots as a two-probability cycle (SlotCycle), valid as
  /// long as no delivery occurs. A cycle other than the default must send
  /// with transmit_probability() at offset 0, and on_non_delivery_slots
  /// must accept any count up to its `slots`.
  ///
  /// The default certifies only the current slot. Protocols whose state
  /// drifts every slot (e.g. One-Fail Adaptive's +1-per-AT-step
  /// estimator) keep it, which gives them the engine's thinned step: one
  /// uniform per slot against the slot's success probability, run to the
  /// next delivery. Any other cycle takes the cycle step: a walk of one
  /// uniform per AT slot while the AT success probability is certified
  /// at 1/16 or more, else one truncated geometric draw over its AT
  /// slots, and one over its BT slots. Each is exact mode's law but not
  /// its draws, so batched runs are not bit-identical to exact ones.
  virtual SlotCycle slot_cycle() const { return {}; }

  /// slot_cycle().constant_slots(), the node hint of the protocol's
  /// stations (FairSlotStation), which queries it on every station-slot.
  /// A protocol whose cycle costs more than its constant part may
  /// override this to compute that part directly; it must return the
  /// same value in every state.
  virtual std::uint64_t constant_slots() const {
    return slot_cycle().constant_slots();
  }

  /// Bulk equivalent of `count` consecutive on_slot_end(false) calls; used
  /// by the batched engine to skip a sampled run of non-delivery slots,
  /// with count <= slot_cycle().slots. The default replays the per-slot
  /// call and is always correct; protocols that advertise a cycle longer
  /// than one slot should override it with an O(1) update so the skipped
  /// slots really cost nothing.
  virtual void on_non_delivery_slots(std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) on_slot_end(false);
  }
};

/// The per-station view of a fair slot protocol: one station running its
/// own copy of the shared automaton `Fair` (a final FairSlotProtocol).
///
/// Why the constant part of the automaton's cycle is a valid
/// stationarity certificate: a fair automaton reads only "did another
/// station deliver" — never the station's own coin, nor the silence /
/// collision split — so absent a success its state is a pure function of
/// the elapsed slots, which is exactly the stationary_slots() contract.
template <class Fair>
class FairSlotStation final : public NodeProtocol {
  static_assert(std::is_base_of_v<FairSlotProtocol, Fair> &&
                    std::is_final_v<Fair>,
                "the automaton must be a final FairSlotProtocol class, so "
                "that every call the station makes on it is direct");

 public:
  explicit FairSlotStation(Fair automaton) : automaton_(std::move(automaton)) {}

  double transmit_probability() override {
    return automaton_.transmit_probability();
  }
  void on_slot_end(const Feedback& fb) override {
    // The station stops on its own delivery (the engine deactivates it);
    // every other slot advances the automaton on the common feedback.
    if (fb.delivered_mine) return;
    automaton_.on_slot_end(fb.heard_delivery);
  }
  std::uint64_t stationary_slots() const override {
    return automaton_.constant_slots();
  }
  void on_non_delivery_slots(std::uint64_t count) override {
    automaton_.on_non_delivery_slots(count);
  }

  const Fair& automaton() const { return automaton_; }

 private:
  Fair automaton_;
};

/// Window-size generator of a contention-window protocol.
class WindowSchedule {
 public:
  virtual ~WindowSchedule() = default;

  /// Returns the length in slots (>= 1) of the next contention window.
  virtual std::uint64_t next_window_slots() = 0;
};

}  // namespace ucr
