// Adapter that turns any WindowSchedule into a per-station NodeProtocol.
//
// A station picks one uniformly random slot per window. The pick is
// *pre-drawn*: when a window of W slots opens, the station draws its
// transmission offset T uniformly from {0, ..., W-1} out of a private
// per-station substream (common/rng.hpp, derive_window_offset_stream) and
// then emits the deterministic probability sequence 0,...,0,1,0,...,0 —
// silent up to T, certain at T, silent to the window end.
//
// Law preservation (chain rule): the historical per-slot hazard
// formulation transmitted at offset j with probability 1/(W - j) given no
// transmission yet, so P[first transmission at offset T] =
// prod_{j<T} (1 - 1/(W-j)) * 1/(W-T) = ((W-1)/W)((W-2)/(W-1))...(1/(W-T))
// = 1/W for every T — exactly the uniform pre-draw. The two formulations
// induce the same law on every channel trajectory; only where the
// randomness is consumed differs (one private draw per window instead of
// one engine coin per slot).
//
// What the pre-draw buys: the station knows its whole window in advance,
// so it can certify the entire silent run-up to T (and the silent tail
// after T) through stationary_slots(). Under the per-slot hazard a
// not-yet-transmitted station could never certify more than the current
// slot, which capped the batched node engine's skip at 1 slot on dense
// dynamic cells; with the pre-draw every slot of a window-protocol cell
// has probability 0 or 1, stretches between transmissions are
// deterministic silence, and the batched engine skips them wholesale.
// Because all probabilities are exact 0s and 1s, neither engine consumes
// any engine-stream randomness in window slots (Bernoulli/geometric/
// binomial draws are all draw-free at p in {0, 1}), so the exact and
// batched node engines are bit-identical on window cells — pinned by
// tests/integration/node_batched_test.cpp and the dynamic-arrivals golden
// (tests/integration/spec_golden_test.cpp).
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "sim/protocol.hpp"
#include "sim/runner.hpp"

namespace ucr {

/// Per-station view of a contention-window protocol. Catalogue stations
/// are held by value (sim/node_engine.hpp), so the per-slot methods are
/// inline; one engine instantiation serves every window protocol.
class WindowNodeProtocol final : public NodeProtocol {
 public:
  /// Takes ownership of this station's schedule generator (deterministic,
  /// so stations activated at the same slot stay in window lockstep) and
  /// keys the station's private offset substream with one draw from
  /// `engine_rng` — the only engine-stream randomness a window station
  /// ever consumes.
  WindowNodeProtocol(std::unique_ptr<WindowSchedule> schedule,
                     Xoshiro256& engine_rng);

  double transmit_probability() override {
    if (offset_ == window_) fetch_window();  // exhausted (or first call)
    return offset_ == tx_offset_ ? 1.0 : 0.0;
  }
  void on_slot_end(const Feedback& /*fb*/) override {
    // The pre-draw fixes the whole window at its start, so feedback
    // carries no information this automaton can use: it transmits at
    // tx_offset_ and only there, delivered or collided. The engine
    // deactivates the station itself on delivered_mine.
    ++offset_;
  }

  /// Stationarity certificate for the batched node engine. Every slot of
  /// a pre-drawn window is deterministic, so the certificate covers the
  /// whole stretch to the next probability change: the silent run-up to
  /// the drawn slot, the drawn slot itself (horizon 1 — the only slot
  /// this station transmits in), and the silent tail to the window end.
  /// Feedback never moves the state (one transmission per window whatever
  /// the channel says), so the certificate survives collision storms.
  std::uint64_t stationary_slots() const override {
    // Only meaningful right after transmit_probability() fetched the
    // window (offset_ < window_ then).
    if (offset_ >= window_) return 1;
    if (offset_ < tx_offset_) return tx_offset_ - offset_;  // silent run-up
    if (offset_ == tx_offset_) return 1;  // the transmission slot itself
    return window_ - offset_;             // silent tail to the window end
  }
  void on_non_delivery_slots(std::uint64_t count) override {
    if (count == 0) return;
    const std::uint64_t certified =
        offset_ < window_ && offset_ != tx_offset_
            ? (offset_ < tx_offset_ ? tx_offset_ - offset_
                                    : window_ - offset_)
            : 0;
    UCR_CHECK(count <= certified,
              "bulk advance beyond the certified stationary stretch");
    offset_ += count;
  }

  std::uint64_t current_window() const { return window_; }
  std::uint64_t window_offset() const { return offset_; }
  /// The pre-drawn transmission offset of the current window.
  std::uint64_t drawn_offset() const { return tx_offset_; }

 private:
  void fetch_window();

  std::unique_ptr<WindowSchedule> schedule_;
  CounterRng draws_;          // private per-station offset substream
  std::uint64_t window_ = 0;  // 0 = fetch the first window lazily
  std::uint64_t offset_ = 0;
  std::uint64_t tx_offset_ = 0;
};

/// The factory of a window protocol, built from one constructor: `make()`
/// returns a fresh schedule (a std::unique_ptr to the WindowSchedule). The
/// window view runs one schedule per run; the node view gives every station
/// its own, in a WindowNodeProtocol (whose run_node_engine instantiation,
/// in window_node.cpp, serves every window protocol).
template <class Make>
ProtocolFactory window_protocol_factory(std::string name, Make make) {
  ProtocolFactory f;
  f.name = std::move(name);
  f.window = [make](std::uint64_t) { return make(); };
  f.node = node_view<WindowNodeProtocol>(
      [make](std::uint64_t, Xoshiro256& rng) {
        return WindowNodeProtocol(make(), rng);
      });
  return f;
}

}  // namespace ucr
