// Structure-of-arrays station state for the per-node engine.
//
// The engine used to chase a vector of per-station structs (protocol
// pointer, arrival slot, flags, counters) in its per-slot hot loops. This
// class keeps the same logical state as parallel arrays instead:
//
//   stations_     — the protocol automata, one element per station. The
//                   element type is the template parameter: a catalogue
//                   protocol's final station class held by value, so the
//                   per-station calls are direct and inline into the
//                   passes below, or BoxedStation, a pointer to any
//                   NodeProtocol with virtual calls;
//   arrival_slot_ — latency bookkeeping, one contiguous array;
//   sent_         — per-station transmission attempts (the energy ledger);
//   probs_        — batched mode's per-slot transmission probabilities,
//                   gathered once per slot for the stretch decision;
//   transmitted_  — this slot's coin flips, one byte per station.
//
// Each per-slot pass (exact mode's fused probability-and-coin pass,
// batched mode's law gather and coin pass, the feedback scan, success
// attribution) visits stations in index order, so RNG draws happen in the
// per-station index order of the historical struct-of-vectors loops and
// engine outputs are bit-identical to them, for every element type
// (docs/ARCHITECTURE.md "SoA station state").
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "sim/node_engine.hpp"
#include "sim/protocol.hpp"

namespace ucr {

/// Parallel-array station state of run_node_engine<Station>, in both of its
/// modes. Persistent arrays (station, arrival slot, attempt count) stay
/// index-aligned across swap_remove; per-slot scratch (probabilities,
/// transmitted flags) is valid only between the slot's first pass and the
/// end of the same slot.
template <class Station>
class StationSoA {
  static_assert(std::is_same_v<Station, BoxedStation> ||
                    (std::is_base_of_v<NodeProtocol, Station> &&
                     std::is_final_v<Station>),
                "stations held by value must be a final NodeProtocol class, "
                "so that every call the engine makes on them is direct");

 public:
  /// Joint law of one slot over the current active set, accumulated during
  /// the probability gather: q = P[silence], s = P[success] (the stable
  /// station-by-station recurrence — exact for p in {0, 1}, no
  /// catastrophic cancellation for tiny p), p_sum = expected transmitter
  /// count, and the joint stationarity horizon (min over stations).
  struct SlotLaw {
    std::uint64_t horizon = ~std::uint64_t{0};
    double q = 1.0;
    double s = 0.0;
    double p_sum = 0.0;
  };

  void reserve(std::size_t n) {
    stations_.reserve(n);
    arrival_slot_.reserve(n);
    sent_.reserve(n);
  }
  std::size_t size() const { return stations_.size(); }
  bool empty() const { return stations_.empty(); }

  /// Activates one station: a fresh element from `factory` (which may
  /// consume `rng`), tagged with its arrival slot.
  void activate(const StationFactory<Station>& factory, Xoshiro256& rng,
                std::uint64_t arrival_slot) {
    stations_.push_back(factory(rng));
    arrival_slot_.push_back(arrival_slot);
    sent_.push_back(0);
  }

  /// The protocol automaton of station i: the element itself when held by
  /// value (its static type is final, so calls on it are direct), the
  /// pointee of a BoxedStation.
  decltype(auto) protocol(std::size_t i) {
    if constexpr (std::is_same_v<Station, BoxedStation>) {
      return *stations_[i];
    } else {
      return stations_[i];
    }
  }

  /// Exact mode's one pass per slot: each station's transmission
  /// probability (throws on p outside [0, 1]), then its Bernoulli coin, in
  /// index order. transmit_probability() never touches the engine stream,
  /// so this draws the same values in the same order as a gather pass
  /// followed by a coin pass would. Records the flips in transmitted(),
  /// charges the energy ledger, sets `p_sum` to the probabilities' sum in
  /// index order (the observer's mean-probability numerator) and returns
  /// the transmitter count.
  std::uint64_t gather_and_draw(Xoshiro256& rng, double& p_sum) {
    const std::size_t n = stations_.size();
    transmitted_.resize(n);
    std::uint64_t count = 0;
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double p = protocol(i).transmit_probability();
      UCR_CHECK(p >= 0.0 && p <= 1.0,
                "protocol produced a probability outside [0, 1]");
      sum += p;
      const bool t = rng.next_bernoulli(p);
      transmitted_[i] = t;
      sent_[i] += t;
      count += t;
    }
    p_sum = sum;
    return count;
  }

  /// Batched mode's first pass: every station's transmission probability
  /// into probs(), the slot's joint category law and the min stationarity
  /// horizon, in one scan. Throws on p outside [0, 1].
  SlotLaw gather_slot_law() {
    const std::size_t n = stations_.size();
    probs_.resize(n);
    SlotLaw law;
    for (std::size_t i = 0; i < n; ++i) {
      const double p = protocol(i).transmit_probability();
      UCR_CHECK(p >= 0.0 && p <= 1.0,
                "protocol produced a probability outside [0, 1]");
      probs_[i] = p;
      law.horizon = std::min(law.horizon, protocol(i).stationary_slots());
      law.s = law.s * (1.0 - p) + law.q * p;
      law.q *= 1.0 - p;
      law.p_sum += p;
    }
    return law;
  }

  /// Batched mode's one-slot step after gather_slot_law: one
  /// Bernoulli(probs()[i]) coin per station, in index order — the same
  /// draws as gather_and_draw. Records the flips in transmitted(), charges
  /// the energy ledger, and returns the transmitter count.
  std::uint64_t draw_transmissions(Xoshiro256& rng) {
    const std::size_t n = probs_.size();
    transmitted_.resize(n);
    std::uint64_t count = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const bool t = rng.next_bernoulli(probs_[i]);
      transmitted_[i] = t;
      sent_[i] += t;
      count += t;
    }
    return count;
  }

  /// Index of the `target`-th transmitter (0-based) of this slot's flips.
  /// Requires target < the count the slot's coin pass returned.
  std::size_t nth_transmitter(std::uint64_t target) const {
    for (std::size_t i = 0; i < transmitted_.size(); ++i) {
      if (!transmitted_[i]) continue;
      if (target == 0) return i;
      --target;
    }
    UCR_CHECK(false, "fewer transmitters than the requested index");
    return transmitted_.size();
  }

  const std::vector<double>& probs() const { return probs_; }
  bool transmitted(std::size_t i) const { return transmitted_[i] != 0; }
  std::uint64_t arrival_slot(std::size_t i) const { return arrival_slot_[i]; }
  std::uint64_t sent(std::size_t i) const { return sent_[i]; }
  void add_sent(std::size_t i) { ++sent_[i]; }

  /// Removes station i by moving the last station into its place (order
  /// is irrelevant to the model). Per-slot scratch is not remapped — it is
  /// stale after any removal.
  void swap_remove(std::size_t i) {
    UCR_CHECK(i < stations_.size(), "swap_remove index out of range");
    const std::size_t last = stations_.size() - 1;
    if (i != last) {
      stations_[i] = std::move(stations_[last]);
      arrival_slot_[i] = arrival_slot_[last];
      sent_[i] = sent_[last];
    }
    stations_.pop_back();
    arrival_slot_.pop_back();
    sent_.pop_back();
  }

  /// Largest attempt count among still-active stations (the end-of-run
  /// energy fold for stations that never drained).
  std::uint64_t max_sent() const {
    std::uint64_t max = 0;
    for (const std::uint64_t s : sent_) max = std::max(max, s);
    return max;
  }

 private:
  std::vector<Station> stations_;
  std::vector<std::uint64_t> arrival_slot_;
  std::vector<std::uint64_t> sent_;
  // Per-slot scratch, index-aligned with the persistent arrays.
  std::vector<double> probs_;
  std::vector<std::uint8_t> transmitted_;
};

}  // namespace ucr
