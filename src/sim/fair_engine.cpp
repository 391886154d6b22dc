#include "sim/fair_engine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>
#include <vector>

#include "common/check.hpp"
#include "common/mathx.hpp"
#include "common/samplers.hpp"
#include "sim/observer.hpp"

namespace ucr {

namespace {

/// Checks a fair run's inputs and starts its record: k set, and delivery
/// slots reserved once (at most k deliveries) when they are recorded.
RunMetrics start_fair_run(std::uint64_t k, const EngineOptions& options) {
  UCR_REQUIRE(k > 0, "workload must contain at least one message");
  UCR_REQUIRE(!options.batched || options.observer == nullptr,
              "the batched engine never materializes skipped slots; per-slot "
              "observers require the exact engine");
  UCR_REQUIRE(options.channel.is_clean(),
              "the fair aggregate engines rest on a common-feedback "
              "symmetry that imperfect channel models (channel/model.hpp) "
              "break; non-clean cells run on the exact node engine — the "
              "exp pipeline routes them there automatically");
  RunMetrics metrics;
  metrics.k = k;
  if (options.record_deliveries) metrics.delivery_slots.reserve(k);
  return metrics;
}

double transmit_probability(const FairSlotProtocol& protocol) {
  const double p = protocol.transmit_probability();
  UCR_CHECK(p >= 0.0 && p <= 1.0,
            "protocol produced a probability outside [0, 1]");
  return p;
}

// An upper bound on m·p·(1 − p)^(m−1), the success probability of m
// stations that all transmit with p, over every p. By the paper's Fact 4
// (fact4_f, analysis/theory_checks.hpp, with a = m and x = 1/p) it peaks
// at p = 1/m, at (1 − 1/m)^(m−1), which lies below (1 + 1/m)/e: in log
// space by at least 0.197/m for every m >= 2 (checked for m up to 2·10^5
// and at 10^6..10^10; the gap tends to 1/(2m)). Rounding the bound up by
// a relative 1e-12 keeps it above any rounding of prob_success.
double success_envelope(std::uint64_t m) {
  if (m == 1) return 1.0;
  const double md = static_cast<double>(m);
  return (1.0 + 1.0 / md) / std::numbers::e * (1.0 + 1e-12);
}

// The laws of the last two (m, p) pairs a step of the slot engine asked
// for, as `compute` returns them: the whole SlotLaw for exact steps and
// for constant-probability stretches that split their slots, just
// P[success] (prob_success, one exp fewer) for thinned steps, and a
// CycleLaw for the other cycle steps. m only changes on a delivery, and in
// between the protocols interleave an AT and a BT probability of which
// at least one holds (One-Fail's BT probability, both of Log-Fails'
// until an estimator update), so most of their slots or cycles find
// their law here instead of paying a log1p and an exp or two. A stored
// law is the double `compute` returns, so no draw and no outcome moves.
// Evicting the least recently used entry keeps the probability that
// holds while the other one changes every step.
template <class Law, Law (*compute)(std::uint64_t, double)>
class RecentLaws {
 public:
  const Law& get(std::uint64_t m, double p) {
    for (int i = 0; i < 2; ++i) {
      if (entries_[i].m == m && entries_[i].p == p) {
        victim_ = 1 - i;
        return entries_[i].law;
      }
    }
    Entry& entry = entries_[victim_];
    entry = {m, p, compute(m, p)};
    victim_ = 1 - victim_;
    return entry.law;
  }

 private:
  struct Entry {
    std::uint64_t m = 0;
    double p = -1.0;  // no probability matches: both entries start empty
    Law law{};
  };
  Entry entries_[2];
  int victim_ = 0;
};

// The law of one kind of slot in a cycle step: P[success] of m stations
// that all send with p, the double prob_success returns, and its
// log1p(-P[success]), the denominator of every geometric draw at it.
struct CycleLaw {
  double success = 0.0;
  double log_fail = 0.0;
};

// prob_success is m·p·exp((m − 1)·log1p(−p)), and exp(x) is exactly 0 for
// x below about −745.13. log1p(−p) <= −p, so once (m − 1)·p exceeds 750
// the law is 0 without evaluating it, which moves no draw: at k = 10^6
// that is Log-Fails' BT law (bt = 0.048) while m is above 15700.
CycleLaw cycle_law(std::uint64_t m, double p) {
  if (static_cast<double>(m - 1) * p > 750.0) return {};
  const double success = prob_success(m, p);
  return {success, std::log1p(-success)};
}

}  // namespace

RunMetrics run_fair_slot_engine(FairSlotProtocol& protocol, std::uint64_t k,
                                Xoshiro256& rng,
                                const EngineOptions& options) {
  RunMetrics metrics = start_fair_run(k, options);
  const std::uint64_t cap = options.resolved_cap(k);
  KahanSum expected_tx;  // ~10^7 tiny addends at paper scale

  RecentLaws<SlotLaw, slot_law> laws;
  RecentLaws<double, prob_success> successes;
  RecentLaws<CycleLaw, cycle_law> cycle_laws;
  std::uint64_t m = k;  // active stations
  // Counts a delivery in the run's last elapsed slot.
  const auto deliver = [&] {
    ++metrics.success_slots;
    ++metrics.deliveries;
    --m;
    if (options.record_deliveries) {
      metrics.delivery_slots.push_back(metrics.slots - 1);
    }
  };
  while (m > 0 && metrics.slots < cap) {
    if (options.batched) {
      const SlotCycle cycle = protocol.slot_cycle();
      UCR_CHECK(cycle.slots >= 1 && cycle.period >= 1 &&
                    (cycle.period > 1 || cycle.to_bt == 0),
                "a slot cycle needs a slot, a period, and at period 1 "
                "every slot on the BT probability");
      if (cycle.period == 1 && cycle.slots == 1) {
        // Thinned step, run to the next delivery or the cap: one uniform
        // u per slot, and the slot delivers iff u < s = P[success]. Every
        // s lies below the envelope, so a u at or above it decides "no
        // delivery" without the law — about 63% of slots at paper scale.
        // P[u < s] = s, so the step is exact; what it gives up is the
        // silence/collision split of the non-delivery slots.
        metrics.silence_collision_sampled = false;
        const double envelope = success_envelope(m);
        const double md = static_cast<double>(m);
        // A local count: the protocol's virtual calls cannot reach it, so
        // it stays in a register across them.
        std::uint64_t slots = metrics.slots;
        bool delivery = false;
        double p = transmit_probability(protocol);
        for (;;) {
          expected_tx.add(md * p);
          const double u = rng.next_double();
          if (u < envelope) {
            const double s = successes.get(m, p);
            UCR_CHECK(s <= envelope,
                      "slot success probability above its envelope");
            delivery = u < s;
          }
          ++slots;
          if (delivery || slots == cap) break;
          protocol.on_slot_end(false);
          p = transmit_probability(protocol);
        }
        metrics.slots = slots;
        if (delivery) deliver();
        protocol.on_slot_end(delivery);
        continue;
      }
      // Cycle step over the next n slots. Given m each slot succeeds
      // independently, an AT slot with s_at and a BT slot with s_bt, so
      // the first AT success among the AT slots is Geometric(s_at), the
      // first BT success among the BT slots Geometric(s_bt), the two
      // are independent, and the delivery is whichever comes first in
      // slot order: draw the AT success, then the BT success among the
      // BT slots before it. Geometric draws are memoryless, so the next
      // step drawing afresh under the protocol's next cycle is exact.
      UCR_CHECK(cycle.at >= 0.0 && cycle.at <= 1.0 && cycle.bt >= 0.0 &&
                    cycle.bt <= 1.0,
                "protocol produced a probability outside [0, 1]");
      const std::uint64_t n = std::min(cycle.slots, cap - metrics.slots);
      const std::uint64_t period = cycle.period;
      const std::uint64_t to_bt = cycle.to_bt;
      // A constant-probability stretch splits its non-success slots into
      // silence vs collision with one binomial draw, at P[silence | no
      // success], while the run still samples the split; after a thinned
      // or longer cycle step it would be discarded, so it is not drawn.
      const bool split = period == 1 && metrics.silence_collision_sampled;
      // Elapsed slots of each kind: all of them, unless a success cuts
      // the step short.
      std::uint64_t bt_sent = n > to_bt ? (n - to_bt - 1) / period + 1 : 0;
      std::uint64_t at_sent = n - bt_sent;
      bool delivered = false;
      if (at_sent > 0) {
        const CycleLaw& at = cycle_laws.get(m, cycle.at);
        const std::uint64_t g = sample_geometric_failures(
            rng, at.success, at.log_fail, at_sent);
        if (g < at_sent) {
          // AT slot g lies before the first BT slot, or else among the
          // period - 1 AT slots after BT slot (g - to_bt) / (period - 1).
          at_sent = g + 1;
          bt_sent = g < to_bt ? 0 : (g - to_bt) / (period - 1) + 1;
          delivered = true;
        }
      }
      SlotLaw bt_law;  // P[success], and P[silence] where the split needs it
      if (bt_sent > 0) {
        std::uint64_t g = 0;
        if (split) {
          // The slot-law store holds both laws, from one log1p.
          bt_law = laws.get(m, cycle.bt);
          g = sample_geometric_failures(rng, bt_law.success, bt_sent);
        } else {
          const CycleLaw& bt = cycle_laws.get(m, cycle.bt);
          bt_law.success = bt.success;
          g = sample_geometric_failures(rng, bt.success, bt.log_fail,
                                        bt_sent);
        }
        if (g < bt_sent) {
          // BT slot g sits at offset to_bt + g·period.
          at_sent = to_bt + g * (period - 1);
          bt_sent = g + 1;
          delivered = true;
        }
      }
      const std::uint64_t elapsed = at_sent + bt_sent;
      const std::uint64_t failures = elapsed - (delivered ? 1 : 0);
      const double md = static_cast<double>(m);
      expected_tx.add(md * cycle.at * static_cast<double>(at_sent) +
                      md * cycle.bt * static_cast<double>(bt_sent));
      if (split) {
        std::uint64_t silent = failures;
        if (failures > 0 && bt_law.success < 1.0) {
          silent = sample_binomial(
              rng, failures,
              std::min(1.0, bt_law.silence / (1.0 - bt_law.success)));
        }
        metrics.silence_slots += silent;
        metrics.collision_slots += failures - silent;
      } else {
        metrics.silence_collision_sampled = false;
      }
      metrics.slots += elapsed;
      protocol.on_non_delivery_slots(failures);
      if (delivered) {
        deliver();
        protocol.on_slot_end(true);
      }
      continue;
    }

    // One slot, one category draw: every slot in exact mode. p == 0 is
    // silence without a draw, as in the stateless sample_slot_category.
    const double p = transmit_probability(protocol);
    const SlotLaw& law = laws.get(m, p);
    const SlotCategory cat = p == 0.0 ? SlotCategory::kSilence
                                      : sample_slot_category(rng, law);
    expected_tx.add(static_cast<double>(m) * p);
    bool delivery = false;
    SlotOutcome outcome = SlotOutcome::kSilence;
    ++metrics.slots;
    switch (cat) {
      case SlotCategory::kSilence:
        ++metrics.silence_slots;
        break;
      case SlotCategory::kSuccess:
        deliver();
        delivery = true;
        outcome = SlotOutcome::kSuccess;
        break;
      case SlotCategory::kCollision:
        ++metrics.collision_slots;
        outcome = SlotOutcome::kCollision;
        break;
    }
    if (options.observer != nullptr) {
      options.observer->on_slot(
          SlotView{metrics.slots - 1, m + (delivery ? 1 : 0), p, outcome});
    }
    protocol.on_slot_end(delivery);
  }

  if (!metrics.silence_collision_sampled) {
    // Any counts left by this run's other steps would be partial.
    metrics.silence_slots = 0;
    metrics.collision_slots = 0;
  }
  metrics.expected_transmissions = expected_tx.value();
  metrics.completed = m == 0;
  metrics.validate();
  return metrics;
}

RunMetrics run_fair_window_engine(WindowSchedule& schedule, std::uint64_t k,
                                  Xoshiro256& rng,
                                  const EngineOptions& options) {
  RunMetrics metrics = start_fair_run(k, options);
  const std::uint64_t cap = options.resolved_cap(k);
  KahanSum expected_tx;

  std::uint64_t m = k;                 // active stations
  std::vector<std::uint64_t> seen;     // bitmap walk: offset occupied
  std::vector<std::uint64_t> twice;    // bitmap walk: offset occupied >= 2x
  std::vector<std::uint64_t> choices;  // sorted walk: chosen offsets

  // Per-station slot choices are drawn in bulk (fill_uniform_below) into a
  // fixed-size block, then scattered into the walk's tally — two tight
  // loops instead of one interleaved RNG-call-per-station loop, with the
  // identical u64 consumption order (bit-identical outputs). The block
  // caps the transient memory at 32 KiB regardless of pending size.
  constexpr std::size_t kChoiceBlock = 4096;
  std::vector<std::uint64_t> choice_buf(kChoiceBlock);
  const auto for_each_choice = [&](std::uint64_t window, std::uint64_t count,
                                   auto&& body) {
    for (std::uint64_t done = 0; done < count;) {
      const std::size_t chunk = static_cast<std::size_t>(
          std::min<std::uint64_t>(count - done, kChoiceBlock));
      fill_uniform_below(rng, window, choice_buf.data(), chunk);
      for (std::size_t i = 0; i < chunk; ++i) body(choice_buf[i]);
      done += chunk;
    }
  };
  while (m > 0 && metrics.slots < cap) {
    const std::uint64_t window = schedule.next_window_slots();
    UCR_CHECK(window >= 1, "window schedule produced an empty window");
    const std::uint64_t pending = m;
    // Slots of this window that can still elapse under the cap.
    const std::uint64_t usable = std::min(window, cap - metrics.slots);

    if (!options.batched || window <= pending / 8) {
      // The per-slot chain, one Binomial(left, 1/(W-j)) draw per slot:
      // every window in exact mode, and in batched mode the very dense
      // ones, where O(window) draws beat O(pending) station choices by 8x
      // or more.
      std::uint64_t left = pending;  // stations yet to transmit
      for (std::uint64_t j = 0; j < usable; ++j) {
        if (m == 0) break;  // problem solved; the makespan stops here
        if (left == 0) {
          // Everyone already transmitted: the rest of the window is
          // silent, but it still elapses (later deliveries happen after
          // it). The observer still sees every elapsed slot — RunMetrics
          // and observer-derived traces must agree slot for slot.
          const std::uint64_t take = usable - j;
          if (options.observer != nullptr) {
            for (std::uint64_t s = 0; s < take; ++s) {
              options.observer->on_slot(
                  SlotView{metrics.slots + s, m,
                           1.0 / static_cast<double>(window - (j + s)),
                           SlotOutcome::kSilence});
            }
          }
          metrics.slots += take;
          metrics.silence_slots += take;
          break;
        }
        const double hazard = 1.0 / static_cast<double>(window - j);
        const std::uint64_t t = sample_binomial(rng, left, hazard);
        expected_tx.add(static_cast<double>(left) * hazard);
        left -= t;
        metrics.transmissions += t;
        SlotOutcome outcome;
        if (t == 0) {
          ++metrics.silence_slots;
          outcome = SlotOutcome::kSilence;
        } else if (t == 1) {
          ++metrics.success_slots;
          ++metrics.deliveries;
          --m;
          if (options.record_deliveries) {
            metrics.delivery_slots.push_back(metrics.slots);
          }
          outcome = SlotOutcome::kSuccess;
        } else {
          ++metrics.collision_slots;
          outcome = SlotOutcome::kCollision;
        }
        if (options.observer != nullptr) {
          options.observer->on_slot(SlotView{
              metrics.slots, m + (outcome == SlotOutcome::kSuccess ? 1 : 0),
              hazard, outcome});
        }
        ++metrics.slots;
      }
      continue;
    }

    // Every other batched window samples each pending station's chosen
    // slot directly (equivalent in law to the per-slot chain, by the chain
    // rule on uniform slot choices) and tallies the choices by offset:
    // O(pending) draws instead of O(window) binomials. Stations beyond the
    // cap never get to transmit (the run stops first), exactly as in the
    // per-slot engines. Window size alone picks the tally: two bitmaps
    // while they are no larger than the choice list, else that list,
    // sorted (windows of more than 64 slots per pending station). Both
    // walks visit the offsets in slot order.
    std::uint64_t occupied = 0;    // offsets one or more stations chose
    std::uint64_t collisions = 0;  // offsets two or more stations chose
    std::uint64_t top = 0;         // the highest offset chosen
    if (usable / 64 <= pending) {
      // Bitmap walk: occupancy {0, 1, >= 2} per offset in two bitmaps,
      // then one pass over their words, O(pending + usable/64), no sort.
      const std::size_t words = static_cast<std::size_t>((usable + 63) / 64);
      seen.assign(words, 0);
      twice.assign(words, 0);
      for_each_choice(window, pending, [&](std::uint64_t c) {
        if (c >= usable) return;
        ++metrics.transmissions;
        const std::size_t w = static_cast<std::size_t>(c / 64);
        const std::uint64_t bit = std::uint64_t{1} << (c % 64);
        twice[w] |= seen[w] & bit;
        seen[w] |= bit;
      });
      for (std::size_t w = 0; w < words; ++w) {
        const std::uint64_t word = seen[w];
        const std::uint64_t base = 64 * w;
        occupied += static_cast<std::uint64_t>(std::popcount(word));
        collisions += static_cast<std::uint64_t>(std::popcount(twice[w]));
        if (word != 0) {
          top = base + 63 - static_cast<std::uint64_t>(std::countl_zero(word));
        }
        if (options.record_deliveries) {
          for (std::uint64_t singles = word & ~twice[w]; singles != 0;
               singles &= singles - 1) {
            const int bit = std::countr_zero(singles);
            metrics.delivery_slots.push_back(metrics.slots + base + bit);
          }
        }
      }
    } else {
      // Sorted walk: the windows whose bitmaps would dwarf the choice list.
      choices.clear();
      for_each_choice(window, pending, [&](std::uint64_t c) {
        if (c < usable) choices.push_back(c);
      });
      std::sort(choices.begin(), choices.end());
      metrics.transmissions += choices.size();
      for (std::size_t i = 0; i < choices.size();) {
        std::size_t j = i + 1;
        while (j < choices.size() && choices[j] == choices[i]) ++j;
        ++occupied;
        if (j - i > 1) {
          ++collisions;
        } else if (options.record_deliveries) {
          metrics.delivery_slots.push_back(metrics.slots + choices[i]);
        }
        top = choices[i];
        i = j;
      }
    }
    const std::uint64_t successes = occupied - collisions;
    metrics.success_slots += successes;
    metrics.deliveries += successes;
    metrics.collision_slots += collisions;
    m -= successes;
    // Every pending station delivered <=> the makespan stops at the last
    // (necessarily singleton) choice, inside this window.
    const std::uint64_t elapsed = m == 0 ? top + 1 : usable;
    metrics.silence_slots += elapsed - occupied;
    metrics.slots += elapsed;
  }

  // Transmission counting is exact on every path. Batched mode's
  // expected-count field mirrors it — the realized count is also the
  // conditional expectation given the slot choices — while exact mode
  // keeps the sum of per-slot expectations.
  metrics.expected_transmissions =
      options.batched ? static_cast<double>(metrics.transmissions)
                      : expected_tx.value();
  metrics.completed = m == 0;
  metrics.validate();
  return metrics;
}

}  // namespace ucr
