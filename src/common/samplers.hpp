// Exact discrete samplers used by the aggregate simulation engine.
//
// The fair-protocol engine replaces per-station coin flips with draws of the
// *number of transmitters* in a slot. Two regimes:
//
//  * slot-probability protocols only need the category {0, 1, >=2}, sampled
//    in O(1) from the closed-form probabilities (see sample_slot_category);
//  * window protocols need the exact transmitter count: in exact mode a
//    true Binomial(n, p) sample per slot for n up to 10^7 and arbitrary p.
//
// Binomial sampling is implemented from scratch (std::binomial_distribution
// is not reproducible across standard libraries):
//  * inversion (CDF walk) when n*min(p,1-p) < 12 — expected O(np) work;
//  * BTRS, Hörmann's transformed-rejection algorithm with squeeze
//    ("The generation of binomial random variates", W. Hörmann, 1993),
//    otherwise — exact, O(1) expected work.
//
// The batched window engine's dense windows take a whole window's slot
// counts at once instead: independent Poisson counts (PoissonLaw, a CDF
// walk below a mean of 10 and Hörmann's PTRS from 10 up), which given
// their sum are Multinomial over the slots (sim/fair_engine.hpp).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

#include "common/rng.hpp"

namespace ucr {

/// Outcome category of a slot where m stations transmit independently
/// with probability p each (matches channel::SlotOutcome semantics).
enum class SlotCategory : std::uint8_t {
  kSilence = 0,
  kSuccess = 1,
  kCollision = 2
};

/// The category law of a slot where m stations transmit independently
/// with probability p each; P[collision] = 1 - silence - success.
struct SlotLaw {
  double silence = 1.0;  // P[Binomial(m, p) = 0]
  double success = 0.0;  // P[Binomial(m, p) = 1]
};

/// P[silence] and P[success] from one shared log1p(-p): each field is the
/// double prob_silence(m, p) and prob_success(m, p) return (the same
/// expressions, mathx.hpp), for one log1p and two exp instead of two of
/// each. Requires 0 <= p <= 1.
SlotLaw slot_law(std::uint64_t m, double p);

/// A bracket [lower, upper] around the double prob_success(m, p)
/// (mathx.hpp) returns, from success_bounds.
struct SuccessBounds {
  double lower = 0.0;
  double upper = 1.0;
};

namespace detail {
/// success_bounds' table: entry i brackets e^(−i/64), its sides widened
/// outward by a relative margin (samplers.cpp), except that the last
/// entry's lower side is 0, which a lower bound past the table reads.
struct ExpBracket {
  double lower = 0.0;
  double upper = 0.0;
};
inline constexpr int kExpSteps = 64;  // entries per unit of the exponent
inline constexpr int kExpSpan = 16;   // the exponents the table covers
inline constexpr std::size_t kExpEntries = kExpSteps * kExpSpan + 2;
extern const std::array<ExpBracket, kExpEntries> kExpBrackets;
/// An upper bound on prob_success(m, p) once (m − 1)·p >= kExpSpan.
extern const double kSuccessTail;
}  // namespace detail

/// Bounds on s = prob_success(m, p) = m·p·(1 − p)^(m−1) from a few
/// multiplies, one division and one table (no libm call), for deciding
/// u < s without s wherever u falls outside them: the squeeze of
/// rejection sampling. The exponent y* = −(m − 1)·ln(1 − p) lies in
/// [y, y/(1 − p)], y = (m − 1)·p, by −p/(1 − p) <= ln(1 − p) <= −p, so
/// s lies in [m·p·e^(−y/(1−p)), m·p·e^(−y)]; the table rounds each
/// exponent outward to a multiple of 1/64, and once y >= 16 the bracket
/// is [0, kSuccessTail], as s <= (y + 1)·e^(−y) there. The relative
/// width is about 1/64 + (m − 1)·p²/(1 − p), 1.6% at p ~ 1/m for large m.
///
/// The table's margin covers prob_success's own rounding: its exponent
/// (m − 1)·log1p(−p) has a relative error of a few ulps, which moves
/// exp by at most about 745 times that before exp underflows, and a
/// result that underflows lies far below both sides. So for
/// 1 <= m < 2^53 and 0 <= p <= 1, lower <= prob_success(m, p) <= upper
/// (tests/common/samplers_test.cpp checks a grid and 2·10^6 random
/// pairs).
inline SuccessBounds success_bounds(std::uint64_t m, double p) {
  using detail::kExpBrackets;
  using detail::kExpSpan;
  using detail::kExpSteps;
  // The operands of prob_success: the same md, (md − 1) and md·p.
  const double md = static_cast<double>(m);
  const double y = (md - 1.0) * p;
  if (!(y < kExpSpan)) return {0.0, detail::kSuccessTail};
  const double mp = md * p;
  const auto hi = static_cast<std::size_t>(y * kExpSteps);
  // floor(64·y/(1 − p)) + 1, or the last entry past the table (or for the
  // NaN of m = 1, p = 1).
  const double steps = y / (1.0 - p) * kExpSteps;
  std::size_t lo = detail::kExpEntries - 1;
  if (steps < kExpSteps * kExpSpan) lo = static_cast<std::size_t>(steps) + 1;
  return {mp * kExpBrackets[lo].lower, mp * kExpBrackets[hi].upper};
}

/// Draws a slot category from a computed law with exactly one uniform
/// draw: u < silence -> silence, u < silence + success -> success,
/// otherwise collision. The fair slot engine keeps the laws it has
/// computed and draws through this overload.
SlotCategory sample_slot_category(Xoshiro256& rng, const SlotLaw& law);

/// Draws the category of Binomial(m, p) in O(1): 0 -> silence,
/// 1 -> success, >=2 -> collision. Same as sampling slot_law(m, p), except
/// that m == 0 or p == 0 returns silence without a draw.
SlotCategory sample_slot_category(Xoshiro256& rng, std::uint64_t m, double p);

/// Exact Binomial(n, p) sample. Requires 0 <= p <= 1.
std::uint64_t sample_binomial(Xoshiro256& rng, std::uint64_t n, double p);

/// Number of failures before the first success in i.i.d. Bernoulli(p)
/// trials, truncated at `limit`: returns min(Geometric(p), limit), where
/// Geometric(p) counts failures (support 0, 1, 2, ...). Returns `limit`
/// when p == 0. Requires 0 <= p <= 1. Consumes one uniform draw, except
/// that p == 0, p == 1 and limit == 0 decide the result without one —
/// one draw is what lets the batched fair engine resolve a whole
/// constant-p run of slots in O(1), and the no-draw cases are what keep
/// the node engine's deterministic stretches bit-identical to its
/// one-slot steps.
std::uint64_t sample_geometric_failures(Xoshiro256& rng, double p,
                                        std::uint64_t limit);

/// The same draw, with log_q = std::log1p(-p) supplied by a caller that
/// stores it beside p (the batched fair slot engine's cycle step draws
/// many run lengths at one stored law): the same result and the same
/// generator advance as the overload above, without its log1p.
std::uint64_t sample_geometric_failures(Xoshiro256& rng, double p,
                                        double log_q, std::uint64_t limit);

/// A run of i.i.d. slots, each a success with probability `success` and
/// silent with probability `silence` (a collision otherwise), cut at the
/// first success or after `limit` slots: `failures` non-success slots,
/// min(Geometric(success), limit), of which `silent` were silent. The run
/// ended in a success iff failures < limit.
struct Stretch {
  std::uint64_t failures = 0;
  std::uint64_t silent = 0;
};

/// Draws a Stretch: the run length by sample_geometric_failures, then its
/// silence/collision split with one binomial draw at P[silence | no
/// success]. Both engines' stretch steps (the fair slot engine's
/// constant-p stretch, the node engine's stationary stretch) draw through
/// this. A run of 0 slots or a law of certain silence (success == 0,
/// silence == 1) is decided without a draw.
Stretch sample_stretch(Xoshiro256& rng, double success, double silence,
                       std::uint64_t limit);

/// Exact Poisson(lambda) draws at one rate, with the rate's constants
/// computed once, when the law is built:
///  * lambda = 0 returns 0 without a draw;
///  * lambda < 10 inverts one uniform u by walking the CDF from
///    e^(−lambda), its terms p_j = p_(j−1)·lambda/j cached at
///    construction by that same recurrence; a u past the cached terms
///    walks on;
///  * lambda >= 10 takes PTRS, Hörmann's transformed rejection with
///    squeeze ("The transformed rejection method for generating Poisson
///    random variables", W. Hörmann, 1993): two uniforms a try, 1.1 to
///    1.3 tries a draw (the more, the nearer lambda is to 10), and only
///    a try past the squeeze evaluates logarithms and ln k!.
/// The batched window engine draws a dense window's slot counts from one
/// law, the MMPP arrival process a slot's arrivals from one of its two.
class PoissonLaw {
 public:
  /// Requires 0 <= lambda < infinity.
  explicit PoissonLaw(double lambda);

  std::uint64_t draw(Xoshiro256& rng) const;

 private:
  static constexpr std::size_t kCachedTerms = 32;

  std::uint64_t draw_by_ptrs(Xoshiro256& rng) const;

  double lambda_ = 0.0;
  // CDF walk (lambda < 10): cdf_[j] = P[X <= j] as the walk sums it,
  // and the walk's term at the last cached j.
  std::array<double, kCachedTerms> cdf_{};
  double last_term_ = 0.0;
  // PTRS (lambda >= 10).
  double a_ = 0.0;
  double b_ = 0.0;
  double v_r_ = 0.0;
  double log_lambda_ = 0.0;
  double inv_alpha_ = 0.0;
};

/// Bulk uniform bounded draws: fills out[0..n) with values in [0, bound),
/// consuming the generator's u64 stream exactly as n sequential
/// next_below(bound) calls would (same outputs, same state advance) — the
/// SoA window paths of the batched fair engine draw whole per-station
/// choice arrays through this instead of one call per station, and the
/// bit-identity of the batched engine's pinned outputs survives because
/// the consumption order is unchanged.
///
/// Works for any generator with fill_u64/next_u64 (Xoshiro256, CounterRng).
/// Requires bound > 0.
template <typename Rng>
void fill_uniform_below(Rng& rng, std::uint64_t bound, std::uint64_t* out,
                        std::size_t n) {
  UCR_REQUIRE(bound > 0, "fill_uniform_below requires a positive bound");
  // Lemire's unbiased bounded generation over a prefetched block of raw
  // u64s. Each round fetches exactly one u64 per still-needed output; the
  // rare rejection retries consume the following buffered values (the
  // buffer is a stream prefix, so order is preserved), falling back to
  // direct draws when the block is drained, and the shortfall of outputs
  // is covered by the next round.
  constexpr std::size_t kChunk = 2048;
  std::uint64_t buf[kChunk];
  std::size_t produced = 0;
  while (produced < n) {
    const std::size_t chunk = std::min(n - produced, kChunk);
    rng.fill_u64(buf, chunk);
    std::size_t bi = 0;
    while (bi < chunk) {
      std::uint64_t x = buf[bi++];
      __uint128_t m = static_cast<__uint128_t>(x) * bound;
      auto lo = static_cast<std::uint64_t>(m);
      if (lo < bound) {
        const std::uint64_t threshold = -bound % bound;
        while (lo < threshold) {
          x = bi < chunk ? buf[bi++] : rng.next_u64();
          m = static_cast<__uint128_t>(x) * bound;
          lo = static_cast<std::uint64_t>(m);
        }
      }
      out[produced++] = static_cast<std::uint64_t>(m >> 64);
    }
  }
}

namespace detail {
/// Inversion sampler; exposed for targeted unit tests. Requires
/// n * min(p, 1-p) small enough that (1-p)^n does not underflow.
std::uint64_t binomial_inversion(Xoshiro256& rng, std::uint64_t n, double p);

/// BTRS transformed-rejection sampler; exposed for targeted unit tests.
/// Requires p <= 0.5 and n*p >= 10.
std::uint64_t binomial_btrs(Xoshiro256& rng, std::uint64_t n, double p);
}  // namespace detail

}  // namespace ucr
