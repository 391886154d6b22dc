#include "common/samplers.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/mathx.hpp"

namespace ucr {

namespace detail {

namespace {

// The relative margin of success_bounds. prob_success rounds its exponent
// (m − 1)·log1p(−p) to within a few ulps, a relative 1e-15 at most, and
// exp moves by that times the exponent, at most 745 before it
// underflows: under 1e-12 with the rounding of exp, the products and this
// table's series.
constexpr double kMargin = 1e-12;

// e^t for 0 <= t <= 16.02 by its Taylor series: positive terms, summed to
// within a relative 1e-14 of e^t.
constexpr double exp_series(double t) {
  double term = 1.0;
  double sum = 1.0;
  for (int n = 1; n < 80; ++n) {
    term *= t / n;
    sum += term;
  }
  return sum;
}

constexpr std::array<ExpBracket, kExpEntries> exp_brackets() {
  std::array<ExpBracket, kExpEntries> table{};
  for (std::size_t i = 0; i < kExpEntries; ++i) {
    const double value = 1.0 / exp_series(static_cast<double>(i) / kExpSteps);
    table[i] = {value * (1.0 - kMargin), value * (1.0 + kMargin)};
  }
  table[kExpEntries - 1].lower = 0.0;
  return table;
}

constexpr std::array<ExpBracket, kExpEntries> kTable = exp_brackets();

}  // namespace

constinit const std::array<ExpBracket, kExpEntries> kExpBrackets = kTable;
// (y + 1)·e^(−y) bounds m·p·e^(−y) = (y + p)·e^(−y) and falls for y > 0.
constinit const double kSuccessTail =
    (kExpSpan + 1) * kTable[kExpSteps * kExpSpan].upper;

}  // namespace detail

SlotLaw slot_law(std::uint64_t m, double p) {
  UCR_REQUIRE(p >= 0.0 && p <= 1.0, "transmission probability out of range");
  // The branches and expressions of pow_one_minus and prob_success
  // (mathx.cpp), sharing the log1p: every value is bit-identical to theirs.
  if (m == 0 || p == 0.0) return {1.0, 0.0};
  if (p == 1.0) return {0.0, m == 1 ? 1.0 : 0.0};
  const double md = static_cast<double>(m);
  const double log_q = std::log1p(-p);
  return {std::exp(md * log_q), md * p * std::exp((md - 1.0) * log_q)};
}

SlotCategory sample_slot_category(Xoshiro256& rng, const SlotLaw& law) {
  const double u = rng.next_double();
  if (u < law.silence) return SlotCategory::kSilence;
  if (u < law.silence + law.success) return SlotCategory::kSuccess;
  return SlotCategory::kCollision;
}

SlotCategory sample_slot_category(Xoshiro256& rng, std::uint64_t m, double p) {
  UCR_REQUIRE(p >= 0.0 && p <= 1.0, "transmission probability out of range");
  if (m == 0 || p == 0.0) return SlotCategory::kSilence;
  return sample_slot_category(rng, slot_law(m, p));
}

namespace detail {

std::uint64_t binomial_inversion(Xoshiro256& rng, std::uint64_t n, double p) {
  // CDF walk from k = 0; expected number of iterations is n*p + O(sqrt(np)).
  const double q = pow_one_minus(p, static_cast<double>(n));
  UCR_CHECK(q > 0.0, "inversion sampler used where (1-p)^n underflows");
  const double s = p / (1.0 - p);
  double f = q;
  double u = rng.next_double();
  std::uint64_t k = 0;
  while (u > f && k < n) {
    u -= f;
    ++k;
    f *= s * (static_cast<double>(n - k + 1) / static_cast<double>(k));
  }
  return k;
}

namespace {

// ln Gamma(x) without std::lgamma's write to the global `signgam`, which
// is a data race when sweep worker threads sample binomials at once.
// lgamma_r returns the same value and stores the sign in a local instead.
double log_gamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

}  // namespace

std::uint64_t binomial_btrs(Xoshiro256& rng, std::uint64_t n, double p) {
  // Hörmann (1993), algorithm BTRS (transformed rejection with squeeze).
  UCR_REQUIRE(p > 0.0 && p <= 0.5, "BTRS requires 0 < p <= 0.5");
  const double nd = static_cast<double>(n);
  UCR_REQUIRE(nd * p >= 10.0, "BTRS requires n*p >= 10");

  const double q = 1.0 - p;
  const double spq = std::sqrt(nd * p * q);
  const double b = 1.15 + 2.53 * spq;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = nd * p + 0.5;
  const double v_r = 0.92 - 4.2 / b;
  // The rejection test's constants, computed the first time a draw gets
  // past the squeeze: most draws return before it, and h alone costs two
  // lgamma calls.
  bool rejection_ready = false;
  double alpha = 0.0;
  double lpq = 0.0;
  double m = 0.0;
  double h = 0.0;

  for (;;) {
    const double u = rng.next_double() - 0.5;
    double v = rng.next_double();
    const double us = 0.5 - std::fabs(u);
    const double kd = std::floor((2.0 * a / us + b) * u + c);
    if (kd < 0.0 || kd > nd) continue;
    if (us >= 0.07 && v <= v_r) {
      return static_cast<std::uint64_t>(kd);
    }
    if (!rejection_ready) {
      alpha = (2.83 + 5.1 / b) * spq;
      lpq = std::log(p / q);
      m = std::floor((nd + 1.0) * p);
      h = log_gamma(m + 1.0) + log_gamma(nd - m + 1.0);
      rejection_ready = true;
    }
    v = std::log(v * alpha / (a / (us * us) + b));
    if (v <= h - log_gamma(kd + 1.0) - log_gamma(nd - kd + 1.0) +
                 (kd - m) * lpq) {
      return static_cast<std::uint64_t>(kd);
    }
  }
}

}  // namespace detail

std::uint64_t sample_binomial(Xoshiro256& rng, std::uint64_t n, double p) {
  UCR_REQUIRE(p >= 0.0 && p <= 1.0, "binomial probability out of range");
  if (n == 0 || p == 0.0) return 0;
  if (p == 1.0) return n;

  // Work with p' = min(p, 1-p) and mirror the result if we flipped.
  const bool flipped = p > 0.5;
  const double pp = flipped ? 1.0 - p : p;
  const double mean = static_cast<double>(n) * pp;

  std::uint64_t k;
  if (mean < 12.0) {
    k = detail::binomial_inversion(rng, n, pp);
  } else {
    k = detail::binomial_btrs(rng, n, pp);
  }
  return flipped ? n - k : k;
}

namespace {

// Inversion: F = floor(ln(1-u) / ln(1-p)) with u ~ U[0,1) and log_q =
// ln(1-p), both via log1p for stability at the small p the protocols
// produce (p ~ 1/k). F is compared as a double, so a draw past 2^64
// truncates to the limit before any cast.
std::uint64_t geometric_by_inversion(Xoshiro256& rng, double log_q,
                                     std::uint64_t limit) {
  const double u = rng.next_double();
  const double failures = std::floor(std::log1p(-u) / log_q);
  if (!(failures < static_cast<double>(limit))) return limit;
  return static_cast<std::uint64_t>(failures);
}

}  // namespace

std::uint64_t sample_geometric_failures(Xoshiro256& rng, double p,
                                        std::uint64_t limit) {
  UCR_REQUIRE(p >= 0.0 && p <= 1.0, "geometric probability out of range");
  if (p == 1.0) return 0;
  if (p == 0.0 || limit == 0) return limit;
  return geometric_by_inversion(rng, std::log1p(-p), limit);
}

std::uint64_t sample_geometric_failures(Xoshiro256& rng, double p,
                                        double log_q, std::uint64_t limit) {
  UCR_REQUIRE(p >= 0.0 && p <= 1.0, "geometric probability out of range");
  if (p == 1.0) return 0;
  if (p == 0.0 || limit == 0) return limit;
  return geometric_by_inversion(rng, log_q, limit);
}

Stretch sample_stretch(Xoshiro256& rng, double success, double silence,
                       std::uint64_t limit) {
  Stretch run;
  run.failures = sample_geometric_failures(rng, success, limit);
  run.silent = run.failures;
  if (run.failures > 0 && success < 1.0) {
    const double conditional = std::min(1.0, silence / (1.0 - success));
    run.silent = sample_binomial(rng, run.failures, conditional);
  }
  return run;
}

namespace {

// The mean from which PoissonLaw draws by PTRS instead of the CDF walk,
// where the walk's expected lambda + 1 steps start to cost more than
// PTRS's tries.
constexpr double kPtrsFrom = 10.0;

// ln k! for PTRS's acceptance test. Below a mean of about 50 half its
// tries fall past the squeeze, and those are most of a dense window's
// draws at paper scale, so the values for k < 256 are looked up: each
// the double log_gamma(k + 1) returns, so no draw moves.
double log_factorial(double k) {
  constexpr std::size_t kTabled = 256;
  static const std::array<double, kTabled> table = [] {
    std::array<double, kTabled> values{};
    for (std::size_t i = 0; i < kTabled; ++i) {
      values[i] = detail::log_gamma(static_cast<double>(i) + 1.0);
    }
    return values;
  }();
  if (k < static_cast<double>(kTabled)) {
    return table[static_cast<std::size_t>(k)];
  }
  return detail::log_gamma(k + 1.0);
}

}  // namespace

PoissonLaw::PoissonLaw(double lambda) : lambda_(lambda) {
  UCR_REQUIRE(lambda >= 0.0 && std::isfinite(lambda),
              "Poisson rate must be finite and non-negative");
  if (lambda < kPtrsFrom) {
    double term = std::exp(-lambda);
    double cdf = term;
    cdf_[0] = cdf;
    for (std::size_t j = 1; j < kCachedTerms; ++j) {
      term *= lambda / static_cast<double>(j);
      cdf += term;
      cdf_[j] = cdf;
    }
    last_term_ = term;
    return;
  }
  // Hörmann (1993), algorithm PTRS.
  const double root = std::sqrt(lambda);
  b_ = 0.931 + 2.53 * root;
  a_ = -0.059 + 0.02483 * b_;
  v_r_ = 0.9277 - 3.6224 / (b_ - 2.0);
  log_lambda_ = std::log(lambda);
  inv_alpha_ = 1.1239 + 1.1328 / (b_ - 3.4);
}

std::uint64_t PoissonLaw::draw(Xoshiro256& rng) const {
  if (lambda_ >= kPtrsFrom) return draw_by_ptrs(rng);
  if (lambda_ == 0.0) return 0;
  const double u = rng.next_double();
  for (std::size_t j = 0; j < kCachedTerms; ++j) {
    if (u < cdf_[j]) return j;
  }
  // Past the cached terms the walk goes on, and stops where the sum no
  // longer grows, within rounding of 1.
  double term = last_term_;
  double cdf = cdf_[kCachedTerms - 1];
  std::uint64_t k = kCachedTerms - 1;
  while (u >= cdf) {
    ++k;
    term *= lambda_ / static_cast<double>(k);
    const double next = cdf + term;
    if (next == cdf) break;
    cdf = next;
  }
  return k;
}

std::uint64_t PoissonLaw::draw_by_ptrs(Xoshiro256& rng) const {
  for (;;) {
    const double u = rng.next_double() - 0.5;
    const double v = rng.next_double();
    const double us = 0.5 - std::fabs(u);
    // Compared as a double before any cast: a u at or near −1/2 sends kd
    // far below 0, to −infinity at us = 0.
    const double kd = std::floor((2.0 * a_ / us + b_) * u + lambda_ + 0.43);
    if (us >= 0.07 && v <= v_r_) return static_cast<std::uint64_t>(kd);
    if (kd < 0.0 || (us < 0.013 && v > us)) continue;
    if (std::log(v * inv_alpha_ / (a_ / (us * us) + b_)) <=
        -lambda_ + kd * log_lambda_ - log_factorial(kd)) {
      return static_cast<std::uint64_t>(kd);
    }
  }
}

}  // namespace ucr
