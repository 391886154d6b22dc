#include "common/samplers.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/mathx.hpp"

namespace ucr {

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

std::uint64_t sample_poisson(Xoshiro256& rng, double lambda) {
  UCR_REQUIRE(lambda >= 0.0, "Poisson rate must be non-negative");
  if (lambda == 0.0) return 0;
  if (lambda < 30.0) {
    // Knuth inversion on the multiplicative scale.
    const double limit = std::exp(-lambda);
    double prod = rng.next_double();
    std::uint64_t k = 0;
    while (prod > limit) {
      prod *= rng.next_double();
      ++k;
    }
    return k;
  }
  // Split recursively: Poisson(l) = Poisson(l/2) + Poisson(l/2) would recurse
  // deeply; instead use the classic Gamma-split: with m = floor(7/8 * l),
  // draw g ~ Gamma(m) via the Marsaglia-Tsang method and recurse on the
  // remainder. To keep the implementation compact and exact we instead use
  // the binomial split: Poisson(l) conditioned on Poisson(2l) is binomial —
  // but the simplest exact route with the tools at hand is the normal-free
  // "chunked inversion": sum independent Poisson(25) chunks plus one
  // remainder chunk, each sampled by inversion (exp(-25) ~ 1.4e-11 is well
  // within double range).
  std::uint64_t total = 0;
  double remaining = lambda;
  while (remaining > 30.0) {
    total += sample_poisson(rng, 25.0);
    remaining -= 25.0;
  }
  return total + sample_poisson(rng, remaining);
}

}  // namespace ucr
