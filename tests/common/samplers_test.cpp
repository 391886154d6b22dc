#include "common/samplers.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "common/check.hpp"
#include "common/mathx.hpp"
#include "common/stats.hpp"

namespace ucr {
namespace {

double binomial_pmf(std::uint64_t n, double p, std::uint64_t k) {
  const double nd = static_cast<double>(n);
  const double kd = static_cast<double>(k);
  return std::exp(std::lgamma(nd + 1) - std::lgamma(kd + 1) -
                  std::lgamma(nd - kd + 1) + kd * std::log(p) +
                  (nd - kd) * std::log1p(-p));
}

// --------------------------------------------------------- slot categories

// Certain silence (m == 0 or p == 0) is decided without touching the
// generator; every other slot, p == 1 included, consumes exactly one draw.
// The fair slot engine's bit-identity rests on both.

TEST(SlotCategory, ZeroStationsIsSilence) {
  Xoshiro256 rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(sample_slot_category(rng, 0, 0.5), SlotCategory::kSilence);
  }
  EXPECT_EQ(rng.next_u64(), Xoshiro256(1).next_u64());
}

TEST(SlotCategory, ZeroProbabilityIsSilence) {
  Xoshiro256 rng(2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(sample_slot_category(rng, 1000, 0.0), SlotCategory::kSilence);
  }
  EXPECT_EQ(rng.next_u64(), Xoshiro256(2).next_u64());
}

TEST(SlotCategory, OneStationFullProbabilityIsSuccess) {
  Xoshiro256 rng(3);
  Xoshiro256 fresh(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(sample_slot_category(rng, 1, 1.0), SlotCategory::kSuccess);
    fresh.next_u64();
  }
  EXPECT_EQ(rng.next_u64(), fresh.next_u64());
}

TEST(SlotCategory, ManyStationsFullProbabilityIsCollision) {
  Xoshiro256 rng(4);
  Xoshiro256 fresh(4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(sample_slot_category(rng, 2, 1.0), SlotCategory::kCollision);
    fresh.next_u64();
  }
  EXPECT_EQ(rng.next_u64(), fresh.next_u64());
}

TEST(SlotCategory, RejectsInvalidProbability) {
  Xoshiro256 rng(5);
  EXPECT_THROW(sample_slot_category(rng, 10, -0.1), ContractViolation);
  EXPECT_THROW(sample_slot_category(rng, 10, 1.1), ContractViolation);
  EXPECT_THROW(slot_law(10, -0.1), ContractViolation);
  EXPECT_THROW(slot_law(10, 1.1), ContractViolation);
}

TEST(SlotLaw, BitIdenticalToClosedForms) {
  // The fair slot engine draws from stored slot laws where it used to call
  // prob_silence and prob_success: its pinned outputs stay byte-identical
  // only if every value is the same double, not a close one.
  for (std::uint64_t m : {0ULL, 1ULL, 2ULL, 3ULL, 50ULL, 10000ULL, 1000000ULL,
                          10000000ULL}) {
    const double md = static_cast<double>(m == 0 ? 1 : m);
    for (double p : {0.0, 1e-9, 1.0 / (std::exp(1.0) * md), 1.0 / md, 0.5,
                     1.0 - 0x1.0p-20, 1.0}) {
      const SlotLaw law = slot_law(m, p);
      EXPECT_EQ(law.silence, prob_silence(m, p)) << "m=" << m << " p=" << p;
      EXPECT_EQ(law.success, prob_success(m, p)) << "m=" << m << " p=" << p;
    }
  }
}

TEST(SlotCategory, FrequenciesMatchClosedForm) {
  // m = 50, p = 1/50: P0 = (1-p)^m, P1 = m p (1-p)^{m-1}.
  Xoshiro256 rng(6);
  const std::uint64_t m = 50;
  const double p = 1.0 / 50.0;
  const int n = 300000;
  int c0 = 0, c1 = 0, c2 = 0;
  for (int i = 0; i < n; ++i) {
    switch (sample_slot_category(rng, m, p)) {
      case SlotCategory::kSilence: ++c0; break;
      case SlotCategory::kSuccess: ++c1; break;
      case SlotCategory::kCollision: ++c2; break;
    }
  }
  EXPECT_NEAR(static_cast<double>(c0) / n, prob_silence(m, p), 0.005);
  EXPECT_NEAR(static_cast<double>(c1) / n, prob_success(m, p), 0.005);
  EXPECT_NEAR(static_cast<double>(c2) / n,
              1.0 - prob_silence(m, p) - prob_success(m, p), 0.005);
}

TEST(SlotCategory, SuccessProbabilityPeaksNearOneOverM) {
  // Sanity on the physics: p = 1/m maximizes the success frequency.
  Xoshiro256 rng(7);
  const std::uint64_t m = 100;
  auto success_rate = [&](double p) {
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
      if (sample_slot_category(rng, m, p) == SlotCategory::kSuccess) ++hits;
    }
    return static_cast<double>(hits) / n;
  };
  const double at_opt = success_rate(1.0 / 100.0);
  EXPECT_GT(at_opt, success_rate(1.0 / 10.0));
  EXPECT_GT(at_opt, success_rate(1.0 / 1000.0));
  EXPECT_NEAR(at_opt, 1.0 / std::exp(1.0), 0.01);
}

// ---------------------------------------------------------- success bounds

// The batched fair slot engine decides u < prob_success(m, p) by the
// bracket whenever u falls outside it, so a bracket that misses the value
// by one ulp moves a sample path. Every check compares with the double
// prob_success returns, not with the real s.

// Counts the pairs checked and reports the first few misses.
class Enclosure {
 public:
  void check(std::uint64_t m, double p) {
    ++checked_;
    const SuccessBounds bounds = success_bounds(m, p);
    const double s = prob_success(m, p);
    if (bounds.lower <= s && s <= bounds.upper) return;
    if (++misses_ > 10) return;
    EXPECT_LE(bounds.lower, s) << std::hexfloat << "m=" << m << " p=" << p;
    EXPECT_GE(bounds.upper, s) << std::hexfloat << "m=" << m << " p=" << p;
  }
  std::uint64_t checked() const { return checked_; }
  std::uint64_t misses() const { return misses_; }

 private:
  std::uint64_t checked_ = 0;
  std::uint64_t misses_ = 0;
};

// m from 2 to 2^53 − 1: small counts one by one, then both neighbours of
// every power of two and the powers of ten.
std::vector<std::uint64_t> grid_counts() {
  std::vector<std::uint64_t> ms;
  for (std::uint64_t m = 2; m <= 64; ++m) ms.push_back(m);
  for (int b = 7; b <= 53; ++b) {
    const std::uint64_t power = std::uint64_t{1} << b;
    ms.push_back(power - 1);
    if (b < 53) {
      ms.push_back(power);
      ms.push_back(power + 1);
    }
  }
  for (std::uint64_t m = 100; m < (std::uint64_t{1} << 53); m *= 10) {
    ms.push_back(m);
    ms.push_back(3 * m + 1);
  }
  return ms;
}

// The doubles within `ulps` of p, clamped to (0, 1).
void add_neighbours(std::vector<double>& out, double p, int ulps) {
  double down = p;
  double up = p;
  out.push_back(p);
  for (int i = 0; i < ulps; ++i) {
    down = std::nextafter(down, 0.0);
    up = std::nextafter(up, 1.0);
    if (down > 0.0) out.push_back(down);
    if (up < 1.0) out.push_back(up);
  }
}

TEST(SuccessBounds, TableBracketsEachExponential) {
  // Entry i brackets e^(−i/64) within a few parts in 10^12; the last
  // entry's lower side is 0.
  const auto& table = detail::kExpBrackets;
  for (std::size_t i = 0; i < table.size(); ++i) {
    const double value = std::exp(-static_cast<double>(i) / detail::kExpSteps);
    SCOPED_TRACE(::testing::Message() << "entry " << i);
    EXPECT_LT(value, table[i].upper);
    EXPECT_LT(table[i].upper, value * (1.0 + 4e-12));
    if (i + 1 < table.size()) {
      EXPECT_GT(value, table[i].lower);
      EXPECT_GT(table[i].lower, value * (1.0 - 4e-12));
    } else {
      EXPECT_EQ(table[i].lower, 0.0);
    }
  }
  EXPECT_GE(detail::kSuccessTail,
            (detail::kExpSpan + 1) * std::exp(-double{detail::kExpSpan}));
}

TEST(SuccessBounds, EncloseProbSuccessOnAGrid) {
  // m from 2 to 2^53 − 1 against p from the smallest normal to 1 − 2^−53:
  // a geometric sweep, p = 1/m and its neighbours, and the p that put
  // (m − 1)·p, or (m − 1)·p/(1 − p), the exponent of the lower side, on
  // a bucket edge i/64 or a few ulps either side of one, up to the
  // table's end at 16, and at 750, where the engine's cycle law is 0.
  std::vector<double> edges;
  for (int i : {1, 2, 3, 31, 32, 63, 64, 65, 127, 128, 640, 1000, 1023}) {
    edges.push_back(i / 64.0);
  }
  for (double y : {16.0 - 0x1p-40, 16.0, 16.0 + 0x1p-6, 745.0, 750.0}) {
    edges.push_back(y);
  }
  std::vector<double> sweep;
  for (double p = std::numeric_limits<double>::min(); p < 1.0; p *= 1.7) {
    sweep.push_back(p);
  }
  add_neighbours(sweep, 0.5, 2);
  add_neighbours(sweep, 1.0 - 0x1p-53, 3);
  Enclosure enclosure;
  for (const std::uint64_t m : grid_counts()) {
    const double md = static_cast<double>(m);
    std::vector<double> ps = sweep;
    add_neighbours(ps, 1.0 / md, 3);
    for (const double y : edges) {
      add_neighbours(ps, y / (md - 1.0), 4);
      add_neighbours(ps, y / (md - 1.0 + y), 4);
    }
    for (const double p : ps) {
      if (p > 0.0 && p < 1.0) enclosure.check(m, p);
    }
  }
  std::printf("[ bounds ] %llu grid pairs\n",
              static_cast<unsigned long long>(enclosure.checked()));
  EXPECT_GT(enclosure.checked(), 100000u);
  EXPECT_EQ(enclosure.misses(), 0u);
}

TEST(SuccessBounds, EncloseProbSuccessOnRandomPairs) {
  // 2·10^6 pairs: m − 2 log-uniform on [1, 2^52.9), and p log-uniform on
  // [2^−1022, 1) for half of them, uniform on [1/(4m), 4/m] (the
  // protocols' range, where the engine reads the bracket) for the rest.
  Xoshiro256 rng(40);
  Enclosure enclosure;
  for (int i = 0; i < 2'000'000; ++i) {
    const double log_m = rng.next_double() * 52.9 * std::log(2.0);
    const std::uint64_t m = 2 + static_cast<std::uint64_t>(std::exp(log_m));
    const double md = static_cast<double>(m);
    double p = 0.0;
    if (i % 2 == 0) {
      p = std::exp(-rng.next_double() * 1022.0 * std::log(2.0));
    } else {
      p = (0.25 + 3.75 * rng.next_double()) / md;
    }
    if (p > 0.0 && p < 1.0) enclosure.check(m, p);
  }
  EXPECT_EQ(enclosure.misses(), 0u);
}

TEST(SuccessBounds, EdgesOfTheDomain) {
  // p = 0 and p = 1, and one station, where s = p.
  for (std::uint64_t m : {1ULL, 2ULL, 5ULL, 1000ULL}) {
    for (double p : {0.0, 1e-300, 0.3, 1.0 - 0x1p-53, 1.0}) {
      const SuccessBounds bounds = success_bounds(m, p);
      const double s = prob_success(m, p);
      EXPECT_LE(bounds.lower, s) << "m=" << m << " p=" << p;
      EXPECT_GE(bounds.upper, s) << "m=" << m << " p=" << p;
    }
  }
  EXPECT_EQ(success_bounds(1000, 0.0).upper, 0.0);
}

TEST(SuccessBounds, TightWhereTheEngineReadsThem) {
  // Around p = 1/m the bracket's exponents lie less than two buckets,
  // 2/64, plus (m − 1)·p²/(1 − p) from the bounds on ln(1 − p) apart, and
  // the margin widens it by parts in 10^12: any wider and the engine
  // would evaluate the law far more often.
  for (const std::uint64_t m : grid_counts()) {
    const double md = static_cast<double>(m);
    for (const double c : {0.25, 0.5, 1.0, 2.0, 4.0}) {
      const double p = c / md;
      const double y = (md - 1.0) * p;
      if (!(p < 1.0) || y / (1.0 - p) >= detail::kExpSpan) continue;
      const SuccessBounds bounds = success_bounds(m, p);
      const double widest = std::exp(2 / 64.0 + y * p / (1 - p)) * 1.00001;
      EXPECT_GT(bounds.lower, 0.0) << "m=" << m << " c=" << c;
      EXPECT_LE(bounds.upper, bounds.lower * widest) << "m=" << m << " c=" << c;
    }
  }
}

// --------------------------------------------------------------- binomial

TEST(Binomial, EdgeCases) {
  Xoshiro256 rng(10);
  EXPECT_EQ(sample_binomial(rng, 0, 0.5), 0u);
  EXPECT_EQ(sample_binomial(rng, 100, 0.0), 0u);
  EXPECT_EQ(sample_binomial(rng, 100, 1.0), 100u);
  EXPECT_THROW(sample_binomial(rng, 10, -0.1), ContractViolation);
  EXPECT_THROW(sample_binomial(rng, 10, 2.0), ContractViolation);
}

TEST(Binomial, AlwaysWithinRange) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_LE(sample_binomial(rng, 20, 0.3), 20u);
  }
  for (int i = 0; i < 1000; ++i) {
    ASSERT_LE(sample_binomial(rng, 1000000, 0.4), 1000000u);
  }
}

struct MomentCase {
  std::uint64_t n;
  double p;
};

class BinomialMoments : public ::testing::TestWithParam<MomentCase> {};

TEST_P(BinomialMoments, MeanAndVarianceMatch) {
  const auto [n, p] = GetParam();
  Xoshiro256 rng(1000 + n);
  RunningStats stats;
  const int trials = 60000;
  for (int i = 0; i < trials; ++i) {
    stats.add(static_cast<double>(sample_binomial(rng, n, p)));
  }
  const double mean = static_cast<double>(n) * p;
  const double var = mean * (1.0 - p);
  // 5-sigma tolerance on the sample mean; generous band on the variance.
  const double mean_tol = 5.0 * std::sqrt(var / trials) + 1e-9;
  EXPECT_NEAR(stats.mean(), mean, mean_tol);
  EXPECT_NEAR(stats.variance(), var, 0.08 * var + 0.01);
}

INSTANTIATE_TEST_SUITE_P(
    SweepNAndP, BinomialMoments,
    ::testing::Values(MomentCase{1, 0.5}, MomentCase{2, 0.1},
                      MomentCase{10, 0.05}, MomentCase{100, 0.02},
                      MomentCase{100, 0.5}, MomentCase{1000, 0.001},
                      MomentCase{1000, 0.3}, MomentCase{100000, 0.0001},
                      MomentCase{100000, 0.25}, MomentCase{1000000, 0.5},
                      MomentCase{1000000, 0.9},  // mirrored path (p > 1/2)
                      MomentCase{10000000, 0.3}));

TEST(Binomial, ChiSquareAgainstExactPmfSmallN) {
  // n = 8, p = 0.35: compare the full distribution against the exact pmf.
  Xoshiro256 rng(12);
  const std::uint64_t n = 8;
  const double p = 0.35;
  const int trials = 200000;
  std::vector<double> observed(n + 1, 0.0);
  for (int i = 0; i < trials; ++i) {
    ++observed[sample_binomial(rng, n, p)];
  }
  std::vector<double> expected(n + 1, 0.0);
  for (std::uint64_t k = 0; k <= n; ++k) {
    expected[k] = binomial_pmf(n, p, k) * trials;
  }
  // 8 degrees of freedom; chi2_{0.999} ~ 26.1. Fixed seed, so no flake.
  EXPECT_LT(chi_square_statistic(observed, expected), 26.1);
}

TEST(Binomial, BtrsMatchesInversionDistribution) {
  // Same (n, p) sampled through both internal paths must agree in
  // distribution: compare means and a few quantile-ish counts.
  const std::uint64_t n = 400;
  const double p = 0.05;  // np = 20: BTRS-eligible but inversion-safe
  Xoshiro256 rng_a(13);
  Xoshiro256 rng_b(14);
  RunningStats a, b;
  const int trials = 80000;
  for (int i = 0; i < trials; ++i) {
    a.add(static_cast<double>(detail::binomial_inversion(rng_a, n, p)));
    b.add(static_cast<double>(detail::binomial_btrs(rng_b, n, p)));
  }
  EXPECT_NEAR(a.mean(), b.mean(), 0.12);
  EXPECT_NEAR(a.variance(), b.variance(), 0.08 * a.variance() + 0.3);
}

TEST(Binomial, BtrsPreconditions) {
  Xoshiro256 rng(15);
  EXPECT_THROW(detail::binomial_btrs(rng, 10, 0.6), ContractViolation);
  EXPECT_THROW(detail::binomial_btrs(rng, 10, 0.1), ContractViolation);
}

// --------------------------------------------------------------- geometric

TEST(Geometric, EdgeCases) {
  Xoshiro256 rng(30);
  EXPECT_EQ(sample_geometric_failures(rng, 1.0, 100), 0u);
  EXPECT_EQ(sample_geometric_failures(rng, 0.0, 100), 100u);
  EXPECT_EQ(sample_geometric_failures(rng, 0.5, 0), 0u);
  // None of them consumes a draw: the node engine's deterministic-silence
  // stretches rely on this to stay bit-identical with its one-slot steps.
  EXPECT_EQ(rng.next_u64(), Xoshiro256(30).next_u64());
  EXPECT_THROW(sample_geometric_failures(rng, -0.1, 10), ContractViolation);
  EXPECT_THROW(sample_geometric_failures(rng, 1.1, 10), ContractViolation);
}

TEST(Geometric, NeverExceedsLimit) {
  Xoshiro256 rng(31);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LE(sample_geometric_failures(rng, 1e-6, 37), 37u);
  }
}

class GeometricMoments : public ::testing::TestWithParam<double> {};

TEST_P(GeometricMoments, UntruncatedMeanMatches) {
  // With the limit far beyond any realistic draw, the mean must match the
  // geometric failure count (1-p)/p.
  const double p = GetParam();
  Xoshiro256 rng(32);
  RunningStats stats;
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) {
    stats.add(static_cast<double>(
        sample_geometric_failures(rng, p, ~std::uint64_t{0})));
  }
  const double mean = (1.0 - p) / p;
  const double sd = std::sqrt(1.0 - p) / p;
  EXPECT_NEAR(stats.mean(), mean, 5.0 * sd / std::sqrt(double(trials)));
}

INSTANTIATE_TEST_SUITE_P(SweepP, GeometricMoments,
                         ::testing::Values(0.9, 0.5, 0.1, 0.01, 1e-4));

TEST(Geometric, TruncatedTailMassMatches) {
  // P[draw == limit] = P[Geometric(p) >= limit] = (1-p)^limit.
  const double p = 0.05;
  const std::uint64_t limit = 20;
  Xoshiro256 rng(33);
  const int trials = 200000;
  int at_limit = 0;
  for (int i = 0; i < trials; ++i) {
    if (sample_geometric_failures(rng, p, limit) == limit) ++at_limit;
  }
  const double expected = std::pow(1.0 - p, double(limit));
  EXPECT_NEAR(double(at_limit) / trials, expected,
              5.0 * std::sqrt(expected / trials));
}

// ---------------------------------------------------------------- poisson

TEST(Poisson, ZeroRate) {
  Xoshiro256 rng(20);
  EXPECT_EQ(PoissonLaw(0.0).draw(rng), 0u);
  EXPECT_THROW(PoissonLaw{-1.0}, ContractViolation);
  EXPECT_THROW(PoissonLaw{std::numeric_limits<double>::infinity()},
               ContractViolation);
}

TEST(Poisson, ZeroRateLeavesTheGeneratorUntouched) {
  // The MMPP arrival process draws a quiet state of rate 0 through the
  // same law as its burst state, so that draw must consume nothing.
  Xoshiro256 rng(22);
  Xoshiro256 replay = rng;
  const PoissonLaw law(0.0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(law.draw(rng), 0u);
  EXPECT_EQ(rng.next_u64(), replay.next_u64());
}

class PoissonMoments : public ::testing::TestWithParam<double> {};

TEST_P(PoissonMoments, MeanAndVarianceMatchLambda) {
  const double lambda = GetParam();
  const PoissonLaw law(lambda);
  Xoshiro256 rng(21);
  RunningStats stats;
  const int trials = 60000;
  for (int i = 0; i < trials; ++i) {
    stats.add(static_cast<double>(law.draw(rng)));
  }
  const double tol = 5.0 * std::sqrt(lambda / trials) + 1e-9;
  EXPECT_NEAR(stats.mean(), lambda, tol);
  EXPECT_NEAR(stats.variance(), lambda, 0.08 * lambda + 0.02);
}

INSTANTIATE_TEST_SUITE_P(SweepLambda, PoissonMoments,
                         ::testing::Values(0.1, 1.0, 5.0, 29.0, 31.0, 100.0,
                                           1000.0));

class PoissonLawFit : public ::testing::TestWithParam<double> {};

TEST_P(PoissonLawFit, ChiSquareAgainstExactPmf) {
  // 10^6 draws binned into cells of probability 1/50 or more, taken in
  // order from the lower tail, with the upper tail in the last cell.
  // lambda = 9.99 and 10 sit on both sides of the walk/PTRS cutover.
  const double lambda = GetParam();
  const PoissonLaw law(lambda);
  const int draws = 1'000'000;
  const double spread = 12.0 * std::sqrt(lambda) + 12.0;
  const auto first = static_cast<std::uint64_t>(
      std::max(0.0, std::floor(lambda - spread)));
  const auto last = static_cast<std::uint64_t>(std::ceil(lambda + spread));
  std::vector<std::size_t> cell_of(last - first + 1);
  std::vector<double> expected(1, 0.0);
  for (std::uint64_t k = first; k <= last; ++k) {
    if (expected.back() >= 1.0 / 50) expected.push_back(0.0);
    cell_of[k - first] = expected.size() - 1;
    const double kd = static_cast<double>(k);
    expected.back() +=
        std::exp(-lambda + kd * std::log(lambda) - std::lgamma(kd + 1.0));
  }
  std::vector<double> observed(expected.size(), 0.0);
  Xoshiro256 rng(23);
  for (int i = 0; i < draws; ++i) {
    const std::uint64_t k = law.draw(rng);
    ++observed[k < first ? 0 : cell_of[std::min(k, last) - first]];
  }
  double below_last = 0.0;
  for (std::size_t c = 0; c + 1 < expected.size(); ++c) {
    below_last += expected[c];
  }
  expected.back() = 1.0 - below_last;
  for (double& e : expected) e *= draws;
  const double df = static_cast<double>(expected.size() - 1);
  const double statistic = chi_square_statistic(observed, expected);
  std::printf("[ poisson ] lambda %g: chi-square %.1f, %g df, critical %.1f\n",
              lambda, statistic, df, chi_square_critical_999(df));
  EXPECT_LT(statistic, chi_square_critical_999(df));
}

INSTANTIATE_TEST_SUITE_P(SweepLambda, PoissonLawFit,
                         ::testing::Values(0.5, 3.0, 9.99, 10.0, 47.5, 1000.0,
                                           1e5));

// --------------------------------------------------- bulk bounded uniforms

using BulkRngTypes = ::testing::Types<Xoshiro256, CounterRng>;

template <typename Rng>
class FillUniformBelow : public ::testing::Test {};
TYPED_TEST_SUITE(FillUniformBelow, BulkRngTypes);

TYPED_TEST(FillUniformBelow, MatchesSequentialNextBelow) {
  // The contract the batched fair engine's byte-pinned outputs rest on:
  // fill_uniform_below consumes the generator's u64 stream exactly as n
  // sequential next_below calls would — same outputs, same state advance.
  // bound = 2^63 + 1 forces Lemire rejections on ~half the draws, so the
  // retry path (buffered values, then the drained-buffer fallback) is
  // exercised hard; the small bounds cover the common rejection-free case
  // and sizes around the internal chunk boundary.
  for (std::uint64_t bound : {2ULL, 3ULL, 1000ULL, (1ULL << 63) + 1ULL}) {
    for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{2048},
                          std::size_t{2049}, std::size_t{5000}}) {
      TypeParam bulk(424242);
      TypeParam sequential(424242);
      std::vector<std::uint64_t> out(n);
      fill_uniform_below(bulk, bound, out.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], sequential.next_below(bound))
            << "bound=" << bound << " n=" << n << " i=" << i;
      }
      // Same state advance: the next unbounded draws still agree.
      ASSERT_EQ(bulk.next_u64(), sequential.next_u64())
          << "bound=" << bound << " n=" << n;
    }
  }
}

TYPED_TEST(FillUniformBelow, RejectsZeroBound) {
  TypeParam rng(1);
  std::uint64_t out[1];
  EXPECT_THROW(fill_uniform_below(rng, 0, out, 1), ContractViolation);
}

}  // namespace
}  // namespace ucr
