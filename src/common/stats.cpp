#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace ucr {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
}

double RunningStats::mean() const {
  UCR_REQUIRE(count_ > 0, "mean of empty sample");
  return mean_;
}

double RunningStats::variance() const {
  UCR_REQUIRE(count_ >= 2, "variance requires at least two samples");
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  UCR_REQUIRE(count_ > 0, "min of empty sample");
  return min_;
}

double RunningStats::max() const {
  UCR_REQUIRE(count_ > 0, "max of empty sample");
  return max_;
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  UCR_REQUIRE(!sorted.empty(), "quantile of empty sample");
  UCR_REQUIRE(q >= 0.0 && q <= 1.0, "quantile order out of range");
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Summary summarize(const std::vector<double>& sample) {
  Summary s;
  if (sample.empty()) return s;
  std::vector<double> sorted = sample;
  std::sort(sorted.begin(), sorted.end());

  RunningStats rs;
  for (double x : sorted) rs.add(x);

  s.count = rs.count();
  s.mean = rs.mean();
  s.stddev = rs.count() >= 2 ? rs.stddev() : 0.0;
  s.min = sorted.front();
  s.max = sorted.back();
  s.p25 = quantile_sorted(sorted, 0.25);
  s.median = quantile_sorted(sorted, 0.50);
  s.p75 = quantile_sorted(sorted, 0.75);
  s.p95 = quantile_sorted(sorted, 0.95);
  if (s.count >= 2) {
    s.ci95_halfwidth =
        1.96 * s.stddev / std::sqrt(static_cast<double>(s.count));
  }
  return s;
}

double jain_fairness_index(const std::vector<double>& sample) {
  UCR_REQUIRE(!sample.empty(), "fairness index of empty sample");
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double x : sample) {
    UCR_REQUIRE(x >= 0.0, "fairness index requires non-negative values");
    sum += x;
    sum_sq += x * x;
  }
  UCR_REQUIRE(sum > 0.0, "fairness index requires a positive total");
  return sum * sum / (static_cast<double>(sample.size()) * sum_sq);
}

double chi_square_statistic(const std::vector<double>& observed,
                            const std::vector<double>& expected) {
  UCR_REQUIRE(observed.size() == expected.size(),
              "chi-square requires equally sized vectors");
  double stat = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    if (expected[i] < 1e-12) {
      UCR_REQUIRE(observed[i] == 0.0,
                  "observed mass in a bin with (near-)zero expectation");
      continue;
    }
    const double d = observed[i] - expected[i];
    stat += d * d / expected[i];
  }
  return stat;
}

double chi_square_critical_999(double df) {
  UCR_REQUIRE(df >= 1.0, "chi-square needs at least one degree of freedom");
  // z = 3.0902, the standard normal's 0.999 quantile.
  const double c = 2.0 / (9.0 * df);
  return df * std::pow(1.0 - c + 3.0902 * std::sqrt(c), 3.0);
}

}  // namespace ucr
