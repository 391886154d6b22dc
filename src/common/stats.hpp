// Statistics toolkit for the evaluation harness.
#pragma once

#include <cstdint>
#include <vector>

namespace ucr {

/// Single-pass running moments (Welford). Numerically stable; supports merge
/// so that per-run statistics can be combined across experiment shards.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::uint64_t count() const { return count_; }
  double mean() const;
  /// Unbiased sample variance (n-1 denominator). Requires count() >= 2.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Descriptive summary of a sample (copies and sorts the data once).
struct Summary {
  std::uint64_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p95 = 0.0;
  double max = 0.0;
  /// Half-width of the normal-approximation 95% confidence interval of the
  /// mean (1.96 * stddev / sqrt(n)); 0 when count < 2.
  double ci95_halfwidth = 0.0;
};

/// Builds a Summary from a sample. Empty input yields a zero Summary.
Summary summarize(const std::vector<double>& sample);

/// Linear-interpolation quantile of a *sorted* sample, q in [0,1].
double quantile_sorted(const std::vector<double>& sorted, double q);

/// Pearson chi-square statistic for observed vs expected counts.
/// Bins with expected < 1e-12 must have observed == 0 (checked).
double chi_square_statistic(const std::vector<double>& observed,
                            const std::vector<double>& expected);

/// The 0.999 quantile of chi-square with df >= 1 degrees of freedom, the
/// critical value of chi_square_statistic at level 0.001, by the
/// Wilson–Hilferty cube: within 4% of the exact quantile, and above it
/// for small df.
double chi_square_critical_999(double df);

/// Jain's fairness index (sum x)^2 / (n * sum x^2) in (0, 1]; 1 = perfectly
/// even. Used on per-message latencies in the dynamic-arrival experiments.
/// Requires a non-empty sample with non-negative values and positive sum.
double jain_fairness_index(const std::vector<double>& sample);

}  // namespace ucr
