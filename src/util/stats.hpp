// Streaming and batch statistics used by the experiment runner and benches.
#pragma once

#include <cstddef>
#include <vector>

namespace fecim::util {

/// Numerically stable streaming mean/variance (Welford's algorithm) with
/// min/max tracking.
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;

  std::size_t count() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }
  double mean() const noexcept;
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept;
  double max() const noexcept;
  double sum() const noexcept { return mean() * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Percentile of a sample set with linear interpolation; p in [0, 100].
/// The input is copied and sorted internally.
double percentile(std::vector<double> values, double p);

/// Median convenience wrapper.
double median(std::vector<double> values);

}  // namespace fecim::util
