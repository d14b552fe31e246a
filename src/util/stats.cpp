#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace fecim::util {

void RunningStats::add(double x) noexcept {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::mean() const noexcept { return count_ ? mean_ : 0.0; }

double RunningStats::variance() const noexcept {
  return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::min() const noexcept { return count_ ? min_ : 0.0; }

double RunningStats::max() const noexcept { return count_ ? max_ : 0.0; }

double percentile(std::vector<double> values, double p) {
  FECIM_EXPECTS(!values.empty());
  FECIM_EXPECTS(p >= 0.0 && p <= 100.0);
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values.front();
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

}  // namespace fecim::util
