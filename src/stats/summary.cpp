#include "stats/summary.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ssmis {

void StreamingStats::add(double x) {
  ++count_;
  if (count_ == 1) {
    mean_ = x;
    min_ = x;
    max_ = x;
    m2_ = 0.0;
    return;
  }
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double StreamingStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double StreamingStats::stddev() const { return std::sqrt(variance()); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile: empty input");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile: q outside [0,1]");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

Summary summarize(std::vector<double> values) {
  Summary s;
  s.count = static_cast<std::int64_t>(values.size());
  if (values.empty()) return s;
  StreamingStats stream;
  for (double v : values) stream.add(v);
  s.mean = stream.mean();
  s.stddev = stream.stddev();
  s.min = stream.min();
  s.max = stream.max();
  s.median = quantile(values, 0.5);
  s.p90 = quantile(values, 0.9);
  s.p95 = quantile(values, 0.95);
  s.p99 = quantile(values, 0.99);
  return s;
}

}  // namespace ssmis
