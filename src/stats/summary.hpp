// Summary statistics for experiment measurements.
#pragma once

#include <cstdint>
#include <vector>

namespace ssmis {

// Streaming mean/variance (Welford) with min/max tracking.
class StreamingStats {
 public:
  void add(double x);

  std::int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }

 private:
  std::int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Batch summary with order statistics.
struct Summary {
  std::int64_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
  double p90 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

Summary summarize(std::vector<double> values);

// Quantile with linear interpolation; q in [0, 1]. Throws
// std::invalid_argument for empty input or q outside [0, 1].
double quantile(std::vector<double> values, double q);

}  // namespace ssmis
