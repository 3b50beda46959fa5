#include <gtest/gtest.h>

#include <cmath>

#include "stats/fit.hpp"
#include "stats/summary.hpp"
#include "stats/tail.hpp"

namespace ssmis {
namespace {

TEST(StreamingStats, MeanAndVariance) {
  StreamingStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(StreamingStats, EmptyAndSingle) {
  StreamingStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Quantile, InterpolatesLinearly) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0 / 3.0), 2.0);
}

TEST(Quantile, Validation) {
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(quantile({1.0}, -0.1), std::invalid_argument);
  EXPECT_THROW(quantile({1.0}, 1.1), std::invalid_argument);
}

TEST(Quantile, UnsortedInputHandled) {
  EXPECT_DOUBLE_EQ(quantile({9.0, 1.0, 5.0}, 0.5), 5.0);
}

TEST(Summarize, FullSummary) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(static_cast<double>(i));
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 100);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.median, 50.5, 1e-9);
  EXPECT_NEAR(s.p90, 90.1, 1e-9);
}

TEST(Summarize, EmptyIsZeroed) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(FitLinear, ExactLine) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y;
  for (double xi : x) y.push_back(3.0 * xi + 2.0);
  const LinearFit fit = fit_linear(x, y);
  EXPECT_NEAR(fit.slope, 3.0, 1e-9);
  EXPECT_NEAR(fit.intercept, 2.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
}

TEST(FitLinear, NoisyLineHighR2) {
  std::vector<double> x, y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(2.0 * i + ((i % 2 == 0) ? 0.5 : -0.5));
  }
  const LinearFit fit = fit_linear(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 0.01);
  EXPECT_GT(fit.r_squared, 0.99);
}

TEST(FitLinear, ConstantXDegenerates) {
  const LinearFit fit = fit_linear({2, 2, 2}, {1, 2, 3});
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
  EXPECT_DOUBLE_EQ(fit.intercept, 2.0);
}

TEST(FitLinear, Validation) {
  EXPECT_THROW(fit_linear({1}, {1}), std::invalid_argument);
  EXPECT_THROW(fit_linear({1, 2}, {1}), std::invalid_argument);
}

TEST(RatioSpread, FlatRatiosGiveOne) {
  EXPECT_NEAR(ratio_spread({1, 2, 4}, {3, 6, 12}), 1.0, 1e-12);
}

TEST(RatioSpread, DetectsDrift) {
  // y = x^2 against x: ratios 1, 2, 4 -> spread 4.
  EXPECT_NEAR(ratio_spread({1, 2, 4}, {1, 4, 16}), 4.0, 1e-12);
}

TEST(RatioSpread, IgnoresNonPositiveX) {
  EXPECT_NEAR(ratio_spread({0, 1, 2}, {99, 3, 6}), 1.0, 1e-12);
}

TEST(Tail, EmpiricalCounts) {
  const std::vector<double> samples = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const auto tail = empirical_tail(samples, {0.0, 5.0, 8.5, 11.0});
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_DOUBLE_EQ(tail[0].probability, 1.0);
  EXPECT_DOUBLE_EQ(tail[1].probability, 0.6);
  EXPECT_DOUBLE_EQ(tail[2].probability, 0.2);
  EXPECT_DOUBLE_EQ(tail[3].probability, 0.0);
}

TEST(Tail, GeometricDecayDetected) {
  // P[X >= k] = 2^-k at thresholds 0..6: decay ratio 0.5.
  std::vector<double> samples;
  for (int k = 0; k < 12; ++k)
    for (int copies = 0; copies < (1 << (11 - k)); ++copies)
      samples.push_back(static_cast<double>(k));
  std::vector<double> thresholds;
  for (int k = 0; k <= 6; ++k) thresholds.push_back(static_cast<double>(k));
  const auto tail = empirical_tail(samples, thresholds);
  const double decay = mean_tail_decay(tail);
  EXPECT_NEAR(decay, 0.5, 0.02);
}

TEST(Tail, DecayZeroWhenDegenerate) {
  EXPECT_DOUBLE_EQ(mean_tail_decay({}), 0.0);
  EXPECT_DOUBLE_EQ(mean_tail_decay({{0.0, 0.0, 0}}), 0.0);
}

}  // namespace
}  // namespace ssmis
