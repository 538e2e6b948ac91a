#include "sim/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.hpp"

namespace latol::sim {
namespace {

TEST(OnlineStats, MeanAndVarianceOfKnownData) {
  OnlineStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_NEAR(s.stddev() * s.stddev(), s.variance(), 1e-12);
}

TEST(OnlineStats, SingleSampleHasZeroVariance) {
  OnlineStats s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, ResetClearsEverything) {
  OnlineStats s;
  s.add(1.0);
  s.add(2.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(TimeAverage, IntegratesPiecewiseConstantSignal) {
  TimeAverage a(0.0, 0.0);
  a.set(2.0, 1.0);   // 0 over [0,2)
  a.set(5.0, 3.0);   // 1 over [2,5)
  // 3 over [5,10): mean = (0*2 + 1*3 + 3*5)/10 = 1.8.
  EXPECT_NEAR(a.mean(10.0), 1.8, 1e-12);
}

TEST(TimeAverage, ResetRestartsIntegration) {
  TimeAverage a(0.0, 5.0);
  a.set(10.0, 1.0);
  a.reset(10.0);
  EXPECT_NEAR(a.mean(20.0), 1.0, 1e-12);
}

TEST(TimeAverage, RejectsTimeTravel) {
  TimeAverage a(5.0, 0.0);
  EXPECT_THROW(a.set(1.0, 2.0), InvalidArgument);
}

TEST(BatchMeans, MeanMatchesStream) {
  BatchMeans b(4);
  double sum = 0.0;
  for (int i = 1; i <= 100; ++i) {
    b.add(static_cast<double>(i));
    sum += i;
  }
  EXPECT_EQ(b.count(), 100u);
  EXPECT_NEAR(b.mean(), sum / 100.0, 1e-12);
}

TEST(BatchMeans, ConstantStreamHasZeroWidthInterval) {
  BatchMeans b(5);
  for (int i = 0; i < 50; ++i) b.add(7.0);
  EXPECT_NEAR(b.half_width_95(), 0.0, 1e-12);
}

TEST(BatchMeans, NoisyStreamHasPositiveInterval) {
  BatchMeans b(10);
  for (int i = 0; i < 1000; ++i) b.add(i % 2 == 0 ? 0.0 : 10.0);
  EXPECT_NEAR(b.mean(), 5.0, 1e-9);
  EXPECT_GE(b.half_width_95(), 0.0);
}

TEST(BatchMeans, RequiresTwoBatches) {
  EXPECT_THROW(BatchMeans(1), InvalidArgument);
}

TEST(BatchMeans, EmptyIsSafe) {
  BatchMeans b(4);
  EXPECT_DOUBLE_EQ(b.mean(), 0.0);
  EXPECT_DOUBLE_EQ(b.half_width_95(), 0.0);
}

TEST(OnlineStats, ZeroVarianceConstantStream) {
  OnlineStats s;
  for (int i = 0; i < 100; ++i) s.add(4.25);
  EXPECT_DOUBLE_EQ(s.mean(), 4.25);
  EXPECT_NEAR(s.variance(), 0.0, 1e-24);
  EXPECT_NEAR(s.stddev(), 0.0, 1e-12);
}

TEST(OnlineStats, MatchesClosedFormForArithmeticSequence) {
  // For 1..n the sample variance has the closed form n(n+1)/12.
  OnlineStats s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
  EXPECT_NEAR(s.variance(), 100.0 * 101.0 / 12.0, 1e-9);
}

TEST(BatchMeans, SingleSampleHasZeroWidthInterval) {
  BatchMeans b(4);
  b.add(42.0);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 42.0);
  // Only one batch has data: no variance estimate, width 0 by contract.
  EXPECT_DOUBLE_EQ(b.half_width_95(), 0.0);
}

TEST(BatchMeans, HalfWidthMatchesClosedFormTwoBatches) {
  // Round-robin over 2 batches: {0, 0} and {10, 10}, batch means 0 and 10.
  // Mean of means 5, sample variance 50, half width 1.96*sqrt(50/2) = 9.8.
  BatchMeans b(2);
  for (const double x : {0.0, 10.0, 0.0, 10.0}) b.add(x);
  EXPECT_DOUBLE_EQ(b.mean(), 5.0);
  EXPECT_NEAR(b.half_width_95(), 9.8, 1e-12);
}

TEST(BatchMeans, HalfWidthMatchesClosedFormFourBatches) {
  // 1..8 round-robin over 4 batches: batch means 3, 4, 5, 6. Variance of
  // means 5/3, half width 1.96*sqrt(5/12).
  BatchMeans b(4);
  for (int i = 1; i <= 8; ++i) b.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(b.mean(), 4.5);
  EXPECT_NEAR(b.half_width_95(), 1.96 * std::sqrt(5.0 / 12.0), 1e-12);
}

}  // namespace
}  // namespace latol::sim
