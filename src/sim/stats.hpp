// Online statistics for simulation output analysis.
#pragma once

#include <cstddef>
#include <vector>

#include "util/error.hpp"

namespace latol::sim {

/// Welford online mean/variance accumulator for i.i.d.-ish samples
/// (per-access latencies and similar tallies).
class OnlineStats {
 public:
  void add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
  }
  void reset();

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const { return mean_; }
  /// Sample variance (n-1 denominator); 0 with fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Time-weighted average of a piecewise-constant signal (queue lengths,
/// busy indicators). Call `set` whenever the value changes; `mean(now)`
/// integrates up to `now`.
class TimeAverage {
 public:
  explicit TimeAverage(double start_time = 0.0, double initial = 0.0)
      : value_(initial), last_change_(start_time), start_(start_time) {}

  /// Record that the signal takes value `v` from time `now` on.
  /// Hot path: called for every busy-state change the DES records, so it
  /// lives in the header.
  void set(double now, double v) {
    LATOL_REQUIRE(now + 1e-12 >= last_change_,
                  "time went backwards: " << now << " < " << last_change_);
    weighted_sum_ += value_ * (now - last_change_);
    value_ = v;
    last_change_ = now;
  }

  /// Restart integration at `now`, keeping the current value.
  void reset(double now);

  [[nodiscard]] double value() const { return value_; }

  /// Time-average over [reset_time, now].
  [[nodiscard]] double mean(double now) const;

 private:
  double value_;
  double weighted_sum_ = 0.0;
  double last_change_;
  double start_;
};

/// Two-sided 95% Student-t critical value for `df` degrees of freedom
/// (exact table through df = 30, normal tail beyond). Used for
/// replication confidence intervals, where df is small and the 1.96
/// normal approximation would understate the interval badly.
[[nodiscard]] double t_critical_95(std::size_t df);

/// Half-width of the 95% confidence interval on the mean of `stats`'
/// samples treated as i.i.d. normal: t * s / sqrt(n). Returns 0 with
/// fewer than two samples.
[[nodiscard]] double half_width_95(const OnlineStats& stats);

/// Batch-means confidence intervals: split a stream of samples into `b`
/// equal batches and treat batch means as i.i.d. normal. Standard output
/// analysis for steady-state simulations.
class BatchMeans {
 public:
  explicit BatchMeans(std::size_t num_batches = 20);

  void add(double x);
  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const;

  /// Half-width of the (approximately) 95% confidence interval on the
  /// mean. Returns 0 until at least two batches have data.
  [[nodiscard]] double half_width_95() const;

 private:
  std::vector<double> sums_;
  std::vector<std::size_t> counts_;
  std::size_t count_ = 0;
};

}  // namespace latol::sim
