// Small statistics containers used throughout telemetry and benches.
//
// Histogram: fixed linear-bucket histogram with overflow bucket and summary stats.
// TimeSeries: values bucketed by a fixed simulated-time period (e.g. weekly incident counts),
// the container behind the Fig. 1 reproduction.

#ifndef MERCURIAL_SRC_COMMON_HISTOGRAM_H_
#define MERCURIAL_SRC_COMMON_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/sim_time.h"

namespace mercurial {

class Histogram {
 public:
  // Buckets cover [lo, hi) with `bucket_count` equal-width buckets, plus underflow/overflow.
  Histogram(double lo, double hi, size_t bucket_count);

  void Add(double value);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }
  double min() const { return min_; }
  double max() const { return max_; }
  // Sample standard deviation (0 for fewer than two samples).
  double stddev() const;
  // Approximate quantile by linear interpolation within buckets; q in [0, 1].
  double Quantile(double q) const;

  const std::vector<uint64_t>& buckets() const { return buckets_; }
  uint64_t underflow() const { return underflow_; }
  uint64_t overflow() const { return overflow_; }
  double bucket_lo(size_t i) const { return lo_ + width_ * static_cast<double>(i); }

  std::string ToString() const;

  bool operator==(const Histogram&) const = default;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<uint64_t> buckets_;
  uint64_t underflow_ = 0;
  uint64_t overflow_ = 0;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double sum_squares_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Accumulates (time, value) observations into fixed-width time buckets. Bucket i covers
// [i * period, (i + 1) * period).
class TimeSeries {
 public:
  explicit TimeSeries(SimTime period);

  void Add(SimTime when, double value);

  size_t bucket_count() const { return buckets_.size(); }
  double bucket_sum(size_t i) const { return buckets_[i].sum; }
  uint64_t bucket_samples(size_t i) const { return buckets_[i].samples; }
  double bucket_mean(size_t i) const;
  SimTime period() const { return period_; }

  // Sums across all buckets.
  double total() const;

  // Returns per-bucket sums divided by `denominator` (e.g. machine count for per-machine rates),
  // then optionally normalized so the first non-empty bucket maps to 1.0 — the "normalized to an
  // arbitrary baseline" presentation of the paper's Fig. 1.
  std::vector<double> Rates(double denominator, bool normalize_to_first) const;

 private:
  struct Bucket {
    double sum = 0.0;
    uint64_t samples = 0;
  };

  SimTime period_;
  std::vector<Bucket> buckets_;
};

}  // namespace mercurial

#endif  // MERCURIAL_SRC_COMMON_HISTOGRAM_H_
