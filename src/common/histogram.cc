#include "src/common/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/common/logging.h"

namespace mercurial {

Histogram::Histogram(double lo, double hi, size_t bucket_count)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bucket_count)),
      buckets_(bucket_count, 0) {
  MERCURIAL_CHECK_GT(hi, lo);
  MERCURIAL_CHECK_GT(bucket_count, 0u);
}

void Histogram::Add(double value) {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  sum_squares_ += value * value;
  if (value < lo_) {
    ++underflow_;
  } else if (value >= hi_) {
    ++overflow_;
  } else {
    auto index = static_cast<size_t>((value - lo_) / width_);
    index = std::min(index, buckets_.size() - 1);
    ++buckets_[index];
  }
}

double Histogram::stddev() const {
  if (count_ < 2) {
    return 0.0;
  }
  const double n = static_cast<double>(count_);
  const double variance = (sum_squares_ - sum_ * sum_ / n) / (n - 1.0);
  return variance <= 0.0 ? 0.0 : std::sqrt(variance);
}

double Histogram::Quantile(double q) const {
  MERCURIAL_CHECK_GE(q, 0.0);
  MERCURIAL_CHECK_LE(q, 1.0);
  if (count_ == 0) {
    return 0.0;
  }
  const double target = q * static_cast<double>(count_);
  double cumulative = static_cast<double>(underflow_);
  if (cumulative >= target) {
    return lo_;
  }
  for (size_t i = 0; i < buckets_.size(); ++i) {
    const double next = cumulative + static_cast<double>(buckets_[i]);
    if (next >= target && buckets_[i] > 0) {
      const double fraction = (target - cumulative) / static_cast<double>(buckets_[i]);
      return bucket_lo(i) + fraction * width_;
    }
    cumulative = next;
  }
  return hi_;
}

std::string Histogram::ToString() const {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "count=%llu mean=%.4g stddev=%.4g min=%.4g p50=%.4g p99=%.4g max=%.4g",
                static_cast<unsigned long long>(count_), mean(), stddev(), min_, Quantile(0.5),
                Quantile(0.99), max_);
  return buffer;
}

TimeSeries::TimeSeries(SimTime period) : period_(period) {
  MERCURIAL_CHECK_GT(period.seconds(), 0);
}

void TimeSeries::Add(SimTime when, double value) {
  MERCURIAL_CHECK_GE(when.seconds(), 0);
  const auto index = static_cast<size_t>(when.seconds() / period_.seconds());
  if (index >= buckets_.size()) {
    buckets_.resize(index + 1);
  }
  buckets_[index].sum += value;
  ++buckets_[index].samples;
}

double TimeSeries::bucket_mean(size_t i) const {
  MERCURIAL_CHECK_LT(i, buckets_.size());
  if (buckets_[i].samples == 0) {
    return 0.0;
  }
  return buckets_[i].sum / static_cast<double>(buckets_[i].samples);
}

double TimeSeries::total() const {
  double sum = 0.0;
  for (const auto& bucket : buckets_) {
    sum += bucket.sum;
  }
  return sum;
}

std::vector<double> TimeSeries::Rates(double denominator, bool normalize_to_first) const {
  MERCURIAL_CHECK_GT(denominator, 0.0);
  std::vector<double> rates(buckets_.size(), 0.0);
  for (size_t i = 0; i < buckets_.size(); ++i) {
    rates[i] = buckets_[i].sum / denominator;
  }
  if (normalize_to_first) {
    double baseline = 0.0;
    for (double rate : rates) {
      if (rate > 0.0) {
        baseline = rate;
        break;
      }
    }
    if (baseline > 0.0) {
      for (double& rate : rates) {
        rate /= baseline;
      }
    }
  }
  return rates;
}

}  // namespace mercurial
