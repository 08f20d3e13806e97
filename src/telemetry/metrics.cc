#include "src/telemetry/metrics.h"

namespace mercurial {

void MetricRegistry::Increment(const std::string& name, uint64_t delta) {
  counters_[name] += delta;
}

uint64_t MetricRegistry::counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void MetricRegistry::ObserveMax(const std::string& name, uint64_t value) {
  auto [it, inserted] = gauge_maxes_.emplace(name, value);
  if (!inserted && value > it->second) {
    it->second = value;
  }
}

uint64_t MetricRegistry::gauge_max(const std::string& name) const {
  auto it = gauge_maxes_.find(name);
  return it == gauge_maxes_.end() ? 0 : it->second;
}

std::vector<std::pair<std::string, uint64_t>> MetricRegistry::CountersWithPrefix(
    const std::string& prefix) const {
  std::vector<std::pair<std::string, uint64_t>> out;
  for (auto it = counters_.lower_bound(prefix);
       it != counters_.end() && it->first.compare(0, prefix.size(), prefix) == 0; ++it) {
    out.emplace_back(it->first, it->second);
  }
  return out;
}

}  // namespace mercurial
