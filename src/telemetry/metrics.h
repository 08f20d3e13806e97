// Metric registry: the simulator's own instrumentation, exported once at the end of a study.
//
// StudyReport is the one record of every study result, §4's metrics included. The registry
// holds only the engine counters the report lacks — signal counts by source, the due-wheel and
// active-index counts of the sparse engine, the risk allocator's counts — which FleetStudy
// writes in Finalize and benches read by name. It sits outside the deterministic report, so
// nothing here takes part in report equality.

#ifndef MERCURIAL_SRC_TELEMETRY_METRICS_H_
#define MERCURIAL_SRC_TELEMETRY_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace mercurial {

class MetricRegistry {
 public:
  // Monotonic counter; created on first use, at zero for a zero delta.
  void Increment(const std::string& name, uint64_t delta);
  uint64_t counter(const std::string& name) const;

  // Max-gauge: retains the largest value ever observed (peak occupancy, largest bucket).
  void ObserveMax(const std::string& name, uint64_t value);
  uint64_t gauge_max(const std::string& name) const;

  const std::map<std::string, uint64_t>& counters() const { return counters_; }
  const std::map<std::string, uint64_t>& gauges() const { return gauge_maxes_; }

  // One subsystem's slice of the counter namespace ("signals.", "screening.", ...), in name
  // order. Metric names use dotted prefixes as their only structure.
  std::vector<std::pair<std::string, uint64_t>> CountersWithPrefix(
      const std::string& prefix) const;

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, uint64_t> gauge_maxes_;
};

}  // namespace mercurial

#endif  // MERCURIAL_SRC_TELEMETRY_METRICS_H_
