// Safe-task placement on partially-defective cores (§6.1).
//
// "More speculatively, one might identify a set of tasks that can run safely on a given
// mercurial core (if these tasks avoid a defective execution unit), avoiding the cost of
// stranding those cores. It is not clear, though, if we can reliably identify safe tasks with
// respect to a specific defective core."
//
// PlacementPlanner takes the confessed failed-unit sets of retired cores and a workload mix,
// and computes which workloads may run on which cores. The paper's caveat — the unit mapping
// is "non-obvious" — is modeled by an optional confusion probability: with probability
// `unit_map_error`, a defect ALSO afflicts a unit that did not confess (e.g. the shared
// copy/vector logic of §5), so "safe" placements carry residual risk that the planner's
// accounting exposes.

#ifndef MERCURIAL_SRC_SCHED_PLACEMENT_H_
#define MERCURIAL_SRC_SCHED_PLACEMENT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <map>
#include <vector>

#include "src/sim/exec_unit.h"

namespace mercurial {

struct WorkloadProfile {
  std::string name;
  std::vector<ExecUnit> units_exercised;
  double mix_fraction = 0.0;  // share of fleet work this workload represents
};

struct PlacementDecision {
  uint64_t core = 0;
  // Workload indices (into the profiles vector) that may run on this core.
  std::vector<size_t> safe_workloads;
  // Fraction of the fleet's workload mix this core can absorb.
  double reclaimable_fraction = 0.0;
};

struct PlacementPlan {
  std::vector<PlacementDecision> decisions;
  // Average reclaimable fraction across planned cores: the capacity rescued from stranding.
  double mean_reclaimed = 0.0;
  // Cores with no safe workload at all (fully stranded anyway).
  uint64_t fully_stranded = 0;
};

class PlacementPlanner {
 public:
  explicit PlacementPlanner(std::vector<WorkloadProfile> profiles);

  // Builds the plan for a set of retired cores given their confessed failed units. Decisions
  // come out in ascending core order, and mean_reclaimed sums in that order.
  PlacementPlan Plan(const std::map<uint64_t, std::vector<ExecUnit>>& failed_units_by_core) const;

  const std::vector<WorkloadProfile>& profiles() const { return profiles_; }

  // The standard corpus's unit profile with an even mix (helper for benches/tests).
  static std::vector<WorkloadProfile> StandardProfiles();

 private:
  std::vector<WorkloadProfile> profiles_;
};

}  // namespace mercurial

#endif  // MERCURIAL_SRC_SCHED_PLACEMENT_H_
