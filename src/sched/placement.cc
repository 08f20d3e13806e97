#include "src/sched/placement.h"

#include "src/common/logging.h"
#include "src/sched/scheduler.h"

namespace mercurial {

PlacementPlanner::PlacementPlanner(std::vector<WorkloadProfile> profiles)
    : profiles_(std::move(profiles)) {
  MERCURIAL_CHECK_GT(profiles_.size(), 0u);
}

PlacementPlan PlacementPlanner::Plan(
    const std::map<uint64_t, std::vector<ExecUnit>>& failed_units_by_core) const {
  PlacementPlan plan;
  double reclaimed_sum = 0.0;
  for (const auto& [core, failed_units] : failed_units_by_core) {
    PlacementDecision decision;
    decision.core = core;
    for (size_t w = 0; w < profiles_.size(); ++w) {
      if (TaskSafeOnCore(profiles_[w].units_exercised, failed_units)) {
        decision.safe_workloads.push_back(w);
        decision.reclaimable_fraction += profiles_[w].mix_fraction;
      }
    }
    if (decision.safe_workloads.empty()) {
      ++plan.fully_stranded;
    }
    reclaimed_sum += decision.reclaimable_fraction;
    plan.decisions.push_back(std::move(decision));
  }
  if (!plan.decisions.empty()) {
    plan.mean_reclaimed = reclaimed_sum / static_cast<double>(plan.decisions.size());
  }
  return plan;
}

std::vector<WorkloadProfile> PlacementPlanner::StandardProfiles() {
  // The units each standard-corpus workload exercises, most heavily used first, index-aligned
  // with WorkloadKind. Workloads share units, as §5's "mapping of instructions to
  // possibly-defective hardware is non-obvious" has it.
  std::vector<WorkloadProfile> profiles = {
      {"compression", {ExecUnit::kCopy, ExecUnit::kCrc}, 0.0},
      {"hash", {ExecUnit::kIntAlu, ExecUnit::kIntMul, ExecUnit::kLoad}, 0.0},
      {"crypto", {ExecUnit::kAes}, 0.0},
      {"memcpy", {ExecUnit::kCopy}, 0.0},
      {"locking", {ExecUnit::kAtomic, ExecUnit::kIntAlu, ExecUnit::kLoad}, 0.0},
      {"sorting", {ExecUnit::kLoad, ExecUnit::kStore}, 0.0},
      {"matmul", {ExecUnit::kFp}, 0.0},
      {"garbage_collect", {ExecUnit::kLoad}, 0.0},
      {"db_index", {ExecUnit::kLoad, ExecUnit::kIntAlu}, 0.0},
      {"kernel", {ExecUnit::kIntAlu, ExecUnit::kLoad, ExecUnit::kStore, ExecUnit::kAtomic}, 0.0},
      {"vector_scan", {ExecUnit::kVector}, 0.0},
      {"arithmetic", {ExecUnit::kIntDiv, ExecUnit::kIntMul, ExecUnit::kIntAlu}, 0.0},
  };
  for (auto& profile : profiles) {
    profile.mix_fraction = 1.0 / static_cast<double>(profiles.size());
  }
  return profiles;
}

}  // namespace mercurial
