#include "src/sched/scheduler.h"

#include <algorithm>

#include "src/common/logging.h"

namespace mercurial {

const char* CoreStateName(CoreState state) {
  switch (state) {
    case CoreState::kActive:
      return "active";
    case CoreState::kDraining:
      return "draining";
    case CoreState::kQuarantined:
      return "quarantined";
    case CoreState::kRetired:
      return "retired";
    case CoreState::kProbation:
      return "probation";
  }
  return "unknown";
}

CoreScheduler::CoreScheduler(size_t core_count, SchedulerCosts costs)
    : states_(core_count, CoreState::kActive), costs_(costs), active_count_(core_count) {}

void CoreScheduler::SetState(uint64_t core, CoreState next) {
  MERCURIAL_CHECK_LT(core, states_.size());
  const CoreState prev = states_[core];
  if (prev == next) {
    return;
  }
  if (prev == CoreState::kActive) {
    --active_count_;
  }
  if (prev == CoreState::kDraining) {
    --draining_count_;
  }
  if (prev == CoreState::kQuarantined) {
    --quarantined_count_;
  }
  if (prev == CoreState::kProbation) {
    --probation_count_;
  }
  if (next == CoreState::kActive) {
    ++active_count_;
  }
  if (next == CoreState::kDraining) {
    ++draining_count_;
  }
  if (next == CoreState::kQuarantined) {
    ++quarantined_count_;
  }
  if (next == CoreState::kRetired) {
    ++retired_count_;
  }
  if (next == CoreState::kProbation) {
    ++probation_count_;
  }
  states_[core] = next;
  if (next == CoreState::kRetired && listener_) {
    listener_(core);
  }
}

bool CoreScheduler::Drain(uint64_t core) {
  if (states_[core] != CoreState::kActive) {
    return false;
  }
  ++stats_.drains;
  stats_.migration_cost_core_seconds += costs_.migrate_task_core_seconds * costs_.tasks_per_core;
  SetState(core, CoreState::kDraining);
  return true;
}

void CoreScheduler::ChargeScreenDrains(uint64_t count) {
  stats_.drains += count;
  stats_.releases += count;
  for (uint64_t i = 0; i < count; ++i) {
    stats_.migration_cost_core_seconds += costs_.migrate_task_core_seconds * costs_.tasks_per_core;
  }
}

void CoreScheduler::NoteScreenDrainTier(int tier) {
  MERCURIAL_CHECK(tier >= 0 && tier < kScreenRiskTierCount) << "bad risk tier " << tier;
  ++stats_.screen_drains_by_tier[tier];
  stats_.screen_migration_cost_by_tier[tier] +=
      costs_.migrate_task_core_seconds * costs_.tasks_per_core;
}

bool CoreScheduler::SurpriseRemove(uint64_t core) {
  if (states_[core] != CoreState::kActive && states_[core] != CoreState::kDraining) {
    return false;
  }
  ++stats_.surprise_removals;
  stats_.lost_work_core_seconds += costs_.surprise_kill_core_seconds;
  SetState(core, CoreState::kDraining);
  return true;
}

void CoreScheduler::Quarantine(uint64_t core) {
  MERCURIAL_CHECK(states_[core] == CoreState::kDraining || states_[core] == CoreState::kActive)
      << "quarantining core in state " << CoreStateName(states_[core]);
  if (states_[core] == CoreState::kActive) {
    Drain(core);
  }
  ++stats_.quarantines;
  SetState(core, CoreState::kQuarantined);
}

void CoreScheduler::Release(uint64_t core) {
  MERCURIAL_CHECK(states_[core] == CoreState::kQuarantined || states_[core] == CoreState::kDraining)
      << "releasing core in state " << CoreStateName(states_[core]);
  ++stats_.releases;
  SetState(core, CoreState::kActive);
}

void CoreScheduler::Retire(uint64_t core) {
  MERCURIAL_CHECK_NE(static_cast<int>(states_[core]), static_cast<int>(CoreState::kRetired));
  ++stats_.retirements;
  SetState(core, CoreState::kRetired);
}

void CoreScheduler::Probation(uint64_t core) {
  MERCURIAL_CHECK(states_[core] == CoreState::kQuarantined)
      << "probation for core in state " << CoreStateName(states_[core]);
  ++stats_.probations;
  SetState(core, CoreState::kProbation);
}

void CoreScheduler::Reinstate(uint64_t core) {
  MERCURIAL_CHECK(states_[core] == CoreState::kProbation)
      << "reinstating core in state " << CoreStateName(states_[core]);
  ++stats_.reinstatements;
  SetState(core, CoreState::kActive);
}

void CoreScheduler::AccumulateStranding(SimTime dt) {
  // Draining cores count: a core being vacated across ticks (control-plane drain latency) is
  // just as unavailable as a quarantined one. Intra-tick drains resolve before this is called,
  // so the legacy engine's accounting is unchanged. Probation cores are serving (restricted)
  // work — the recovered capacity the probation lifecycle exists for — so they integrate into
  // their own bucket, not into stranding.
  const double stranded =
      static_cast<double>(draining_count_ + quarantined_count_ + retired_count_);
  stats_.stranded_core_seconds += stranded * static_cast<double>(dt.seconds());
  stats_.probation_core_seconds +=
      static_cast<double>(probation_count_) * static_cast<double>(dt.seconds());
}

std::optional<uint64_t> CoreScheduler::NextActiveCore() {
  if (active_count_ == 0) {
    return std::nullopt;
  }
  for (size_t probe = 0; probe < states_.size(); ++probe) {
    const uint64_t core = (rr_cursor_ + probe) % states_.size();
    if (states_[core] == CoreState::kActive) {
      rr_cursor_ = core + 1;
      return core;
    }
  }
  return std::nullopt;
}

bool TaskSafeOnCore(const std::vector<ExecUnit>& units_exercised,
                    const std::vector<ExecUnit>& failed_units) {
  for (ExecUnit used : units_exercised) {
    if (std::find(failed_units.begin(), failed_units.end(), used) != failed_units.end()) {
      return false;
    }
  }
  return true;
}

}  // namespace mercurial
