// Core-granularity scheduling and isolation (§6.1).
//
// The paper notes that removing a whole machine is easy for existing schedulers, while
// isolating a single core "undermines a scheduler assumption that all machines of a specific
// type have identical resources". CoreScheduler tracks per-core schedulability, supports
// core-surprise-removal (immediate, kills the running task: Shalev et al. [23]) and graceful
// drain (migrates tasks first, at a cost), and accounts the capacity lost to quarantine —
// the "wasted cores that are inappropriately isolated" side of the detection tradeoff.

#ifndef MERCURIAL_SRC_SCHED_SCHEDULER_H_
#define MERCURIAL_SRC_SCHED_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/common/sim_time.h"
#include "src/sim/exec_unit.h"

namespace mercurial {

enum class CoreState : uint8_t {
  kActive = 0,     // schedulable
  kDraining,       // being vacated for offline screening or quarantine
  kQuarantined,    // isolated pending deeper analysis; can be released (false positive)
  kRetired,        // permanently removed (confirmed mercurial)
  kProbation,      // weak-evidence conviction: serving restricted placements under shadow
                   // screening, pending reinstatement or escalation to retirement
};

const char* CoreStateName(CoreState state);

struct SchedulerCosts {
  // Core-seconds of capacity spent migrating one task off a core (checkpoint + move).
  double migrate_task_core_seconds = 30.0;
  // Tasks resident per core (how many migrations a drain costs).
  double tasks_per_core = 2.0;
  // Core-seconds of work lost when a core is surprise-removed (no checkpoint).
  double surprise_kill_core_seconds = 600.0;
};

// Risk tiers of the adaptive screening allocator (detect/screening.h): cold / warm / hot.
// Lives here so the scheduler's per-tier drain accounting does not depend on the screening
// header (the dependency runs the other way).
inline constexpr int kScreenRiskTierCount = 3;

struct SchedulerStats {
  uint64_t drains = 0;
  uint64_t surprise_removals = 0;
  uint64_t quarantines = 0;
  uint64_t releases = 0;        // quarantined cores put back (false accusations cleared)
  uint64_t retirements = 0;
  uint64_t probations = 0;      // weak-evidence convictions moved to restricted service
  uint64_t reinstatements = 0;  // probation cores cleared back to unrestricted service
  double migration_cost_core_seconds = 0.0;
  double lost_work_core_seconds = 0.0;
  // Integral of (quarantined + retired cores) over time, in core-seconds: stranded capacity.
  // Probation cores are NOT stranded — restricted service is the capacity the probation
  // lifecycle recovers — and integrate separately below.
  double stranded_core_seconds = 0.0;
  double probation_core_seconds = 0.0;
  // Offline screening drains broken down by the adaptive allocator's risk tier, with the
  // migration cost each tier incurred. A *view* over the totals above (every such drain is
  // also counted in `drains` / `migration_cost_core_seconds`); all-zero unless the
  // risk-adaptive allocator is on.
  uint64_t screen_drains_by_tier[kScreenRiskTierCount] = {};
  double screen_migration_cost_by_tier[kScreenRiskTierCount] = {};

  bool operator==(const SchedulerStats&) const = default;
};

class CoreScheduler {
 public:
  CoreScheduler(size_t core_count, SchedulerCosts costs);

  size_t core_count() const { return states_.size(); }
  CoreState state(uint64_t core) const { return states_[core]; }
  bool Schedulable(uint64_t core) const { return states_[core] == CoreState::kActive; }
  size_t active_count() const { return active_count_; }
  size_t draining_count() const { return draining_count_; }
  size_t quarantined_count() const { return quarantined_count_; }
  size_t retired_count() const { return retired_count_; }
  size_t probation_count() const { return probation_count_; }

  // Cores currently held out of service awaiting a verdict (draining or quarantined, not
  // retired): the reversible stranding the control plane's capacity guardrail budgets.
  size_t pending_isolation_count() const { return draining_count_ + quarantined_count_; }

  // Graceful drain: pays migration costs, then the core is off the schedule. Returns false if
  // the core is not active.
  bool Drain(uint64_t core);

  // Charges `count` offline-screen drains of active cores, each released straight back to
  // service: bit-identical to `count` Drain+Release pairs, which leave every state where it
  // was. Adds the per-drain migration cost once per drain, as Drain does, because a single
  // `count * cost` product rounds differently from the repeated sum. The sparse screening
  // engine charges its cohorts' healthy screens with it (detect/screening.h).
  void ChargeScreenDrains(uint64_t count);

  // Attributes the screen drain just charged via Drain() to an adaptive risk tier (the cost
  // itself was already counted by Drain; this only updates the per-tier view). Call once per
  // successful adaptive offline-screen drain, from a serial phase.
  void NoteScreenDrainTier(int tier);

  // Core surprise removal: immediate, loses in-flight work.
  bool SurpriseRemove(uint64_t core);

  // Drained/removed core -> quarantine (awaiting confession testing).
  void Quarantine(uint64_t core);

  // Quarantine verdicts.
  void Release(uint64_t core);  // cleared: back to active
  void Retire(uint64_t core);   // confirmed mercurial: permanent

  // Probation lifecycle (weak-evidence convictions, detect/quorum.h). A quarantined core
  // moves to restricted service instead of retirement; reinstatement clears it back to
  // active. Escalation to permanent removal goes through Retire (legal from any state).
  void Probation(uint64_t core);   // quarantined -> probation
  void Reinstate(uint64_t core);   // probation -> active

  // Accumulates stranded-capacity accounting for a tick of length `dt`.
  void AccumulateStranding(SimTime dt);

  // Observer of retirements, invoked after the counters update. Pure observer: the callback
  // must not reenter the scheduler, and installing one changes no scheduler behavior. The
  // sparse tick engine uses it to drop retired cores from the production scan set
  // (retirement is the one irreversible transition, which is also why the hook is
  // retirement-only: every other transition is re-gated per visit, and the per-core state
  // flips — a defective core's screen drain and release, the dense engine's per-core screen
  // drains, and quarantine's drain — are too frequent for an observer callback; healthy
  // screens under the sparse engine flip no state at all, see ChargeScreenDrains).
  // State changes only happen in the engines' serial phases, so the listener inherits that
  // guarantee.
  using RetirementListener = std::function<void(uint64_t core)>;
  void set_retirement_listener(RetirementListener listener) { listener_ = std::move(listener); }

  const SchedulerStats& stats() const { return stats_; }

  // Round-robin pick of the next active core, if any.
  std::optional<uint64_t> NextActiveCore();

 private:
  void SetState(uint64_t core, CoreState next);

  std::vector<CoreState> states_;
  SchedulerCosts costs_;
  SchedulerStats stats_;
  size_t active_count_;
  size_t draining_count_ = 0;
  size_t quarantined_count_ = 0;
  size_t retired_count_ = 0;
  size_t probation_count_ = 0;
  uint64_t rr_cursor_ = 0;
  RetirementListener listener_;
};

// §6.1's speculative placement: "identify a set of tasks that can run safely on a given
// mercurial core (if these tasks avoid a defective execution unit)". True if the workload's
// exercised units are disjoint from the core's known-failed units.
bool TaskSafeOnCore(const std::vector<ExecUnit>& units_exercised,
                    const std::vector<ExecUnit>& failed_units);

}  // namespace mercurial

#endif  // MERCURIAL_SRC_SCHED_SCHEDULER_H_
