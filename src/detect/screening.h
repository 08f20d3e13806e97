// Fleet screening orchestration (§6's four axes).
//
// Offline screening drains a core (paying migration costs), then runs a thorough battery with
// a full f/V/T sweep on a fixed per-core cadence. Online screening borrows spare cycles — a
// cheap battery at the current operating point on a random sample of cores each tick, free of
// drain costs but with partial coverage.
//
// Corpus coverage grows over time: a unit whose failure modes are unknown is not tested at
// all (its defects are "zero-days", §4), and new unit tests come online per a schedule —
// "our regular fleet-wide testing has expanded to new classes of CEEs as we and our CPU
// vendors discover them, still a few times per year". This growth is what produces the rising
// automatic-detection series of Fig. 1.

#ifndef MERCURIAL_SRC_DETECT_SCREENING_H_
#define MERCURIAL_SRC_DETECT_SCREENING_H_

#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/common/status.h"
#include "src/detect/due_wheel.h"
#include "src/detect/signal.h"
#include "src/fleet/fleet.h"
#include "src/sched/scheduler.h"
#include "src/workload/stress.h"

namespace mercurial {

class TraceRecorder;

struct ScreeningOptions {
  bool offline_enabled = true;
  SimTime offline_period = SimTime::Days(45);  // per-core cadence
  // Offline batteries run at every StandardScreeningSweep() operating point; online ones at
  // the core's current point.
  uint64_t offline_iterations = 2048;

  bool online_enabled = true;
  double online_fraction_per_day = 0.02;  // expected fraction of cores sampled per day
  uint64_t online_iterations = 256;

  // Units covered at t=0 and when additional units' tests come online.
  std::vector<ExecUnit> initial_coverage = {ExecUnit::kIntAlu, ExecUnit::kIntMul,
                                            ExecUnit::kIntDiv, ExecUnit::kLoad,
                                            ExecUnit::kStore,  ExecUnit::kFp};
  std::vector<std::pair<SimTime, ExecUnit>> coverage_schedule = {
      {SimTime::Days(150), ExecUnit::kCopy},    {SimTime::Days(300), ExecUnit::kVector},
      {SimTime::Days(470), ExecUnit::kCrc},     {SimTime::Days(650), ExecUnit::kAtomic},
      {SimTime::Days(820), ExecUnit::kAes},
  };

  // --- Risk-adaptive offline allocation (§6's economics; off by default) ---
  // When on, the fixed cadence above only seeds the initial stagger: a serial plan phase at
  // the top of every tick scores each due core and decides when it is next due (risk-scaled
  // cadence clamped to [adaptive_min_period, adaptive_max_period]) and how deep its battery
  // runs (offline_iterations scaled by risk tier), admitting the riskiest cores first under
  // the global ops budget. Off (the default): the legacy fixed-cadence path, bit-for-bit
  // unchanged, which stays the reference oracle.
  bool adaptive = false;
  // Global offline-screening budget in battery micro-ops per day (0 = unmetered). Admission
  // is greedy in priority order (risk desc, core id asc) and stops at the first core that
  // does not fit; deferred cores stay due and are re-scored next tick. Budget left unspent
  // on a tick does not carry forward, so a budget smaller than one hot battery
  // (4 * offline_iterations * covered units) can never admit anything.
  uint64_t budget_ops_per_day = 0;
  SimTime adaptive_min_period = SimTime::Days(10);  // cadence floor for the riskiest cores
  SimTime adaptive_max_period = SimTime::Days(60);  // cadence ceiling for pristine cores
  // Tier thresholds: risk >= risk_warm doubles the battery depth, >= risk_hot quadruples it.
  double risk_warm = 1.0;
  double risk_hot = 3.0;
};

// Decayed per-core evidence the risk scorer folds in, supplied by the study driver (the
// orchestrator must not depend on the report service or scheduler internals directly). Only
// called from the serial plan phase, so implementations may read shared state freely.
struct ScreeningRiskEvidence {
  double report_score = 0.0;  // decayed weighted mass of all signals against the core
  double direct_score = 0.0;  // decayed screen-fail-only mass
  bool on_probation = false;
};
using ScreeningRiskProbe = std::function<ScreeningRiskEvidence(uint64_t core, SimTime now)>;

// Plan-phase counters for the adaptive allocator; all accumulated serially.
struct ScreeningRiskStats {
  uint64_t rescores = 0;                // due cores scored by the plan phase
  uint64_t admitted = 0;                // screens admitted under the budget
  uint64_t deferred = 0;                // due cores pushed to the next tick by the budget
  uint64_t budget_exhausted_ticks = 0;  // ticks on which at least one core was deferred
  uint64_t ops_planned = 0;             // planned battery cost of all admitted screens
  uint64_t tier_screens[kScreenRiskTierCount] = {};  // admissions per risk tier
};

// Validates user-supplied screening options instead of letting bad values silently misbehave
// (a negative online fraction samples nothing; a zero iteration count "passes" every core):
// rejects online_fraction_per_day outside [0, 1] (NaN included), a non-positive
// offline_period while offline screening is enabled, and zero iteration counts for an enabled
// mode. Internal callers may still construct orchestrators with offline_period == 0 ("every
// core due immediately", e.g. the burn-in pass); the validator guards user-facing configs.
// The coverage_schedule must be sorted by activation time with no duplicate units (within the
// schedule or against initial_coverage): an out-of-order entry would silently never come
// online for cost accounting, and a duplicate would double-charge every battery. Adaptive
// mode additionally requires offline screening, a positive cadence floor no larger than the
// ceiling, and risk_warm <= risk_hot (NaN rejected).
Status ValidateScreeningOptions(const ScreeningOptions& options);

struct ScreeningTickStats {
  uint64_t offline_screens = 0;
  uint64_t online_screens = 0;
  uint64_t screen_failures = 0;
  uint64_t ops_spent = 0;
};

// Everything one shard's screening pass produced, buffered so the engine can apply side
// effects (suspect-service reports, scheduler drain accounting) serially in shard-index order
// at the tick barrier.
struct ShardScreenOutcome {
  ScreeningTickStats stats;
  std::vector<Signal> failures;          // kScreenFail signals, in emission order
  std::vector<uint64_t> offline_drained; // cores offline-screened; owe Drain+Release costs
  std::vector<uint8_t> drained_tiers;    // risk tier per offline_drained entry; empty legacy
  // Healthy cores the sparse engine offline-screened by count (cohort members and first
  // screens); each owes a Drain+Release pair like an offline_drained entry. Always 0 on the
  // dense and adaptive paths.
  uint64_t healthy_drained = 0;

  // Charges the scheduler for every offline screen: each offline_drained entry in screening
  // order — drain (plus the risk tier when adaptive), then release back to service — and then
  // the healthy_drained pairs in bulk. Every drained core was schedulable in the frozen
  // scheduler, so each pair is an active core's drain and release, whatever the order.
  void ApplyDrains(CoreScheduler& scheduler) const;
};

class ScreeningOrchestrator {
 public:
  ScreeningOrchestrator(ScreeningOptions options, size_t core_count, Rng rng);

  // Units the corpus can test at `now`.
  std::vector<ExecUnit> CoveredUnits(SimTime now) const;

  // CoveredUnits(now).size() without materializing the vector; the battery-cost accounting
  // on the healthy-core fast path only needs the count.
  uint64_t CoveredUnitCount(SimTime now) const;

  // Standalone tick for callers outside the fleet engine (burn-in, tests): TickShard over every
  // core on the orchestrator's own stream, with its side effects applied in place — drains
  // charged to `scheduler`, then each failure emitted through `emit` as a kScreenFail signal.
  ScreeningTickStats Tick(SimTime now, SimTime dt, Fleet& fleet, CoreScheduler& scheduler,
                          const std::function<void(const Signal&)>& emit);

  // Runs the screening due in (now - dt, now] for cores in [core_begin, core_end) only,
  // drawing every random decision from `rng` (the fleet engine passes a per-(shard, tick)
  // counter-derived stream, so results cannot depend on shard execution order). Cores that
  // are not schedulable are skipped (quarantined cores are tested by the confession path
  // instead). The fleet's healthy cores are fast-pathed: a defect-free core cannot fail a
  // battery (DESIGN.md decision 1), so only its cost is accounted — under the sparse engine,
  // by counting the schedulable members of each due cohort (see EnableSparse) instead of
  // visiting them one by one. Side effects are buffered in the returned outcome instead of
  // applied: the caller replays them in shard-index order.
  // Safe to call concurrently for disjoint core ranges: it reads shared state (fleet core
  // lookup, frozen scheduler states, coverage schedule) and mutates only this orchestrator's
  // per-core due times and cohorts within the range and the cores themselves (shard-owned).
  // Online sampling is per-range, so the fleet-wide expected sampling rate is preserved for
  // any shard count. Under the sparse engine it CHECKs that no defect was planted since the
  // range's first tick.
  ShardScreenOutcome TickShard(SimTime now, SimTime dt, uint64_t core_begin, uint64_t core_end,
                               Fleet& fleet, const CoreScheduler& scheduler, Rng& rng);

  // Estimated micro-ops one offline battery costs, for capacity accounting.
  uint64_t OfflineBatteryOps(SimTime now) const;

  // Graceful-degradation hook for the quarantine control plane's capacity guardrail: pushes
  // every offline screen that would come due within (now, now + defer] out to now + defer,
  // throttling the drain inflow while quarantined capacity is over budget. Returns the number
  // of screens deferred. Serial-phase only (mutates the shared due table).
  uint64_t ThrottleOffline(SimTime now, SimTime defer);

  // Incident flight recorder hook: when set, every screen failure emits a kSignalEmitted /
  // kScreenFail event (detail = 1 for offline batteries, 0 for online). Emission happens at
  // the failure site, so the sharded engine records it on the shard that owns the core.
  void set_trace_recorder(TraceRecorder* recorder) { trace_ = recorder; }

  // Sparse offline screening: builds one due-wheel per shard over `shard_ranges` (the
  // engine's core partition, [begin, end) pairs in shard order) so each tick visits only the
  // cores whose screen is due instead of scanning the whole range. Must be called at most
  // once, before the first Tick/TickShard, with the tick length the engine will use; every
  // subsequent tick must advance by exactly `dt` (the wheel drains tick by tick). The
  // fleet's health is fixed from the first tick on: TickShard CHECKs that no defect was
  // planted since, because a cohort member must stay healthy.
  //
  // Bit-identity with the dense scan: the wheel is only an index — next_offline_due_ remains
  // the exact source of truth for the cores on it, buckets drain in ascending core order (the
  // dense visit order), and cores skipped by the dense scan (due in the future) consume no
  // randomness, so eliding their visits cannot shift any stream. DeferOffline throttles,
  // install-time first screens, and the post-screen cadence all become wheel reschedules.
  //
  // Outside the adaptive allocator, a healthy core leaves the wheel after its first installed
  // screen and joins its shard's cohort for the next due: the healthy cores whose exact next
  // offline due is the same SimTime, held as one entry keyed by that due. The cohort's due is
  // then the truth for its members. A cohort fires whole, its schedulable members are
  // screened by count, and it rides on to now + offline_period, merging with any cohort
  // already due then. Counting is exact because a healthy screen draws no randomness, emits
  // nothing, cannot fail and charges the same ops. See DESIGN.md, "Decision: sparsity is free
  // when streams are counter-keyed".
  void EnableSparse(SimTime dt, const std::vector<std::pair<uint64_t, uint64_t>>& shard_ranges);
  bool sparse_enabled() const { return !wheels_.empty(); }

  // Aggregate per-core wheel occupancy/traffic over all shards; zeros when sparse is off.
  // Cohorts are not wheel entries: these count defective cores, first screens and parked
  // installs.
  DueWheelStats wheel_stats() const;

  // Every core's exact next offline due: the due table, with each cohort's due written over
  // its members. O(cores); for tests and diagnostics, not for the tick path.
  std::vector<SimTime> OfflineDueTable() const;

  // --- Risk-adaptive allocation ---

  // True when the plan-phase allocator drives offline screening.
  bool adaptive() const { return options_.adaptive && options_.offline_enabled; }

  // Evidence source for the risk scorer; unset probes score those factors as zero.
  void set_risk_probe(ScreeningRiskProbe probe) { risk_probe_ = std::move(probe); }

  // Serial plan phase, called once per tick before the (possibly parallel) screening pass
  // when adaptive() is on. Collects the cores due in (now - dt, now] (wheel drains when
  // sparse, a due-table scan when dense), scores each, sorts by priority (risk desc, core id
  // asc), and greedily admits under this tick's ops budget. Admitted cores are rescheduled on
  // their risk-scaled cadence and queued — in ascending core order, so shard execution stays
  // the dense visit order — for Tick/TickShard to screen; deferred cores stay due next tick.
  // Scheduler states are frozen between this call and the screening pass, so the
  // schedulability decisions made here remain valid at execution time.
  void PlanAdaptiveTick(SimTime now, SimTime dt, Fleet& fleet, const CoreScheduler& scheduler);

  const ScreeningRiskStats& risk_stats() const { return risk_stats_; }

  // Risk-to-policy mappings, exposed for tests: cadence max_period / (1 + risk) clamped to
  // [min, max]; tiers cold (< warm), warm (< hot), hot; battery depth 1x / 2x / 4x.
  SimTime PeriodForRisk(double risk) const;
  int TierForRisk(double risk) const;
  uint64_t IterationsForTier(int tier) const;

 private:
  // Healthy cores past their first screen, grouped by their shared exact next offline due.
  // Members are global core indices; each healthy core sits in at most one cohort and is
  // then off the per-core wheel.
  using CohortMap = std::map<SimTime, std::vector<uint32_t>>;

  // One shard's slice of the due table plus its calendar queue and its cohorts. Drained only
  // by the owning shard during the parallel phase; rebucketed (throttle) only in the serial
  // phase.
  struct ShardWheel {
    uint64_t begin = 0;
    uint64_t end = 0;
    DueWheel wheel;
    CohortMap cohorts;
    // fleet.mercurial_cores().size() at the shard's first tick, when cohorts start forming.
    std::optional<size_t> defective_count;
  };

  // One admitted screen: which core, how deep, and under which tier it was admitted.
  struct PlannedScreen {
    uint64_t core = 0;
    uint64_t iterations = 0;
    uint8_t tier = 0;
  };
  // Durable per-core allocator state (distinct from the per-tick plan).
  struct RiskState {
    uint32_t screen_failures = 0;              // lifetime offline screen fails
    bool probation_seen = false;               // ever observed on probation by the probe
    SimTime last_screen = SimTime::Seconds(-1);  // last offline screen; -1 = never
  };

  // Screens one core, charging its ops to `outcome.stats` and appending a kScreenFail signal
  // to `outcome.failures` on failure. Returns true on failure.
  bool ScreenOne(SimTime now, uint64_t core_index, bool offline, uint64_t iterations,
                 Fleet& fleet, Rng& rng, ShardScreenOutcome& outcome);

  // Weighted risk sum for one core; serial-phase only (mutates probation_seen).
  double RiskScore(SimTime now, uint64_t core, Fleet& fleet);
  // Points the due table (and wheel, when sparse) at now + period.
  void RescheduleAdaptive(SimTime now, uint64_t core, SimTime period);
  // The wheel whose [begin, end) contains `core`; sparse only.
  ShardWheel& WheelForCore(uint64_t core);

  // Earliest tick T with T * dt >= due — the first tick whose dense scan would fire `due`.
  int64_t FireTick(SimTime due) const;
  // Wheel position for `now` (now must sit exactly on the tick grid).
  int64_t TickIndex(SimTime now) const;
  // The wheel owning [core_begin, core_end); dies if sparse is on but the range is unknown.
  ShardWheel& WheelForRange(uint64_t core_begin, uint64_t core_end);
  // The one drain-and-park path of both sparse engines (the fixed cadence and the adaptive
  // planner): drains `sw` at `tick` (time `now`) and passes each due core whose machine is
  // racked to `visit`, ascending — the dense visit order. A core not racked yet parks until
  // its install tick with its due pinned to now, as the dense scan leaves it.
  template <typename Visit>
  void DrainInstalled(SimTime now, int64_t tick, const Fleet& fleet, ShardWheel& sw,
                      Visit&& visit);

  ScreeningOptions options_;
  Rng rng_;
  std::vector<SimTime> next_offline_due_;  // staggered per core
  TraceRecorder* trace_ = nullptr;
  // Sparse-engine state; empty when running dense.
  std::vector<ShardWheel> wheels_;
  SimTime sparse_dt_;
  // Adaptive-allocator state; planned_ holds this tick's admissions in ascending core order,
  // risk_ is allocated lazily on the first plan. Both untouched on the legacy path.
  ScreeningRiskProbe risk_probe_;
  std::vector<PlannedScreen> planned_;
  std::vector<RiskState> risk_;
  ScreeningRiskStats risk_stats_;
  std::vector<uint64_t> plan_candidates_;  // plan-phase scratch (due, installed, schedulable)
};

}  // namespace mercurial

#endif  // MERCURIAL_SRC_DETECT_SCREENING_H_
