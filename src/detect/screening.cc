#include "src/detect/screening.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "src/common/logging.h"
#include "src/sim/exec_unit.h"
#include "src/telemetry/trace.h"

namespace mercurial {
namespace {

// Appends `from` to `to`, stealing its buffer when `to` is empty.
void AppendMembers(std::vector<uint32_t>& to, std::vector<uint32_t>&& from) {
  if (to.empty()) {
    to = std::move(from);
  } else {
    to.insert(to.end(), from.begin(), from.end());
  }
}

// Per-factor weights of the adaptive allocator's risk score (DESIGN.md, "screening is a
// budget, risk is the allocator"). The score is a plain weighted sum — legible enough to
// audit from a trace — over decayed report-service evidence, screen-fail recidivism,
// probation history, core age, operating-point stress, and corpus-coverage gaps.
constexpr double kReportEvidenceWeight = 0.5;  // decayed weighted signal mass from the reports
constexpr double kDirectEvidenceWeight = 1.0;  // decayed screen-fail mass (direct evidence)
constexpr double kScreenFailureWeight = 1.5;   // lifetime offline screen-fail count (recidivism)
constexpr double kProbationWeight = 1.0;       // on probation now; half if ever on probation
constexpr double kAgeYearsWeight = 0.1;        // core age in years (§3: failures grow with age)
constexpr double kStressWeight = 0.25;         // operating-point stress: temperature + voltage
constexpr double kCoverageGapWeight = 0.25;    // corpus units never run against this core

}  // namespace

Status ValidateScreeningOptions(const ScreeningOptions& options) {
  if (Status s = CheckProbability(options.online_fraction_per_day, "online_fraction_per_day");
      !s.ok()) {
    return s;
  }
  if (options.offline_enabled && options.offline_period.seconds() <= 0) {
    return InvalidArgumentError("offline_period must be positive when offline screening is on");
  }
  if (options.offline_enabled && options.offline_iterations == 0) {
    return InvalidArgumentError("offline_iterations must be positive");
  }
  if (options.online_enabled && options.online_iterations == 0) {
    return InvalidArgumentError("online_iterations must be positive");
  }
  // coverage_schedule must be sorted by activation time: CoveredUnits/CoveredUnitCount and
  // the coverage-gap scorer all assume it, and an out-of-order entry used to be accepted
  // silently — it still *worked* for counting (every comparison is independent), but any
  // schedule-order consumer (gap scoring, documentation, operator reasoning) saw a unit that
  // "never comes online". Reject instead of sorting in place: the options struct is the
  // user's record of what they asked for.
  for (size_t i = 1; i < options.coverage_schedule.size(); ++i) {
    if (options.coverage_schedule[i].first < options.coverage_schedule[i - 1].first) {
      return InvalidArgumentError(
          "coverage_schedule must be sorted by activation time (entry " + std::to_string(i) +
          " comes online before entry " + std::to_string(i - 1) + ")");
    }
  }
  // No unit may be covered twice — within initial_coverage, within the schedule, or across
  // the two — or every battery double-counts (and double-charges) that unit.
  bool covered[kExecUnitCount] = {};
  for (const ExecUnit unit : options.initial_coverage) {
    if (covered[static_cast<int>(unit)]) {
      return InvalidArgumentError(std::string("initial_coverage lists ") + ExecUnitName(unit) +
                                  " more than once");
    }
    covered[static_cast<int>(unit)] = true;
  }
  for (const auto& [when, unit] : options.coverage_schedule) {
    if (covered[static_cast<int>(unit)]) {
      return InvalidArgumentError(std::string("coverage_schedule duplicates unit ") +
                                  ExecUnitName(unit));
    }
    covered[static_cast<int>(unit)] = true;
  }
  if (options.adaptive) {
    if (!options.offline_enabled) {
      return InvalidArgumentError("adaptive screening requires offline screening");
    }
    if (options.adaptive_min_period.seconds() <= 0) {
      return InvalidArgumentError("adaptive_min_period must be positive");
    }
    if (options.adaptive_max_period < options.adaptive_min_period) {
      return InvalidArgumentError("adaptive_max_period must be >= adaptive_min_period");
    }
    if (!(options.risk_warm <= options.risk_hot)) {  // NaN fails too
      return InvalidArgumentError("risk_warm must be <= risk_hot (and neither NaN)");
    }
  }
  return Status::Ok();
}

ScreeningOrchestrator::ScreeningOrchestrator(ScreeningOptions options, size_t core_count,
                                             Rng rng)
    : options_(std::move(options)), rng_(rng), next_offline_due_(core_count) {
  // Stagger first offline screens uniformly over one period so the load is smooth.
  for (auto& due : next_offline_due_) {
    due = SimTime::Seconds(static_cast<int64_t>(
        rng_.NextDouble() * static_cast<double>(options_.offline_period.seconds())));
  }
}

std::vector<ExecUnit> ScreeningOrchestrator::CoveredUnits(SimTime now) const {
  std::vector<ExecUnit> units = options_.initial_coverage;
  for (const auto& [when, unit] : options_.coverage_schedule) {
    if (now >= when) {
      units.push_back(unit);
    }
  }
  return units;
}

uint64_t ScreeningOrchestrator::CoveredUnitCount(SimTime now) const {
  // Allocation-free CoveredUnits(now).size(): the count is all the battery-cost accounting
  // needs, and it sits on the healthy-core fast path (every screen of every healthy core),
  // where materializing the unit vector was the dominant per-screen cost at fleet scale.
  size_t count = options_.initial_coverage.size();
  for (const auto& [when, unit] : options_.coverage_schedule) {
    if (now >= when) {
      ++count;
    }
  }
  return count;
}

uint64_t ScreeningOrchestrator::OfflineBatteryOps(SimTime now) const {
  return options_.offline_iterations * CoveredUnitCount(now);
}

uint64_t ScreeningOrchestrator::ThrottleOffline(SimTime now, SimTime defer) {
  if (!options_.offline_enabled || defer.seconds() <= 0) {
    return 0;
  }
  const SimTime pushed_to = now + defer;
  if (sparse_enabled()) {
    // Sparse path: only wheel entries with fire ticks inside the deferral window can have
    // due times inside (now, pushed_to) — fire = ceil(due / dt) and due > now imply
    // fire <= ceil(pushed_to / dt) — so extract those buckets and re-check the *exact* due
    // time per entry. Quantized fire ticks alone cannot decide membership: a due inside the
    // horizon's bucket may sit on either side of pushed_to.
    const int64_t push_tick = FireTick(pushed_to);
    uint64_t deferred = 0;
    for (ShardWheel& sw : wheels_) {
      for (const auto& [core, fire] :
           sw.wheel.ExtractWindow(sw.wheel.current() + 1, push_tick)) {
        SimTime& due = next_offline_due_[core];
        if (due > now && due < pushed_to) {
          due = pushed_to;
          ++deferred;
          sw.wheel.Schedule(core, push_tick);
        } else {
          sw.wheel.Schedule(core, fire);  // outside the exact window: restore untouched
        }
      }
      // Cohort members share one exact due, so the window test holds for all of them or for
      // none: a deferred cohort moves whole, merging into any cohort already due at
      // pushed_to (which lies past the window, so the scan never revisits it).
      for (auto it = sw.cohorts.upper_bound(now);
           it != sw.cohorts.end() && it->first < pushed_to; it = sw.cohorts.erase(it)) {
        deferred += it->second.size();
        AppendMembers(sw.cohorts[pushed_to], std::move(it->second));
      }
    }
    return deferred;
  }
  uint64_t deferred = 0;
  for (SimTime& due : next_offline_due_) {
    // Strictly inside the window: a screen already pushed to the horizon needs no new push,
    // so repeated throttles within one window are idempotent.
    if (due > now && due < pushed_to) {
      due = pushed_to;
      ++deferred;
    }
  }
  return deferred;
}

int64_t ScreeningOrchestrator::FireTick(SimTime due) const {
  const int64_t dt_sec = sparse_dt_.seconds();
  const int64_t due_sec = due.seconds() < 0 ? 0 : due.seconds();
  return (due_sec + dt_sec - 1) / dt_sec;
}

int64_t ScreeningOrchestrator::TickIndex(SimTime now) const {
  const int64_t tick = now.seconds() / sparse_dt_.seconds();
  MERCURIAL_CHECK_EQ(tick * sparse_dt_.seconds(), now.seconds())
      << "sparse screening requires ticks on the dt grid";
  return tick;
}

ScreeningOrchestrator::ShardWheel& ScreeningOrchestrator::WheelForRange(uint64_t core_begin,
                                                                        uint64_t core_end) {
  const auto it = std::lower_bound(
      wheels_.begin(), wheels_.end(), core_begin,
      [](const ShardWheel& sw, uint64_t begin) { return sw.begin < begin; });
  MERCURIAL_CHECK(it != wheels_.end() && it->begin == core_begin && it->end == core_end)
      << "sparse screening tick for a range that is not part of the enabled partition";
  return *it;
}

template <typename Visit>
void ScreeningOrchestrator::DrainInstalled(SimTime now, int64_t tick, const Fleet& fleet,
                                           ShardWheel& sw, Visit&& visit) {
  for (const uint32_t core : sw.wheel.Drain(tick)) {
    // Fire ticks satisfy fire * dt >= due, so a drained core is due now — the dense scan's
    // `due > now` skip can never apply to a wheel drain.
    MERCURIAL_CHECK_LE(next_offline_due_[core].seconds(), now.seconds());
    if (!fleet.Installed(core, now)) {
      // Dense marks the core due-now each tick until its machine racks; the exact due value
      // it converges to at the install tick is `some earlier now`, which fires and throttles
      // identically to ours (both are <= now at every comparison). Jump straight to the
      // install tick instead of re-draining every tick.
      next_offline_due_[core] = now;
      const SimTime install = fleet.machine(fleet.core_id(core).machine).install_time();
      sw.wheel.Schedule(core, std::max(tick + 1, FireTick(install)));
      continue;
    }
    visit(core);
  }
}

void ScreeningOrchestrator::EnableSparse(
    SimTime dt, const std::vector<std::pair<uint64_t, uint64_t>>& shard_ranges) {
  MERCURIAL_CHECK(wheels_.empty()) << "EnableSparse may be called at most once";
  MERCURIAL_CHECK_GT(dt.seconds(), 0);
  sparse_dt_ = dt;
  if (!options_.offline_enabled) {
    return;  // online sampling is already O(samples); nothing to index
  }
  MERCURIAL_CHECK_LE(next_offline_due_.size(),
                     static_cast<size_t>(std::numeric_limits<uint32_t>::max()));
  // Size each ring to the cadence so steady-state reschedules (one per screen) stay in the
  // ring instead of the overflow map; +2 covers the fire-tick ceiling and the next-tick
  // floor. Adaptive reschedules range up to the cadence ceiling, so size for that too.
  const int64_t horizon_seconds =
      options_.adaptive ? std::max(options_.offline_period.seconds(),
                                   options_.adaptive_max_period.seconds())
                        : options_.offline_period.seconds();
  const int64_t span_ticks = (horizon_seconds + dt.seconds() - 1) / dt.seconds() + 2;
  wheels_.reserve(shard_ranges.size());
  for (const auto& [begin, end] : shard_ranges) {
    ShardWheel& sw = wheels_.emplace_back(ShardWheel{begin, end, DueWheel(span_ticks), {}, {}});
    for (uint64_t core = begin; core < end; ++core) {
      // Construction staggered dues over [0, period); the first tick that fires each is
      // ceil(due / dt), clamped to tick 1 (the wheel starts at position 0).
      sw.wheel.Schedule(static_cast<uint32_t>(core),
                        std::max<int64_t>(1, FireTick(next_offline_due_[core])));
    }
  }
}

DueWheelStats ScreeningOrchestrator::wheel_stats() const {
  DueWheelStats total;
  for (const ShardWheel& sw : wheels_) {
    total.Merge(sw.wheel.stats());
  }
  return total;
}

std::vector<SimTime> ScreeningOrchestrator::OfflineDueTable() const {
  std::vector<SimTime> due = next_offline_due_;
  for (const ShardWheel& sw : wheels_) {
    for (const auto& [cohort_due, members] : sw.cohorts) {
      for (const uint32_t core : members) {
        due[core] = cohort_due;
      }
    }
  }
  return due;
}

SimTime ScreeningOrchestrator::PeriodForRisk(double risk) const {
  // Hyperbolic cadence: risk 0 rides the ceiling, risk 1 halves it, and the floor bounds how
  // hard a pathological score can hammer one core with drains.
  const double scaled = static_cast<double>(options_.adaptive_max_period.seconds()) /
                        (1.0 + std::max(0.0, risk));
  const int64_t lo = options_.adaptive_min_period.seconds();
  const int64_t hi = options_.adaptive_max_period.seconds();
  return SimTime::Seconds(std::clamp(static_cast<int64_t>(std::llround(scaled)), lo, hi));
}

int ScreeningOrchestrator::TierForRisk(double risk) const {
  if (risk >= options_.risk_hot) {
    return 2;
  }
  if (risk >= options_.risk_warm) {
    return 1;
  }
  return 0;
}

uint64_t ScreeningOrchestrator::IterationsForTier(int tier) const {
  return options_.offline_iterations << tier;  // 1x / 2x / 4x battery depth
}

ScreeningOrchestrator::ShardWheel& ScreeningOrchestrator::WheelForCore(uint64_t core) {
  const auto it = std::upper_bound(
      wheels_.begin(), wheels_.end(), core,
      [](uint64_t c, const ShardWheel& sw) { return c < sw.begin; });
  MERCURIAL_CHECK(it != wheels_.begin()) << "core below the sparse partition";
  ShardWheel& sw = *(it - 1);
  MERCURIAL_CHECK(core >= sw.begin && core < sw.end) << "core outside the sparse partition";
  return sw;
}

void ScreeningOrchestrator::RescheduleAdaptive(SimTime now, uint64_t core, SimTime period) {
  next_offline_due_[core] = now + period;
  if (sparse_enabled()) {
    ShardWheel& sw = WheelForCore(core);
    sw.wheel.Schedule(static_cast<uint32_t>(core),
                      std::max(TickIndex(now) + 1, FireTick(next_offline_due_[core])));
  }
}

double ScreeningOrchestrator::RiskScore(SimTime now, uint64_t core, Fleet& fleet) {
  RiskState& rs = risk_[core];
  double risk = 0.0;
  if (risk_probe_) {
    const ScreeningRiskEvidence evidence = risk_probe_(core, now);
    if (evidence.on_probation) {
      rs.probation_seen = true;
    }
    risk += kReportEvidenceWeight * evidence.report_score;
    risk += kDirectEvidenceWeight * evidence.direct_score;
    risk += kProbationWeight * (evidence.on_probation ? 1.0 : (rs.probation_seen ? 0.5 : 0.0));
  }
  risk += kScreenFailureWeight * static_cast<double>(rs.screen_failures);
  // A healthy core has no SimCore: it scores age 0 at the default operating point and its
  // product's voltage there, since screening never moves it off that point.
  // GROUND-TRUTH LEAK, kept so reports stay bit-identical: Fleet::SetAges ages only defective
  // cores, so every healthy core scores age 0 while a defective one scores its machine's real
  // age, and the allocator can single out defective cores by age alone.
  SimTime age;
  OperatingPoint point;
  double voltage = 0.0;
  if (fleet.Healthy(core)) {
    voltage = fleet.machine(fleet.core_id(core).machine).product().dvfs.VoltageAt(
        point.frequency_ghz);
  } else {
    const SimCore& sim_core = fleet.core(core);
    age = sim_core.age();
    point = sim_core.operating_point();
    voltage = sim_core.voltage();
  }
  risk += kAgeYearsWeight * (age.days() / 365.0);
  // Operating-point stress: hot silicon and thin voltage margin both raise the chance a
  // marginal defect fires in production before the next screen (§5: defects are f/V/T
  // sensitive). Normalized so the default point (60 C, 0.92 V) scores ~0.15.
  const double temp_stress = std::clamp((point.temperature_c - 50.0) / 50.0, 0.0, 1.0);
  const double volt_stress = std::clamp((0.95 - voltage) / 0.30, 0.0, 1.0);
  risk += kStressWeight * 0.5 * (temp_stress + volt_stress);
  // Coverage gap: corpus units that came online after this core's last offline screen have
  // never been run against it — its defects there are still zero-days (§4).
  uint64_t gap = 0;
  if (rs.last_screen.seconds() < 0) {
    gap = CoveredUnitCount(now);  // never screened: the whole live corpus is untested
  } else {
    for (const auto& [when, unit] : options_.coverage_schedule) {
      if (when <= now && when > rs.last_screen) {
        ++gap;
      }
    }
  }
  risk += kCoverageGapWeight * static_cast<double>(gap);
  return risk;
}

void ScreeningOrchestrator::PlanAdaptiveTick(SimTime now, SimTime dt, Fleet& fleet,
                                             const CoreScheduler& scheduler) {
  planned_.clear();
  if (!adaptive()) {
    return;
  }
  if (risk_.empty()) {
    risk_.resize(next_offline_due_.size());
  }

  // 1. Collect this tick's due, installed candidates in ascending core order. Sparse drains
  // every shard wheel in shard order (shard ranges partition ascending, so the concatenation
  // is globally ascending — the dense visit order); dense scans the due table. Uninstalled
  // cores park exactly like the legacy paths (due pinned to now; wheel jumps to the install
  // tick) so the two engines converge on identical due values.
  plan_candidates_.clear();
  if (sparse_enabled()) {
    const int64_t tick = TickIndex(now);
    for (ShardWheel& sw : wheels_) {
      DrainInstalled(now, tick, fleet, sw,
                     [this](uint32_t core) { plan_candidates_.push_back(core); });
    }
  } else {
    for (uint64_t core = 0; core < next_offline_due_.size(); ++core) {
      if (next_offline_due_[core] > now) {
        continue;
      }
      if (!fleet.Installed(core, now)) {
        next_offline_due_[core] = now;  // not racked yet; first screen once installed
        continue;
      }
      plan_candidates_.push_back(core);
    }
  }

  // 2. Score. Serial and in ascending core order, so every float accumulates in a fixed
  // order regardless of shard/thread count. Unschedulable cores ride the cadence ceiling,
  // mirroring the legacy skip (the confession path tests them instead).
  struct Scored {
    double risk;
    uint64_t core;
  };
  std::vector<Scored> scored;
  scored.reserve(plan_candidates_.size());
  for (const uint64_t core : plan_candidates_) {
    if (!scheduler.Schedulable(core)) {
      RescheduleAdaptive(now, core, options_.adaptive_max_period);
      continue;
    }
    scored.push_back(Scored{RiskScore(now, core, fleet), core});
    ++risk_stats_.rescores;
  }

  // 3. Deterministic priority: risk descending, core id ascending on ties.
  std::sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
    if (a.risk != b.risk) {
      return a.risk > b.risk;
    }
    return a.core < b.core;
  });

  // 4. Greedy admission under this tick's ops budget. Strict stop: the first candidate that
  // does not fit (and everything below it) defers to the next tick — no best-fit backfill,
  // which would make admission depend on float comparisons deep down the list.
  const bool metered = options_.budget_ops_per_day > 0;
  uint64_t remaining =
      metered ? static_cast<uint64_t>(
                    std::llround(static_cast<double>(options_.budget_ops_per_day) * dt.days()))
              : 0;
  const uint64_t unit_count = CoveredUnitCount(now);
  bool exhausted = false;
  for (const Scored& s : scored) {
    const int tier = TierForRisk(s.risk);
    const uint64_t iterations = IterationsForTier(tier);
    const uint64_t cost = iterations * unit_count;
    const auto risk_milli =
        static_cast<uint64_t>(std::llround(std::max(0.0, s.risk) * 1000.0));
    if (!exhausted && (!metered || cost <= remaining)) {
      if (metered) {
        remaining -= cost;
      }
      planned_.push_back(PlannedScreen{s.core, iterations, static_cast<uint8_t>(tier)});
      RescheduleAdaptive(now, s.core, PeriodForRisk(s.risk));
      risk_[s.core].last_screen = now;
      ++risk_stats_.admitted;
      ++risk_stats_.tier_screens[tier];
      risk_stats_.ops_planned += cost;
      if (trace_ != nullptr) {
        trace_->Emit(s.core, TraceEventKind::kRiskRescore, TraceCause::kRiskAdmitted,
                     (risk_milli << 2) | static_cast<uint64_t>(tier));
      }
    } else {
      // Budget exhausted: stays due (dense rescans it; sparse re-fires next tick) and is
      // re-scored against the fresh candidate pool.
      exhausted = true;
      ++risk_stats_.deferred;
      if (sparse_enabled()) {
        ShardWheel& sw = WheelForCore(s.core);
        sw.wheel.Schedule(static_cast<uint32_t>(s.core), TickIndex(now) + 1);
      }
      if (trace_ != nullptr) {
        trace_->Emit(s.core, TraceEventKind::kRiskRescore, TraceCause::kRiskDeferred,
                     (risk_milli << 2) | static_cast<uint64_t>(tier));
      }
    }
  }
  if (exhausted) {
    ++risk_stats_.budget_exhausted_ticks;
  }

  // 5. Execution consumes planned_ in ascending core order (each shard takes its slice), so
  // restore the dense visit order.
  std::sort(planned_.begin(), planned_.end(),
            [](const PlannedScreen& a, const PlannedScreen& b) { return a.core < b.core; });
}

bool ScreeningOrchestrator::ScreenOne(SimTime now, uint64_t core_index, bool offline,
                                      uint64_t iterations, Fleet& fleet, Rng& rng,
                                      ShardScreenOutcome& outcome) {
  ScreeningTickStats& stats = outcome.stats;
  if (fleet.Healthy(core_index)) {
    // Fast path: a defect-free core cannot fail (sound per DESIGN.md decision 1), and has no
    // SimCore to run it on; charge the battery's cost without executing it.
    stats.ops_spent += iterations * CoveredUnitCount(now);
    return false;
  }
  SimCore& core = fleet.core(core_index);
  StressOptions stress;
  stress.units = CoveredUnits(now);
  stress.iterations_per_unit = iterations;
  if (offline) {
    stress.sweep = StandardScreeningSweep();
  }
  const StressReport report = RunStressBattery(core, rng, stress);
  stats.ops_spent += report.total_ops;
  if (report.passed()) {
    return false;
  }
  ++stats.screen_failures;
  const CoreId id = fleet.core_id(core_index);
  outcome.failures.push_back(Signal{now, id.machine, core_index, SignalType::kScreenFail});
  if (trace_ != nullptr) {
    trace_->Emit(core_index, TraceEventKind::kSignalEmitted, TraceCause::kScreenFail,
                 offline ? 1 : 0);
  }
  return true;
}

void ShardScreenOutcome::ApplyDrains(CoreScheduler& scheduler) const {
  for (size_t i = 0; i < offline_drained.size(); ++i) {
    scheduler.Drain(offline_drained[i]);
    if (!drained_tiers.empty()) {
      scheduler.NoteScreenDrainTier(drained_tiers[i]);
    }
    scheduler.Release(offline_drained[i]);
  }
  scheduler.ChargeScreenDrains(healthy_drained);
}

ScreeningTickStats ScreeningOrchestrator::Tick(SimTime now, SimTime dt, Fleet& fleet,
                                               CoreScheduler& scheduler,
                                               const std::function<void(const Signal&)>& emit) {
  // One shard spanning the fleet, on the orchestrator's own stream. Every drain is paired with
  // a release and the shard pass never reads a failure's delivery, so applying both after the
  // pass replays the inline drain-screen-release sequence draw for draw.
  const ShardScreenOutcome outcome =
      TickShard(now, dt, 0, next_offline_due_.size(), fleet, scheduler, rng_);
  outcome.ApplyDrains(scheduler);
  for (const Signal& signal : outcome.failures) {
    emit(signal);
  }
  return outcome.stats;
}

ShardScreenOutcome ScreeningOrchestrator::TickShard(SimTime now, SimTime dt,
                                                    uint64_t core_begin, uint64_t core_end,
                                                    Fleet& fleet,
                                                    const CoreScheduler& scheduler, Rng& rng) {
  MERCURIAL_CHECK_LE(core_end, next_offline_due_.size());
  ShardScreenOutcome outcome;

  if (adaptive()) {
    // Adaptive path: execute this shard's slice of the serial plan. planned_ is ascending by
    // core, so a binary search bounds the slice; risk_ writes are shard-confined (each entry
    // belongs to the shard that owns the core). Drain/release and tier accounting are
    // deferred to the merge barrier via offline_drained/drained_tiers.
    const auto begin = std::lower_bound(
        planned_.begin(), planned_.end(), core_begin,
        [](const PlannedScreen& plan, uint64_t core) { return plan.core < core; });
    for (auto it = begin; it != planned_.end() && it->core < core_end; ++it) {
      outcome.offline_drained.push_back(it->core);
      outcome.drained_tiers.push_back(it->tier);
      ++outcome.stats.offline_screens;
      if (ScreenOne(now, it->core, /*offline=*/true, it->iterations, fleet, rng, outcome)) {
        ++risk_[it->core].screen_failures;
      }
    }
  } else if (options_.offline_enabled && sparse_enabled() && core_end > core_begin) {
    // Sparse path: drain this shard's wheel bucket (ascending — the dense visit order)
    // instead of scanning the whole range, and count healthy screens by cohort. Safe
    // concurrently with other shards: the wheel, the cohorts, the due-table slice, and the
    // drained cores all belong to this shard.
    const int64_t tick = TickIndex(now);
    ShardWheel& sw = WheelForRange(core_begin, core_end);
    if (!sw.defective_count) {
      sw.defective_count = fleet.mercurial_cores().size();
    }
    MERCURIAL_CHECK_EQ(fleet.mercurial_cores().size(), *sw.defective_count)
        << "a defect was planted after the sparse engine's first tick; cohort members must "
           "stay healthy";
    const SimTime next_due = now + options_.offline_period;
    // Every healthy core due now rides on to next_due: the members of each cohort due by now,
    // and the cores screened for the first time, which leave the per-core wheel for good.
    // Unschedulable members ride along unscreened, as the dense scan advances their dues.
    std::vector<uint32_t> riders;
    for (auto it = sw.cohorts.begin(); it != sw.cohorts.end() && it->first <= now;
         it = sw.cohorts.erase(it)) {
      AppendMembers(riders, std::move(it->second));
    }
    DrainInstalled(now, tick, fleet, sw, [&](uint32_t core) {
      if (fleet.Healthy(core)) {
        riders.push_back(core);
        return;
      }
      next_offline_due_[core] = next_due;
      sw.wheel.Schedule(core, std::max(tick + 1, FireTick(next_due)));
      if (!scheduler.Schedulable(core)) {
        return;  // quarantined/retired cores are handled by the confession path
      }
      // Drain/release deferral: same contract as the dense loop below.
      outcome.offline_drained.push_back(core);
      ++outcome.stats.offline_screens;
      ScreenOne(now, core, /*offline=*/true, options_.offline_iterations, fleet, rng, outcome);
    });
    // A healthy screen draws nothing, emits nothing and cannot fail, so counting the
    // schedulable riders charges exactly what screening them one by one would.
    for (const uint32_t core : riders) {
      outcome.healthy_drained += scheduler.Schedulable(core) ? 1 : 0;
    }
    outcome.stats.offline_screens += outcome.healthy_drained;
    outcome.stats.ops_spent += outcome.healthy_drained * OfflineBatteryOps(now);
    if (!riders.empty()) {
      AppendMembers(sw.cohorts[next_due], std::move(riders));
    }
  } else if (options_.offline_enabled) {
    for (uint64_t core = core_begin; core < core_end; ++core) {
      if (next_offline_due_[core] > now) {
        continue;
      }
      if (!fleet.Installed(core, now)) {
        next_offline_due_[core] = now;  // not racked yet; first screen once installed
        continue;
      }
      next_offline_due_[core] = now + options_.offline_period;
      if (!scheduler.Schedulable(core)) {
        continue;  // quarantined/retired cores are handled by the confession path
      }
      // The drain (and release back to service) is deferred: the caller charges the
      // scheduler in shard-index order at the merge barrier. Scheduler state is frozen
      // during the parallel phase, so a drained core is indistinguishable from an active
      // one for the rest of this tick — exactly the serial drain-screen-release semantics.
      outcome.offline_drained.push_back(core);
      ++outcome.stats.offline_screens;
      ScreenOne(now, core, /*offline=*/true, options_.offline_iterations, fleet, rng, outcome);
    }
  }

  if (options_.online_enabled && scheduler.active_count() > 0 && core_end > core_begin) {
    const double expected = static_cast<double>(core_end - core_begin) *
                            options_.online_fraction_per_day * dt.days();
    const uint64_t samples = rng.Poisson(expected);
    for (uint64_t s = 0; s < samples; ++s) {
      const uint64_t core = core_begin + rng.UniformInt(0, core_end - core_begin - 1);
      if (!scheduler.Schedulable(core) || !fleet.Installed(core, now)) {
        continue;
      }
      ++outcome.stats.online_screens;
      ScreenOne(now, core, /*offline=*/false, options_.online_iterations, fleet, rng, outcome);
    }
  }
  return outcome;
}

}  // namespace mercurial
