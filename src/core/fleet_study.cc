#include "src/core/fleet_study.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <string>

#include "src/common/logging.h"
#include "src/common/thread_pool.h"
#include "src/substrate/checksum.h"

namespace mercurial {
namespace {

// Capacity of the machine-check log ring (McaLog overwrites its oldest record when full).
constexpr size_t kMcaLogCapacity = 4096;

// Signal model constants: the chance a crash also yields a sanitizer signal, and the mean
// delay before a human files a suspicion.
constexpr double kSanitizerProbability = 0.25;
constexpr SimTime kHumanReportMeanDelay = SimTime::Days(10);

// `signals.<name>` export names, indexed by FleetStudy::SignalSource.
constexpr const char* kSignalSourceNames[] = {"crash",      "sanitizer",  "machine_check",
                                              "app_report", "background", "screen_fail",
                                              "user_report"};

// The study owns the provenance-epoch granularity: one epoch per tick, so the repair
// pipeline's suspect window maps 1:1 onto ledger entries.
RepairOptions ResolveAuditOptions(const StudyOptions& options) {
  RepairOptions audit = options.audit;
  audit.epoch_length = options.tick;
  return audit;
}

}  // namespace

// Everything one shard's production + noise pass may produce, buffered so the tick's side
// effects can be applied to the shared services serially in shard-index order. Buffers are
// pooled across the study's ticks (one per shard): Reset() clears values but keeps vector
// capacity, so steady-state ticks allocate nothing.
struct FleetStudy::ShardDelta {
  uint64_t symptom_counts[kSymptomCount] = {};
  uint64_t work_units_executed = 0;
  uint64_t silent_corruptions = 0;
  uint64_t probation_work_declined = 0;
  uint64_t signal_counts[kSignalSourceCount] = {};  // only the shard-side sources move
  std::vector<Signal> signals;               // suspect-service reports, in emission order
  std::vector<McaRecord> mca_records;        // machine-check telemetry, in emission order
  std::vector<PendingHumanReport> human_reports;
  BlastRadiusLedger ledger;                  // provenance tags (audit-enabled studies only)
  ShardScreenOutcome screen;                 // replaced, not reset, by each tick's TickShard

  // Clear-and-reuse between ticks. Vectors keep their high-water capacity: the previous
  // tick's event counts are the reserve hint for the next one.
  void Reset() {
    std::fill(std::begin(symptom_counts), std::end(symptom_counts), uint64_t{0});
    work_units_executed = 0;
    silent_corruptions = 0;
    probation_work_declined = 0;
    std::fill(std::begin(signal_counts), std::end(signal_counts), uint64_t{0});
    signals.clear();
    mca_records.clear();
    human_reports.clear();
    ledger.Clear();
  }
};

FleetStudy::FleetStudy(StudyOptions options)
    : options_(options),
      rng_(options.seed),
      fleet_(Fleet::Build(options.fleet)),
      scheduler_(fleet_.core_count(), options.scheduler_costs),
      service_(options.report_service,
               [this](uint64_t machine) {
                 return static_cast<uint32_t>(fleet_.machine(machine).core_count());
               }),
      screening_(options.screening, fleet_.core_count(), rng_.Split(0x5c12)),
      // The interrogation stream (label 0x9a44) drives the confession batteries; the control
      // stream (0xc0a1) drives retry and drain jitter, chaos and quorum, and is never drawn
      // from at default options.
      control_plane_(options.control_plane, options.quarantine, rng_.Split(0x9a44),
                     rng_.Split(0xc0a1)),
      // The repair stream is a fresh Split label: Split is a pure function of (parent
      // identity, label) and never advances the parent, so adding it leaves every existing
      // stream untouched — a disabled audit is bit-invisible.
      repair_(ResolveAuditOptions(options), rng_.Split(0xb1a5), options.control_plane.chaos),
      mca_log_(kMcaLogCapacity) {
  report_.machines = fleet_.machine_count();
  report_.cores = fleet_.core_count();
  report_.true_mercurial_cores = fleet_.mercurial_cores().size();

  if (options_.audit.enabled) {
    // Repair executors are drawn from the real fleet, which still contains unconvicted
    // mercurial cores — the organic "repair on another defective core" failure mode the
    // chaos knob only supplements.
    repair_.SetExecutorPool(fleet_.core_count(), [this](uint64_t core) {
      return fleet_.IsMercurial(core) && fleet_.core(core).AnyDefectActive();
    });
    // Conviction -> suspect set. Fires inside the control plane's serial Tick, after this
    // tick's shard ledgers have already merged, so the suspect set sees every artifact the
    // convicted core produced up to and including the conviction tick.
    control_plane_.set_conviction_hook([this](SimTime now, const QuarantineVerdict& verdict) {
      repair_.OnConviction(now, verdict.core_global, ledger_);
    });
    // Reinstatement withdraws the conviction: repair passes still queued for it are cancelled
    // (with accounting) rather than run against an exonerated core's artifacts.
    control_plane_.set_reinstatement_hook(
        [this](SimTime, uint64_t core) { repair_.OnReinstated(core); });
  }

  if (options_.control_plane.probation.enabled) {
    // Probation cores serve restricted work: placements are filtered against the failed units
    // their weak confession named. The profile table is index-aligned with the corpus (one
    // profile per WorkloadKind, in enum order).
    placement_profiles_ = PlacementPlanner::StandardProfiles();
    MERCURIAL_CHECK_EQ(placement_profiles_.size(), static_cast<size_t>(kWorkloadKindCount));
  }

  if (options_.screening.adaptive) {
    // Evidence probe for the risk-adaptive allocator. Called only from the serial plan phase
    // (PlanAdaptiveTick), so the report-service and scheduler reads are race-free (a peek
    // brings the core's report record up to date in place). A peek changes no later answer
    // of either component, so adaptive mode stays bit-invisible to them.
    screening_.set_risk_probe([this](uint64_t core, SimTime now) {
      const CeeReportService::CoreEvidence peek = service_.PeekEvidence(core, now);
      ScreeningRiskEvidence evidence;
      evidence.report_score = peek.score;
      evidence.direct_score = peek.direct_score;
      evidence.on_probation = scheduler_.state(core) == CoreState::kProbation;
      return evidence;
    });
  }

  if (options_.trace.enabled) {
    // The recorder's shard routing mirrors PartitionCores for the resolved shard count, so
    // during the parallel phase each shard writes only its own ring. Everything downstream of
    // this block is emission at the lifecycle sites; none of it draws randomness, which is
    // what keeps an enabled trace bit-invisible to the legacy report.
    trace_ = std::make_unique<TraceRecorder>(options_.trace, fleet_.core_count(),
                                             std::max(1, options_.shards));
    for (uint64_t core : fleet_.mercurial_cores()) {
      fleet_.core(core).set_trace_recorder(trace_.get());
    }
    service_.set_trace_recorder(trace_.get());
    screening_.set_trace_recorder(trace_.get());
    control_plane_.set_trace_recorder(trace_.get());
    repair_.set_trace_recorder(trace_.get());
  }
}

void FleetStudy::HandleSymptom(SimTime now, uint64_t core_index, Symptom symptom, Rng& rng,
                               ShardDelta& delta) {
  ++delta.symptom_counts[static_cast<int>(symptom)];
  if (symptom == Symptom::kNone) {
    return;
  }
  const CoreId id = fleet_.core_id(core_index);
  // A human-filed suspicion, dated by one exponential delay draw.
  const auto file_human_report = [&] {
    const SimTime delay = SimTime::Seconds(static_cast<int64_t>(
        rng.Exponential(1.0 / static_cast<double>(kHumanReportMeanDelay.seconds()))));
    delta.human_reports.push_back(
        {now + delay, Signal{now + delay, id.machine, core_index, SignalType::kUserReport}});
  };
  switch (symptom) {
    case Symptom::kCrash: {
      delta.signals.push_back(Signal{now, id.machine, core_index, SignalType::kCrash});
      ++delta.signal_counts[kCrashSource];
      TraceSignal(core_index, TraceCause::kCrashSignal);
      if (rng.Bernoulli(kSanitizerProbability)) {
        delta.signals.push_back(Signal{now, id.machine, core_index, SignalType::kSanitizer});
        ++delta.signal_counts[kSanitizerSource];
        TraceSignal(core_index, TraceCause::kSanitizerSignal);
      }
      if (rng.Bernoulli(options_.crash_human_report_probability)) {
        file_human_report();
      }
      break;
    }
    case Symptom::kMachineCheck: {
      delta.signals.push_back(Signal{now, id.machine, core_index, SignalType::kMachineCheck});
      ++delta.signal_counts[kMachineCheckSource];
      TraceSignal(core_index, TraceCause::kMachineCheckSignal);
      // Structured MCA telemetry: the reporting bank is the defective unit, unless the
      // hardware's bank mapping scrambles it.
      McaRecord record;
      record.time = now;
      record.machine = id.machine;
      record.core_global = core_index;
      const SimCore& core = fleet_.core(core_index);
      ExecUnit bank = ExecUnit::kIntAlu;
      uint64_t syndrome = 0;
      if (!core.defects().empty()) {
        const Defect& defect = core.defects()[0];
        bank = defect.unit();
        syndrome = Mix64(Fnv1a64(defect.spec().label.data(), defect.spec().label.size())) & 0xffff;
      }
      if (rng.Bernoulli(options_.mca_bank_confusion)) {
        bank = static_cast<ExecUnit>(rng.UniformInt(0, kExecUnitCount - 1));
      }
      record.bank = bank;
      record.syndrome = syndrome;
      delta.mca_records.push_back(record);
      break;
    }
    case Symptom::kDetectedImmediately:
    case Symptom::kDetectedLate:
      if (rng.Bernoulli(options_.app_report_probability)) {
        delta.signals.push_back(Signal{now, id.machine, core_index, SignalType::kAppReport});
        ++delta.signal_counts[kAppReportSource];
        TraceSignal(core_index, TraceCause::kAppReport);
      }
      if (symptom == Symptom::kDetectedLate &&
          rng.Bernoulli(options_.silent_human_notice_probability)) {
        file_human_report();
      }
      break;
    case Symptom::kSilentCorruption: {
      ++delta.silent_corruptions;
      // No signal leaves the machine; traced anyway so escapes stay visible in the timeline.
      TraceSignal(core_index, TraceCause::kSilentCorruption);
      // "Wrong answers that are never detected" — except when a downstream consumer
      // eventually notices something impossible and a human investigates.
      if (rng.Bernoulli(options_.silent_human_notice_probability)) {
        file_human_report();
      }
      break;
    }
    case Symptom::kNone:
      break;
  }
}

void FleetStudy::RunProductionShard(SimTime now, uint64_t core_begin, uint64_t core_end,
                                    Rng& rng, std::vector<std::unique_ptr<Workload>>& corpus,
                                    ShardDelta& delta,
                                    const std::vector<uint64_t>* active_cores) {
  const double busy_units = static_cast<double>(options_.work_units_per_core_day) *
                            options_.tick.days();
  const bool audit = options_.audit.enabled;
  const bool probation_enabled = options_.control_plane.probation.enabled;
  const uint64_t epoch =
      static_cast<uint64_t>(now.seconds() / options_.tick.seconds());
  // Sparse engine: the index slice is exactly the dense scan's surviving cores (same
  // ascending order) minus cores whose every gate below would fail draw-free — latent
  // defects and retired cores — so both loops consume identical streams. Dense (nullptr):
  // walk the full mercurial list and range-filter, the reference-oracle behavior.
  const std::vector<uint64_t>& scan =
      active_cores != nullptr ? *active_cores : fleet_.mercurial_cores();
  for (uint64_t core_index : scan) {
    if (active_cores == nullptr && (core_index < core_begin || core_index >= core_end)) {
      continue;
    }
    // A probation core is not Schedulable (general placement) but does serve restricted
    // work — that recovered capacity is the point of the probation lifecycle. The probation
    // ledger is only written in the serial phase, so reading it here is race-free.
    const bool on_probation =
        probation_enabled && scheduler_.state(core_index) == CoreState::kProbation;
    if ((!scheduler_.Schedulable(core_index) && !on_probation) ||
        !fleet_.Installed(core_index, now)) {
      continue;
    }
    SimCore& core = fleet_.core(core_index);
    if (!core.AnyDefectActive()) {
      // Latent defect, not yet past onset: behaves exactly like a healthy core; skip.
      continue;
    }
    const uint64_t units = rng.Poisson(busy_units);
    if (audit && units > 0) {
      // Stamp the producer: everything this core emits during the tick carries (core, epoch).
      core.set_provenance_epoch(epoch);
    }
    for (uint64_t u = 0; u < units; ++u) {
      // The corpus index doubles as the WorkloadKind (BuildStandardCorpus builds one instance
      // per kind, in enum order), which determines the artifact class the unit produces.
      const uint64_t pick = rng.UniformInt(0, corpus.size() - 1);
      if (on_probation) {
        // Checked placement: decline any workload that would exercise a unit the core's weak
        // confession named. The draw is still consumed, so probation cannot shift the stream.
        const std::vector<ExecUnit>* restricted =
            control_plane_.ProbationRestrictedUnits(core_index);
        if (restricted != nullptr && !restricted->empty() &&
            !TaskSafeOnCore(placement_profiles_[pick].units_exercised, *restricted)) {
          ++delta.probation_work_declined;
          continue;
        }
      }
      Workload& workload = *corpus[pick];
      const WorkloadResult result = workload.Run(core, rng);
      ++delta.work_units_executed;
      HandleSymptom(now, core_index, result.symptom, rng, delta);
      if (audit) {
        // Ground truth for the escape accounting: a silent corruption is exactly an artifact
        // corrupt at rest (detected/late corruptions never left the producing task).
        delta.ledger.RecordArtifacts(
            core_index, epoch, ArtifactKindForWorkload(static_cast<WorkloadKind>(pick)),
            /*produced=*/1,
            /*corrupt=*/result.symptom == Symptom::kSilentCorruption ? 1 : 0);
      }
    }
  }
}

void FleetStudy::EmitBackgroundNoiseShard(SimTime now, SimTime dt, uint64_t core_begin,
                                          uint64_t core_end, Rng& rng, ShardDelta& delta) {
  if (core_end <= core_begin) {
    return;
  }
  // Ordinary software bugs: crashes and sanitizer reports spread evenly over the fleet
  // ("reports that are evenly spread across cores probably are not CEEs"). Each shard draws
  // its slice of the fleet-wide rate, so the total is preserved for any shard count.
  const double expected = static_cast<double>(core_end - core_begin) *
                          options_.background_signal_rate_per_core_day * dt.days();
  const uint64_t events = rng.Poisson(expected);
  for (uint64_t e = 0; e < events; ++e) {
    // Draw accounting (pinned by the replay regression test in determinism_test.cc): the
    // uniform core pick is drawn unconditionally — BEFORE the Installed check — and an
    // uninstalled pick consumes exactly that one draw, skipping the signal-type NextDouble
    // below. Fleet growth therefore thins the noise rate without shifting the stream for
    // installed picks; reordering the pick after the check, or consuming the type draw for
    // skipped picks, would silently re-randomize every study with future installs.
    const uint64_t core_index = core_begin + rng.UniformInt(0, core_end - core_begin - 1);
    if (!fleet_.Installed(core_index, now)) {
      continue;  // not racked yet; thins the noise rate in proportion to fleet growth
    }
    const CoreId id = fleet_.core_id(core_index);
    const double draw = rng.NextDouble();
    SignalType type = SignalType::kCrash;
    if (draw < 0.15) {
      type = SignalType::kSanitizer;
    } else if (draw < 0.30) {
      type = SignalType::kAppReport;
    }
    delta.signals.push_back(Signal{now, id.machine, core_index, type});
    ++delta.signal_counts[kBackgroundSource];
    TraceSignal(core_index, TraceCause::kBackgroundNoise, static_cast<uint64_t>(type));
  }
}

void FleetStudy::NoteSignalForAudit(const Signal& signal) {
  if (options_.audit.enabled) {
    ledger_.NoteSignal(signal.core_global, signal.time);
  }
}

void FleetStudy::ApplyShardDelta(ShardDelta& delta) {
  for (int s = 0; s < kSymptomCount; ++s) {
    report_.symptom_counts[s] += delta.symptom_counts[s];
  }
  report_.work_units_executed += delta.work_units_executed;
  report_.silent_corruptions += delta.silent_corruptions;
  report_.probation_work_declined += delta.probation_work_declined;
  for (int source = 0; source < kSignalSourceCount; ++source) {
    signal_counts_[source] += delta.signal_counts[source];
  }
  if (options_.audit.enabled) {
    ledger_.MergeFrom(delta.ledger);
  }
  for (const Signal& signal : delta.signals) {
    NoteSignalForAudit(signal);
    control_plane_.Report(signal, service_);
  }
  for (const McaRecord& record : delta.mca_records) {
    mca_log_.Append(record);
  }
  for (const PendingHumanReport& pending : delta.human_reports) {
    pending_human_reports_.push_back(pending);
  }
}

void FleetStudy::ApplyScreenOutcome(SimTime now, const ShardScreenOutcome& outcome) {
  // Offline screens owe the scheduler a drain (migration costs) and a release back to
  // service; replayed here in shard order so cost accounting is thread-count independent.
  outcome.ApplyDrains(scheduler_);
  for (const Signal& signal : outcome.failures) {
    auto_series_.Add(now, 1.0);
    ++signal_counts_[kScreenFailSource];
    NoteSignalForAudit(signal);
    control_plane_.Report(signal, service_);
  }
  report_.screen_failures += outcome.stats.screen_failures;
  report_.screening_ops += outcome.stats.ops_spent;
}

void FleetStudy::FlushHumanReports(SimTime now) {
  auto due = std::partition(pending_human_reports_.begin(), pending_human_reports_.end(),
                            [now](const PendingHumanReport& r) { return r.due > now; });
  for (auto it = due; it != pending_human_reports_.end(); ++it) {
    NoteSignalForAudit(it->signal);
    control_plane_.Report(it->signal, service_);
    ++signal_counts_[kUserReportSource];
    user_series_.Add(now, 1.0);
    TraceSignal(it->signal.core_global, TraceCause::kUserReportSignal);
  }
  pending_human_reports_.erase(due, pending_human_reports_.end());
}

void FleetStudy::ProcessSuspects(SimTime now, const ActivationTimes& activation_time) {
  const auto verdicts =
      control_plane_.Tick(now, options_.tick, fleet_, scheduler_, service_, &screening_);
  for (const QuarantineVerdict& verdict : verdicts) {
    if (verdict.retired && fleet_.IsMercurial(verdict.core_global)) {
      ++report_.mercurial_retired;
      const auto it = activation_time.find(verdict.core_global);
      const SimTime activated = it == activation_time.end() ? SimTime::Seconds(0) : it->second;
      const double latency_days = std::max(0.0, (now - activated).days());
      report_.detection_latency_days.Add(latency_days);
    }
  }
  if (options_.audit.enabled) {
    // Repair runs strictly after detection within the tick ("repair must not outrun
    // detection", DESIGN.md): conviction hooks from the verdicts above have already enqueued
    // their suspect sets.
    repair_.Tick(now);
  }
}

FleetStudy::ActivationTimes FleetStudy::ComputeActivationTimes() {
  // Activation time per mercurial core (study-relative), for latency metrics.
  ActivationTimes activation_time;
  for (uint64_t core_index : fleet_.mercurial_cores()) {
    const Machine& machine = fleet_.machine(fleet_.core_id(core_index).machine);
    SimTime earliest = SimTime::Days(1 << 20);
    for (const Defect& defect : fleet_.core(core_index).defects()) {
      const SimTime active_at = machine.install_time() + defect.spec().aging.onset;
      earliest = std::min(earliest, active_at);
    }
    activation_time[core_index] = std::max(SimTime::Seconds(0), earliest);
  }
  return activation_time;
}

void FleetStudy::EnableSparseEngine(const std::vector<ShardRange>& ranges) {
  // The burn-in orchestrator (RunBurnIn) is a separate dense instance ticked once at t=0;
  // only the steady-state orchestrator gets wheels, and it gets them before its first tick.
  std::vector<std::pair<uint64_t, uint64_t>> spans;
  spans.reserve(ranges.size());
  for (const ShardRange& range : ranges) {
    spans.emplace_back(range.begin, range.end);
  }
  screening_.EnableSparse(options_.tick, spans);
  active_index_.Build(fleet_, ranges);
  // Retirement is the scheduler's only irreversible transition, so it is the only one the
  // index mirrors; quarantine/probation stay in the slice and are re-gated per visit
  // (draw-free, hence stream-neutral) exactly like the dense scan.
  scheduler_.set_retirement_listener([this](uint64_t core) { active_index_.Retire(core); });
}

void FleetStudy::RunBurnIn() {
  // Pre-deployment acceptance testing: one thorough screen of every core at t=0 with
  // whatever corpus coverage exists at t=0, whether or not lifetime screening is on.
  auto emit = [&](const Signal& signal) {
    auto_series_.Add(signal.time, 1.0);
    ++signal_counts_[kScreenFailSource];
    ++report_.screen_failures;
    NoteSignalForAudit(signal);
    control_plane_.Report(signal, service_);
  };
  ScreeningOptions burn_in_options = options_.screening;
  burn_in_options.online_enabled = false;
  burn_in_options.offline_enabled = true;
  // Zero period => every core is due immediately, and t=0 coverage applies.
  burn_in_options.offline_period = SimTime::Seconds(0);
  // Burn-in is a one-shot acceptance sweep, never budget-arbitrated: with adaptive left on,
  // this orchestrator's Tick would consume an (empty, never-planned) admission list and
  // screen nothing at all.
  burn_in_options.adaptive = false;
  ScreeningOrchestrator burn_in(burn_in_options, fleet_.core_count(), rng_.Split(0xb124));
  // Burn-in runs at t=0 under the recorder's initial (time 0, epoch 0) context.
  burn_in.set_trace_recorder(trace_.get());
  report_.screening_ops +=
      burn_in.Tick(SimTime::Seconds(0), options_.tick, fleet_, scheduler_, emit).ops_spent;
}

void FleetStudy::RunTicks(SimClock& clock, int64_t ticks, int shards, int threads,
                          const ActivationTimes& activation_time) {
  const std::vector<ShardRange> ranges = PartitionCores(fleet_.core_count(), shards);

  // Each shard owns a private corpus instance: Workload::Run mutates only core and rng state
  // today, but private instances keep the parallel phase free of shared mutable state by
  // construction (and TSan-clean) even if a workload grows caches later.
  std::vector<std::vector<std::unique_ptr<Workload>>> corpora;
  corpora.reserve(static_cast<size_t>(shards));
  for (int k = 0; k < shards; ++k) {
    corpora.push_back(BuildStandardCorpus(options_.workload));
  }

  ThreadPool pool(static_cast<size_t>(threads));
  const bool sparse = options_.sparse_engine;
  // One pooled delta buffer per shard, reused for every tick: each buffer converges on its
  // shard's per-tick high-water event counts, after which the parallel phase stops
  // allocating. The per-tick Reset runs inside the worker task so clearing parallelizes too.
  std::vector<ShardDelta> deltas(static_cast<size_t>(shards));
  for (int64_t t = 0; t < ticks; ++t) {
    clock.Advance(options_.tick);
    const SimTime now = clock.now();
    fleet_.SetAges(now);
    if (trace_ != nullptr) {
      // Serial, before the parallel phase: the tick context is frozen shared state the
      // shards read, like the scheduler and the fleet layout.
      trace_->SetTickContext(now, static_cast<uint64_t>(now.seconds() /
                                                        options_.tick.seconds()));
    }
    if (sparse) {
      // Serial admissions: the per-shard active slices are frozen shared state during the
      // parallel phase, exactly like the scheduler's states.
      active_index_.Advance(now);
    }
    if (screening_.adaptive()) {
      // Serial plan phase: budget arbitration is global (risk priority across all shards),
      // so it cannot run inside the shards. The plan fixes each shard's admissions before
      // dispatch; TickShard then consumes its ascending slice, and the schedulability
      // decisions hold because scheduler state is frozen until ProcessSuspects.
      screening_.PlanAdaptiveTick(now, options_.tick, fleet_, scheduler_);
    }

    // Parallel phase: every shard reads frozen shared state (scheduler, fleet layout,
    // coverage schedule) and writes only shard-private state — its own cores, its slice of
    // the offline-due table (plus its due-wheel and cohorts), and its delta buffer. Randomness is
    // counter-based per (seed, shard, tick), so neither thread count nor completion order
    // can change a draw. Chunked dispatch: each participating thread claims one contiguous
    // run of shards (one cursor fetch per chunk, one barrier per tick), so the sparse
    // engine's tiny per-shard work is not drowned by per-shard synchronization.
    pool.ParallelForChunks(static_cast<size_t>(shards), [&](size_t k_begin, size_t k_end) {
      for (size_t k = k_begin; k < k_end; ++k) {
        const ShardRange range = ranges[k];
        ShardDelta& delta = deltas[k];
        delta.Reset();
        Rng production_rng(DeriveStreamSeed(options_.seed ^ kProductionStreamSalt, k,
                                            static_cast<uint64_t>(t)));
        RunProductionShard(now, range.begin, range.end, production_rng, corpora[k], delta,
                           sparse ? &active_index_.ActiveInShard(k) : nullptr);
        EmitBackgroundNoiseShard(now, options_.tick, range.begin, range.end, production_rng,
                                 delta);
        Rng screening_rng(DeriveStreamSeed(options_.seed ^ kScreeningStreamSalt, k,
                                           static_cast<uint64_t>(t)));
        delta.screen = screening_.TickShard(now, options_.tick, range.begin, range.end,
                                            fleet_, scheduler_, screening_rng);
      }
    });

    // Merge barrier: apply buffered effects in shard-index order — the one fixed order that
    // makes the suspect service, MCA ring, and signal counts see an identical event sequence
    // no matter how the shards were scheduled onto threads.
    for (ShardDelta& delta : deltas) {
      ApplyShardDelta(delta);
    }
    FlushHumanReports(now);
    for (const ShardDelta& delta : deltas) {
      ApplyScreenOutcome(now, delta.screen);
    }

    ProcessSuspects(now, activation_time);
    scheduler_.AccumulateStranding(options_.tick);
    if (durability_ != nullptr) {
      EndTickDurability(static_cast<uint64_t>(t));
    }
  }
}

void FleetStudy::SetupDurability() {
  DurabilityManager::Options journal_options;
  journal_options.snapshot_every = options_.durability.snapshot_every;
  journal_options.path = options_.durability.journal_path;
  durability_ = std::make_unique<DurabilityManager>(journal_options);

  // Delta units log their mutations from here on; everything before Start() (construction,
  // burn-in) is covered by the initial snapshot instead.
  ledger_.EnableMutationLog(true);
  if (trace_ != nullptr) {
    trace_->EnableMutationLog(true);
  }

  // Registration order is the wire identity — append-only, like the frame format itself.
  durability_->RegisterUnit(
      "control_plane",
      [this](ByteWriter& w) { control_plane_.SaveDurableState(w); },
      [this](ByteReader& r) { return control_plane_.LoadDurableState(r); });
  durability_->RegisterUnit(
      "repair",
      [this](ByteWriter& w) { repair_.SaveDurableState(w); },
      [this](ByteReader& r) { return repair_.LoadDurableState(r); });
  durability_->RegisterDeltaUnit(
      "ledger",
      [this](ByteWriter& w) { ledger_.SaveDurableState(w); },
      [this](ByteReader& r) { return ledger_.LoadDurableState(r); },
      [this]() { return ledger_.HasTickOps(); },
      [this](ByteWriter& w) { ledger_.DrainTickOps(w); },
      [this](ByteReader& r) { return ledger_.ApplyTickOps(r); });
  if (trace_ != nullptr) {
    durability_->RegisterDeltaUnit(
        "trace",
        [this](ByteWriter& w) { trace_->SaveDurableState(w); },
        [this](ByteReader& r) { return trace_->LoadDurableState(r); },
        [this]() { return trace_->HasTickOps(); },
        [this](ByteWriter& w) { trace_->DrainTickOps(w); },
        [this](ByteReader& r) { return trace_->ApplyTickOps(r); });
  }

  const Status started = durability_->Start(0, options_.durability.manifest);
  MERCURIAL_CHECK(started.ok()) << started.ToString();
  durability_stats_.enabled = true;
}

void FleetStudy::EndTickDurability(uint64_t t) {
  // Journal this tick's durable frame first: the crash, if one is due, hits a controller
  // whose latest tick already reached the journal (the torn-tail knob is what takes it back).
  durability_->EndTick(t + 1);

  const ChaosOptions& chaos = options_.control_plane.chaos;
  if (!chaos.controller_enabled()) {
    return;
  }
  // Stateless per-tick stream: crash/tear/flip draws can never shift any other stream, so a
  // run with durability on and no crash due stays bit-identical to one with durability off.
  Rng crash_rng(DeriveStreamSeed(options_.seed ^ kControllerCrashSalt, 0, t));
  bool crash_due = false;
  if (chaos.controller_crash_every_ticks > 0) {
    crash_due =
        (t + 1) % static_cast<uint64_t>(chaos.controller_crash_every_ticks) == 0;
  } else {
    const double tick_days =
        static_cast<double>(options_.tick.seconds()) / SimTime::Days(1).seconds();
    crash_due = crash_rng.Bernoulli(
        1.0 - std::exp(-chaos.controller_crash_per_day * tick_days));
  }
  if (crash_due) {
    CrashAndRecoverController(t, crash_rng);
  }
}

void FleetStudy::CrashAndRecoverController(uint64_t t, Rng& crash_rng) {
  ++durability_stats_.controller_crashes;
  const ChaosOptions& chaos = options_.control_plane.chaos;

  // Every tick frame since the last snapshot must be accounted for by this recovery:
  // replayed from the surviving prefix or counted as truncated. Nothing in between.
  const uint64_t frames_at_risk = durability_->tick_frames_since_snapshot();

  // The crash may take part of the journal with it. Damage is confined to the mutable tail
  // (after the last snapshot), so recovery always has a full snapshot to fall back on.
  if (chaos.journal_torn_tail > 0.0 && crash_rng.Bernoulli(chaos.journal_torn_tail)) {
    const size_t tail = durability_->size() - durability_->mutable_tail_start();
    if (tail > 0) {
      const size_t bytes =
          1 + static_cast<size_t>(crash_rng.NextDouble() * static_cast<double>(tail - 1));
      durability_->TearTail(bytes);
    }
  }
  if (chaos.journal_bit_flip > 0.0 && crash_rng.Bernoulli(chaos.journal_bit_flip)) {
    const size_t tail = durability_->size() - durability_->mutable_tail_start();
    if (tail > 0) {
      const size_t offset =
          durability_->mutable_tail_start() +
          static_cast<size_t>(crash_rng.NextDouble() * static_cast<double>(tail));
      durability_->FlipBit(offset, crash_rng.UniformInt(0, 7));
    }
  }

  StatusOr<DurabilityManager::RecoveryResult> recovered = durability_->Recover();
  MERCURIAL_CHECK(recovered.ok()) << recovered.status().ToString();
  const DurabilityManager::RecoveryResult& result = *recovered;
  MERCURIAL_CHECK_EQ(result.frames_replayed + result.frames_truncated, frames_at_risk)
      << "recovery lost track of tick frames at tick " << t;
  durability_frames_covered_ += frames_at_risk;

  if (!result.exact) {
    // The books rolled back to an older durable prefix while the scheduler kept running:
    // reconcile, counting every repaired divergence.
    control_plane_.ReconcileWithFleet(scheduler_,
                                      &durability_stats_.reconcile_released_unknown,
                                      &durability_stats_.reconcile_reinstated_unknown,
                                      &durability_stats_.reconcile_dropped_pending,
                                      &durability_stats_.reconcile_dropped_probation);
  }
}

void FleetStudy::Finalize() {
  // §7.1 telemetry quality: analyze the MCA log and grade its root-cause attribution
  // against ground truth.
  const McaAnalysis mca = AnalyzeMcaLog(mca_log_, /*recidivism_threshold=*/3);
  report_.mca_recidivists = mca.recidivists.size();
  for (const McaCoreFinding& finding : mca.recidivists) {
    if (!fleet_.IsMercurial(finding.core_global)) {
      continue;
    }
    ++report_.mca_true_mercurial;
    for (const Defect& defect : fleet_.core(finding.core_global).defects()) {
      if (defect.unit() == finding.dominant_bank) {
        ++report_.mca_unit_attribution_correct;
        break;
      }
    }
  }

  report_.quarantine = control_plane_.quarantine_stats();
  report_.control_plane = control_plane_.stats();
  // Suspects still in the pipeline at study end never reached a terminal event; the count
  // lets trace consumers close the books on every quarantine admission.
  report_.control_plane.pending_at_end = control_plane_.pending_count();
  // Probation entries never resolved: the third leg of conviction lifecycle conservation
  // (retired / reinstated / still pending — property tests P12/P13).
  report_.control_plane.probation_pending_at_end = control_plane_.probation_count();
  report_.scheduler = scheduler_.stats();

  report_.audit_enabled = options_.audit.enabled;
  if (options_.audit.enabled) {
    repair_.FinalizeAccounting(ledger_);
    report_.artifacts_tagged = ledger_.artifacts_recorded();
    report_.corruptions_tagged = ledger_.corrupt_recorded();
    report_.repair = repair_.stats();
  }

  // The engine counters the report lacks, exported once: signals by source always, the
  // due-wheel and active-index counts under the sparse engine (the dense oracle has neither),
  // and the allocator's counts under adaptive screening. Benches and fleetbench read them.
  static_assert(std::size(kSignalSourceNames) == kSignalSourceCount);
  for (int source = 0; source < kSignalSourceCount; ++source) {
    metrics_.Increment(std::string("signals.") + kSignalSourceNames[source],
                       signal_counts_[source]);
  }
  if (options_.sparse_engine) {
    const DueWheelStats wheel = screening_.wheel_stats();
    metrics_.Increment("screening.wheel_scheduled", wheel.scheduled);
    metrics_.Increment("screening.wheel_drained", wheel.drained);
    metrics_.Increment("screening.wheel_overflow_inserts", wheel.overflow_inserts);
    metrics_.ObserveMax("screening.wheel_max_bucket", wheel.max_bucket);
    metrics_.ObserveMax("screening.wheel_peak_occupancy", wheel.peak_occupancy);
    metrics_.Increment("production.active_admitted", active_index_.admitted_count());
    metrics_.Increment("production.active_retired", active_index_.retired_count());
    metrics_.Increment("production.latent_at_end", active_index_.pending_count());
  }

  if (options_.screening.adaptive) {
    const ScreeningRiskStats& risk = screening_.risk_stats();
    metrics_.Increment("screening.risk_rescores", risk.rescores);
    metrics_.Increment("screening.risk_admitted", risk.admitted);
    metrics_.Increment("screening.risk_deferred", risk.deferred);
    metrics_.Increment("screening.risk_budget_exhausted_ticks", risk.budget_exhausted_ticks);
    metrics_.Increment("screening.risk_ops_planned", risk.ops_planned);
    metrics_.Increment("screening.risk_cold_screens", risk.tier_screens[0]);
    metrics_.Increment("screening.risk_warm_screens", risk.tier_screens[1]);
    metrics_.Increment("screening.risk_hot_screens", risk.tier_screens[2]);
  }

  if (trace_ != nullptr) {
    report_.trace = trace_->Assemble();
  }

  if (durability_ != nullptr) {
    const JournalStats& journal = durability_->stats();
    // Journal conservation: every tick frame at risk across every recovery was either
    // replayed from the durable prefix or counted as truncated — no third fate.
    MERCURIAL_CHECK_EQ(journal.frames_replayed + journal.frames_truncated,
                       durability_frames_covered_)
        << "journal frames lost outside recovery accounting";
    durability_stats_.frames_written = journal.frames_written;
    durability_stats_.bytes_written = journal.bytes_written;
    durability_stats_.snapshots_written = journal.snapshots_written;
    durability_stats_.tick_frames_written = journal.tick_frames_written;
    durability_stats_.recoveries = journal.recoveries;
    durability_stats_.exact_recoveries = journal.exact_recoveries;
    durability_stats_.prefix_recoveries = journal.prefix_recoveries;
    durability_stats_.frames_replayed = journal.frames_replayed;
    durability_stats_.frames_truncated = journal.frames_truncated;
    durability_stats_.torn_tail_truncations = journal.torn_tail_truncations;
    durability_stats_.corrupt_frames_rejected = journal.corrupt_frames_rejected;
    report_.durability = durability_stats_;
  }

  const double thousands = static_cast<double>(fleet_.machine_count()) / 1000.0;
  report_.planted_per_thousand_machines =
      static_cast<double>(report_.true_mercurial_cores) / thousands;
  report_.detected_per_thousand_machines =
      static_cast<double>(report_.quarantine.true_positive_retirements) / thousands;

  const double machines = static_cast<double>(fleet_.machine_count());
  report_.weekly_user_rate = user_series_.Rates(machines, /*normalize_to_first=*/false);
  report_.weekly_auto_rate = auto_series_.Rates(machines, /*normalize_to_first=*/false);
  // Pad both series to the full study duration so they plot on a common axis.
  const size_t weeks = static_cast<size_t>(options_.duration.seconds() /
                                           SimTime::Weeks(1).seconds()) +
                       1;
  report_.weekly_user_rate.resize(std::max(weeks, report_.weekly_user_rate.size()), 0.0);
  report_.weekly_auto_rate.resize(std::max(weeks, report_.weekly_auto_rate.size()), 0.0);
  // Steady-state trim: drop the warm-up prefix.
  const size_t warmup_weeks = static_cast<size_t>(options_.series_warmup.seconds() /
                                                  SimTime::Weeks(1).seconds());
  if (warmup_weeks > 0 && warmup_weeks < report_.weekly_user_rate.size()) {
    report_.weekly_user_rate.erase(report_.weekly_user_rate.begin(),
                                   report_.weekly_user_rate.begin() + warmup_weeks);
    report_.weekly_auto_rate.erase(report_.weekly_auto_rate.begin(),
                                   report_.weekly_auto_rate.begin() + warmup_weeks);
  }
  // Normalize both series to the same arbitrary baseline (first non-zero user rate), matching
  // the presentation of Fig. 1.
  double baseline = 0.0;
  for (double rate : report_.weekly_user_rate) {
    if (rate > 0.0) {
      baseline = rate;
      break;
    }
  }
  if (baseline == 0.0) {
    for (double rate : report_.weekly_auto_rate) {
      if (rate > 0.0) {
        baseline = rate;
        break;
      }
    }
  }
  if (baseline > 0.0) {
    for (double& rate : report_.weekly_user_rate) {
      rate /= baseline;
    }
    for (double& rate : report_.weekly_auto_rate) {
      rate /= baseline;
    }
  }
}

StudyReport FleetStudy::Run() {
  MERCURIAL_CHECK(!ran_) << "FleetStudy::Run can only be called once";
  ran_ = true;

  const Status screening_status = ValidateScreeningOptions(options_.screening);
  MERCURIAL_CHECK(screening_status.ok()) << screening_status.ToString();
  const Status plane_status = options_.control_plane.Validate();
  MERCURIAL_CHECK(plane_status.ok()) << plane_status.ToString();
  const Status audit_status = options_.audit.Validate();
  MERCURIAL_CHECK(audit_status.ok()) << audit_status.ToString();
  const Status trace_status = options_.trace.Validate();
  MERCURIAL_CHECK(trace_status.ok()) << trace_status.ToString();

  const int shards = std::max(1, options_.shards);
  const int threads = std::clamp(options_.threads, 1, shards);

  SimClock clock;
  fleet_.SetAges(clock.now());

  const ActivationTimes activation_time = ComputeActivationTimes();

  if (options_.burn_in) {
    RunBurnIn();
  }

  if (options_.sparse_engine) {
    EnableSparseEngine(PartitionCores(fleet_.core_count(), shards));
  }

  if (options_.durability.enabled) {
    // After burn-in: the initial snapshot covers everything up to the first production tick,
    // so burn-in state never needs a journal frame of its own.
    SetupDurability();
  }

  const int64_t ticks = options_.duration.seconds() / options_.tick.seconds();
  RunTicks(clock, ticks, shards, threads, activation_time);

  Finalize();
  return report_;
}

}  // namespace mercurial
