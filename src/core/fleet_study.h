// FleetStudy: the end-to-end CEE lifecycle simulation — the library's primary public API.
//
// A study wires together the whole stack the paper describes:
//
//   fleet of machines with planted mercurial cores  (src/fleet, src/sim)
//     -> production workload corpus running on cores (src/workload)
//       -> symptoms: crashes, MCEs, detected/late/silent corruptions (§2 taxonomy)
//         -> signals: crash logs, MCE logs, sanitizers, app reports, human reports (§6)
//           -> suspect-core report service + concentration test (§6)
//             -> confession testing, quarantine, retirement (§6, §6.1)
//
// and produces the metrics of §4, including the two normalized incident-rate series of Fig. 1.
// Everything is deterministic under StudyOptions::seed.
//
// Execution engine. The fleet's cores are partitioned into `shards` contiguous shards (one
// shard by default); each tick, every shard independently runs production work, background
// noise, and screening for its own cores, drawing all randomness from a counter-based stream
// derived from (seed, shard, tick). Shard side effects are buffered and merged serially in
// shard-index order at a tick barrier, then the global suspect/quarantine pipeline runs
// serially. Because no shard reads another shard's writes and the merge order is fixed, the
// StudyReport is bit-identical for ANY thread count (threads <= shards); threads only changes
// wall-clock. See DESIGN.md, "Decision: shard-stable randomness".

#ifndef MERCURIAL_SRC_CORE_FLEET_STUDY_H_
#define MERCURIAL_SRC_CORE_FLEET_STUDY_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/core/active_index.h"
#include "src/detect/control_plane.h"
#include "src/detect/mca_log.h"
#include "src/detect/quarantine.h"
#include "src/detect/report_service.h"
#include "src/detect/screening.h"
#include "src/durability/journal.h"
#include "src/fleet/fleet.h"
#include "src/mitigate/blast_radius.h"
#include "src/mitigate/repair_orchestrator.h"
#include "src/sched/placement.h"
#include "src/sched/scheduler.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"
#include "src/workload/workload.h"

namespace mercurial {

// Crash-tolerant control plane (src/durability/journal.h). When enabled, the study journals
// every control-plane tick (write-ahead frames + periodic snapshots) and can lose its entire
// controller — control plane, repair orchestrator, blast-radius ledger, trace rings — at any
// tick and recover it bit-identically from the journal. Chaos decides when the controller
// crashes (ChaosOptions::controller_crash_* / journal_* knobs); durability decides what
// survives. Disabled, the study is bit-identical to the pre-durability engine.
struct DurabilityOptions {
  bool enabled = false;
  // Ticks between full snapshots (0 = only the initial snapshot; replay grows unboundedly).
  uint64_t snapshot_every = 64;
  // Optional write-through journal file (mercurialctl `recover` reads it back). Empty = the
  // journal lives in memory only, which is all in-study crash recovery needs.
  std::string journal_path;
  // Opaque manifest stored in the journal's second frame; mercurialctl records its argv here
  // so `recover` can reconstruct the exact study invocation.
  std::vector<uint8_t> manifest;
};

struct StudyOptions {
  uint64_t seed = 42;
  FleetOptions fleet;
  WorkloadOptions workload;
  ReportServiceOptions report_service;
  ScreeningOptions screening;
  QuarantinePolicy quarantine;
  // Quarantine control plane: admission bound, retry/backoff, drain model, capacity
  // guardrail, and chaos injection. Defaults make the plane a transparent wrapper around the
  // synchronous pipeline (bit-identical reports).
  ControlPlaneOptions control_plane;
  SchedulerCosts scheduler_costs;

  // Blast-radius auditing + retroactive repair (mitigate/blast_radius.h,
  // mitigate/repair_orchestrator.h). Disabled by default; a study with `audit.enabled` false
  // tags nothing, repairs nothing, and produces a report bit-identical to the pre-audit
  // engine. `audit.epoch_length` is overridden by the study to its tick (one provenance epoch
  // per tick).
  RepairOptions audit;

  // Incident flight recorder (telemetry/trace.h). Disabled by default: recording consumes no
  // randomness and emits only on already-rare lifecycle paths, so an enabled trace is
  // bit-invisible to every legacy StudyReport field, and a disabled one costs a null check.
  // Events route to the shard that owns the core, so the assembled trace is bit-identical for
  // any thread count (like the report itself).
  TraceOptions trace;

  // Write-ahead journal + snapshots for the controller state, and the recovery path injected
  // controller crashes exercise. Off by default and bit-invisible when off.
  DurabilityOptions durability;

  SimTime tick = SimTime::Days(1);
  SimTime duration = SimTime::Days(3 * 365);

  // Parallel execution. `shards` fixes the partition of cores into independent random
  // streams and is part of the experiment's identity: changing it changes (deterministically)
  // which stream drives which core. shards == 1 is a single shard on the same counter-keyed
  // streams as any other count. `threads` is purely an execution knob: the report is
  // bit-identical for every threads value (clamped to [1, shards]).
  int shards = 1;
  int threads = 1;

  // Sparse tick engine: due-wheel offline screening (visit only cores whose screen is due),
  // the active-production index (scan only mercurial cores past their earliest defect
  // onset), and chunked thread-pool dispatch — per-tick cost O(active work) instead of
  // O(cores + mercurial × shards). Bit-identical to the dense path for every (shards,
  // threads): skipped cores consume no randomness, so eliding their visits cannot shift any
  // stream (determinism suite D10 proves it against the retained dense reference oracle).
  // See DESIGN.md, "Decision: sparsity is free when streams are counter-keyed".
  bool sparse_engine = true;

  // Production-load model: logical work units each busy core runs per day. Only mercurial
  // cores execute real work (healthy cores cannot produce CEEs; their load is accounted, not
  // executed — DESIGN.md decision 1).
  uint64_t work_units_per_core_day = 50;

  // Signal model. A crash's sanitizer-signal chance and the mean delay of a human report are
  // constants in fleet_study.cc.
  double app_report_probability = 0.6;    // detected corruption -> suspect-core RPC
  double crash_human_report_probability = 0.08;  // triage files a human suspicion per crash
  double silent_human_notice_probability = 0.08; // silent/late corruption eventually noticed
  // Background false-accusation rate from ordinary software bugs, per core per day; these are
  // evenly spread, which is exactly what the concentration test discounts.
  double background_signal_rate_per_core_day = 5e-4;

  // Run one full-coverage offline screen of every core before production (burn-in analog).
  bool burn_in = false;

  // MCA telemetry: the probability that a record's reporting bank is scrambled to an
  // unrelated unit (§5: "the mapping of instructions to possibly-defective hardware is
  // non-obvious"; §7.1 asks for better telemetry).
  double mca_bank_confusion = 0.2;

  // Incidents earlier than this are excluded from the Fig. 1 series (steady-state trim: at
  // t=0 the backlog of never-screened active defects produces a cold-start spike that a
  // long-running fleet would not show).
  SimTime series_warmup = SimTime::Days(0);
};

// Durability and crash-recovery accounting (populated only when StudyOptions::durability is
// enabled). Journal counters come from the DurabilityManager; crash/reconcile counters from
// the study's chaos-driven crash loop. Conservation (checked at finalization): across all
// recoveries, frames_replayed + frames_truncated == the tick frames written since each
// recovered snapshot.
struct DurabilityStats {
  bool enabled = false;
  uint64_t frames_written = 0;
  uint64_t bytes_written = 0;
  uint64_t snapshots_written = 0;
  uint64_t tick_frames_written = 0;
  uint64_t recoveries = 0;
  uint64_t exact_recoveries = 0;
  uint64_t prefix_recoveries = 0;
  uint64_t frames_replayed = 0;
  uint64_t frames_truncated = 0;
  uint64_t torn_tail_truncations = 0;
  uint64_t corrupt_frames_rejected = 0;
  uint64_t controller_crashes = 0;
  // Post-recovery reconciliation with the live fleet (prefix recoveries only): every repaired
  // divergence is counted, never silent.
  uint64_t reconcile_released_unknown = 0;
  uint64_t reconcile_reinstated_unknown = 0;
  uint64_t reconcile_dropped_pending = 0;
  uint64_t reconcile_dropped_probation = 0;

  bool operator==(const DurabilityStats&) const = default;
};

struct StudyReport {
  size_t machines = 0;
  size_t cores = 0;
  size_t true_mercurial_cores = 0;

  // Fig. 1: weekly incident rates per machine, normalized to the first non-empty user bucket.
  std::vector<double> weekly_user_rate;
  std::vector<double> weekly_auto_rate;

  // §2 taxonomy counts over all executed work units (mercurial cores only).
  uint64_t symptom_counts[kSymptomCount] = {};
  uint64_t work_units_executed = 0;
  uint64_t silent_corruptions = 0;

  // Detection outcomes.
  QuarantineStats quarantine;
  ControlPlaneStats control_plane;
  SchedulerStats scheduler;
  // Work units a probation core declined because the workload would exercise a unit its weak
  // confession named (restricted placement, §6.1). Zero unless probation is enabled.
  uint64_t probation_work_declined = 0;
  uint64_t screen_failures = 0;
  uint64_t screening_ops = 0;
  // Of the truly-mercurial cores whose defects activated during the study, how many were
  // retired, and with what latency from activation (days).
  uint64_t mercurial_retired = 0;
  Histogram detection_latency_days{0.0, 1200.0, 60};

  // §4 metric: detected mercurial cores per thousand machines vs planted.
  double detected_per_thousand_machines = 0.0;
  double planted_per_thousand_machines = 0.0;

  // §7.1 MCA telemetry quality: of the recidivist cores the machine-check analyzer surfaced,
  // how many were truly mercurial, and how often the dominant bank matched a truly defective
  // unit. Root-cause attribution is what the paper says today's MCA cannot deliver.
  uint64_t mca_recidivists = 0;
  uint64_t mca_true_mercurial = 0;
  uint64_t mca_unit_attribution_correct = 0;

  // Blast-radius audit + retroactive repair (populated only when StudyOptions::audit.enabled).
  // Conservation: every tagged corruption is classified as exactly one of
  // repair.corruptions_repaired / corruptions_shed / corruptions_still_at_rest.
  bool audit_enabled = false;
  uint64_t artifacts_tagged = 0;    // artifacts recorded in the provenance ledger
  uint64_t corruptions_tagged = 0;  // of those, ground-truth corrupt at rest
  RepairStats repair;

  // Incident flight recorder output (populated only when StudyOptions::trace.enabled):
  // the assembled lifecycle event log plus its conservation counters
  // (dropped + recorded == emitted).
  IncidentTrace trace;

  // Crash-tolerance accounting (populated only when StudyOptions::durability.enabled). Not
  // part of the bit-identity contract between crashed and uncrashed studies — it is the one
  // field that records that crashes happened at all.
  DurabilityStats durability;

  bool operator==(const StudyReport&) const = default;
};

// ShardRange and PartitionCores moved to src/core/active_index.h (included above) so the
// sparse index can share the partition type without a dependency cycle.

// Stream salts separating the per-(shard, tick) random streams of the two parallel stages,
// so production/noise draws and screening draws never alias:
// Rng(DeriveStreamSeed(seed ^ salt, shard, tick)). Public because the salts are part of the
// experiment's identity — replay tests reconstruct a stage's stream from (seed, shard, tick)
// to pin its draw accounting (e.g. the background-noise pick-then-check contract).
inline constexpr uint64_t kProductionStreamSalt = 0x70726f64756374ull;  // "product"
inline constexpr uint64_t kScreeningStreamSalt = 0x73637265656e00ull;   // "screen"
// Controller-crash chaos stream: Rng(DeriveStreamSeed(seed ^ salt, 0, tick)). Stateless and
// per-tick derived, so crash/tear/flip decisions can never shift any other stream — a study
// with durability on but no crash due is bit-identical to one with durability off.
inline constexpr uint64_t kControllerCrashSalt = 0x6372617368000000ull;  // "crash"

class FleetStudy {
 public:
  explicit FleetStudy(StudyOptions options);

  // Runs the configured duration and returns the report. Can only be called once.
  StudyReport Run();

  // Access for examples/tests (valid after construction).
  Fleet& fleet() { return fleet_; }
  CoreScheduler& scheduler() { return scheduler_; }
  // Engine counters the report lacks (signals by source, due-wheel, active-index and risk
  // allocator counts), filled once at the end of Run() and empty before it.
  const MetricRegistry& metrics() const { return metrics_; }
  // Blast-radius provenance; empty unless options.audit.enabled. The CLI's incident timeline
  // uses it to annotate convicted cores with the artifacts their defect touched.
  const BlastRadiusLedger& ledger() const { return ledger_; }
  // Journal access; null unless options.durability.enabled. mercurialctl `recover` verifies
  // an on-disk journal image byte-for-byte against a deterministic re-run's journal, and
  // bench_recovery times Recover() against the completed study's live units.
  const DurabilityManager* durability() const { return durability_.get(); }
  DurabilityManager* durability() { return durability_.get(); }

 private:
  struct PendingHumanReport {
    SimTime due;
    Signal signal;
  };
  // Per-shard side-effect buffer; defined in fleet_study.cc.
  struct ShardDelta;
  // Signal sources counted for the `signals.*` export. Shards count the first five in their
  // deltas; screen failures and user reports arrive in the serial phase.
  enum SignalSource {
    kCrashSource,
    kSanitizerSource,
    kMachineCheckSource,
    kAppReportSource,
    kBackgroundSource,
    kScreenFailSource,
    kUserReportSource,
    kSignalSourceCount,
  };

  // Hot-path stages, parameterized over a shard's core range and its counter-derived Rng.
  // All side effects land in `delta`, never in shared state.
  // `active_cores` selects the engine: nullptr scans the full mercurial list with a range
  // filter (dense reference oracle); non-null is the sparse index's pre-partitioned slice of
  // cores past their earliest defect onset, visited in the identical ascending order.
  void RunProductionShard(SimTime now, uint64_t core_begin, uint64_t core_end, Rng& rng,
                          std::vector<std::unique_ptr<Workload>>& corpus, ShardDelta& delta,
                          const std::vector<uint64_t>* active_cores);
  void EmitBackgroundNoiseShard(SimTime now, SimTime dt, uint64_t core_begin,
                                uint64_t core_end, Rng& rng, ShardDelta& delta);
  void HandleSymptom(SimTime now, uint64_t core_index, Symptom symptom, Rng& rng,
                     ShardDelta& delta);

  // Serial merge phase: applies buffered effects to the shared services in shard order.
  void ApplyShardDelta(ShardDelta& delta);
  void ApplyScreenOutcome(SimTime now, const ShardScreenOutcome& outcome);

  // Blast-radius bookkeeping: earliest-signal times feed the repair pipeline's defect-onset
  // estimate. No-op when auditing is disabled.
  void NoteSignalForAudit(const Signal& signal);

  // Flight-recorder shorthand for the signal paths this class owns (symptom signals,
  // background noise, delayed human reports). Safe from the parallel phase because each call
  // names a core the calling shard owns.
  void TraceSignal(uint64_t core, TraceCause cause, uint64_t detail = 0) {
    if (trace_ != nullptr) {
      trace_->Emit(core, TraceEventKind::kSignalEmitted, cause, detail);
    }
  }

  // Serial control-plane stages, run after each tick's merge barrier.
  void FlushHumanReports(SimTime now);
  // Activation time per mercurial core.
  // order-free: looked up by core only.
  using ActivationTimes = std::unordered_map<uint64_t, SimTime>;
  void ProcessSuspects(SimTime now, const ActivationTimes& activation_time);
  void RunBurnIn();
  ActivationTimes ComputeActivationTimes();
  // Arms the sparse engine for the resolved shard partition: builds the screening due-wheels
  // and the active-production index, and hooks scheduler retirements to index removal.
  void EnableSparseEngine(const std::vector<ShardRange>& ranges);
  void Finalize();

  // --- Durability (src/durability/journal.h) ------------------------------------------------
  // Registers the durable units (control plane, repair orchestrator, blast-radius ledger,
  // trace rings) in a fixed order and writes the initial snapshot. Called from Run() after
  // burn-in, so the journal's baseline is the deployed controller.
  void SetupDurability();
  // End-of-tick journal append plus the chaos-driven crash check; runs in the serial phase,
  // after the tick's last controller mutation. `t` is the 0-based tick index.
  void EndTickDurability(uint64_t t);
  // Kills and recovers the controller in place: optional chaos damage to the journal tail,
  // then Recover() overwrites all durable controller state from the journal and — when the
  // durable prefix fell short of the present — reconciles the books with the live fleet.
  void CrashAndRecoverController(uint64_t t, Rng& crash_rng);

  // The tick loop: parallel shard phase, merge barrier, serial control plane.
  void RunTicks(SimClock& clock, int64_t ticks, int shards, int threads,
                const ActivationTimes& activation_time);

  StudyOptions options_;
  Rng rng_;
  Fleet fleet_;
  CoreScheduler scheduler_;
  CeeReportService service_;
  ScreeningOrchestrator screening_;
  QuarantineControlPlane control_plane_;
  MetricRegistry metrics_;
  // Signals by source, summed over the shard deltas in shard order; Finalize exports them.
  uint64_t signal_counts_[kSignalSourceCount] = {};
  // Fig. 1 incident series: user reports, and screen failures as the automatic reports.
  TimeSeries user_series_{SimTime::Weeks(1)};
  TimeSeries auto_series_{SimTime::Weeks(1)};
  std::vector<PendingHumanReport> pending_human_reports_;
  // Blast-radius provenance ledger and the repair pipeline it feeds. The ledger is only ever
  // written in shard deltas (merged serially in shard order) or the serial phase; the
  // orchestrator runs exclusively in the serial phase on its own dedicated RNG stream.
  BlastRadiusLedger ledger_;
  RepairOrchestrator repair_;
  // Incident flight recorder, constructed only when options_.trace.enabled. Emission happens
  // at the lifecycle sites themselves (sim cores, screening, report service, control plane,
  // repair) plus the signal paths below; this class only owns the recorder, sets the tick
  // context, and assembles the trace at finalization.
  std::unique_ptr<TraceRecorder> trace_;
  // Workload placement profiles, index-aligned with the corpus (one per WorkloadKind), used
  // to honor probation placement restrictions. Populated only when probation is enabled.
  std::vector<WorkloadProfile> placement_profiles_;
  // Sparse production scan set (empty under the dense oracle). Built once the shard count is
  // resolved; advanced serially each tick; pruned via the scheduler's retirement listener.
  ActiveProductionIndex active_index_;
  McaLog mca_log_;
  // Write-ahead journal for the controller state; null unless options_.durability.enabled.
  // The study-side crash/reconcile counters live here (the manager only counts journal work);
  // Finalize folds both into report_.durability. frames_covered_ accumulates, per recovery,
  // the tick frames the recovered snapshot had to account for — the independent side of the
  // conservation check frames_replayed + frames_truncated == frames_covered_.
  std::unique_ptr<DurabilityManager> durability_;
  DurabilityStats durability_stats_;
  uint64_t durability_frames_covered_ = 0;
  StudyReport report_;
  bool ran_ = false;
};

}  // namespace mercurial

#endif  // MERCURIAL_SRC_CORE_FLEET_STUDY_H_
