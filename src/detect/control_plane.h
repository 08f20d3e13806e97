// Resilient quarantine control plane (§6/§6.1 under a capacity-constrained, failure-prone
// detection infrastructure).
//
// The plane runs the paper's verdict pipeline — suspicion, quarantine, confession test, then
// retire or release, with recidivism (repeated accusation) as more evidence — and keeps its
// books: the interrogation stream, the verdict counters (QuarantineStats), and the
// accusation, failed-unit and retirement-time records. The paper frames detection as a
// tradeoff: false positives strand capacity, drains cost core-seconds, and interrogations of
// low-reproducibility defects are themselves flaky. Around that pipeline the plane adds the
// robustness machinery a production screening service needs:
//
//   * Bounded admission. At most `max_pending` suspects are resident in the pipeline
//     (draining, awaiting interrogation, or awaiting a retry); excess suspects are shed with
//     shed-count accounting. Their report mass is NOT forgotten, so backpressure degrades to
//     delay, not loss: a shed suspect re-candidates on a later tick.
//   * Interrogation retry with exponential backoff + jitter. A non-confessing (or
//     chaos-aborted) suspect that is still suspicious stays quarantined and is re-interrogated
//     at now + backoff * 2^attempt * (1 +- jitter), all in SimTime — deterministic under the
//     study seed. Retries convert "limited reproducibility" misses into confessions at the
//     price of longer false-positive stranding.
//   * Drain timeout -> surprise removal. With a non-zero drain latency a graceful drain takes
//     simulated time; one that overruns `drain_timeout` is escalated to core surprise removal
//     (immediate, loses in-flight work) so a wedged drain cannot hold the pipeline open.
//   * Capacity guardrail. When draining + quarantined capacity exceeds
//     `quarantine_budget_fraction` of the fleet, the plane degrades gracefully: it releases
//     the least-suspect pending cores first and defers upcoming offline screens
//     (ScreeningOrchestrator::ThrottleOffline) to throttle the drain inflow.
//   * Quorum verdicts + probation (quorum.h). With `quorum.enabled`, every completed battery
//     is re-judged by K witness cores — majority decides, splits escalate to wider quorums —
//     because the interrogating core is as untrustworthy as the suspect. With
//     `probation.enabled`, weak-evidence convictions (no confession, thin majority, low
//     reproducibility) enter restricted service under shadow screening and are reinstated
//     after N clean windows instead of stranding capacity forever; any new signal during
//     probation escalates to permanent retirement.
//   * Chaos injection (chaos.h). Faults in the detection infrastructure itself — dropped,
//     duplicated, and delayed suspect reports, interrogations cut short mid-battery, machine
//     crash-restarts that reset in-flight quarantines — so a study can measure how TP/FP/
//     missed-confession rates and stranded core-seconds degrade as the plane is stressed.
//
// Determinism contract: at default options (no bound, no retries, zero drain latency, budget
// 1.0, chaos off) every suspect is admitted, quarantined, interrogated and judged within the
// tick it appears, in suspect order, and the plane draws only from its interrogation stream,
// never from its control stream. control_plane_test pins that default pipeline's verdicts,
// counters and durable bytes. All control-plane work runs in the serial phase of the fleet
// engine, so reports stay thread-count invariant.

#ifndef MERCURIAL_SRC_DETECT_CONTROL_PLANE_H_
#define MERCURIAL_SRC_DETECT_CONTROL_PLANE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/common/status.h"
#include "src/common/wire.h"
#include "src/detect/chaos.h"
#include "src/detect/confession.h"
#include "src/detect/quarantine.h"
#include "src/detect/quorum.h"
#include "src/detect/report_service.h"
#include "src/detect/screening.h"
#include "src/fleet/fleet.h"
#include "src/sched/scheduler.h"

namespace mercurial {

class TraceRecorder;
enum class TraceEventKind : uint8_t;
enum class TraceCause : uint8_t;

// How far the capacity guardrail pushes back offline screens that would come due while the
// plane is over budget.
inline constexpr SimTime kGuardrailThrottleDefer = SimTime::Days(7);

struct ControlPlaneOptions {
  // Admission control: max suspects resident in the pipeline at once. 0 = unbounded. Every
  // due interrogation battery starts in the tick it comes due.
  size_t max_pending = 0;

  // Retries for non-confessing (or aborted) interrogations. 0 = single-shot. The
  // k-th retry waits retry_backoff * 2^k, jittered by +-retry_jitter, while the core stays
  // quarantined.
  int max_retries = 0;
  SimTime retry_backoff = SimTime::Days(2);
  double retry_jitter = 0.25;  // fraction of the backoff, in [0, 1]

  // Graceful-drain model. Zero latency = instantaneous drain. A drain's sampled
  // completion time is drain_latency * (1 + U[0,1)); if that exceeds drain_timeout (> 0), the
  // plane escalates to surprise removal at the timeout instead of waiting.
  SimTime drain_latency = SimTime::Seconds(0);
  SimTime drain_timeout = SimTime::Seconds(0);  // 0 = never escalate

  // Capacity guardrail: max fraction of the fleet's cores in draining + quarantined at once.
  // 1.0 disables. When exceeded, pending cores are released least-suspect-first and offline
  // screens due within kGuardrailThrottleDefer are pushed back by it.
  double quarantine_budget_fraction = 1.0;

  // Untrusted-interrogator quorum: each completed battery is re-judged by K witness cores
  // (quorum.h). Off by default — the single tester's testimony stands, bit-identically.
  QuorumOptions quorum;
  // Weak-evidence convictions (no confession, thin witness majority, or low reproducibility)
  // enter probation — restricted service under shadow screening — instead of terminal
  // retirement, and are reinstated after clean windows. Off by default.
  ProbationOptions probation;

  ChaosOptions chaos;

  Status Validate() const;
};

struct ControlPlaneStats {
  uint64_t suspects_admitted = 0;
  uint64_t suspects_shed = 0;         // refused at admission: pipeline full
  uint64_t queue_peak = 0;            // max pending suspects ever resident
  uint64_t retries_scheduled = 0;
  uint64_t retry_interrogations = 0;  // interrogations that were retries (attempt >= 2)
  uint64_t drain_escalations = 0;     // graceful drain timed out -> surprise removal
  uint64_t guardrail_activations = 0; // ticks on which the capacity guardrail engaged
  uint64_t guardrail_releases = 0;    // pending cores force-released by the guardrail
  uint64_t screening_deferrals = 0;   // offline screens pushed back while over budget
  uint64_t restarts_reset = 0;        // in-flight quarantines wiped by machine restarts
  uint64_t peak_pending_isolation = 0;  // max draining + quarantined cores ever observed
  // Integral of (draining + quarantined) over time: the reversible stranding the guardrail
  // budgets. Excludes retired cores — retirement is the verdict, not pipeline stranding.
  double pending_isolation_core_seconds = 0.0;
  // Suspects still resident in the pipeline when the study ended (admitted, no verdict or
  // force-release yet). Lets trace consumers account for every admission: each admit has
  // exactly one terminal event or is pending at end.
  uint64_t pending_at_end = 0;
  // Probation entries still unresolved when the study ended: together with the kProbationEnd
  // trace events this makes conviction lifecycle conservation checkable — every conviction is
  // terminal retirement, probation -> escalated retirement, probation -> reinstated, or
  // counted here (property tests P12/P13).
  uint64_t probation_pending_at_end = 0;
  QuorumStats quorum;
  ChaosStats chaos;

  bool operator==(const ControlPlaneStats&) const = default;
};

// Field list of a ControlPlaneStats block (wire.h), its quorum and chaos copies included.
template <class S, class Io>
void WireControlPlaneStats(S& s, Io& io) {
  io.U64(s.suspects_admitted, s.suspects_shed, s.queue_peak, s.retries_scheduled,
         s.retry_interrogations, s.drain_escalations, s.guardrail_activations,
         s.guardrail_releases, s.screening_deferrals, s.restarts_reset, s.peak_pending_isolation);
  io.F64(s.pending_isolation_core_seconds);
  io.U64(s.pending_at_end, s.probation_pending_at_end);
  WireQuorumStats(s.quorum, io);
  WireChaosStats(s.chaos, io);
}

class QuarantineControlPlane {
 public:
  // `interrogation_rng` seeds the confession batteries; `control_rng` seeds the plane's own
  // machinery (backoff jitter, drain jitter) and the chaos injector, and is never drawn from
  // at default options.
  QuarantineControlPlane(ControlPlaneOptions options, QuarantinePolicy policy,
                         Rng interrogation_rng, Rng control_rng);

  // Routes one detection signal toward the report service, applying in-flight chaos. With
  // chaos off this is exactly service.Report(signal).
  void Report(const Signal& signal, CeeReportService& service);

  // One control-plane tick, run serially after the fleet's production/screening phase:
  // delivers delayed reports, applies machine crash-restarts, admits this tick's suspects
  // (shedding over the bound), starts drains / escalates timed-out ones, runs due
  // interrogations with retry/backoff, then enforces the capacity guardrail (`screening` may
  // be null when there is no orchestrator to throttle). Returns the verdicts reached this
  // tick, in pipeline order.
  std::vector<QuarantineVerdict> Tick(SimTime now, SimTime dt, Fleet& fleet,
                                      CoreScheduler& scheduler, CeeReportService& service,
                                      ScreeningOrchestrator* screening);

  // Conviction hook: invoked (inside Tick, serial phase) for every verdict that retires a
  // core, before the verdict is returned. This is how the blast-radius subsystem learns about
  // convictions without the control plane depending on the repair pipeline.
  void set_conviction_hook(std::function<void(SimTime, const QuarantineVerdict&)> hook) {
    conviction_hook_ = std::move(hook);
  }

  // Incident flight recorder hook: when set, every pipeline transition (admit, shed, drain
  // completion/escalation, interrogation start, verdict, conviction, force-release) emits a
  // lifecycle event. All control-plane work runs in the fleet engine's serial phase, so
  // emission needs no synchronization; it consumes no randomness either.
  void set_trace_recorder(TraceRecorder* recorder) { trace_ = recorder; }

  // Reinstatement hook: invoked (inside Tick, serial phase) when a probation core completes
  // its clean windows and returns to unrestricted service. The repair orchestrator uses it to
  // cancel retroactive-repair work queued for the now-withdrawn conviction.
  void set_reinstatement_hook(std::function<void(SimTime, uint64_t)> hook) {
    reinstatement_hook_ = std::move(hook);
  }

  size_t pending_count() const { return pending_.size(); }
  // Probation entries still open (convictions held in appeal, neither escalated nor cleared).
  size_t probation_count() const { return probation_.size(); }
  // The placement restriction for a probation core: the failed units its weak confession
  // named, or null if the core is not on probation (or confessed nothing — unrestricted).
  // Written only in the serial phase, so parallel production shards may read it freely.
  const std::vector<ExecUnit>* ProbationRestrictedUnits(uint64_t core_global) const;
  const ControlPlaneStats& stats() const { return stats_; }
  const QuarantineStats& quarantine_stats() const { return quarantine_stats_; }

  // Durable-state round trip for the write-ahead journal (src/durability). One payload covers
  // everything a controller crash would otherwise forget: the control RNG cursor, the plane's
  // own counters, the pending and probation books, the verdict books (interrogation RNG
  // cursor, QuarantineStats, and the accusation and failed-unit maps, which are ordered so
  // they serialize in core order), and the nested chaos and quorum state.
  // Options, policy, hooks, and the trace recorder are wiring, reconstructed by the owning
  // study, never persisted. LoadDurableState fully replaces the durable state — a recovered
  // plane continues bit-identically from the journaled cursors — or, on DATA_LOSS, leaves all
  // of it, the nested units included, as it was.
  void SaveDurableState(ByteWriter& w) const;
  Status LoadDurableState(ByteReader& r);

  // Post-recovery reconciliation with the live fleet (torn-tail fallback: the books were
  // restored to an older durable prefix while the scheduler kept running). Cores the
  // scheduler holds in quarantine/drain that the recovered books no longer know are released
  // back to service; probation cores without a book entry are reinstated; book entries whose
  // core the scheduler shows already resolved (active or retired) are dropped. Every action
  // is counted into the out-params — divergence is repaired loudly, never silently.
  void ReconcileWithFleet(CoreScheduler& scheduler, uint64_t* released_unknown,
                          uint64_t* reinstated_unknown, uint64_t* dropped_pending,
                          uint64_t* dropped_probation);

 private:
  struct Pending {
    uint64_t core_global = 0;
    uint64_t machine = 0;
    double score = 0.0;        // suspicion score at admission (guardrail release order)
    int attempts = 0;          // interrogation attempts already run
    bool draining = false;     // still vacating; not yet interrogation-eligible
    SimTime drain_done;        // when the graceful drain completes
    SimTime next_attempt;      // earliest time the next battery may run
  };

  // One weak-evidence conviction held open in restricted service. The ledger is control-plane
  // global, not per machine: a machine restart wipes in-flight quarantine state (a daemon
  // cache) but not probation status, which is a fleet-management property like retirement.
  struct ProbationRecord {
    uint64_t core_global = 0;
    uint64_t machine = 0;
    SimTime entered;                        // when the conviction was diverted to probation
    int windows_clean = 0;                  // consecutive clean shadow-screen windows
    SimTime next_window;                    // when the next shadow screen is due
    std::vector<ExecUnit> restricted_units; // confessed units barred from placements
  };

  // One interrogation attempt's outcome. `ran == false` marks the require_confession = false
  // short-circuit: no battery executed, conviction on suspicion alone. Failed units are named
  // only by a confession.
  struct Interrogation {
    bool ran = false;
    bool confessed = false;
    std::vector<ExecUnit> failed_units;
  };

  // Counts one accusation event; a core's first one also counts it in suspects_processed.
  void RecordAccusation(uint64_t core_global);
  // Runs one confession battery (or the policy short-circuit) against a quarantined core,
  // charging its ops and recording a confession's failed units.
  Interrogation Interrogate(uint64_t core_global, Fleet& fleet);
  // Permanent removal, with the retirement and ground-truth books.
  void RetireCore(uint64_t core_global, Fleet& fleet, CoreScheduler& scheduler);
  // Return to service without a conviction: a release, and a missed confession if ground
  // truth says the core is mercurial.
  void ReleaseCore(uint64_t core_global, Fleet& fleet, CoreScheduler& scheduler);
  // New evidence during probation (a fresh accusation, or a shadow-screen confession when
  // `confessed`): the held-open conviction becomes a permanent retirement.
  QuarantineVerdict EscalateProbation(uint64_t core_global, bool confessed, Fleet& fleet,
                                      CoreScheduler& scheduler, CeeReportService& service);

  void AdmitSuspects(SimTime now, const std::vector<SuspectCore>& suspects, Fleet& fleet,
                     CoreScheduler& scheduler, CeeReportService& service,
                     std::vector<QuarantineVerdict>& verdicts);
  void AdvanceDrains(SimTime now, CoreScheduler& scheduler);
  void ProcessProbation(SimTime now, Fleet& fleet, CoreScheduler& scheduler,
                        CeeReportService& service, std::vector<QuarantineVerdict>& verdicts);
  void RunInterrogations(SimTime now, Fleet& fleet, CoreScheduler& scheduler,
                         CeeReportService& service, std::vector<QuarantineVerdict>& verdicts);
  void ApplyRestarts(SimTime now, SimTime dt, Fleet& fleet, CoreScheduler& scheduler,
                     CeeReportService& service);
  void EnforceGuardrail(SimTime now, Fleet& fleet, CoreScheduler& scheduler,
                        CeeReportService& service, ScreeningOrchestrator* screening);
  template <class S, class Io>
  static void Wire(S& s, Io& io);

  bool IsPending(uint64_t core_global) const;
  void Trace(uint64_t core, TraceEventKind kind, TraceCause cause, uint64_t detail = 0);

  ControlPlaneOptions options_;
  QuarantinePolicy policy_;
  ConfessionTester tester_;
  Rng interrogation_rng_;
  QuarantineStats quarantine_stats_;
  // The verdict books. Accusation counts feed recidivism; a confession's failed units name
  // the units of the verdict that later escalates its core out of probation.
  std::map<uint64_t, int> accusation_counts_;
  std::map<uint64_t, std::vector<ExecUnit>> failed_units_;
  Rng control_rng_;
  ChaosInjector chaos_;
  QuorumInterrogator quorum_;
  ControlPlaneStats stats_;
  std::vector<Pending> pending_;  // admission order; interrogations scan front to back
  std::vector<ProbationRecord> probation_;  // probation-entry order
  std::function<void(SimTime, const QuarantineVerdict&)> conviction_hook_;
  std::function<void(SimTime, uint64_t)> reinstatement_hook_;
  TraceRecorder* trace_ = nullptr;
};

}  // namespace mercurial

#endif  // MERCURIAL_SRC_DETECT_CONTROL_PLANE_H_
