#include "src/detect/control_plane.h"

#include <algorithm>
#include <cmath>

#include "src/telemetry/trace.h"

namespace mercurial {
namespace {

// Micro-op cost of one full interrogation attempt.
uint64_t OpsPerAttempt(const ConfessionOptions& confession) {
  return confession.stress.iterations_per_unit * kExecUnitCount;
}

}  // namespace

Status ControlPlaneOptions::Validate() const {
  if (max_retries < 0) {
    return InvalidArgumentError("max_retries must be >= 0");
  }
  if (max_retries > 0 && retry_backoff.seconds() <= 0) {
    return InvalidArgumentError("retry_backoff must be positive when retries are enabled");
  }
  if (Status s = CheckProbability(retry_jitter, "retry_jitter"); !s.ok()) {
    return s;
  }
  if (drain_latency.seconds() < 0 || drain_timeout.seconds() < 0) {
    return InvalidArgumentError("drain_latency and drain_timeout must be >= 0");
  }
  if (!(quarantine_budget_fraction > 0.0 && quarantine_budget_fraction <= 1.0)) {
    return InvalidArgumentError("quarantine_budget_fraction must be in (0, 1]");
  }
  if (Status s = quorum.Validate(); !s.ok()) {
    return s;
  }
  if (Status s = probation.Validate(); !s.ok()) {
    return s;
  }
  return chaos.Validate();
}

QuarantineControlPlane::QuarantineControlPlane(ControlPlaneOptions options,
                                               QuarantinePolicy policy, Rng interrogation_rng,
                                               Rng control_rng)
    : options_(options),
      policy_(policy),
      tester_(policy.confession),
      interrogation_rng_(interrogation_rng),
      control_rng_(control_rng),
      chaos_(options.chaos, control_rng.Split(0xc4a05)),
      quorum_(options.quorum, control_rng.Split(0x9b0a7)) {}

void QuarantineControlPlane::Report(const Signal& signal, CeeReportService& service) {
  if (!chaos_.enabled()) {
    service.Report(signal);
    return;
  }
  std::vector<Signal> deliver;
  chaos_.InjectReport(signal, deliver);
  for (const Signal& delivered : deliver) {
    service.Report(delivered);
  }
}

void QuarantineControlPlane::Trace(uint64_t core, TraceEventKind kind, TraceCause cause,
                                   uint64_t detail) {
  if (trace_ != nullptr) {
    trace_->Emit(core, kind, cause, detail);
  }
}

bool QuarantineControlPlane::IsPending(uint64_t core_global) const {
  for (const Pending& pending : pending_) {
    if (pending.core_global == core_global) {
      return true;
    }
  }
  return false;
}

void QuarantineControlPlane::RecordAccusation(uint64_t core_global) {
  ++quarantine_stats_.accusations;
  if (++accusation_counts_[core_global] == 1) {
    ++quarantine_stats_.suspects_processed;
  }
}

QuarantineControlPlane::Interrogation QuarantineControlPlane::Interrogate(uint64_t core_global,
                                                                          Fleet& fleet) {
  Interrogation result;
  if (!policy_.require_confession) {
    return result;  // ran == false: conviction on suspicion alone, no battery
  }
  result.ran = true;
  if (fleet.Healthy(core_global)) {
    // Healthy cores cannot confess (fast path; identical outcome to running the battery).
    quarantine_stats_.interrogation_ops +=
        OpsPerAttempt(policy_.confession) * static_cast<uint64_t>(policy_.confession.max_attempts);
    return result;
  }
  const Confession confession = tester_.Interrogate(fleet.core(core_global), interrogation_rng_);
  quarantine_stats_.interrogation_ops += confession.ops_used;
  if (confession.confessed) {
    result.confessed = true;
    result.failed_units = confession.failed_units;
    failed_units_[core_global] = confession.failed_units;
  }
  return result;
}

void QuarantineControlPlane::RetireCore(uint64_t core_global, Fleet& fleet,
                                        CoreScheduler& scheduler) {
  scheduler.Retire(core_global);
  ++quarantine_stats_.retirements;
  if (fleet.IsMercurial(core_global)) {
    ++quarantine_stats_.true_positive_retirements;
  } else {
    ++quarantine_stats_.false_positive_retirements;
  }
}

void QuarantineControlPlane::ReleaseCore(uint64_t core_global, Fleet& fleet,
                                         CoreScheduler& scheduler) {
  scheduler.Release(core_global);
  ++quarantine_stats_.releases;
  if (fleet.IsMercurial(core_global)) {
    ++quarantine_stats_.missed_confessions;
  }
}

QuarantineVerdict QuarantineControlPlane::EscalateProbation(uint64_t core_global, bool confessed,
                                                            Fleet& fleet, CoreScheduler& scheduler,
                                                            CeeReportService& service) {
  QuarantineVerdict verdict;
  verdict.core_global = core_global;
  verdict.confessed = confessed;
  verdict.retired = true;
  if (confessed) {
    ++quarantine_stats_.confessions;  // the shadow screen's battery confessed
  }
  if (const auto units = failed_units_.find(core_global); units != failed_units_.end()) {
    verdict.failed_units = units->second;
  }
  ++quarantine_stats_.probation_escalations;
  RetireCore(core_global, fleet, scheduler);
  service.Forget(core_global);
  return verdict;
}

void QuarantineControlPlane::AdmitSuspects(SimTime now, const std::vector<SuspectCore>& suspects,
                                           Fleet& fleet, CoreScheduler& scheduler,
                                           CeeReportService& service,
                                           std::vector<QuarantineVerdict>& verdicts) {
  for (const SuspectCore& suspect : suspects) {
    const uint64_t core = suspect.core_global;
    if (scheduler.state(core) == CoreState::kRetired ||
        scheduler.state(core) == CoreState::kQuarantined) {
      continue;  // already convicted, or already held for a verdict
    }
    if (scheduler.state(core) == CoreState::kProbation) {
      // A fresh accusation while the conviction is held in appeal: the probation fails and
      // escalates straight to permanent retirement — no second interrogation, the core already
      // used its second chance.
      RecordAccusation(core);
      for (auto it = probation_.begin(); it != probation_.end(); ++it) {
        if (it->core_global == core) {
          Trace(core, TraceEventKind::kProbationEnd, TraceCause::kProbationSignal,
                static_cast<uint64_t>(it->windows_clean));
          probation_.erase(it);
          break;
        }
      }
      verdicts.push_back(EscalateProbation(core, /*confessed=*/false, fleet, scheduler, service));
      continue;
    }
    if (IsPending(core) || scheduler.state(core) != CoreState::kActive) {
      continue;  // already in the pipeline (e.g. mid-drain); not a new accusation
    }
    if (options_.max_pending > 0 && pending_.size() >= options_.max_pending) {
      // Backpressure: refuse admission. The report mass is kept, so the suspect
      // re-candidates once the pipeline has room — degradation is delay, not loss.
      ++stats_.suspects_shed;
      Trace(core, TraceEventKind::kQuarantineShed, TraceCause::kPipelineFull, pending_.size());
      continue;
    }
    RecordAccusation(core);
    ++stats_.suspects_admitted;
    Trace(core, TraceEventKind::kQuarantineAdmit,
          options_.drain_latency.seconds() > 0 ? TraceCause::kAdmittedDraining
                                               : TraceCause::kAdmitted,
          pending_.size());

    Pending pending;
    pending.core_global = core;
    pending.machine = suspect.machine;
    pending.score = suspect.score;
    pending.next_attempt = now;
    if (options_.drain_latency.seconds() > 0) {
      // Graceful drain takes time: the core leaves the schedule now but is only
      // interrogation-eligible once vacated. Completion time is jittered per core.
      scheduler.Drain(core);
      pending.draining = true;
      const double sampled = static_cast<double>(options_.drain_latency.seconds()) *
                             (1.0 + control_rng_.NextDouble());
      pending.drain_done = now + SimTime::Seconds(static_cast<int64_t>(sampled));
    } else {
      scheduler.Quarantine(core);
    }
    pending_.push_back(pending);
    stats_.queue_peak = std::max<uint64_t>(stats_.queue_peak, pending_.size());
  }
}

void QuarantineControlPlane::AdvanceDrains(SimTime now, CoreScheduler& scheduler) {
  if (options_.drain_latency.seconds() <= 0) {
    return;
  }
  for (Pending& pending : pending_) {
    if (!pending.draining) {
      continue;
    }
    const bool timed_out =
        options_.drain_timeout.seconds() > 0 && pending.drain_done - pending.next_attempt >
        options_.drain_timeout && now >= pending.next_attempt + options_.drain_timeout;
    if (pending.drain_done <= now) {
      scheduler.Quarantine(pending.core_global);
      pending.draining = false;
      pending.next_attempt = now;
      Trace(pending.core_global, TraceEventKind::kQuarantineDrain, TraceCause::kDrainComplete);
    } else if (timed_out) {
      // The graceful drain overran its deadline: escalate to core surprise removal (§6.1,
      // Shalev et al.) — immediate, loses in-flight work — then quarantine.
      scheduler.SurpriseRemove(pending.core_global);
      scheduler.Quarantine(pending.core_global);
      ++stats_.drain_escalations;
      pending.draining = false;
      pending.next_attempt = now;
      Trace(pending.core_global, TraceEventKind::kQuarantineDrain, TraceCause::kDrainEscalated);
    }
  }
}

void QuarantineControlPlane::RunInterrogations(SimTime now, Fleet& fleet,
                                               CoreScheduler& scheduler,
                                               CeeReportService& service,
                                               std::vector<QuarantineVerdict>& verdicts) {
  std::vector<Pending> still_pending;
  still_pending.reserve(pending_.size());
  for (size_t i = 0; i < pending_.size(); ++i) {
    Pending& pending = pending_[i];
    if (pending.draining || pending.next_attempt > now) {
      still_pending.push_back(pending);
      continue;
    }
    const uint64_t core = pending.core_global;
    ++pending.attempts;
    if (pending.attempts > 1) {
      ++stats_.retry_interrogations;
    }
    Trace(core, TraceEventKind::kInterrogationStart,
          pending.attempts > 1 ? TraceCause::kRetry : TraceCause::kScheduled,
          static_cast<uint64_t>(pending.attempts));
    Interrogation result;
    double fraction_run = 0.0;
    const bool aborted = chaos_.AbortInterrogation(&fraction_run);
    if (aborted) {
      // Preempted mid-battery (chaos): the pro-rated ops of one attempt are charged, and the
      // run yields no evidence either way.
      result.ran = true;
      quarantine_stats_.interrogation_ops += static_cast<uint64_t>(std::llround(
          static_cast<double>(OpsPerAttempt(policy_.confession)) * fraction_run));
    } else {
      result = Interrogate(core, fleet);
    }
    QuorumVerdict quorum_verdict;
    bool quorum_judged = false;
    if (!aborted && result.ran) {
      if (quorum_.enabled()) {
        // The tester's verdict is testimony, not truth: K witness cores re-judge the battery
        // and the majority decides. Chaos faults (lying witness, mid-vote crash) land on the
        // witnesses here instead of on the lone tester below.
        quorum_verdict = quorum_.Judge(core, result.confessed, fleet, scheduler, chaos_);
        quorum_judged = true;
        Trace(core, TraceEventKind::kQuorumVerdict,
              quorum_verdict.fell_back        ? TraceCause::kQuorumFallback
              : quorum_verdict.escalations > 0 ? TraceCause::kQuorumSplit
                                               : TraceCause::kQuorumAgreed,
              PackQuorumDetail(quorum_verdict));
        if (quorum_verdict.confessed != result.confessed) {
          // The majority overrides the tester. A quorum-invented confession names no failed
          // units (witnesses corroborate the outcome, not the unit breakdown); an overturned
          // one withdraws them.
          result.confessed = quorum_verdict.confessed;
          if (!quorum_verdict.confessed) {
            result.failed_units.clear();
          }
        }
      } else if (chaos_.LyingWitness()) {
        // Legacy single-tester path under testimony chaos: with no quorum to out-vote it, the
        // lone tester's flipped verdict IS the verdict. This is the false-conviction source
        // the quorum exists to suppress.
        result.confessed = !result.confessed;
        if (!result.confessed) {
          result.failed_units.clear();
        }
      }
    }
    if (result.ran && !result.confessed && pending.attempts <= options_.max_retries) {
      // Still suspicious, didn't confess (or the run was cut short): keep it quarantined and
      // come back after an exponentially-backed-off, jittered delay.
      pending.next_attempt = now + JitteredBackoff(options_.retry_backoff, pending.attempts,
                                                   options_.retry_jitter, control_rng_);
      ++stats_.retries_scheduled;
      still_pending.push_back(pending);
      continue;
    }

    // The verdict. A confession counts whatever the verdict does with it.
    QuarantineVerdict verdict;
    verdict.core_global = core;
    if (result.confessed) {
      ++quarantine_stats_.confessions;
      verdict.confessed = true;
      verdict.failed_units = result.failed_units;
    }
    // The retire rule: a confession, a conviction on suspicion alone (no battery ran), or,
    // failing both, an accusation count at the recidivism threshold.
    const auto accusations = accusation_counts_.find(core);
    const bool recidivist = result.ran && !result.confessed &&
                            policy_.recidivism_retire_after > 0 &&
                            accusations != accusation_counts_.end() &&
                            accusations->second >= policy_.recidivism_retire_after;
    const bool convicted = result.confessed || !result.ran || recidivist;
    // With probation on, a conviction on weak evidence is held open: no confession at all
    // (recidivism / suspicion-only), a witness majority thinner than strong_agreement
    // (fallback verdicts carry agreement 0.5), or a confession that needed too many attempts
    // to reproduce.
    const bool weak =
        !result.confessed ||
        (quorum_judged && quorum_verdict.agreement < options_.quorum.strong_agreement) ||
        (options_.probation.weak_after_attempts > 0 &&
         pending.attempts > options_.probation.weak_after_attempts);
    const bool probation = convicted && options_.probation.enabled && weak;
    TraceCause outcome = TraceCause::kReleased;
    if (probation) {
      ++quarantine_stats_.probation_entries;
      scheduler.Probation(core);
      outcome = TraceCause::kWeakEvidence;
    } else if (convicted) {
      if (recidivist) {
        ++quarantine_stats_.recidivism_retirements;
      }
      RetireCore(core, fleet, scheduler);
      verdict.retired = true;
      outcome = result.confessed ? TraceCause::kConfessed : TraceCause::kRetiredNoConfession;
    } else {
      ReleaseCore(core, fleet, scheduler);
    }
    // Whatever the verdict, clear accumulated report mass so old evidence is not
    // double-counted.
    service.Forget(core);
    Trace(core, TraceEventKind::kInterrogationVerdict, outcome,
          static_cast<uint64_t>(pending.attempts));
    if (convicted) {
      // The conviction event precedes the hook so repair events it triggers sort after it. The
      // blast-radius subsystem treats a probation entry as a (provisional) conviction, which
      // a reinstatement later withdraws.
      Trace(core, TraceEventKind::kConviction, outcome, verdict.failed_units.size());
      if (probation) {
        Trace(core, TraceEventKind::kProbationStart, outcome, verdict.failed_units.size());
      }
      if (conviction_hook_) {
        conviction_hook_(now, verdict);
      }
    }
    if (probation) {
      ProbationRecord record;
      record.core_global = core;
      record.machine = pending.machine;
      record.entered = now;
      record.next_window = now + options_.probation.window;
      record.restricted_units = verdict.failed_units;
      probation_.push_back(std::move(record));
    }
    verdicts.push_back(std::move(verdict));
  }
  pending_ = std::move(still_pending);
}

const std::vector<ExecUnit>* QuarantineControlPlane::ProbationRestrictedUnits(
    uint64_t core_global) const {
  for (const ProbationRecord& record : probation_) {
    if (record.core_global == core_global) {
      return &record.restricted_units;
    }
  }
  return nullptr;
}

void QuarantineControlPlane::ProcessProbation(SimTime now, Fleet& fleet,
                                              CoreScheduler& scheduler,
                                              CeeReportService& service,
                                              std::vector<QuarantineVerdict>& verdicts) {
  if (probation_.empty()) {
    return;
  }
  std::vector<ProbationRecord> still_open;
  still_open.reserve(probation_.size());
  for (ProbationRecord& record : probation_) {
    if (record.next_window > now) {
      still_open.push_back(std::move(record));
      continue;
    }
    // Shadow screen: one confession battery per due window, at the elevated probation cadence.
    // (Under require_confession = false there is no battery to run, so shadow windows can only
    // come up clean; escalation then rides on fresh accusations alone.)
    const Interrogation shadow = Interrogate(record.core_global, fleet);
    bool signal = shadow.confessed;
    if (signal && chaos_.SuppressProbationSignal()) {
      // The signal was swallowed in flight: this window LOOKS clean, so escalation is delayed
      // — or, if enough windows pass, a defective core gets wrongly reinstated. The lifecycle
      // conservation property still holds; only the outcome quality degrades.
      signal = false;
    }
    if (signal) {
      Trace(record.core_global, TraceEventKind::kProbationEnd, TraceCause::kProbationEscalated,
            static_cast<uint64_t>(record.windows_clean));
      verdicts.push_back(EscalateProbation(record.core_global, /*confessed=*/true, fleet,
                                           scheduler, service));
      continue;
    }
    ++record.windows_clean;
    record.next_window = now + options_.probation.window;
    if (record.windows_clean >= options_.probation.clean_windows_to_reinstate) {
      Trace(record.core_global, TraceEventKind::kProbationEnd, TraceCause::kReinstated,
            static_cast<uint64_t>(record.windows_clean));
      // Suspicion cleared: the core returns to unrestricted service from a clean slate, so
      // recidivism starts over and the failed-unit record (which only ever described a weak
      // confession) is withdrawn. Reinstating a core that ground truth says is mercurial is a
      // missed confession, the deliberate price of the appeal path.
      scheduler.Reinstate(record.core_global);
      ++quarantine_stats_.reinstatements;
      if (fleet.IsMercurial(record.core_global)) {
        ++quarantine_stats_.missed_confessions;
      }
      accusation_counts_.erase(record.core_global);
      failed_units_.erase(record.core_global);
      service.Forget(record.core_global);
      if (reinstatement_hook_) {
        reinstatement_hook_(now, record.core_global);
      }
      continue;
    }
    still_open.push_back(std::move(record));
  }
  probation_ = std::move(still_open);
}

void QuarantineControlPlane::ApplyRestarts(SimTime now, SimTime dt, Fleet& fleet,
                                           CoreScheduler& scheduler,
                                           CeeReportService& service) {
  if (options_.chaos.machine_restart_per_day <= 0.0) {
    return;
  }
  const std::vector<uint64_t> restarted = chaos_.DrawRestarts(dt, fleet.InstalledMachineIds(now));
  if (restarted.empty() || pending_.empty()) {
    return;
  }
  std::vector<Pending> survivors;
  survivors.reserve(pending_.size());
  for (const Pending& pending : pending_) {
    if (!std::binary_search(restarted.begin(), restarted.end(), pending.machine)) {
      survivors.push_back(pending);
      continue;
    }
    // The machine hosting this in-flight quarantine crash-restarted: the quarantine daemon's
    // state is gone, the core boots back into the schedule, and the evidence cache that
    // triggered the interrogation is invalidated. Detection progress is lost, not the core.
    // No verdict is recorded — ground-truth counters only move on verdicts.
    scheduler.Release(pending.core_global);
    service.Forget(pending.core_global);
    ++stats_.restarts_reset;
    Trace(pending.core_global, TraceEventKind::kQuarantineForceRelease,
          TraceCause::kMachineRestart, pending.machine);
  }
  pending_ = std::move(survivors);
}

void QuarantineControlPlane::EnforceGuardrail(SimTime now, Fleet& fleet,
                                              CoreScheduler& scheduler,
                                              CeeReportService& service,
                                              ScreeningOrchestrator* screening) {
  if (options_.quarantine_budget_fraction >= 1.0) {
    return;
  }
  const auto budget_cores = static_cast<size_t>(options_.quarantine_budget_fraction *
                                                static_cast<double>(scheduler.core_count()));
  if (scheduler.pending_isolation_count() <= budget_cores) {
    return;
  }
  ++stats_.guardrail_activations;

  // Throttle the inflow: push back offline screens (each one drains a core) that would come
  // due while we are over budget. This is the serial-phase hook that rebuckets the sparse
  // engine's due-wheels: ThrottleOffline itself moves qualifying wheel entries and cohorts to
  // the deferral horizon (filtering on exact due times, so the count and the due table are
  // bit-identical to the dense scan) — the control plane needs no wheel awareness beyond
  // calling it between parallel phases, which Tick's position in the tick loop guarantees.
  if (screening != nullptr) {
    stats_.screening_deferrals += screening->ThrottleOffline(now, kGuardrailThrottleDefer);
  }

  // Release the least-suspect pending cores first until the pipeline is back under budget.
  // Ties break on core index so the release order is deterministic.
  std::vector<size_t> order(pending_.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    if (pending_[a].score != pending_[b].score) {
      return pending_[a].score < pending_[b].score;
    }
    return pending_[a].core_global < pending_[b].core_global;
  });
  std::vector<bool> released(pending_.size(), false);
  for (size_t index : order) {
    if (scheduler.pending_isolation_count() <= budget_cores) {
      break;
    }
    // The pipeline, not the evidence, gave up: no verdict, so recidivism is not evaluated.
    ReleaseCore(pending_[index].core_global, fleet, scheduler);
    service.Forget(pending_[index].core_global);
    released[index] = true;
    ++stats_.guardrail_releases;
    Trace(pending_[index].core_global, TraceEventKind::kQuarantineForceRelease,
          TraceCause::kGuardrail);
  }
  std::vector<Pending> survivors;
  survivors.reserve(pending_.size());
  for (size_t i = 0; i < pending_.size(); ++i) {
    if (!released[i]) {
      survivors.push_back(pending_[i]);
    }
  }
  pending_ = std::move(survivors);
}

std::vector<QuarantineVerdict> QuarantineControlPlane::Tick(SimTime now, SimTime dt,
                                                            Fleet& fleet,
                                                            CoreScheduler& scheduler,
                                                            CeeReportService& service,
                                                            ScreeningOrchestrator* screening) {
  // Late deliveries first, so a delayed report can still contribute to this tick's suspicion.
  for (const Signal& signal : chaos_.FlushDelayed(now)) {
    service.Report(signal);
  }
  ApplyRestarts(now, dt, fleet, scheduler, service);

  const std::vector<SuspectCore> suspects = service.Suspects(now);
  std::vector<QuarantineVerdict> verdicts;
  AdmitSuspects(now, suspects, fleet, scheduler, service, verdicts);
  AdvanceDrains(now, scheduler);

  RunInterrogations(now, fleet, scheduler, service, verdicts);
  ProcessProbation(now, fleet, scheduler, service, verdicts);
  EnforceGuardrail(now, fleet, scheduler, service, screening);

  const uint64_t isolated = scheduler.pending_isolation_count();
  stats_.peak_pending_isolation = std::max(stats_.peak_pending_isolation, isolated);
  stats_.pending_isolation_core_seconds +=
      static_cast<double>(isolated) * static_cast<double>(dt.seconds());
  stats_.quorum = quorum_.stats();
  stats_.chaos = chaos_.stats();
  return verdicts;
}

template <class S, class Io>
void QuarantineControlPlane::Wire(S& s, Io& io) {
  io.RngCursor(s.control_rng_);
  WireControlPlaneStats(s.stats_, io);
  io.Seq(s.pending_, [&](auto& p) {
    io.U64(p.core_global, p.machine);
    io.F64(p.score);
    io.Int(p.attempts);
    io.Bool(p.draining);
    io.Time(p.drain_done, p.next_attempt);
  });
  io.Seq(s.probation_, [&](auto& p) {
    io.U64(p.core_global, p.machine);
    io.Time(p.entered);
    io.Int(p.windows_clean);
    io.Time(p.next_window);
    io.Seq(p.restricted_units, [&](auto& unit) {
      io.Enum(unit, kExecUnitCount, "probation restricted unit out of range");
    });
  });
  // The verdict books. Journal bytes depend on this order.
  io.RngCursor(s.interrogation_rng_);
  WireQuarantineStats(s.quarantine_stats_, io);
  io.Map(s.accusation_counts_, [&](auto& accusations) { io.Int(accusations); });
  io.Map(s.failed_units_, [&](auto& units) {
    io.Seq(units, [&](auto& unit) {
      io.Enum(unit, kExecUnitCount, "quarantine failed unit out of range");
    });
  });
  io.Durable(s.chaos_);
  io.Durable(s.quorum_);
}

void QuarantineControlPlane::SaveDurableState(ByteWriter& w) const {
  WireOut out(w);
  Wire(*this, out);
}

Status QuarantineControlPlane::LoadDurableState(ByteReader& r) {
  return WireLoad(r, *this, [](QuarantineControlPlane& p, WireIn& in) { Wire(p, in); });
}

void QuarantineControlPlane::ReconcileWithFleet(CoreScheduler& scheduler,
                                                uint64_t* released_unknown,
                                                uint64_t* reinstated_unknown,
                                                uint64_t* dropped_pending,
                                                uint64_t* dropped_probation) {
  // Pass 1: drop book entries the live scheduler shows already resolved. The controller that
  // died after the durable horizon finalized these cores (verdict, force-release, or
  // probation resolution); the recovered books must not interrogate or shadow-screen a core
  // the fleet no longer holds.
  auto pending_end = std::remove_if(pending_.begin(), pending_.end(), [&](const Pending& p) {
    const CoreState state = scheduler.state(p.core_global);
    const bool resolved = state != CoreState::kQuarantined && state != CoreState::kDraining;
    if (resolved) {
      ++*dropped_pending;
    }
    return resolved;
  });
  pending_.erase(pending_end, pending_.end());
  auto probation_end =
      std::remove_if(probation_.begin(), probation_.end(), [&](const ProbationRecord& p) {
        const bool resolved = scheduler.state(p.core_global) != CoreState::kProbation;
        if (resolved) {
          ++*dropped_probation;
        }
        return resolved;
      });
  probation_.erase(probation_end, probation_.end());

  // Pass 1b: align the drain status of kept entries with the live scheduler. The book rolled
  // back, the fleet did not, so the scheduler may have finished (or restarted) a drain the
  // recovered entry still thinks is in flight. Without this, AdvanceDrains would re-quarantine
  // an already-quarantined core, and a probation verdict could land on a still-draining one —
  // both scheduler-transition violations. Alignment trusts the fleet: a completed drain clears
  // the flag; a live drain the book forgot is marked past-due so the normal escalation path
  // (AdvanceDrains) quarantines it on the next tick before any verdict can touch it.
  for (Pending& pending : pending_) {
    const CoreState state = scheduler.state(pending.core_global);
    if (pending.draining && state == CoreState::kQuarantined) {
      pending.draining = false;
    } else if (!pending.draining && state == CoreState::kDraining) {
      pending.draining = true;
      pending.drain_done = SimTime::Seconds(0);
    }
  }

  // Pass 2: release fleet holds the recovered books no longer claim. These cores were
  // admitted (or moved to probation) after the durable horizon; without a book entry no
  // interrogation or shadow screen would ever resolve them, so the recovery path returns
  // them to service directly — the suspicion evidence re-accumulates organically, which is
  // delay, not loss.
  for (uint64_t core = 0; core < scheduler.core_count(); ++core) {
    const CoreState state = scheduler.state(core);
    if (state == CoreState::kQuarantined || state == CoreState::kDraining) {
      if (!IsPending(core)) {
        scheduler.Release(core);
        ++*released_unknown;
      }
    } else if (state == CoreState::kProbation) {
      const bool known = std::any_of(
          probation_.begin(), probation_.end(),
          [core](const ProbationRecord& p) { return p.core_global == core; });
      if (!known) {
        scheduler.Reinstate(core);
        ++*reinstated_unknown;
      }
    }
  }
}

}  // namespace mercurial
