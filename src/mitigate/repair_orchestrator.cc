#include "src/mitigate/repair_orchestrator.h"

#include <algorithm>
#include <numeric>

#include "src/common/logging.h"
#include "src/telemetry/trace.h"

namespace mercurial {

Status RepairOptions::Validate() const {
  if (epoch_length.seconds() <= 0) {
    return InvalidArgumentError("repair epoch_length must be positive");
  }
  if (enabled && repair_budget_per_tick == 0) {
    return InvalidArgumentError("repair_budget_per_tick must be positive when auditing is on");
  }
  if (max_attempts < 1) {
    return InvalidArgumentError("repair max_attempts must be >= 1");
  }
  if (max_attempts > 1 && retry_backoff.seconds() <= 0) {
    return InvalidArgumentError("repair retry_backoff must be positive when retries are enabled");
  }
  if (Status s = CheckProbability(retry_jitter, "repair retry_jitter"); !s.ok()) {
    return s;
  }
  if (onset_margin.seconds() < 0 || max_lookback.seconds() < 0) {
    return InvalidArgumentError("repair onset_margin and max_lookback must be >= 0");
  }
  return Status::Ok();
}

uint64_t RepairOrchestrator::Task::remaining_produced() const {
  uint64_t total = 0;
  for (const ArtifactCounts& counts : remaining) {
    total += counts.produced;
  }
  return total;
}

uint64_t RepairOrchestrator::Task::remaining_corrupt() const {
  uint64_t total = 0;
  for (const ArtifactCounts& counts : remaining) {
    total += counts.corrupt;
  }
  return total;
}

RepairOrchestrator::RepairOrchestrator(RepairOptions options, Rng rng, const ChaosOptions& chaos)
    : options_(options), rng_(rng), chaos_(chaos, rng.Split(0x4e9a1c)) {}

void RepairOrchestrator::Trace(uint64_t core, TraceEventKind kind, TraceCause cause,
                               uint64_t detail) {
  if (trace_ != nullptr) {
    trace_->Emit(core, kind, cause, detail);
  }
}

void RepairOrchestrator::SetExecutorPool(uint64_t core_count,
                                         std::function<bool(uint64_t)> defective) {
  core_count_ = core_count;
  defective_ = std::move(defective);
}

void RepairOrchestrator::OnConviction(SimTime now, uint64_t core_global,
                                      const BlastRadiusLedger& ledger) {
  if (!options_.enabled) {
    return;
  }
  ++stats_.convictions;
  const BlastRadiusLedger::CoreLedger* record = ledger.Find(core_global);
  if (record == nullptr || record->epochs.empty()) {
    return;  // nothing attributable (e.g. a false-positive conviction of an idle core)
  }
  // Estimated defect onset: suspicion signals lag activation, so back off the earliest signal
  // by onset_margin; with no signal on record (pure screening conviction), assume the worst
  // case within the lookback bound.
  SimTime onset = record->has_signal ? record->first_signal - options_.onset_margin
                                     : now - options_.max_lookback;
  onset = std::max(onset, now - options_.max_lookback);
  onset = std::max(onset, SimTime::Seconds(0));
  const uint64_t epoch_lo =
      static_cast<uint64_t>(onset.seconds() / options_.epoch_length.seconds());

  std::set<uint64_t>& swept = enqueued_epochs_[core_global];
  for (const BlastRadiusLedger::EpochArtifacts& epoch : record->epochs) {
    if (epoch.epoch < epoch_lo || epoch.produced() == 0) {
      continue;  // outside the suspect window; any corruption there stays at rest
    }
    if (!swept.insert(epoch.epoch).second) {
      continue;  // a prior conviction already swept this epoch (see header contract)
    }
    Task task;
    task.core_global = core_global;
    task.epoch = epoch.epoch;
    for (int k = 0; k < kArtifactKindCount; ++k) {
      task.remaining[k] = epoch.counts[k];
    }
    task.next_attempt = now;
    backlog_artifacts_ += epoch.produced();
    ++stats_.suspect_epochs;
    stats_.suspect_artifacts += epoch.produced();
    Trace(core_global, TraceEventKind::kRepairPass, TraceCause::kScheduled, epoch.produced());
    tasks_.push_back(task);
  }
  stats_.backlog_peak = std::max(stats_.backlog_peak, backlog_artifacts_);
  ShedToBacklogBound();
}

void RepairOrchestrator::OnReinstated(uint64_t core_global) {
  if (!options_.enabled) {
    return;
  }
  size_t write = 0;
  for (size_t read = 0; read < tasks_.size(); ++read) {
    Task& task = tasks_[read];
    if (task.core_global != core_global) {
      tasks_[write++] = std::move(task);
      continue;
    }
    ++stats_.reinstated_epochs_cancelled;
    stats_.reinstated_artifacts_cancelled += task.remaining_produced();
    backlog_artifacts_ -= task.remaining_produced();
    Trace(core_global, TraceEventKind::kRepairShed, TraceCause::kReinstated,
          task.remaining_corrupt());
  }
  tasks_.resize(write);
}

void RepairOrchestrator::ShedToBacklogBound() {
  while (backlog_artifacts_ > options_.max_backlog_artifacts && !tasks_.empty()) {
    // Lowest risk first: the oldest epoch is the furthest from the conviction evidence and
    // the least likely to postdate the true defect onset. Ties break on core index.
    size_t victim = 0;
    for (size_t i = 1; i < tasks_.size(); ++i) {
      if (tasks_[i].epoch < tasks_[victim].epoch ||
          (tasks_[i].epoch == tasks_[victim].epoch &&
           tasks_[i].core_global < tasks_[victim].core_global)) {
        victim = i;
      }
    }
    Task& task = tasks_[victim];
    ++stats_.epochs_shed;
    stats_.artifacts_shed += task.remaining_produced();
    stats_.corruptions_shed += task.remaining_corrupt();
    backlog_artifacts_ -= task.remaining_produced();
    Trace(task.core_global, TraceEventKind::kRepairShed, TraceCause::kBacklogBound,
          task.remaining_corrupt());
    tasks_.erase(tasks_.begin() + static_cast<ptrdiff_t>(victim));
  }
}

bool RepairOrchestrator::DrawExecutorTainted() {
  bool tainted = false;
  if (core_count_ > 0 && defective_) {
    const uint64_t pick = rng_.UniformInt(0, core_count_ - 1);
    tainted = defective_(pick);
  }
  if (!tainted && chaos_.RepairOnDefective()) {
    tainted = true;
  }
  return tainted;
}

void RepairOrchestrator::ScheduleRetry(SimTime now, Task& task) {
  ++task.attempts;
  task.next_attempt =
      now + JitteredBackoff(options_.retry_backoff, task.attempts, options_.retry_jitter, rng_);
  ++stats_.retries_scheduled;
  Trace(task.core_global, TraceEventKind::kRepairRetry, TraceCause::kRetry,
        static_cast<uint64_t>(task.attempts));
}

void RepairOrchestrator::AbandonTask(Task& task) {
  ++stats_.tasks_abandoned;
  stats_.corruptions_abandoned += task.remaining_corrupt();
  backlog_artifacts_ -= task.remaining_produced();
  Trace(task.core_global, TraceEventKind::kRepairShed, TraceCause::kAbandoned,
        task.remaining_corrupt());
}

namespace {

// Corrupt artifacts encountered when touching `n` of `produced` artifacts of which `corrupt`
// are bad: proportional with a ceiling, so a scan never finishes with corruption left in an
// exhausted bucket. Deterministic on purpose — the repair stream spends no draws on it.
uint64_t CorruptHits(uint64_t n, uint64_t produced, uint64_t corrupt) {
  if (n == 0 || corrupt == 0) {
    return 0;
  }
  MERCURIAL_CHECK_GE(produced, n);
  return std::min(corrupt, (n * corrupt + produced - 1) / produced);
}

}  // namespace

uint64_t RepairOrchestrator::RunPass(SimTime now, Task& task, uint64_t budget, bool* done,
                                     bool* retry) {
  *done = false;
  *retry = false;
  uint64_t plan = std::min(budget, task.remaining_produced());
  if (plan == 0) {
    *done = task.remaining_produced() == 0;
    return 0;
  }
  // Chaos: the pass may be preempted partway; only the surviving fraction is processed and
  // the remainder pays a retry.
  bool preempted = false;
  double fraction = 1.0;
  if (chaos_.PartialRepair(&fraction)) {
    preempted = true;
    plan = static_cast<uint64_t>(static_cast<double>(plan) * fraction);
    if (plan == 0) {
      *retry = true;
      return 0;
    }
  }

  // The executor draw is lazy: a pass that only walks checksums and finds nothing corrupt
  // never needs one.
  bool executor_known = false;
  bool executor_tainted = false;
  uint64_t used = 0;

  // Integrity-framed artifacts first (cheapest detection): re-verify, regenerate the corrupt.
  for (const ArtifactKind kind : {ArtifactKind::kChecksummedWrite, ArtifactKind::kCheckpoint}) {
    ArtifactCounts& counts = task.remaining[static_cast<int>(kind)];
    const uint64_t n = std::min(plan - used, counts.produced);
    if (n == 0) {
      continue;
    }
    const uint64_t hits = CorruptHits(n, counts.produced, counts.corrupt);
    stats_.artifacts_reverified += n;
    stats_.repair_ops += n;
    used += n;
    const uint64_t clean = n - hits;
    counts.produced -= clean;
    backlog_artifacts_ -= clean;
    for (uint64_t c = 0; c < hits; ++c) {
      if (chaos_.FailReverify()) {
        // The scan reported clean: the corruption silently stays at rest and the artifact is
        // never revisited — the most dangerous escape mode, kept visible in the accounting.
        ++stats_.corruptions_missed;
        --counts.produced;
        --counts.corrupt;
        --backlog_artifacts_;
        continue;
      }
      ++stats_.corruptions_found;
      if (!executor_known) {
        executor_tainted = DrawExecutorTainted();
        executor_known = true;
      }
      if (executor_tainted) {
        // Regenerating on a defective executor would swap one corruption for another; void
        // the pass and retry on a fresh draw.
        ++stats_.defective_executor_retries;
        *retry = true;
        return used;
      }
      ++stats_.artifacts_reexecuted;
      ++stats_.repair_ops;
      ++stats_.corruptions_repaired;
      --counts.produced;
      --counts.corrupt;
      --backlog_artifacts_;
    }
  }

  // Replicated-log epochs: the majority re-walk costs a digest check per replica, but the
  // log's own redundancy masks a single bad executor — no retry path.
  {
    ArtifactCounts& counts = task.remaining[static_cast<int>(ArtifactKind::kLogEpoch)];
    const uint64_t n = std::min(plan - used, counts.produced);
    if (n > 0) {
      const uint64_t hits = CorruptHits(n, counts.produced, counts.corrupt);
      stats_.artifacts_reverified += n;
      stats_.repair_ops += 3 * n;
      used += n;
      counts.produced -= n;
      counts.corrupt -= hits;
      backlog_artifacts_ -= n;
      stats_.corruptions_found += hits;
      stats_.corruptions_repaired += hits;
    }
  }

  // Plain outputs: no integrity framing, so every artifact re-executes on the repair executor
  // and compares. A tainted executor voids the whole comparison batch.
  {
    ArtifactCounts& counts = task.remaining[static_cast<int>(ArtifactKind::kPlainOutput)];
    const uint64_t n = std::min(plan - used, counts.produced);
    if (n > 0) {
      if (!executor_known) {
        executor_tainted = DrawExecutorTainted();
        executor_known = true;
      }
      if (executor_tainted) {
        ++stats_.defective_executor_retries;
        *retry = true;
        return used;
      }
      const uint64_t hits = CorruptHits(n, counts.produced, counts.corrupt);
      stats_.artifacts_reexecuted += n;
      stats_.repair_ops += 2 * n;
      used += n;
      counts.produced -= n;
      counts.corrupt -= hits;
      backlog_artifacts_ -= n;
      stats_.corruptions_found += hits;
      stats_.corruptions_repaired += hits;
    }
  }

  if (task.remaining_produced() == 0) {
    *done = true;
  } else if (preempted) {
    *retry = true;
  }
  return used;
}

void RepairOrchestrator::Tick(SimTime now) {
  if (!options_.enabled || tasks_.empty()) {
    return;
  }
  // Highest risk first: corruption concentrates near the conviction, so newest epochs repair
  // before oldest. Ties break on core index — a fixed total order, independent of arrival.
  std::vector<size_t> order(tasks_.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    if (tasks_[a].epoch != tasks_[b].epoch) {
      return tasks_[a].epoch > tasks_[b].epoch;
    }
    return tasks_[a].core_global < tasks_[b].core_global;
  });

  uint64_t budget = options_.repair_budget_per_tick;
  std::vector<bool> remove(tasks_.size(), false);
  for (size_t index : order) {
    if (budget == 0) {
      break;
    }
    Task& task = tasks_[index];
    if (task.next_attempt > now) {
      continue;
    }
    bool task_done = false;
    bool task_retry = false;
    const uint64_t used = RunPass(now, task, budget, &task_done, &task_retry);
    MERCURIAL_CHECK_GE(budget, used);
    budget -= used;
    if (used > 0 || task_done) {
      Trace(task.core_global, TraceEventKind::kRepairPass,
            task_done ? TraceCause::kRepairDone : TraceCause::kRepairProgress, used);
    }
    if (task_done) {
      remove[index] = true;
    } else if (task_retry) {
      if (task.attempts + 1 >= options_.max_attempts) {
        AbandonTask(task);
        remove[index] = true;
      } else {
        ScheduleRetry(now, task);
      }
    }
    // A task merely cut off by the budget keeps next_attempt as-is and resumes next tick —
    // backlog, not failure.
  }

  size_t write = 0;
  for (size_t read = 0; read < tasks_.size(); ++read) {
    if (!remove[read]) {
      tasks_[write++] = std::move(tasks_[read]);
    }
  }
  tasks_.resize(write);
  stats_.chaos = chaos_.stats();
}

void RepairOrchestrator::FinalizeAccounting(const BlastRadiusLedger& ledger) {
  if (!options_.enabled) {
    return;
  }
  stats_.chaos = chaos_.stats();
  const uint64_t classified = stats_.corruptions_repaired + stats_.corruptions_shed;
  MERCURIAL_CHECK_GE(ledger.corrupt_recorded(), classified);
  // Conservation closure: everything not repaired or shed — missed scans, abandoned tasks,
  // still-queued work, epochs outside the suspect window, and cores never convicted — is
  // corruption still at rest.
  stats_.corruptions_still_at_rest = ledger.corrupt_recorded() - classified;
}

template <class S, class Io>
void RepairOrchestrator::Wire(S& s, Io& io) {
  io.RngCursor(s.rng_);
  WireRepairStats(s.stats_, io);
  io.U64(s.backlog_artifacts_);
  io.Seq(s.tasks_, [&](auto& task) {
    io.U64(task.core_global, task.epoch);
    for (auto& counts : task.remaining) {
      io.U64(counts.produced, counts.corrupt);
      io.Require(counts.corrupt <= counts.produced, "repair task has corrupt > produced");
    }
    io.Int(task.attempts);
    io.Time(task.next_attempt);
  });
  io.Map(s.enqueued_epochs_, [&](auto& epochs) {
    io.Seq(epochs, [&](auto& epoch) { io.U64(epoch); });
  });
  io.Durable(s.chaos_);
}

void RepairOrchestrator::SaveDurableState(ByteWriter& w) const {
  WireOut out(w);
  Wire(*this, out);
}

Status RepairOrchestrator::LoadDurableState(ByteReader& r) {
  return WireLoad(r, *this, [](RepairOrchestrator& o, WireIn& in) { Wire(o, in); });
}

}  // namespace mercurial
