#include "src/detect/report_service.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/common/stats.h"
#include "src/telemetry/trace.h"

namespace mercurial {
namespace {

// Relative margin between the closed-form score S * 2^(-dt / half_life) and the score the
// replayed chain of decay steps reaches. Each step rounds the factor's exponent, exp2 and the
// product, so a chain of k steps stays within a relative (3k + 40) * 2^-52 of the closed form:
// 1e-6 covers chains of up to 10^9 sweeps between touches.
constexpr double kDeathMargin = 1e-6;

// New machine records wait in arrival order until this many are merged into the sorted ones.
constexpr size_t kNewMachineRecordsToMerge = 256;

// Latest death check ever scheduled, ~31.7 million years out: keeps a non-decaying record's
// key finite.
constexpr double kMaxDeathCheckSeconds = 1e15;

}  // namespace

const char* SignalTypeName(SignalType type) {
  switch (type) {
    case SignalType::kUserReport:
      return "user_report";
    case SignalType::kAppReport:
      return "app_report";
    case SignalType::kCrash:
      return "crash";
    case SignalType::kMachineCheck:
      return "machine_check";
    case SignalType::kSanitizer:
      return "sanitizer";
    case SignalType::kScreenFail:
      return "screen_fail";
  }
  return "unknown";
}

double CeeReportService::Exp2Memo::Factor(SimTime dt, double half_life_days) {
  if (dt.seconds() != dt_seconds) {
    dt_seconds = dt.seconds();
    factor = std::exp2(-dt.days() / half_life_days);
  }
  return factor;
}

CeeReportService::CeeReportService(ReportServiceOptions options,
                                   std::function<uint32_t(uint64_t)> cores_on_machine)
    : options_(options), cores_on_machine_(std::move(cores_on_machine)) {
  MERCURIAL_CHECK(cores_on_machine_ != nullptr);
}

template <class Record>
void CeeReportService::CatchUp(Record& stored) const {
  if (stored.synced == sweeps_.size()) {
    return;
  }
  // Replaying on a local copy keeps the chain of multiplications in registers.
  Record record = stored;
  for (; record.synced < sweeps_.size(); ++record.synced) {
    const Sweep& sweep = sweeps_[record.synced];
    if (sweep.time <= record.last_update) {
      continue;
    }
    // A record that saw the previous sweep takes that sweep's stored step; one last touched
    // in between (a report) takes the step from its own time, as the eager DecayTo did.
    const bool saw_previous =
        record.synced > 0 && sweeps_[record.synced - 1].time == record.last_update;
    record.Scale(saw_previous
                     ? sweep.factor
                     : decay_memo_.Factor(sweep.time - record.last_update,
                                          options_.half_life_days));
    record.last_update = sweep.time;
  }
  stored = record;
}

template <class Record>
void CeeReportService::DecayTo(Record& record, SimTime now) const {
  if (now <= record.last_update) {
    return;
  }
  record.Scale(decay_memo_.Factor(now - record.last_update, options_.half_life_days));
  record.last_update = now;
}

bool CeeReportService::IsHot(const CoreRecord& record) const {
  return record.direct_score >= options_.direct_evidence_threshold ||
         record.score >= options_.min_score;
}

void CeeReportService::ScheduleDeathCheck(uint64_t core, CoreRecord& record,
                                          SimTime not_before) {
  // No sweep before the closed form reaches the floor plus twice the margin can prune the
  // record; the floor and the one-second step back keep the key on the early side.
  const double floor = kReportPruneBelow * (1.0 + 2.0 * kDeathMargin);
  double seconds = 0.0;
  if (record.score > floor) {
    seconds = std::floor(options_.half_life_days * std::log2(record.score / floor) * 86400.0) -
              1.0;
  }
  // A NaN or negative key checks at the next sweep; a huge one is capped.
  seconds = seconds >= 0.0 ? std::min(seconds, kMaxDeathCheckSeconds) : 0.0;
  record.death_check =
      std::max(record.last_update + SimTime::Seconds(static_cast<int64_t>(seconds)), not_before);
  deaths_.push(DeathCheck{record.death_check, core});
}

void CeeReportService::Report(const Signal& signal) {
  ++total_reports_;
  const double weight = kSignalTypeWeight[static_cast<int>(signal.type)];

  const auto [it, inserted] = core_records_.try_emplace(signal.core_global);
  CoreRecord& core = it->second;
  if (inserted) {
    // A new record saw none of the earlier sweeps.
    core.synced = static_cast<uint32_t>(sweeps_.size());
  } else {
    CatchUp(core);
  }
  core.machine = signal.machine;
  DecayTo(core, signal.time);
  core.score += weight;
  core.raw_count += 1.0;
  if (signal.type == SignalType::kScreenFail) {
    core.direct_score += weight;
  }
  // An existing record keeps its death check: added mass only moves its death later.
  if (inserted) {
    ScheduleDeathCheck(signal.core_global, core, signal.time);
  }
  if (!core.hot && IsHot(core)) {
    core.hot = true;
    hot_.insert(signal.core_global);
  }

  MachineRecord& machine = MachineScore(signal.machine);
  CatchUp(machine);
  DecayTo(machine, signal.time);
  machine.score += 1.0;
}

CeeReportService::MachineRecord& CeeReportService::MachineScore(uint64_t machine) {
  const auto by_id = [](const MachineRecord& record, uint64_t id) { return record.machine < id; };
  const auto it =
      std::lower_bound(machine_records_.begin(), machine_records_.end(), machine, by_id);
  if (it != machine_records_.end() && it->machine == machine) {
    return *it;
  }
  for (MachineRecord& record : new_machine_records_) {
    if (record.machine == machine) {
      return record;
    }
  }
  if (new_machine_records_.size() == kNewMachineRecordsToMerge) {
    // Merge from the back, so the sorted vector grows in place.
    std::sort(new_machine_records_.begin(), new_machine_records_.end(),
              [](const MachineRecord& a, const MachineRecord& b) { return a.machine < b.machine; });
    size_t old_end = machine_records_.size();
    size_t next = new_machine_records_.size();
    machine_records_.resize(old_end + next);
    for (size_t out = machine_records_.size(); next > 0;) {
      const MachineRecord& newest = new_machine_records_[next - 1];
      if (old_end > 0 && machine_records_[old_end - 1].machine > newest.machine) {
        machine_records_[--out] = machine_records_[--old_end];
      } else {
        machine_records_[--out] = newest;
        --next;
      }
    }
    new_machine_records_.clear();
  }
  MachineRecord& record = new_machine_records_.emplace_back();
  record.machine = machine;
  record.synced = static_cast<uint32_t>(sweeps_.size());  // it saw none of the earlier sweeps
  return record;
}

void CeeReportService::Erase(uint64_t core) {
  hot_.erase(core);
  core_records_.erase(core);
}

void CeeReportService::DropDeadRecords(SimTime now) {
  while (!deaths_.empty() && deaths_.top().when <= now) {
    const DeathCheck check = deaths_.top();
    deaths_.pop();
    const auto it = core_records_.find(check.core);
    if (it == core_records_.end() || it->second.death_check != check.when) {
      continue;  // the record was forgotten, or a later check replaced this one
    }
    CoreRecord& record = it->second;
    // Every record resident at this sweep outlived the earlier ones, so only this sweep's
    // prune test is left. The closed form settles it unless it lies within the margin.
    double closed = record.score;
    if (now > record.last_update) {
      closed *= std::exp2(-(now - record.last_update).days() / options_.half_life_days);
    }
    bool dead = closed < kReportPruneBelow * (1.0 - kDeathMargin);
    if (!dead && !(closed >= kReportPruneBelow * (1.0 + kDeathMargin))) {
      CatchUp(record);
      dead = record.score < kReportPruneBelow;
    }
    if (dead) {
      Erase(check.core);
    } else {
      ScheduleDeathCheck(check.core, record, now + SimTime::Seconds(1));
    }
  }
}

std::vector<SuspectCore> CeeReportService::Suspects(SimTime now) {
  MERCURIAL_CHECK_LT(sweeps_.size(), size_t{UINT32_MAX}) << "sweep log index overflow";
  const bool advances = !sweeps_.empty() && now > sweeps_.back().time;
  sweeps_.push_back(Sweep{
      now, advances ? decay_memo_.Factor(now - sweeps_.back().time, options_.half_life_days)
                    : 1.0});
  DropDeadRecords(now);

  std::vector<SuspectCore> suspects;
  for (auto hot = hot_.begin(); hot != hot_.end();) {
    const uint64_t core = *hot;
    CoreRecord& record = core_records_.find(core)->second;
    CatchUp(record);
    if (record.score < kReportPruneBelow) {
      core_records_.erase(core);
      hot = hot_.erase(hot);
      continue;
    }
    TraceCause cause = TraceCause::kDirectEvidence;
    double p_value = 0.0;
    bool suspect = record.direct_score >= options_.direct_evidence_threshold;
    if (!suspect && record.score >= options_.min_score) {
      const uint32_t core_count = cores_on_machine_(record.machine);
      MERCURIAL_CHECK_GT(core_count, 0u);
      // Degenerate null: on a single-core machine every report lands on the only core with
      // probability 1, so BinomialUpperTail(k, n, 1/1) == 1 and concentration can never be
      // significant — which is correct (there is no spread to distinguish a CEE from a
      // software bug), not a bug to paper over. Such cores are convictable only via the
      // direct-evidence bypass above (screen fails are core-attributed). Skip explicitly
      // instead of grinding through a test that cannot fire.
      if (core_count > 1) {
        MachineRecord& machine = MachineScore(record.machine);
        CatchUp(machine);
        // Null hypothesis: the machine's reports are spread uniformly over its cores.
        const auto k = static_cast<uint64_t>(std::lround(std::max(record.raw_count, 1.0)));
        const auto n = static_cast<uint64_t>(
            std::lround(std::max(machine.score, static_cast<double>(k))));
        p_value = BinomialUpperTail(k, n, 1.0 / core_count);
        suspect = p_value < options_.p_value_threshold;
        cause = TraceCause::kConcentration;
      }
    }
    if (suspect) {
      suspects.push_back(SuspectCore{core, record.machine, record.score, p_value});
      if (trace_ != nullptr) {
        trace_->Emit(core, TraceEventKind::kSuspicionRaised, cause,
                     static_cast<uint64_t>(record.score * 1000.0));
      }
    }
    if (IsHot(record)) {
      ++hot;
    } else {
      record.hot = false;
      hot = hot_.erase(hot);
    }
  }
  return suspects;
}

CeeReportService::CoreEvidence CeeReportService::PeekEvidence(uint64_t core_global,
                                                              SimTime now) const {
  const auto it = core_records_.find(core_global);
  if (it == core_records_.end()) {
    return CoreEvidence{};
  }
  CoreRecord& record = it->second;
  CatchUp(record);
  // Decay out-of-line rather than via DecayTo: a peek must not move the record past the last
  // sweep, nor evict the memo's tick-sized entry with a probe-sized dt.
  double factor = 1.0;
  if (now > record.last_update) {
    factor = std::exp2(-(now - record.last_update).days() / options_.half_life_days);
  }
  return CoreEvidence{record.score * factor, record.direct_score * factor};
}

void CeeReportService::Forget(uint64_t core_global) { Erase(core_global); }

}  // namespace mercurial
