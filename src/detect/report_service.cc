#include "src/detect/report_service.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/common/stats.h"
#include "src/telemetry/trace.h"

namespace mercurial {
namespace {

// Core records whose decayed score falls below this are noise and are dropped.
constexpr double kPruneBelow = 0.05;

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

void CeeReportService::DecayedScore::DecayTo(SimTime now, double half_life_days,
                                             Exp2Memo& memo) {
  if (now <= last_update) {
    return;
  }
  score *= memo.Factor(now - last_update, half_life_days);
  last_update = now;
}

void CeeReportService::CoreRecord::DecayTo(SimTime now, double half_life_days,
                                           Exp2Memo& memo) {
  if (now <= last_update) {
    return;
  }
  const double factor = memo.Factor(now - last_update, half_life_days);
  score *= factor;
  raw_count *= factor;
  direct_score *= factor;
  last_update = now;
}

CeeReportService::CeeReportService(ReportServiceOptions options,
                                   std::function<uint32_t(uint64_t)> cores_on_machine)
    : options_(options), cores_on_machine_(std::move(cores_on_machine)) {
  MERCURIAL_CHECK(cores_on_machine_ != nullptr);
}

void CeeReportService::Report(const Signal& signal) {
  ++total_reports_;
  const double weight = kSignalTypeWeight[static_cast<int>(signal.type)];

  CoreRecord& core = core_records_[signal.core_global];
  core.machine = signal.machine;
  core.DecayTo(signal.time, options_.half_life_days, decay_memo_);
  core.score += weight;
  core.raw_count += 1.0;
  if (signal.type == SignalType::kScreenFail) {
    core.direct_score += weight;
  }

  DecayedScore& machine = MachineScore(signal.machine);
  machine.DecayTo(signal.time, options_.half_life_days, decay_memo_);
  machine.score += 1.0;
}

CeeReportService::DecayedScore& CeeReportService::MachineScore(uint64_t machine) {
  const auto it = std::lower_bound(
      machine_records_.begin(), machine_records_.end(), machine,
      [](const MachineRecord& record, uint64_t id) { return record.machine < id; });
  if (it != machine_records_.end() && it->machine == machine) {
    return it->score;
  }
  return machine_records_.insert(it, MachineRecord{machine, DecayedScore{}})->score;
}

std::vector<SuspectCore> CeeReportService::Suspects(SimTime now) {
  std::vector<SuspectCore> suspects;
  // Decay machine records first so the binomial n is current (contiguous sweep).
  for (MachineRecord& record : machine_records_) {
    record.score.DecayTo(now, options_.half_life_days, decay_memo_);
  }
  for (auto it = core_records_.begin(); it != core_records_.end();) {
    CoreRecord& record = it->second;
    record.DecayTo(now, options_.half_life_days, decay_memo_);
    if (record.score < kPruneBelow) {
      it = core_records_.erase(it);
      continue;
    }
    if (record.direct_score >= options_.direct_evidence_threshold) {
      suspects.push_back(SuspectCore{it->first, record.machine, record.score, 0.0});
      if (trace_ != nullptr) {
        trace_->Emit(it->first, TraceEventKind::kSuspicionRaised, TraceCause::kDirectEvidence,
                     static_cast<uint64_t>(record.score * 1000.0));
      }
      ++it;
      continue;
    }
    if (record.score >= options_.min_score) {
      const uint32_t core_count = cores_on_machine_(record.machine);
      MERCURIAL_CHECK_GT(core_count, 0u);
      if (core_count == 1) {
        // Degenerate null: on a single-core machine every report lands on the only core with
        // probability 1, so BinomialUpperTail(k, n, 1/1) == 1 and concentration can never be
        // significant — which is correct (there is no spread to distinguish a CEE from a
        // software bug), not a bug to paper over. Such cores are convictable only via the
        // direct-evidence bypass above (screen fails are core-attributed). Skip explicitly
        // instead of grinding through a test that cannot fire.
        ++it;
        continue;
      }
      const auto machine_it = std::lower_bound(
          machine_records_.begin(), machine_records_.end(), record.machine,
          [](const MachineRecord& rec, uint64_t id) { return rec.machine < id; });
      const double machine_mass =
          machine_it != machine_records_.end() && machine_it->machine == record.machine
              ? machine_it->score.score
              : 0.0;
      // Null hypothesis: the machine's reports are spread uniformly over its cores.
      const auto k = static_cast<uint64_t>(std::lround(std::max(record.raw_count, 1.0)));
      const auto n = static_cast<uint64_t>(
          std::lround(std::max(machine_mass, static_cast<double>(k))));
      const double p_value = BinomialUpperTail(k, n, 1.0 / core_count);
      if (p_value < options_.p_value_threshold) {
        suspects.push_back(SuspectCore{it->first, record.machine, record.score, p_value});
        if (trace_ != nullptr) {
          trace_->Emit(it->first, TraceEventKind::kSuspicionRaised, TraceCause::kConcentration,
                       static_cast<uint64_t>(record.score * 1000.0));
        }
      }
    }
    ++it;
  }
  return suspects;
}

CeeReportService::CoreEvidence CeeReportService::PeekEvidence(uint64_t core_global,
                                                              SimTime now) const {
  const auto it = core_records_.find(core_global);
  if (it == core_records_.end()) {
    return CoreEvidence{};
  }
  const CoreRecord& record = it->second;
  // Decay out-of-line rather than via DecayTo: this is a const peek, and it must not touch
  // the shared memo either (a probe-sized dt would evict the tick-sized entry the Suspects
  // sweep relies on).
  double factor = 1.0;
  if (now > record.last_update) {
    factor = std::exp2(-(now - record.last_update).days() / options_.half_life_days);
  }
  return CoreEvidence{record.score * factor, record.direct_score * factor};
}

void CeeReportService::Forget(uint64_t core_global) { core_records_.erase(core_global); }

}  // namespace mercurial
