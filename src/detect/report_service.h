// The suspect-core report service (§6).
//
// "One of our particularly useful tools is a simple RPC service that allows an application to
// report a suspect core or CPU. Reports that are evenly spread across cores probably are not
// CEEs; reports from multiple applications that appear to be concentrated on a few cores might
// well be CEEs, and become grounds for quarantining those cores, followed by more careful
// checking."
//
// The service keeps exponentially-decayed per-core and per-machine report scores. A core is a
// suspect when (a) its decayed score passes a floor, and (b) the binomial tail probability of
// seeing that concentration under the uniform null hypothesis (reports land on the machine's
// cores uniformly, i.e. ordinary software bugs) is below a p-value threshold — recidivism
// raises the score, even spread keeps the p-value high.

#ifndef MERCURIAL_SRC_DETECT_REPORT_SERVICE_H_
#define MERCURIAL_SRC_DETECT_REPORT_SERVICE_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/common/sim_time.h"
#include "src/detect/signal.h"

namespace mercurial {

class TraceRecorder;

struct ReportServiceOptions {
  double half_life_days = 14.0;    // decay of report scores
  double min_score = 2.0;          // minimum decayed per-core score to even consider
  double p_value_threshold = 1e-3; // concentration test significance
  // Screening failures are direct, core-attributed evidence (the battery compared results
  // against golden on that very core); they bypass the concentration test once this much
  // decayed direct mass accumulates.
  double direct_evidence_threshold = 3.0;
};

// Evidence weight of one signal, by SignalType: a machine check or screen fail is stronger
// evidence than one crash.
inline constexpr double kSignalTypeWeight[kSignalTypeCount] = {1.0, 1.0, 1.0, 2.0, 1.5, 4.0};

// Every SignalType must carry an explicit weight in kSignalTypeWeight above: a new enumerator
// that silently picks up a zero (or clips the array) would corrupt every score. Extending
// SignalType must update the table, the name switch in report_service.cc, and this count —
// loudly, here, at compile time.
static_assert(kSignalTypeCount == 6,
              "SignalType changed: update kSignalTypeWeight, SignalTypeName(), and this assert");

struct SuspectCore {
  uint64_t core_global = 0;
  uint64_t machine = 0;
  double score = 0.0;     // decayed weighted report mass on this core
  double p_value = 1.0;   // concentration-test tail probability
};

// Core records whose decayed score falls below this at a sweep are noise and are dropped.
inline constexpr double kReportPruneBelow = 0.05;

// The service is lazy but exact. Every call returns, bit for bit, what an eager service returns
// that decays every core and machine record at every Suspects() sweep and drops each core
// record at the first sweep at which its score falls below kReportPruneBelow.
//
// - Hot set. A core record is hot while its score is >= min_score or its direct score is
//   >= direct_evidence_threshold at its last evaluation (its last report or sweep). Scores
//   only decay between reports, so a cold record cannot become a suspect before its next
//   report; Suspects() tests only the hot set, in ascending core order.
// - Replay. Every other record is brought up to date only when it is touched (Report, a hot
//   test, PeekEvidence), by replaying from the sweep log the decay steps the eager sweep would
//   have applied, in order, with the same factors, so every score keeps its bits.
// - Deaths. A min-heap holds, per core record, a time no later than the first sweep at which
//   its score could fall below the floor (from the closed-form decay, with a relative margin
//   far wider than the rounding of the replayed chain). Each sweep settles the records due:
//   dead ones are dropped at exactly the sweep the eager service would drop them, so
//   tracked_cores() always matches it, and the survivors get a later check.
//
// Not thread-safe: PeekEvidence brings the record it reads up to date in place, which
// changes no value any call returns.
class CeeReportService {
 public:
  // `cores_on_machine` maps a machine id to its core count (for the uniform null).
  CeeReportService(ReportServiceOptions options,
                   std::function<uint32_t(uint64_t)> cores_on_machine);

  void Report(const Signal& signal);

  // Cores whose concentration is significant at `now`, in ascending core order. Decays scores
  // and drops dead records as a side effect.
  std::vector<SuspectCore> Suspects(SimTime now);

  // Forgets a core's accumulated score (call after quarantining/clearing it, so stale mass
  // doesn't immediately re-trigger suspicion).
  void Forget(uint64_t core_global);

  // Decayed evidence snapshot for one core as of `now`: the adaptive screening allocator's
  // risk probe. Moves no record past the last sweep and leaves every later answer unchanged.
  // Returns zeros for untracked cores.
  struct CoreEvidence {
    double score = 0.0;         // decayed weighted mass of all signals
    double direct_score = 0.0;  // decayed screen-fail-only mass
  };
  CoreEvidence PeekEvidence(uint64_t core_global, SimTime now) const;

  // Incident flight recorder hook: when set, every core Suspects() names emits a
  // kSuspicionRaised event (cause = direct evidence vs concentration test). Suspects runs in
  // the serial phase only.
  void set_trace_recorder(TraceRecorder* recorder) { trace_ = recorder; }

  uint64_t total_reports() const { return total_reports_; }
  size_t tracked_cores() const { return core_records_.size(); }

 private:
  // Memo for the per-step decay factor exp2(-dt / half_life). Keyed on the exact dt in
  // seconds, so a hit returns bit-identical results to recomputing.
  struct Exp2Memo {
    int64_t dt_seconds = -1;
    double factor = 1.0;

    double Factor(SimTime dt, double half_life_days);
  };

  // One Suspects() call: its time, and the decay factor from the previous sweep's time (the
  // step every record that saw the previous sweep takes at this one).
  struct Sweep {
    SimTime time;
    double factor = 1.0;
  };

  struct CoreRecord {
    double score = 0.0;         // decayed weighted report mass
    double raw_count = 0.0;     // decayed unweighted count, for the binomial k
    double direct_score = 0.0;  // decayed weighted mass from direct-evidence signals
    SimTime last_update;
    uint64_t machine = 0;
    SimTime death_check;   // key of this record's live entry in deaths_
    uint32_t synced = 0;   // sweeps_ index of the first sweep not yet applied
    bool hot = false;      // member of hot_

    void Scale(double factor) {
      score *= factor;
      raw_count *= factor;
      direct_score *= factor;
    }
  };

  struct MachineRecord {
    uint64_t machine = 0;
    double score = 0.0;
    SimTime last_update;
    uint32_t synced = 0;

    void Scale(double factor) { score *= factor; }
  };

  struct DeathCheck {
    SimTime when;
    uint64_t core = 0;

    auto operator<=>(const DeathCheck&) const = default;
  };

  // Applies the sweeps `record` has not seen, exactly as the eager sweep applied them.
  template <class Record>
  void CatchUp(Record& record) const;
  template <class Record>
  void DecayTo(Record& record, SimTime now) const;
  bool IsHot(const CoreRecord& record) const;
  // Pushes `record`'s next death check, no earlier than `not_before`.
  void ScheduleDeathCheck(uint64_t core, CoreRecord& record, SimTime not_before);
  // Settles every death check due at the sweep at `now`.
  void DropDeadRecords(SimTime now);
  void Erase(uint64_t core);
  // Returns the record for `machine`, inserting it if absent.
  MachineRecord& MachineScore(uint64_t machine);

  ReportServiceOptions options_;
  std::function<uint32_t(uint64_t)> cores_on_machine_;
  // order-free: keyed lookups only; suspects come from hot_, deaths from deaths_.
  mutable std::unordered_map<uint64_t, CoreRecord> core_records_;
  // Machine records sorted by machine id, and the newest ones in arrival order until there
  // are enough to merge in one pass: inserting each into the sorted vector moves half of it.
  std::vector<MachineRecord> machine_records_;
  std::vector<MachineRecord> new_machine_records_;
  std::vector<Sweep> sweeps_;                   // every Suspects() call, in call order
  std::set<uint64_t> hot_;                      // hot cores, ascending
  std::priority_queue<DeathCheck, std::vector<DeathCheck>, std::greater<>> deaths_;
  uint64_t total_reports_ = 0;
  mutable Exp2Memo decay_memo_;
  TraceRecorder* trace_ = nullptr;
};

}  // namespace mercurial

#endif  // MERCURIAL_SRC_DETECT_REPORT_SERVICE_H_
