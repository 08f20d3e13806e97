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

class CeeReportService {
 public:
  // `cores_on_machine` maps a machine id to its core count (for the uniform null).
  CeeReportService(ReportServiceOptions options,
                   std::function<uint32_t(uint64_t)> cores_on_machine);

  void Report(const Signal& signal);

  // Cores whose concentration is significant at `now`. Decays scores as a side effect.
  std::vector<SuspectCore> Suspects(SimTime now);

  // Forgets a core's accumulated score (call after quarantining/clearing it, so stale mass
  // doesn't immediately re-trigger suspicion).
  void Forget(uint64_t core_global);

  // Decayed evidence snapshot for one core as of `now`, without mutating the record (no
  // last_update advance, no decay-memo write): the adaptive screening allocator's risk probe.
  // Returns zeros for untracked cores. Read-only and cheap — one hash lookup plus one exp2.
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
  // Memo for the per-step decay factor exp2(-dt / half_life). The per-tick sweep in
  // Suspects() brings every record to a common last_update, so from the second sweep on
  // every decay step is exactly one tick — the same exp2 input over and over. Keyed on the
  // exact dt in seconds, so a hit returns bit-identical results to recomputing.
  struct Exp2Memo {
    int64_t dt_seconds = -1;
    double factor = 1.0;

    double Factor(SimTime dt, double half_life_days);
  };

  struct DecayedScore {
    double score = 0.0;
    SimTime last_update;

    void DecayTo(SimTime now, double half_life_days, Exp2Memo& memo);
  };

  struct CoreRecord {
    double score = 0.0;         // decayed weighted report mass
    double raw_count = 0.0;     // decayed unweighted count, for the binomial k
    double direct_score = 0.0;  // decayed weighted mass from direct-evidence signals
    SimTime last_update;
    uint64_t machine = 0;

    void DecayTo(SimTime now, double half_life_days, Exp2Memo& memo);
  };

  // Machine records live in a flat vector sorted by machine id: Suspects() decays every
  // machine record every tick, and a contiguous sweep beats node-hopping a map. Nothing
  // observable depends on this container's iteration order (decay is per-record independent
  // and lookups are keyed), unlike core_records_, whose iteration order fixes the suspect
  // emission order and is pinned by the golden traces.
  struct MachineRecord {
    uint64_t machine = 0;
    DecayedScore score;
  };
  // Returns the record for `machine`, inserting (sorted) if absent.
  DecayedScore& MachineScore(uint64_t machine);

  ReportServiceOptions options_;
  std::function<uint32_t(uint64_t)> cores_on_machine_;
  std::unordered_map<uint64_t, CoreRecord> core_records_;
  std::vector<MachineRecord> machine_records_;  // sorted by machine id
  uint64_t total_reports_ = 0;
  Exp2Memo decay_memo_;
  TraceRecorder* trace_ = nullptr;
};

}  // namespace mercurial

#endif  // MERCURIAL_SRC_DETECT_REPORT_SERVICE_H_
