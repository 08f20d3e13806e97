// Quarantine verdict vocabulary (§6, §6.1): the policy, the verdict counters and one verdict.
//
// A suspect core (from the report service or screening failures) is drained and quarantined,
// interrogated with a ConfessionTester, and either retired (confession) or released (no
// confession: false accusation OR limited reproducibility). The counters track the tradeoff
// the paper emphasizes: false negatives / delayed positives cause corruption, false positives
// strand capacity, and detection itself costs cycles. QuarantineControlPlane
// (control_plane.h) runs that pipeline and keeps these books.

#ifndef MERCURIAL_SRC_DETECT_QUARANTINE_H_
#define MERCURIAL_SRC_DETECT_QUARANTINE_H_

#include <cstdint>
#include <vector>

#include "src/detect/confession.h"

namespace mercurial {

struct QuarantinePolicy {
  ConfessionOptions confession;
  // If false, suspects are retired on suspicion alone (aggressive isolation: zero interrogation
  // cost, maximal false-positive stranding). Ablation knob for E8.
  bool require_confession = true;
  // A released (non-confessing) core must be re-accused this many times before it is retired
  // anyway ("recidivism ... increases our confidence", §6). 0 disables.
  int recidivism_retire_after = 3;
};

// Counter semantics:
//   suspects_processed       distinct cores that entered the quarantine pipeline at least
//                            once. A core released and later re-accused is NOT counted again
//                            (each re-accusation lands in `accusations` instead; earlier
//                            versions double-counted recidivists here). Reinstatement wipes a
//                            core's slate, so a reinstated core accused afresh counts anew.
//   accusations              total accusation events, including re-accusations of released
//                            cores. A retry of an in-flight interrogation (control plane) is
//                            not a new accusation.
//   confessions              interrogations that ended in a confession.
//   releases                 verdicts returning the core to service (false accusation or
//                            limited reproducibility), including guardrail-forced releases.
//   retirements              permanent removals: confessions + recidivism retirements +
//                            suspicion-only retirements (require_confession = false) +
//                            probation escalations.
//   recidivism_retirements   subset of retirements forced by the re-accusation threshold.
//   probation_entries        weak-evidence convictions diverted to restricted service instead
//                            of terminal retirement (control_plane.h probation lifecycle).
//   probation_escalations    subset of retirements reached by escalating a probation core
//                            (new signal or shadow-screen confession during probation).
//   reinstatements           probation cores cleared after N clean windows: suspicion reset,
//                            stranded capacity recovered. Not a release — the core was never
//                            waiting on a verdict when cleared.
//   interrogation_ops        micro-ops charged to confession batteries (aborted runs included,
//                            pro-rated).
// Ground-truth counters (metrics only, detection code never reads them):
//   true_positive_retirements / false_positive_retirements / missed_confessions.
struct QuarantineStats {
  uint64_t suspects_processed = 0;
  uint64_t accusations = 0;
  uint64_t confessions = 0;
  uint64_t releases = 0;
  uint64_t retirements = 0;
  uint64_t recidivism_retirements = 0;
  uint64_t probation_entries = 0;
  uint64_t probation_escalations = 0;
  uint64_t reinstatements = 0;
  uint64_t interrogation_ops = 0;
  uint64_t true_positive_retirements = 0;   // retired cores that really were mercurial
  uint64_t false_positive_retirements = 0;  // retired healthy cores
  uint64_t missed_confessions = 0;  // truly mercurial suspects that did not confess

  bool operator==(const QuarantineStats&) const = default;
};

// Field list of a QuarantineStats block (wire.h).
template <class S, class Io>
void WireQuarantineStats(S& s, Io& io) {
  io.U64(s.suspects_processed, s.accusations, s.confessions, s.releases, s.retirements,
         s.recidivism_retirements, s.probation_entries, s.probation_escalations,
         s.reinstatements, s.interrogation_ops, s.true_positive_retirements,
         s.false_positive_retirements, s.missed_confessions);
}

struct QuarantineVerdict {
  uint64_t core_global = 0;
  bool confessed = false;
  bool retired = false;
  std::vector<ExecUnit> failed_units;
};

}  // namespace mercurial

#endif  // MERCURIAL_SRC_DETECT_QUARANTINE_H_
