// Untrusted-interrogator quorum verdicts (§5, §6).
//
// The detection machinery is itself "distributed software running on the same unreliable
// fleet it screens": the core that judges a confession battery can miscount just like the
// core it interrogates. The paper reports that roughly half of human-identified suspects are
// false accusations — yet the legacy pipeline convicts on ONE ConfessionTester verdict with
// no appeal. Facebook's SDC-at-scale experience and SiliFuzz both resolve flaky verdicts by
// repeated, cross-machine corroboration; this layer does the same for ours.
//
// A QuorumInterrogator re-judges each interrogation battery with K witness cores drawn
// deterministically from the active fleet. Witnesses may themselves be mercurial — a witness
// with an active defect misreads the battery with `witness_error_rate`, and the chaos
// injector can flip a vote in flight (lying witness) or kill a witness mid-vote (no vote
// cast). Majority of cast votes decides; a split vote escalates to a wider quorum (size
// 2W + 1, exponential widening) up to `max_escalations` times before falling back to the
// legacy single-tester verdict. The winning margin — agreement — is the evidence strength the
// probation layer (control_plane.h) uses: a conviction carried by a thin majority enters
// probation instead of terminal retirement.
//
// Determinism contract: the interrogator owns a dedicated RNG stream split off the control
// plane's master with a fresh label. With `enabled == false` it makes no draws and judges
// nothing, so a quorum-off study is bit-identical to the legacy verdict path (property test
// P14 locks this). All judging runs in the fleet engine's serial phase.

#ifndef MERCURIAL_SRC_DETECT_QUORUM_H_
#define MERCURIAL_SRC_DETECT_QUORUM_H_

#include <cstdint>

#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/common/status.h"
#include "src/common/wire.h"
#include "src/detect/chaos.h"
#include "src/fleet/fleet.h"
#include "src/sched/scheduler.h"

namespace mercurial {

struct QuorumOptions {
  // Master switch. Off: the single tester's testimony is final (legacy, bit-identical).
  bool enabled = false;

  // Initial quorum size. Odd sizes cannot tie on a full vote; even sizes and crash-thinned
  // quorums can, and a tie is a split.
  int witnesses = 3;

  // Split votes escalate to a wider quorum (next size = 2 * current + 1) this many times
  // before the layer gives up and falls back to the single tester's verdict.
  int max_escalations = 2;

  // P(a witness that is itself mercurial — with an active defect — misreads the battery and
  // votes wrong). Healthy witnesses only err when the chaos injector flips their vote.
  double witness_error_rate = 0.25;

  // Agreement (winning votes / cast votes) at or above this is strong evidence; below it the
  // conviction is weak and eligible for probation. 1.0 = only unanimity convicts outright.
  double strong_agreement = 1.0;

  // Rejects zero/negative quorum sizes, negative escalation counts, and probabilities or
  // agreement thresholds outside [0, 1].
  Status Validate() const;
};

// Probation lifecycle for weak-evidence convictions (the appeal path the quorum's agreement
// metric feeds). A conviction with weak evidence — no confession at all, a thin witness
// majority, or a confession that took many attempts to reproduce — moves the core to
// restricted service (placements avoiding its confessed failed units) under shadow screening
// at an elevated cadence, instead of stranding it forever on one core's testimony.
struct ProbationOptions {
  // Master switch. Off: every conviction retires terminally (legacy, bit-identical).
  bool enabled = false;

  // Shadow-screen cadence: every `window`, a probation core runs one confession battery.
  SimTime window = SimTime::Days(7);

  // Clean windows before the core is reinstated (suspicion cleared, capacity recovered).
  int clean_windows_to_reinstate = 3;

  // Low-reproducibility criterion: a conviction whose confession needed more than this many
  // interrogation attempts is weak evidence even if the witnesses agreed. 0 disables.
  int weak_after_attempts = 0;

  // Rejects non-positive windows and zero/negative clean-window or attempt thresholds.
  Status Validate() const;
};

struct QuorumStats {
  uint64_t judgments = 0;     // batteries judged by a quorum
  uint64_t votes_cast = 0;    // witness votes actually cast (crashed witnesses excluded)
  uint64_t splits = 0;        // rounds that ended in a tie (or all witnesses crashed)
  uint64_t escalations = 0;   // wider quorums convened after a split
  uint64_t fallbacks = 0;     // judgments that fell back to the single tester's verdict
  uint64_t overrides = 0;     // judgments whose majority disagreed with the single tester

  bool operator==(const QuorumStats&) const = default;
};

// One battery's quorum outcome.
struct QuorumVerdict {
  bool confessed = false;   // the quorum's (or fallback tester's) view of the battery
  int votes_for = 0;        // votes agreeing with `confessed`, final decisive round
  int votes_against = 0;    // votes disagreeing, final decisive round
  int escalations = 0;      // wider quorums convened before the decision
  bool fell_back = false;   // no majority ever formed; the single tester decided
  double agreement = 1.0;   // votes_for / cast votes in the decisive round (0.5 on fallback)
};

// Packs a verdict into a TraceEvent::detail payload (and back, for the CLI's annotations):
// votes_for | votes_against << 8 | escalations << 16 | fell_back << 24 | confessed << 25.
uint64_t PackQuorumDetail(const QuorumVerdict& verdict);
QuorumVerdict UnpackQuorumDetail(uint64_t detail);

// Field list of a QuorumStats block (wire.h), shared by the interrogator's durable state and
// the control plane's copy of it.
template <class S, class Io>
void WireQuorumStats(S& s, Io& io) {
  io.U64(s.judgments, s.votes_cast, s.splits, s.escalations, s.fallbacks, s.overrides);
}

class QuorumInterrogator {
 public:
  // `rng` must be a dedicated stream; it is only ever drawn from while judging.
  QuorumInterrogator(QuorumOptions options, Rng rng);

  bool enabled() const { return options_.enabled; }
  const QuorumOptions& options() const { return options_; }
  const QuorumStats& stats() const { return stats_; }

  // Judges one completed battery whose single-tester outcome was `tester_confessed`.
  // Witnesses are drawn from the fleet's active cores (the suspect itself is excluded);
  // `chaos` supplies the lying-witness / witness-crash faults. Call only when enabled().
  QuorumVerdict Judge(uint64_t suspect, bool tester_confessed, const Fleet& fleet,
                      const CoreScheduler& scheduler, ChaosInjector& chaos);

  // Durable-state round trip for the write-ahead journal (src/durability): the witness-draw
  // RNG cursor and the judgment counters. Options are reconstructed, not persisted.
  void SaveDurableState(ByteWriter& w) const;
  Status LoadDurableState(ByteReader& r);

 private:
  // One voting round with `quorum_size` witnesses. Returns true if a majority formed.
  bool RunRound(uint64_t suspect, bool tester_confessed, int quorum_size, const Fleet& fleet,
                const CoreScheduler& scheduler, ChaosInjector& chaos, QuorumVerdict* verdict);
  template <class S, class Io>
  static void Wire(S& s, Io& io);

  QuorumOptions options_;
  Rng rng_;
  QuorumStats stats_;
};

}  // namespace mercurial

#endif  // MERCURIAL_SRC_DETECT_QUORUM_H_
