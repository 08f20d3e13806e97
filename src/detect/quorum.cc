#include "src/detect/quorum.h"

#include <algorithm>

namespace mercurial {

Status QuorumOptions::Validate() const {
  if (witnesses < 1) {
    return InvalidArgumentError("quorum witnesses must be >= 1");
  }
  if (max_escalations < 0) {
    return InvalidArgumentError("quorum max_escalations must be >= 0");
  }
  if (Status s = CheckProbability(witness_error_rate, "quorum witness_error_rate"); !s.ok()) {
    return s;
  }
  if (Status s = CheckProbability(strong_agreement, "quorum strong_agreement"); !s.ok()) {
    return s;
  }
  return Status::Ok();
}

Status ProbationOptions::Validate() const {
  if (window.seconds() <= 0) {
    return InvalidArgumentError("probation window must be positive");
  }
  if (clean_windows_to_reinstate < 1) {
    return InvalidArgumentError("probation clean_windows_to_reinstate must be >= 1");
  }
  if (weak_after_attempts < 0) {
    return InvalidArgumentError("probation weak_after_attempts must be >= 0");
  }
  return Status::Ok();
}

uint64_t PackQuorumDetail(const QuorumVerdict& verdict) {
  const uint64_t votes_for = static_cast<uint64_t>(std::clamp(verdict.votes_for, 0, 255));
  const uint64_t votes_against =
      static_cast<uint64_t>(std::clamp(verdict.votes_against, 0, 255));
  const uint64_t escalations = static_cast<uint64_t>(std::clamp(verdict.escalations, 0, 255));
  return votes_for | votes_against << 8 | escalations << 16 |
         (verdict.fell_back ? uint64_t{1} << 24 : 0) |
         (verdict.confessed ? uint64_t{1} << 25 : 0);
}

QuorumVerdict UnpackQuorumDetail(uint64_t detail) {
  QuorumVerdict verdict;
  verdict.votes_for = static_cast<int>(detail & 0xff);
  verdict.votes_against = static_cast<int>(detail >> 8 & 0xff);
  verdict.escalations = static_cast<int>(detail >> 16 & 0xff);
  verdict.fell_back = (detail >> 24 & 1) != 0;
  verdict.confessed = (detail >> 25 & 1) != 0;
  const int cast = verdict.votes_for + verdict.votes_against;
  verdict.agreement =
      cast > 0 ? static_cast<double>(verdict.votes_for) / static_cast<double>(cast) : 0.5;
  return verdict;
}

QuorumInterrogator::QuorumInterrogator(QuorumOptions options, Rng rng)
    : options_(options), rng_(rng) {}

bool QuorumInterrogator::RunRound(uint64_t suspect, bool tester_confessed, int quorum_size,
                                  const Fleet& fleet, const CoreScheduler& scheduler,
                                  ChaosInjector& chaos, QuorumVerdict* verdict) {
  const uint64_t core_count = fleet.core_count();
  int votes_confessed = 0;
  int votes_clean = 0;
  int seated = 0;
  // Witnesses are drawn uniformly from the fleet with rejection of the suspect and of cores
  // not currently schedulable (a retired or quarantined core cannot serve). The draw budget
  // bounds the rejection loop so a mostly-isolated fleet cannot wedge the verdict path; an
  // under-seated bench simply casts fewer votes, like a crash-thinned one.
  const int draw_budget = quorum_size * 16;
  for (int draw = 0; draw < draw_budget && seated < quorum_size; ++draw) {
    const uint64_t witness = rng_.UniformInt(0, core_count - 1);
    if (witness == suspect || !scheduler.Schedulable(witness)) {
      continue;
    }
    ++seated;
    if (chaos.WitnessCrash()) {
      continue;  // died mid-battery: no vote cast
    }
    // A faithful witness reports what the battery showed. A witness that is itself mercurial
    // (active defect) misreads it with witness_error_rate; chaos can flip any cast vote.
    bool vote = tester_confessed;
    if (fleet.IsMercurial(witness) && fleet.core(witness).AnyDefectActive() &&
        options_.witness_error_rate > 0.0 && rng_.Bernoulli(options_.witness_error_rate)) {
      vote = !vote;
    }
    if (chaos.LyingWitness()) {
      vote = !vote;
    }
    ++stats_.votes_cast;
    (vote ? votes_confessed : votes_clean) += 1;
  }
  if (votes_confessed == votes_clean) {
    return false;  // tie — or every witness crashed / none could be seated
  }
  verdict->confessed = votes_confessed > votes_clean;
  verdict->votes_for = std::max(votes_confessed, votes_clean);
  verdict->votes_against = std::min(votes_confessed, votes_clean);
  verdict->agreement = static_cast<double>(verdict->votes_for) /
                       static_cast<double>(verdict->votes_for + verdict->votes_against);
  return true;
}

QuorumVerdict QuorumInterrogator::Judge(uint64_t suspect, bool tester_confessed,
                                        const Fleet& fleet, const CoreScheduler& scheduler,
                                        ChaosInjector& chaos) {
  ++stats_.judgments;
  QuorumVerdict verdict;
  int quorum_size = options_.witnesses;
  for (int round = 0; round <= options_.max_escalations; ++round) {
    if (RunRound(suspect, tester_confessed, quorum_size, fleet, scheduler, chaos, &verdict)) {
      verdict.escalations = round;
      if (verdict.confessed != tester_confessed) {
        ++stats_.overrides;
      }
      return verdict;
    }
    ++stats_.splits;
    if (round < options_.max_escalations) {
      ++stats_.escalations;
      quorum_size = 2 * quorum_size + 1;  // exponential widening, always odd
    }
  }
  // No majority ever formed: the legacy single tester's testimony stands, flagged as weak.
  ++stats_.fallbacks;
  verdict.confessed = tester_confessed;
  verdict.votes_for = 0;
  verdict.votes_against = 0;
  verdict.escalations = options_.max_escalations;
  verdict.fell_back = true;
  verdict.agreement = 0.5;
  return verdict;
}

template <class S, class Io>
void QuorumInterrogator::Wire(S& s, Io& io) {
  io.RngCursor(s.rng_);
  WireQuorumStats(s.stats_, io);
}

void QuorumInterrogator::SaveDurableState(ByteWriter& w) const {
  WireOut out(w);
  Wire(*this, out);
}

Status QuorumInterrogator::LoadDurableState(ByteReader& r) {
  return WireLoad(r, *this, [](QuorumInterrogator& q, WireIn& in) { Wire(q, in); });
}

}  // namespace mercurial
