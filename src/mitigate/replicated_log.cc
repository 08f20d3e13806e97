#include "src/mitigate/replicated_log.h"

#include <unordered_map>

#include "src/common/logging.h"
#include "src/common/rng.h"

namespace mercurial {

ReplicatedLog::ReplicatedLog(std::vector<SimCore*> replica_cores, uint64_t initial_state)
    : cores_(std::move(replica_cores)),
      states_(cores_.size(), initial_state),
      agreed_state_(initial_state) {
  MERCURIAL_CHECK_GE(cores_.size(), 3u);
  for (SimCore* core : cores_) {
    MERCURIAL_CHECK(core != nullptr);
  }
}

uint64_t ReplicatedLog::ApplyAt(size_t replica, uint64_t command) {
  // The update logic: a short mixing pipeline of ALU/MUL ops — enough rounds that a single
  // corrupted op changes the digest.
  SimCore& core = *cores_[replica];
  uint64_t state = states_[replica];
  state = core.Alu(AluOp::kXor, state, command);
  state = core.Mul(state, 0x9e3779b97f4a7c15ull | 1);
  state = core.Alu(AluOp::kRotl, state, 29);
  state = core.Alu(AluOp::kAdd, state, command);
  state = core.Mul(state, 0xbf58476d1ce4e5b9ull | 1);
  state = core.Alu(AluOp::kXor, state, core.Alu(AluOp::kShr, state, 31));
  return state;
}

StatusOr<uint64_t> ReplicatedLog::Apply(uint64_t command) {
  ++stats_.updates_applied;
  last_divergent_replica_ = -1;
  for (size_t r = 0; r < cores_.size(); ++r) {
    states_[r] = ApplyAt(r, command);
  }

  // Majority digest.
  // order-free: only a strict majority is acted on, and at most one state can hold one.
  std::unordered_map<uint64_t, int> votes;
  for (uint64_t state : states_) {
    ++votes[state];
  }
  uint64_t majority_state = 0;
  int best = 0;
  for (const auto& [state, count] : votes) {
    if (count > best) {
      best = count;
      majority_state = state;
    }
  }
  if (best <= static_cast<int>(cores_.size()) / 2) {
    ++stats_.unresolved;
    // No majority: more than one replica diverged, so there is no trusted reference and no
    // repair — but the evidence must not be dropped on the floor. Every replica is filed as
    // a suspect (each digest group is a minority); the concentration test downstream is what
    // separates the truly defective core from the healthy ones swept up with it.
    if (reporter_) {
      for (size_t r = 0; r < cores_.size(); ++r) {
        reporter_(r, cores_[r]->id());
      }
    }
    return AbortedError("replicated log: no majority digest");
  }

  // Repair divergent minority replicas from the majority.
  for (size_t r = 0; r < cores_.size(); ++r) {
    if (states_[r] != majority_state) {
      ++stats_.divergences_detected;
      ++stats_.repairs;
      last_divergent_replica_ = static_cast<int>(r);
      states_[r] = majority_state;
      if (reporter_) {
        reporter_(r, cores_[r]->id());
      }
    }
  }
  agreed_state_ = majority_state;
  return majority_state;
}

}  // namespace mercurial
