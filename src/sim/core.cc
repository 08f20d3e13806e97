#include "src/sim/core.h"

#include <atomic>
#include <cstring>

#include "src/common/logging.h"
#include "src/substrate/checksum.h"
#include "src/telemetry/trace.h"

namespace mercurial {
namespace {

// The admit filter of a defect-gate walk that lets every defect on the unit draw.
constexpr auto kAdmitAll = [](DefectEffect) { return true; };

// The admit filter of byte-result ops: only effects that rewrite result bytes take part, so a
// behavioural defect (an rcon or CAS effect) whose opcode mask admits the op never draws,
// counts a corruption or escalates on it.
constexpr auto kAdmitByteEffects = [](DefectEffect effect) {
  switch (effect) {
    case DefectEffect::kBitFlip:
    case DefectEffect::kStuckSet:
    case DefectEffect::kStuckClear:
    case DefectEffect::kDeterministicWrong:
    case DefectEffect::kRandomWrong:
      return true;
    case DefectEffect::kCasDropStore:
    case DefectEffect::kCasPhantomStore:
    case DefectEffect::kRconCorrupt:
      return false;
  }
  return false;
};

std::atomic<bool> g_dispatch_fast_path{true};

}  // namespace

void SetDispatchFastPath(bool enabled) {
  g_dispatch_fast_path.store(enabled, std::memory_order_relaxed);
}

bool DispatchFastPathEnabled() {
  return g_dispatch_fast_path.load(std::memory_order_relaxed);
}

const char* ExecUnitName(ExecUnit unit) {
  switch (unit) {
    case ExecUnit::kIntAlu:
      return "int_alu";
    case ExecUnit::kIntMul:
      return "int_mul";
    case ExecUnit::kIntDiv:
      return "int_div";
    case ExecUnit::kLoad:
      return "load";
    case ExecUnit::kStore:
      return "store";
    case ExecUnit::kVector:
      return "vector";
    case ExecUnit::kAes:
      return "aes";
    case ExecUnit::kCrc:
      return "crc";
    case ExecUnit::kCopy:
      return "copy";
    case ExecUnit::kAtomic:
      return "atomic";
    case ExecUnit::kFp:
      return "fp";
  }
  return "unknown";
}

uint64_t CoreCounters::TotalOps() const {
  uint64_t total = 0;
  for (uint64_t n : ops_per_unit) {
    total += n;
  }
  return total;
}

SimCore::SimCore(uint64_t id, Rng rng)
    : id_(id), rng_(rng), fast_path_(DispatchFastPathEnabled()) {}

void SimCore::AddDefect(DefectSpec spec) {
  const auto unit_index = static_cast<size_t>(spec.unit);
  MERCURIAL_CHECK_LT(unit_index, static_cast<size_t>(kExecUnitCount));
  defects_.emplace_back(std::move(spec));
  defects_by_unit_[unit_index].push_back(static_cast<uint16_t>(defects_.size() - 1));
  ++env_revision_;  // the armed lists must pick up the new defect
}

bool SimCore::AnyDefectActive() const {
  const Environment env = CurrentEnvironment();
  for (const Defect& defect : defects_) {
    if (defect.Active(env)) {
      return true;
    }
  }
  return false;
}

SimTime SimCore::EarliestDefectOnset() const {
  MERCURIAL_CHECK(!defects_.empty());
  SimTime earliest = defects_.front().spec().aging.onset;
  for (const Defect& defect : defects_) {
    earliest = std::min(earliest, defect.spec().aging.onset);
  }
  return earliest;
}

double SimCore::UnitFireProbability(ExecUnit unit) const {
  const Environment env = CurrentEnvironment();
  double max_p = 0.0;
  for (uint16_t index : defects_by_unit_[static_cast<size_t>(unit)]) {
    max_p = std::max(max_p, defects_[index].FireProbability(env));
  }
  return max_p;
}

Environment SimCore::CurrentEnvironment() const {
  Environment env;
  env.point = point_;
  env.voltage = voltage();
  env.age_years = age_.years();
  return env;
}

void SimCore::RearmDefects() {
  const Environment env = CurrentEnvironment();
  for (auto& unit_list : armed_) {
    unit_list.clear();  // keeps capacity; re-arming is per environment change, not per op
  }
  for (size_t i = 0; i < defects_.size(); ++i) {
    const DefectSpec& spec = defects_[i].spec();
    // A gate that can never pass consumes zero draws on the reference path too (ShouldFire
    // short-circuits before Bernoulli), so dropping the defect here is stream-neutral.
    if (spec.opcode_mask == 0) {
      continue;  // matches no opcode
    }
    if ((spec.trigger.value & ~spec.trigger.mask) != 0) {
      continue;  // unsatisfiable data trigger: (sig & mask) can never equal value
    }
    const double p = defects_[i].FireProbability(env);
    if (p <= 0.0) {
      continue;  // inactive (pre-onset) or zero-rate in this environment
    }
    ArmedDefect armed;
    armed.opcode_mask = spec.opcode_mask;
    armed.trigger = spec.trigger;
    armed.probability = p;
    armed.effect = spec.effect;
    armed.index = static_cast<uint16_t>(i);
    armed_[static_cast<size_t>(spec.unit)].push_back(armed);
  }
  armed_revision_ = env_revision_;
}

const std::vector<SimCore::ArmedDefect>& SimCore::ArmedForUnit(ExecUnit unit) {
  if (armed_revision_ != env_revision_) {
    RearmDefects();
  }
  return armed_[static_cast<size_t>(unit)];
}

void SimCore::TraceFire(ExecUnit unit, bool machine_check) {
  if (trace_ != nullptr) {
    trace_->Emit(id_, TraceEventKind::kDefectFired,
                 machine_check ? TraceCause::kMachineCheck : TraceCause::kCorruption,
                 static_cast<uint64_t>(unit));
  }
}

template <class Admit, class Fire>
void SimCore::ForEachFiring(const OpInfo& op, Admit admit, Fire fire) {
  if (fast_path_) {
    // Armed-list iteration draws from rng_ in exactly the reference order: armed defects keep
    // defects_ order, excluded defects never drew, and the cached probability is the same
    // double ShouldFire would recompute.
    for (const ArmedDefect& armed : ArmedForUnit(op.unit)) {
      if (admit(armed.effect) && (armed.opcode_mask & (1ull << op.opcode)) != 0 &&
          armed.trigger.Matches(op.operand_signature) && rng_.Bernoulli(armed.probability) &&
          !fire(armed.index)) {
        return;
      }
    }
    return;
  }
  const Environment env = CurrentEnvironment();
  for (uint16_t index : defects_by_unit_[static_cast<size_t>(op.unit)]) {
    const Defect& defect = defects_[index];
    if (admit(defect.spec().effect) && defect.ShouldFire(op, env, rng_) && !fire(index)) {
      return;
    }
  }
}

void SimCore::DispatchDefective(const OpInfo& op, uint8_t* result, size_t size) {
  ForEachFiring(op, kAdmitByteEffects, [&](uint16_t index) {
    const Defect& defect = defects_[index];
    const double escalate = defect.spec().machine_check_fraction;
    if (escalate > 0.0 && rng_.Bernoulli(escalate)) {
      pending_machine_check_ = true;
      ++counters_.machine_checks;
      TraceFire(op.unit, /*machine_check=*/true);
      return true;
    }
    defect.CorruptBytes(op, result, size, rng_);
    ++counters_.corruptions;
    TraceFire(op.unit, /*machine_check=*/false);
    return true;
  });
}

AesBlock SimCore::AesEnc(const AesBlock& state, const AesBlock& round_key, bool last) {
  AesBlock result = AesEncRound(state, round_key, last);
  uint64_t sig;
  std::memcpy(&sig, state.data(), 8);
  Dispatch({ExecUnit::kAes, kAesOpEncRound, sig}, result.data(), result.size());
  return result;
}

AesBlock SimCore::AesDec(const AesBlock& state, const AesBlock& round_key, bool last) {
  AesBlock result = AesDecRound(state, round_key, last);
  uint64_t sig;
  std::memcpy(&sig, state.data(), 8);
  Dispatch({ExecUnit::kAes, kAesOpDecRound, sig}, result.data(), result.size());
  return result;
}

uint8_t SimCore::AesRcon(int round) {
  uint8_t rcon = StandardAesRcon(round);
  ++counters_.ops_per_unit[static_cast<size_t>(ExecUnit::kAes)];
  if (defects_by_unit_[static_cast<size_t>(ExecUnit::kAes)].empty()) {
    return rcon;
  }
  // Only rcon defects take part: the others never draw on rcon ops.
  ForEachFiring(
      {ExecUnit::kAes, kAesOpRcon, static_cast<uint64_t>(round)},
      [](DefectEffect effect) { return effect == DefectEffect::kRconCorrupt; },
      [&](uint16_t index) {
        rcon = defects_[index].CorruptRcon(rcon);
        ++counters_.corruptions;
        TraceFire(ExecUnit::kAes, /*machine_check=*/false);
        return true;
      });
  return rcon;
}

AesKeySchedule SimCore::ExpandKey(const uint8_t key[kAesKeyBytes]) {
  // Rounds 1..10 issue in the order key expansion consumes them, so the draws, counters and
  // kDefectFired events match an expansion that computed each constant when it needed it.
  AesRconArray rcon{};
  for (int round = 1; round <= kAesRounds; ++round) {
    rcon[round - 1] = AesRcon(round);
  }
  return ExpandAesKey(key, rcon);
}

uint32_t SimCore::Crc32Block(uint32_t crc, const uint8_t* data, size_t n) {
  uint32_t result = Crc32Extend(crc, data, n);
  uint64_t sig = n == 0 ? 0 : Signature(data[0], n);
  Dispatch({ExecUnit::kCrc, kCrcOpBlock, sig}, reinterpret_cast<uint8_t*>(&result),
           sizeof(result));
  return result;
}

void SimCore::Copy(uint8_t* dst, const uint8_t* src, size_t n) {
  counters_.ops_per_unit[static_cast<size_t>(ExecUnit::kCopy)] += (n + 7) / 8;
  if (defects_by_unit_[static_cast<size_t>(ExecUnit::kCopy)].empty()) {
    std::memmove(dst, src, n);
    return;
  }
  // Each 8-byte chunk is one op through the byte-result effect.
  for (size_t offset = 0; offset < n; offset += 8) {
    const size_t chunk = std::min<size_t>(8, n - offset);
    uint8_t buffer[8];
    std::memcpy(buffer, src + offset, chunk);
    uint64_t sig = 0;
    std::memcpy(&sig, buffer, chunk);
    DispatchDefective({ExecUnit::kCopy, kCopyOpChunk, sig}, buffer, chunk);
    std::memcpy(dst + offset, buffer, chunk);
  }
}

bool SimCore::Cas(uint64_t& target, uint64_t expected, uint64_t desired) {
  ++counters_.ops_per_unit[static_cast<size_t>(ExecUnit::kAtomic)];
  const bool would_succeed = target == expected;
  // A lock-semantics violation never changes the reported outcome, only whether the store
  // lands: a drop-store loses the store of a successful compare, a phantom store writes
  // despite a failed one. The first violating defect ends the walk.
  bool violated = false;
  if (!defects_by_unit_[static_cast<size_t>(ExecUnit::kAtomic)].empty()) {
    // Every defect on the unit draws when its gate passes, even when its effect then turns out
    // not to apply to this CAS outcome.
    ForEachFiring({ExecUnit::kAtomic, kAtomicOpCas, Signature(expected, desired)}, kAdmitAll,
                  [&](uint16_t index) {
                    const DefectEffect effect = defects_[index].spec().effect;
                    violated = (effect == DefectEffect::kCasDropStore && would_succeed) ||
                               (effect == DefectEffect::kCasPhantomStore && !would_succeed);
                    if (violated) {
                      ++counters_.corruptions;
                      TraceFire(ExecUnit::kAtomic, /*machine_check=*/false);
                    }
                    return !violated;
                  });
  }
  if (would_succeed != violated) {
    target = desired;
  }
  return would_succeed;
}

}  // namespace mercurial
