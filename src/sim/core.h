// SimCore: a simulated CPU core with injectable defects.
//
// Computations that must be corruptible are written against this micro-op API instead of raw
// C++: each call dispatches to a named execution unit, the correct result is computed by the
// golden substrate, and any defects planted on that unit get a chance to corrupt it. A core
// with no defects is "healthy" and behaves exactly like the golden implementation (this is the
// soundness basis for the fleet simulator's healthy-core fast path, see DESIGN.md §decision 1).
//
// Threading: a SimCore is not thread-safe. In the sharded engine a defective core's SimCore is
// touched only by the shard that owns the core, and by the serial phase after the shard
// barrier, so no two threads use one core at once.
//
// The per-op fast paths (Alu through Fp, and TakePendingMachineCheck) are inline below the
// class: on a unit with no defect an op costs its golden result, a counter bump and a branch.
// The defect gate, DispatchDefective and ForEachFiring, stays out of line.

#ifndef MERCURIAL_SRC_SIM_CORE_H_
#define MERCURIAL_SRC_SIM_CORE_H_

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/sim/defect.h"
#include "src/sim/exec_unit.h"
#include "src/sim/operating_point.h"
#include "src/substrate/aes.h"

namespace mercurial {

class TraceRecorder;

// Process-wide default for the dispatch fast path: the armed-defect cache in the defect gate
// (SimCore::ForEachFiring). New cores capture the value at construction; flipping it lets the
// equivalence suite prove the fast and reference paths produce bit-identical studies.
// Enabled by default.
void SetDispatchFastPath(bool enabled);
bool DispatchFastPathEnabled();

// Opcodes for units whose ops are not already enumerated in exec_unit.h.
inline constexpr uint8_t kAesOpEncRound = 0;
inline constexpr uint8_t kAesOpDecRound = 1;
inline constexpr uint8_t kAesOpRcon = 2;
inline constexpr uint8_t kMemOpWord = 0;
inline constexpr uint8_t kCopyOpChunk = 0;
inline constexpr uint8_t kCrcOpBlock = 0;
inline constexpr uint8_t kAtomicOpCas = 0;
inline constexpr uint8_t kMulOp = 0;
inline constexpr uint8_t kDivOp = 0;

struct CoreCounters {
  std::array<uint64_t, kExecUnitCount> ops_per_unit{};
  uint64_t corruptions = 0;      // silent wrong results produced
  uint64_t machine_checks = 0;   // firings escalated to machine checks

  uint64_t TotalOps() const;
  bool operator==(const CoreCounters&) const = default;
};

class SimCore {
 public:
  // `id` is a fleet-unique identifier; `rng` should be an independent stream (Rng::Split).
  SimCore(uint64_t id, Rng rng);

  uint64_t id() const { return id_; }

  // --- Defect management (fleet builder / tests) ------------------------------------------
  void AddDefect(DefectSpec spec);
  const std::vector<Defect>& defects() const { return defects_; }
  // True if any defect is past onset at the current age.
  bool AnyDefectActive() const;
  // Earliest aging onset over planted defects (the age at which AnyDefectActive can first
  // become true). Defined only for defective cores: the sparse production index uses
  // install_time + EarliestDefectOnset() as the exact-integer activation bound that
  // Defect::Active's float age round-trip can never precede.
  SimTime EarliestDefectOnset() const;
  // Max per-op firing probability over defects afflicting `unit` in the current environment.
  double UnitFireProbability(ExecUnit unit) const;

  // --- Operating conditions ----------------------------------------------------------------
  // Every setter that can move the fire-probability surface bumps env_revision_, which is what
  // invalidates the armed-defect cache (see ForEachFiring). The operating point and age setters
  // skip the bump when the value is unchanged, so offline sweeps that restore the original
  // point and per-tick SetAges calls only invalidate when something actually moved.
  void set_operating_point(OperatingPoint point) {
    if (!(point == point_)) {
      point_ = point;
      ++env_revision_;
    }
  }
  OperatingPoint operating_point() const { return point_; }
  void set_dvfs(DvfsCurve curve) {
    dvfs_ = curve;
    ++env_revision_;
  }
  double voltage() const { return dvfs_.VoltageAt(point_.frequency_ghz); }
  void set_age(SimTime age) {
    if (age.seconds() != age_.seconds()) {
      age_ = age;
      ++env_revision_;
    }
  }
  SimTime age() const { return age_; }

  // Monotonic revision of every input to the fire-probability surface (operating point, DVFS
  // curve, age, defect set). The dispatch fast path re-arms when it observes a new value;
  // exposed so tests can assert cache invalidation.
  uint64_t env_revision() const { return env_revision_; }

  // Per-core override of the dispatch fast path (captured from DispatchFastPathEnabled() at
  // construction). It forks the defect gate inside ForEachFiring: the fast path reads the
  // armed cache, the reference path recomputes the environment and FireProbability per op.
  // Both draw the same stream and share every effect. It also decides CanSkipOps, so the
  // reference path executes every stress-battery op that the fast path skips.
  void set_fast_path(bool enabled) { fast_path_ = enabled; }
  bool fast_path() const { return fast_path_; }

  // True when the fast path is on and no defect on `unit` is armed in the current environment:
  // none is planted, or each is pre-onset, masked off every opcode or behind an unsatisfiable
  // trigger. Every op on such a unit returns its golden result, draws nothing from the core's
  // stream and emits no trace event, on either gate, so a caller that knows the golden
  // results may skip the ops and count them with CountSkippedOps. Re-arms a stale cache only
  // for a unit with a defect planted, as dispatching an op on it would.
  bool CanSkipOps(ExecUnit unit) {
    return fast_path_ && (defects_by_unit_[static_cast<size_t>(unit)].empty() ||
                          ArmedForUnit(unit).empty());
  }
  // Counts `n` ops on `unit` that the caller skipped while CanSkipOps(unit) held.
  void CountSkippedOps(ExecUnit unit, uint64_t n) {
    counters_.ops_per_unit[static_cast<size_t>(unit)] += n;
  }

  // --- Micro-ops -----------------------------------------------------------------------------
  uint64_t Alu(AluOp op, uint64_t a, uint64_t b);
  uint64_t Mul(uint64_t a, uint64_t b);
  // Division by zero returns all-ones and raises a machine check (fail-noisy, not UB).
  uint64_t Div(uint64_t a, uint64_t b);
  uint64_t Load(uint64_t value);
  uint64_t Store(uint64_t value);
  Vec128 Vector(VecOp op, Vec128 a, Vec128 b);
  double Fp(FpOp op, double a, double b);

  // AES unit. Enc/Dec match substrate AesEncRound/AesDecRound; Rcon is the key-expansion
  // round-constant computation (the hook for the self-inverting defect).
  AesBlock AesEnc(const AesBlock& state, const AesBlock& round_key, bool last);
  AesBlock AesDec(const AesBlock& state, const AesBlock& round_key, bool last);
  uint8_t AesRcon(int round);
  // Convenience: key expansion with the ten round constants computed by AesRcon on this core.
  AesKeySchedule ExpandKey(const uint8_t key[kAesKeyBytes]);

  // CRC unit: one gated op per call over the whole block (correct value from the substrate).
  uint32_t Crc32Block(uint32_t crc, const uint8_t* data, size_t n);

  // Copy unit: copies `n` bytes in 8-byte chunks; a defect gets a chance per chunk, which is
  // how "repeated bit-flips in strings at a particular bit position" arise.
  void Copy(uint8_t* dst, const uint8_t* src, size_t n);

  // Atomic unit: compare-and-swap on `target` with lock-semantics defects applied.
  bool Cas(uint64_t& target, uint64_t expected, uint64_t desired);

  // --- Provenance ----------------------------------------------------------------------------
  // Current provenance epoch: the coarse timestamp stamped onto every artifact this core
  // produces (blast-radius accounting, mitigate/blast_radius.h). Plain data, not part of the
  // fire-probability environment — setting it does NOT bump env_revision.
  void set_provenance_epoch(uint64_t epoch) { provenance_epoch_ = epoch; }
  uint64_t provenance_epoch() const { return provenance_epoch_; }

  // --- Telemetry -----------------------------------------------------------------------------
  const CoreCounters& counters() const { return counters_; }
  void ResetCounters() { counters_ = CoreCounters{}; }

  // Incident flight recorder hook: when set, every defect firing emits a kDefectFired event
  // (cause = corruption vs machine check, detail = exec-unit ordinal). Emission consumes no
  // randomness and sits only on the firing paths, so the healthy-core dispatch loop and the
  // rng_ stream are untouched whether or not a recorder is attached.
  void set_trace_recorder(TraceRecorder* recorder) { trace_ = recorder; }

  // Machine-check delivery: set when a defect escalates; consumed by the running task's
  // harness (which typically kills the task and logs an MCE signal).
  bool TakePendingMachineCheck();

  Environment CurrentEnvironment() const;

 private:
  // One pre-filtered, pre-evaluated defect gate: everything the per-op loop needs without
  // touching the Defect or recomputing the f/V/T probability surface (three exp() and a
  // pow() per defect per op on the reference path). Lists are rebuilt lazily whenever
  // env_revision_ moves; dropping never-fire defects here is RNG-stream neutral because
  // Defect::ShouldFire short-circuits before its Bernoulli draw for exactly those defects.
  struct ArmedDefect {
    uint64_t opcode_mask = 0;
    DataTrigger trigger;
    double probability = 0.0;  // FireProbability in the cached environment; always > 0
    DefectEffect effect = DefectEffect::kBitFlip;
    uint16_t index = 0;  // into defects_
  };

  // Operand signature for data-pattern triggers: combines both operands so a trigger can key
  // on either; rotation keeps a/b asymmetric.
  static uint64_t Signature(uint64_t a, uint64_t b) { return a ^ std::rotl(b, 1); }

  // Counts one op on `op.unit` and, for a defective unit, lets its defects corrupt the
  // already-computed correct result at `result`/`size`. Inline so ops on a unit with no
  // defect — nearly all of them — cost a counter bump and a branch.
  void Dispatch(const OpInfo& op, uint8_t* result, size_t size) {
    const auto unit = static_cast<size_t>(op.unit);
    ++counters_.ops_per_unit[unit];
    if (!defects_by_unit_[unit].empty()) {
      DispatchDefective(op, result, size);
    }
  }
  // The byte-result effect of every firing byte-effect defect: a machine check with the
  // defect's machine_check_fraction, else CorruptBytes. Rcon and CAS defects never take part.
  // Counts nothing per op; Dispatch and Copy do.
  void DispatchDefective(const OpInfo& op, uint8_t* result, size_t size);

  // The one defect-gate walk. Visits the defects on op.unit in defects_ order and skips, before
  // any draw, those whose effect `admit` rejects. The rest are gated exactly as
  // Defect::ShouldFire would gate them: from the armed cache when fast_path_ is set, by
  // recomputing the environment otherwise. fire(index into defects_) applies the effect of
  // each firing defect and returns false to stop the walk.
  template <class Admit, class Fire>
  void ForEachFiring(const OpInfo& op, Admit admit, Fire fire);

  // Armed-defect list for `unit` under the current environment; re-arms if stale.
  const std::vector<ArmedDefect>& ArmedForUnit(ExecUnit unit);
  void RearmDefects();

  // Records one defect firing with the attached flight recorder, if any.
  void TraceFire(ExecUnit unit, bool machine_check);

  uint64_t id_;
  Rng rng_;
  std::vector<Defect> defects_;
  // Indices into defects_ by unit, so healthy units skip the gate loop.
  std::array<std::vector<uint16_t>, kExecUnitCount> defects_by_unit_;
  OperatingPoint point_;
  DvfsCurve dvfs_;
  SimTime age_;
  CoreCounters counters_;
  bool pending_machine_check_ = false;
  bool fast_path_ = true;
  uint64_t provenance_epoch_ = 0;
  TraceRecorder* trace_ = nullptr;
  uint64_t env_revision_ = 1;
  uint64_t armed_revision_ = 0;  // env_revision_ value the armed lists were built at
  std::array<std::vector<ArmedDefect>, kExecUnitCount> armed_;
};

inline uint64_t SimCore::Alu(AluOp op, uint64_t a, uint64_t b) {
  uint64_t result = 0;
  switch (op) {
    case AluOp::kAdd:
      result = a + b;
      break;
    case AluOp::kSub:
      result = a - b;
      break;
    case AluOp::kAnd:
      result = a & b;
      break;
    case AluOp::kOr:
      result = a | b;
      break;
    case AluOp::kXor:
      result = a ^ b;
      break;
    case AluOp::kShl:
      result = a << (b & 63);
      break;
    case AluOp::kShr:
      result = a >> (b & 63);
      break;
    case AluOp::kRotl:
      result = std::rotl(a, static_cast<int>(b & 63));
      break;
  }
  Dispatch({ExecUnit::kIntAlu, static_cast<uint8_t>(op), Signature(a, b)},
           reinterpret_cast<uint8_t*>(&result), sizeof(result));
  return result;
}

inline uint64_t SimCore::Mul(uint64_t a, uint64_t b) {
  uint64_t result = a * b;
  Dispatch({ExecUnit::kIntMul, kMulOp, Signature(a, b)}, reinterpret_cast<uint8_t*>(&result),
           sizeof(result));
  return result;
}

inline uint64_t SimCore::Div(uint64_t a, uint64_t b) {
  if (b == 0) {
    // The op still issued to the divider; count it even though the machine-check path skips
    // Dispatch (which would otherwise do the accounting).
    ++counters_.ops_per_unit[static_cast<size_t>(ExecUnit::kIntDiv)];
    pending_machine_check_ = true;
    ++counters_.machine_checks;
    TraceFire(ExecUnit::kIntDiv, /*machine_check=*/true);
    return ~0ull;
  }
  uint64_t result = a / b;
  Dispatch({ExecUnit::kIntDiv, kDivOp, Signature(a, b)}, reinterpret_cast<uint8_t*>(&result),
           sizeof(result));
  return result;
}

inline uint64_t SimCore::Load(uint64_t value) {
  uint64_t result = value;
  Dispatch({ExecUnit::kLoad, kMemOpWord, value}, reinterpret_cast<uint8_t*>(&result),
           sizeof(result));
  return result;
}

inline uint64_t SimCore::Store(uint64_t value) {
  uint64_t result = value;
  Dispatch({ExecUnit::kStore, kMemOpWord, value}, reinterpret_cast<uint8_t*>(&result),
           sizeof(result));
  return result;
}

inline Vec128 SimCore::Vector(VecOp op, Vec128 a, Vec128 b) {
  Vec128 result;
  switch (op) {
    case VecOp::kXor:
      result = {a.lo ^ b.lo, a.hi ^ b.hi};
      break;
    case VecOp::kAnd:
      result = {a.lo & b.lo, a.hi & b.hi};
      break;
    case VecOp::kOr:
      result = {a.lo | b.lo, a.hi | b.hi};
      break;
    case VecOp::kAdd64:
      result = {a.lo + b.lo, a.hi + b.hi};
      break;
    case VecOp::kSub64:
      result = {a.lo - b.lo, a.hi - b.hi};
      break;
  }
  Dispatch({ExecUnit::kVector, static_cast<uint8_t>(op), Signature(a.lo ^ a.hi, b.lo ^ b.hi)},
           reinterpret_cast<uint8_t*>(&result), sizeof(result));
  return result;
}

inline double SimCore::Fp(FpOp op, double a, double b) {
  double result = 0.0;
  switch (op) {
    case FpOp::kAdd:
      result = a + b;
      break;
    case FpOp::kSub:
      result = a - b;
      break;
    case FpOp::kMul:
      result = a * b;
      break;
    case FpOp::kDiv:
      result = a / b;
      break;
  }
  Dispatch({ExecUnit::kFp, static_cast<uint8_t>(op),
            Signature(std::bit_cast<uint64_t>(a), std::bit_cast<uint64_t>(b))},
           reinterpret_cast<uint8_t*>(&result), sizeof(result));
  return result;
}

inline bool SimCore::TakePendingMachineCheck() {
  const bool pending = pending_machine_check_;
  pending_machine_check_ = false;
  return pending;
}

}  // namespace mercurial

#endif  // MERCURIAL_SRC_SIM_CORE_H_
