#include "src/workload/stress.h"

#include <bit>
#include <cstring>

#include "src/common/logging.h"
#include "src/substrate/aes.h"
#include "src/substrate/checksum.h"

namespace mercurial {
namespace {

uint64_t GoldenAlu(AluOp op, uint64_t a, uint64_t b) {
  switch (op) {
    case AluOp::kAdd:
      return a + b;
    case AluOp::kSub:
      return a - b;
    case AluOp::kAnd:
      return a & b;
    case AluOp::kOr:
      return a | b;
    case AluOp::kXor:
      return a ^ b;
    case AluOp::kShl:
      return a << (b & 63);
    case AluOp::kShr:
      return a >> (b & 63);
    case AluOp::kRotl:
      return std::rotl(a, static_cast<int>(b & 63));
  }
  return 0;
}

// One iteration of `unit`'s directed test: draws its operands from the battery's stream and,
// when kExecute, issues the op on `core` and counts a mismatch against the golden result.
// Returns the ops the iteration issues, which is what the core's counter for `unit` gains.
// The skipped instantiation makes exactly the same draws and touches nothing else, so both
// leave the battery's stream at the same point.
template <bool kExecute>
uint64_t StressOneIteration(SimCore& core, Rng& rng, ExecUnit unit, uint64_t* mismatches) {
  switch (unit) {
    case ExecUnit::kIntAlu: {
      const auto op = static_cast<AluOp>(rng.UniformInt(0, 7));
      const uint64_t a = rng.NextU64();
      const uint64_t b = rng.NextU64();
      if constexpr (kExecute) {
        *mismatches += core.Alu(op, a, b) != GoldenAlu(op, a, b);
      }
      return 1;
    }
    case ExecUnit::kIntMul: {
      const uint64_t a = rng.NextU64();
      const uint64_t b = rng.NextU64();
      if constexpr (kExecute) {
        *mismatches += core.Mul(a, b) != a * b;
      }
      return 1;
    }
    case ExecUnit::kIntDiv: {
      const uint64_t a = rng.NextU64();
      const uint64_t b = rng.NextU64() | 1;
      if constexpr (kExecute) {
        *mismatches += core.Div(a, b) != a / b;
      }
      return 1;
    }
    case ExecUnit::kLoad: {
      const uint64_t v = rng.NextU64();
      if constexpr (kExecute) {
        *mismatches += core.Load(v) != v;
      }
      return 1;
    }
    case ExecUnit::kStore: {
      const uint64_t v = rng.NextU64();
      if constexpr (kExecute) {
        *mismatches += core.Store(v) != v;
      }
      return 1;
    }
    case ExecUnit::kVector: {
      const auto op = static_cast<VecOp>(rng.UniformInt(0, 4));
      const Vec128 a{rng.NextU64(), rng.NextU64()};
      const Vec128 b{rng.NextU64(), rng.NextU64()};
      if constexpr (kExecute) {
        Vec128 want;
        switch (op) {
          case VecOp::kXor:
            want = {a.lo ^ b.lo, a.hi ^ b.hi};
            break;
          case VecOp::kAnd:
            want = {a.lo & b.lo, a.hi & b.hi};
            break;
          case VecOp::kOr:
            want = {a.lo | b.lo, a.hi | b.hi};
            break;
          case VecOp::kAdd64:
            want = {a.lo + b.lo, a.hi + b.hi};
            break;
          case VecOp::kSub64:
            want = {a.lo - b.lo, a.hi - b.hi};
            break;
        }
        *mismatches += !(core.Vector(op, a, b) == want);
      }
      return 1;
    }
    case ExecUnit::kAes: {
      // Alternate between round ops and key expansion so both the datapath and the rcon
      // logic (self-inverting defect) are exercised.
      if (rng.Bernoulli(0.5)) {
        AesBlock state;
        AesBlock round_key;
        rng.FillBytes(state.data(), state.size());
        rng.FillBytes(round_key.data(), round_key.size());
        const bool last = rng.Bernoulli(0.2);
        const bool encrypt = rng.Bernoulli(0.5);
        if constexpr (kExecute) {
          const AesBlock got = encrypt ? core.AesEnc(state, round_key, last)
                                       : core.AesDec(state, round_key, last);
          const AesBlock want = encrypt ? AesEncRound(state, round_key, last)
                                        : AesDecRound(state, round_key, last);
          *mismatches += got != want;
        }
        return 1;
      }
      uint8_t key[kAesKeyBytes];
      rng.FillBytes(key, sizeof(key));
      if constexpr (kExecute) {
        *mismatches += core.ExpandKey(key).round_keys != ExpandAesKey(key).round_keys;
      }
      return kAesRounds;
    }
    case ExecUnit::kCrc: {
      uint8_t buffer[64];
      rng.FillBytes(buffer, sizeof(buffer));
      if constexpr (kExecute) {
        *mismatches += Crc32Final(core.Crc32Block(Crc32Init(), buffer, sizeof(buffer))) !=
                       Crc32(buffer, sizeof(buffer));
      }
      return 1;
    }
    case ExecUnit::kCopy: {
      uint8_t src[64];
      rng.FillBytes(src, sizeof(src));
      if constexpr (kExecute) {
        uint8_t dst[64];
        core.Copy(dst, src, sizeof(src));
        *mismatches += std::memcmp(src, dst, sizeof(src)) != 0;
      }
      return sizeof(src) / 8;
    }
    case ExecUnit::kAtomic: {
      const uint64_t initial = rng.NextU64();
      const uint64_t desired = rng.NextU64();
      const uint64_t initial2 = rng.NextU64();
      if constexpr (kExecute) {
        // Success path: CAS must store and report true.
        uint64_t target = initial;
        *mismatches += !core.Cas(target, initial, desired) || target != desired;
        // Failure path: CAS with a stale expected value must not store.
        uint64_t target2 = initial2;
        *mismatches += core.Cas(target2, ~initial2, desired) || target2 != initial2;
      }
      return 2;
    }
    case ExecUnit::kFp: {
      const auto op = static_cast<FpOp>(rng.UniformInt(0, 3));
      const double a = rng.NextDouble() * 1e6 - 5e5;
      const double b = rng.NextDouble() * 1e6 - 5e5 + 1.0;
      if constexpr (kExecute) {
        double want = 0.0;
        switch (op) {
          case FpOp::kAdd:
            want = a + b;
            break;
          case FpOp::kSub:
            want = a - b;
            break;
          case FpOp::kMul:
            want = a * b;
            break;
          case FpOp::kDiv:
            want = a / b;
            break;
        }
        *mismatches += core.Fp(op, a, b) != want;
      }
      return 1;
    }
  }
  return 0;
}

}  // namespace

bool StressReport::passed() const {
  for (const auto& unit : per_unit) {
    if (!unit.passed()) {
      return false;
    }
  }
  return true;
}

std::vector<ExecUnit> StressReport::FailedUnits() const {
  std::vector<ExecUnit> failed;
  for (const auto& unit : per_unit) {
    if (!unit.passed()) {
      failed.push_back(unit.unit);
    }
  }
  return failed;
}

std::vector<OperatingPoint> StandardScreeningSweep() {
  return {
      OperatingPoint{2.5, 60.0},  // nominal
      OperatingPoint{3.5, 85.0},  // max turbo, hot
      OperatingPoint{1.2, 45.0},  // low frequency => low voltage (droop corner)
  };
}

UnitStressResult StressUnit(SimCore& core, Rng& rng, ExecUnit unit, uint64_t iterations) {
  UnitStressResult result;
  result.unit = unit;
  if (!core.CanSkipOps(unit)) {
    for (uint64_t i = 0; i < iterations; ++i) {
      result.iterations += StressOneIteration<true>(core, rng, unit, &result.mismatches);
      if (core.TakePendingMachineCheck()) {
        result.machine_check = true;
      }
    }
    return result;
  }
  // No defect on the unit can fire here, so every op would match its golden result and raise
  // nothing: draw the same operands, count the ops in one step, and take a machine check left
  // pending before the battery as the first executed iteration would have.
  for (uint64_t i = 0; i < iterations; ++i) {
    result.iterations += StressOneIteration<false>(core, rng, unit, &result.mismatches);
  }
  core.CountSkippedOps(unit, result.iterations);
  result.machine_check = iterations > 0 && core.TakePendingMachineCheck();
  return result;
}

StressReport RunStressBattery(SimCore& core, Rng& rng, const StressOptions& options) {
  StressReport report;
  const OperatingPoint original = core.operating_point();
  std::vector<OperatingPoint> points = options.sweep;
  if (points.empty()) {
    points.push_back(original);
  }
  const uint64_t ops_before = core.counters().TotalOps();

  std::vector<ExecUnit> units = options.units;
  if (units.empty()) {
    units.reserve(kExecUnitCount);
    for (int u = 0; u < kExecUnitCount; ++u) {
      units.push_back(static_cast<ExecUnit>(u));
    }
  }

  for (ExecUnit unit : units) {
    UnitStressResult merged;
    merged.unit = unit;
    // Split iterations across sweep points so total cost is independent of sweep size.
    const uint64_t per_point =
        std::max<uint64_t>(1, options.iterations_per_unit / points.size());
    for (const OperatingPoint& point : points) {
      core.set_operating_point(point);
      const UnitStressResult result = StressUnit(core, rng, unit, per_point);
      merged.iterations += result.iterations;
      merged.mismatches += result.mismatches;
      merged.machine_check = merged.machine_check || result.machine_check;
    }
    report.per_unit.push_back(merged);
  }

  core.set_operating_point(original);
  report.total_ops = core.counters().TotalOps() - ops_before;
  return report;
}

}  // namespace mercurial
