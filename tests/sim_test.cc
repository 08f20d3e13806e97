// Tests for src/sim: SimCore micro-ops, defect models, f/V/T surfaces, the defect catalog.

#include <bit>
#include <cmath>
#include <cstring>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/sim/core.h"
#include "src/sim/defect_catalog.h"
#include "src/substrate/aes.h"
#include "src/substrate/checksum.h"
#include "src/telemetry/trace.h"

namespace mercurial {
namespace {

SimCore HealthyCore(uint64_t id = 1) { return SimCore(id, Rng(id)); }

uint64_t AesOps(const SimCore& core) {
  return core.counters().ops_per_unit[static_cast<size_t>(ExecUnit::kAes)];
}

// The standard round constants with `mask` XORed into round r's when bit r - 1 of `rounds` is set.
AesRconArray XoredRcons(uint8_t mask, uint32_t rounds) {
  AesRconArray rcon{};
  for (int r = 1; r <= kAesRounds; ++r) {
    rcon[r - 1] = StandardAesRcon(r);
    if ((rounds >> (r - 1)) & 1) {
      rcon[r - 1] ^= mask;
    }
  }
  return rcon;
}

DefectSpec AlwaysFire(ExecUnit unit, DefectEffect effect) {
  DefectSpec spec;
  spec.unit = unit;
  spec.effect = effect;
  spec.fvt.base_rate = 1.0;
  spec.machine_check_fraction = 0.0;
  return spec;
}

// --- Healthy core == golden ---------------------------------------------------------------

TEST(SimCoreTest, HealthyAluMatchesGolden) {
  SimCore core = HealthyCore();
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const uint64_t a = rng.NextU64();
    const uint64_t b = rng.NextU64();
    EXPECT_EQ(core.Alu(AluOp::kAdd, a, b), a + b);
    EXPECT_EQ(core.Alu(AluOp::kSub, a, b), a - b);
    EXPECT_EQ(core.Alu(AluOp::kAnd, a, b), a & b);
    EXPECT_EQ(core.Alu(AluOp::kOr, a, b), a | b);
    EXPECT_EQ(core.Alu(AluOp::kXor, a, b), a ^ b);
    EXPECT_EQ(core.Alu(AluOp::kShl, a, b), a << (b & 63));
    EXPECT_EQ(core.Alu(AluOp::kShr, a, b), a >> (b & 63));
    EXPECT_EQ(core.Alu(AluOp::kRotl, a, b), std::rotl(a, static_cast<int>(b & 63)));
  }
}

TEST(SimCoreTest, HealthyMulDivLoadStore) {
  SimCore core = HealthyCore();
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const uint64_t a = rng.NextU64();
    const uint64_t b = rng.NextU64() | 1;
    EXPECT_EQ(core.Mul(a, b), a * b);
    EXPECT_EQ(core.Div(a, b), a / b);
    EXPECT_EQ(core.Load(a), a);
    EXPECT_EQ(core.Store(b), b);
  }
}

TEST(SimCoreTest, DivByZeroRaisesMachineCheck) {
  SimCore core = HealthyCore();
  EXPECT_EQ(core.Div(5, 0), ~0ull);
  EXPECT_TRUE(core.TakePendingMachineCheck());
  EXPECT_FALSE(core.TakePendingMachineCheck()) << "pending flag must be consumed";
}

TEST(SimCoreTest, HealthyAesMatchesSubstrate) {
  SimCore core = HealthyCore();
  Rng rng(4);
  uint8_t key[16];
  rng.FillBytes(key, 16);
  const AesKeySchedule golden = ExpandAesKey(key);
  const AesKeySchedule on_core = core.ExpandKey(key);
  for (int r = 0; r <= kAesRounds; ++r) {
    EXPECT_EQ(on_core.round_keys[r], golden.round_keys[r]);
  }
  AesBlock state;
  rng.FillBytes(state.data(), state.size());
  EXPECT_EQ(core.AesEnc(state, golden.round_keys[1], false),
            AesEncRound(state, golden.round_keys[1], false));
  EXPECT_EQ(core.AesDec(state, golden.round_keys[1], true),
            AesDecRound(state, golden.round_keys[1], true));
}

TEST(SimCoreTest, HealthyCopyAndCas) {
  SimCore core = HealthyCore();
  uint8_t src[37];
  uint8_t dst[37] = {};
  Rng rng(5);
  rng.FillBytes(src, sizeof(src));
  core.Copy(dst, src, sizeof(src));
  EXPECT_EQ(std::memcmp(src, dst, sizeof(src)), 0);

  uint64_t target = 7;
  EXPECT_TRUE(core.Cas(target, 7, 9));
  EXPECT_EQ(target, 9u);
  EXPECT_FALSE(core.Cas(target, 7, 11));
  EXPECT_EQ(target, 9u);
}

TEST(SimCoreTest, HealthyCrc32BlockMatchesByteFoldAndCountsOneOp) {
  SimCore core = HealthyCore();
  Rng rng(6);
  std::vector<uint8_t> data(130);
  rng.FillBytes(data.data(), data.size());
  const auto crc_ops = [&] {
    return core.counters().ops_per_unit[static_cast<size_t>(ExecUnit::kCrc)];
  };
  for (size_t n = 0; n <= data.size(); ++n) {
    uint32_t want = 0x12345678u;
    for (size_t i = 0; i < n; ++i) {
      want = Crc32Update(want, data[i]);
    }
    const uint64_t ops_before = crc_ops();
    EXPECT_EQ(core.Crc32Block(0x12345678u, data.data(), n), want) << "length " << n;
    EXPECT_EQ(crc_ops(), ops_before + 1) << "length " << n;
  }
}

TEST(SimCoreTest, CountersTrackOps) {
  SimCore core = HealthyCore();
  core.Alu(AluOp::kAdd, 1, 2);
  core.Alu(AluOp::kXor, 1, 2);
  core.Mul(3, 4);
  core.Load(5);
  uint8_t buffer[16];
  core.Copy(buffer, buffer, 16);
  const CoreCounters& counters = core.counters();
  EXPECT_EQ(counters.ops_per_unit[static_cast<int>(ExecUnit::kIntAlu)], 2u);
  EXPECT_EQ(counters.ops_per_unit[static_cast<int>(ExecUnit::kIntMul)], 1u);
  EXPECT_EQ(counters.ops_per_unit[static_cast<int>(ExecUnit::kLoad)], 1u);
  EXPECT_EQ(counters.ops_per_unit[static_cast<int>(ExecUnit::kCopy)], 2u);
  EXPECT_EQ(counters.TotalOps(), 6u);
  core.ResetCounters();
  EXPECT_EQ(core.counters().TotalOps(), 0u);
}

// --- Defect gating -------------------------------------------------------------------------

TEST(DefectTest, BitFlipCorruptsExactBit) {
  SimCore core = HealthyCore();
  DefectSpec spec = AlwaysFire(ExecUnit::kIntAlu, DefectEffect::kBitFlip);
  spec.bit_index = 5;
  core.AddDefect(spec);
  const uint64_t got = core.Alu(AluOp::kAdd, 100, 200);
  EXPECT_EQ(got, 300ull ^ (1ull << 5));
  EXPECT_EQ(core.counters().corruptions, 1u);
}

TEST(DefectTest, StuckSetAndClear) {
  {
    SimCore core = HealthyCore();
    DefectSpec spec = AlwaysFire(ExecUnit::kIntAlu, DefectEffect::kStuckSet);
    spec.bit_index = 0;
    core.AddDefect(spec);
    EXPECT_EQ(core.Alu(AluOp::kAdd, 2, 2), 5u);  // bit 0 forced on
    EXPECT_EQ(core.Alu(AluOp::kAdd, 2, 3), 5u);  // already set: no visible change
  }
  {
    SimCore core = HealthyCore();
    DefectSpec spec = AlwaysFire(ExecUnit::kIntAlu, DefectEffect::kStuckClear);
    spec.bit_index = 0;
    core.AddDefect(spec);
    EXPECT_EQ(core.Alu(AluOp::kAdd, 2, 3), 4u);  // bit 0 forced off
  }
}

TEST(DefectTest, DefectOnlyAffectsItsUnit) {
  SimCore core = HealthyCore();
  DefectSpec spec = AlwaysFire(ExecUnit::kVector, DefectEffect::kRandomWrong);
  core.AddDefect(spec);
  // Scalar ops are untouched.
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(core.Alu(AluOp::kAdd, i, 1), static_cast<uint64_t>(i + 1));
    EXPECT_EQ(core.Load(static_cast<uint64_t>(i)), static_cast<uint64_t>(i));
  }
  // Vector ops are corrupted (kRandomWrong XORs a nonzero mask into lane 0 at minimum).
  const Vec128 got = core.Vector(VecOp::kXor, {1, 2}, {3, 4});
  EXPECT_FALSE(got == (Vec128{1 ^ 3, 2 ^ 4}));
}

TEST(DefectTest, OpcodeMaskFilters) {
  SimCore core = HealthyCore();
  DefectSpec spec = AlwaysFire(ExecUnit::kIntAlu, DefectEffect::kBitFlip);
  spec.bit_index = 0;
  spec.opcode_mask = 1ull << static_cast<int>(AluOp::kXor);  // only XOR is broken
  core.AddDefect(spec);
  EXPECT_EQ(core.Alu(AluOp::kAdd, 4, 4), 8u);
  EXPECT_EQ(core.Alu(AluOp::kXor, 4, 4), 1u);  // 0 with bit 0 flipped
}

TEST(DefectTest, DataTriggerOnlyFiresOnPattern) {
  SimCore core = HealthyCore();
  DefectSpec spec = AlwaysFire(ExecUnit::kLoad, DefectEffect::kBitFlip);
  spec.bit_index = 3;
  spec.trigger.mask = 0xff;
  spec.trigger.value = 0x42;  // fires only when low byte of the loaded value is 0x42
  core.AddDefect(spec);
  EXPECT_EQ(core.Load(0x1100), 0x1100u);
  EXPECT_EQ(core.Load(0x42), 0x42u ^ (1u << 3));
  EXPECT_EQ(core.Load(0x1142), 0x1142u ^ (1u << 3));
  EXPECT_EQ(core.Load(0x43), 0x43u);
}

TEST(DefectTest, DeterministicWrongIsReproducible) {
  // "In just a few cases, we can reproduce the errors deterministically."
  SimCore core_a(1, Rng(111));
  SimCore core_b(1, Rng(222));  // different RNG stream, same defect
  DefectSpec spec = AlwaysFire(ExecUnit::kIntAlu, DefectEffect::kDeterministicWrong);
  spec.xor_mask = 0xdeadbeef;
  core_a.AddDefect(spec);
  core_b.AddDefect(spec);
  const uint64_t wrong_a = core_a.Alu(AluOp::kAdd, 1000, 2000);
  const uint64_t wrong_b = core_b.Alu(AluOp::kAdd, 1000, 2000);
  EXPECT_NE(wrong_a, 3000u);
  EXPECT_EQ(wrong_a, wrong_b) << "same operands must give the same wrong answer";
  // Different operands give a different corruption.
  EXPECT_NE(core_a.Alu(AluOp::kAdd, 1001, 2000), wrong_a + 1);
}

TEST(DefectTest, RandomWrongNeverIdentity) {
  SimCore core = HealthyCore();
  core.AddDefect(AlwaysFire(ExecUnit::kIntMul, DefectEffect::kRandomWrong));
  for (int i = 1; i < 100; ++i) {
    EXPECT_NE(core.Mul(i, 3), static_cast<uint64_t>(i) * 3)
        << "kRandomWrong must actually change the result";
  }
}

TEST(DefectTest, CasDropStoreViolatesLockSemantics) {
  SimCore core = HealthyCore();
  core.AddDefect(AlwaysFire(ExecUnit::kAtomic, DefectEffect::kCasDropStore));
  uint64_t target = 5;
  EXPECT_TRUE(core.Cas(target, 5, 6)) << "CAS claims success";
  EXPECT_EQ(target, 5u) << "...but the store was dropped";
  EXPECT_EQ(core.counters().corruptions, 1u);
}

TEST(DefectTest, CasPhantomStoreWritesOnFailure) {
  SimCore core = HealthyCore();
  core.AddDefect(AlwaysFire(ExecUnit::kAtomic, DefectEffect::kCasPhantomStore));
  uint64_t target = 5;
  EXPECT_FALSE(core.Cas(target, 99, 6)) << "CAS reports failure";
  EXPECT_EQ(target, 6u) << "...but memory was clobbered";
}

TEST(DefectTest, SelfInvertingAesKeySchedule) {
  SimCore core = HealthyCore();
  DefectSpec spec = AlwaysFire(ExecUnit::kAes, DefectEffect::kRconCorrupt);
  spec.opcode_mask = 1ull << kAesOpRcon;
  spec.xor_mask = 0x10;
  core.AddDefect(spec);

  uint8_t key[16] = {9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6};
  const AesKeySchedule bad = core.ExpandKey(key);
  const AesKeySchedule good = ExpandAesKey(key);
  EXPECT_NE(bad.round_keys[10], good.round_keys[10]);
  // Every round constant is computed on the defective unit and corrupted by the defect's mask.
  const AesKeySchedule expected = ExpandAesKey(key, XoredRcons(0x10, 0x3ff));
  for (int r = 0; r <= kAesRounds; ++r) {
    EXPECT_EQ(bad.round_keys[r], expected.round_keys[r]) << "round key " << r;
  }
  EXPECT_EQ(AesOps(core), 10u);
  EXPECT_EQ(core.counters().corruptions, 10u);
  // Deterministic: expanding again gives the same wrong schedule, for another 10 ops.
  const AesKeySchedule bad2 = core.ExpandKey(key);
  EXPECT_EQ(bad.round_keys, bad2.round_keys);
  EXPECT_EQ(AesOps(core), 20u);
  EXPECT_EQ(core.counters().corruptions, 20u);
  // Self-inverting: enc then dec with the wrong schedule is the identity...
  AesBlock block = {1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 121, 98, 76};
  EXPECT_EQ(AesDecryptBlock(bad, AesEncryptBlock(bad, block)), block);
  // ...but decryption elsewhere (with the correct schedule) yields gibberish.
  EXPECT_NE(AesDecryptBlock(good, AesEncryptBlock(bad, block)), block);
}

TEST(DefectTest, RconDefectNeverCorruptsAByteResultOp) {
  // An rcon defect whose opcode mask admits every AES op has no byte effect: an encryption
  // round stays golden and counts no corruption on either gate path, and emits no event.
  AesBlock state;
  Rng(11).FillBytes(state.data(), state.size());
  const AesBlock round_key = ExpandAesKey(state.data()).round_keys[3];
  for (bool fast_path : {true, false}) {
    SCOPED_TRACE(fast_path ? "fast path" : "reference path");
    SimCore core = HealthyCore();
    core.set_fast_path(fast_path);
    TraceOptions options;
    options.enabled = true;
    TraceRecorder trace(options, /*core_count=*/2, /*shards=*/1);
    core.set_trace_recorder(&trace);
    core.AddDefect(AlwaysFire(ExecUnit::kAes, DefectEffect::kRconCorrupt));
    EXPECT_EQ(core.AesEnc(state, round_key, false), AesEncRound(state, round_key, false));
    EXPECT_EQ(core.counters().corruptions, 0u);
    EXPECT_EQ(core.counters().machine_checks, 0u);
    EXPECT_TRUE(trace.Assemble().events.empty());
  }
}

TEST(DefectTest, RconDefectWithDataTriggerCorruptsOnlyItsRound) {
  const uint8_t key[16] = {9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6};
  const AesKeySchedule good = ExpandAesKey(key);
  const AesKeySchedule expected = ExpandAesKey(key, XoredRcons(0x10, 1u << 2));
  for (bool fast_path : {true, false}) {
    SCOPED_TRACE(fast_path ? "fast path" : "reference path");
    SimCore core = HealthyCore();
    core.set_fast_path(fast_path);
    DefectSpec spec = AlwaysFire(ExecUnit::kAes, DefectEffect::kRconCorrupt);
    spec.opcode_mask = 1ull << kAesOpRcon;
    spec.xor_mask = 0x10;
    spec.trigger.mask = ~0ull;
    spec.trigger.value = 3;  // an rcon op's operand signature is its round number
    core.AddDefect(spec);

    const AesKeySchedule bad = core.ExpandKey(key);
    for (int r = 0; r <= kAesRounds; ++r) {
      EXPECT_EQ(bad.round_keys[r], expected.round_keys[r]) << "round key " << r;
    }
    for (int r = 0; r < 3; ++r) {
      EXPECT_EQ(bad.round_keys[r], good.round_keys[r]) << "round key " << r;
    }
    EXPECT_NE(bad.round_keys[3], good.round_keys[3]);
    EXPECT_EQ(AesOps(core), 10u);
    EXPECT_EQ(core.counters().corruptions, 1u);
  }
}

TEST(DefectTest, MachineCheckEscalation) {
  SimCore core = HealthyCore();
  DefectSpec spec = AlwaysFire(ExecUnit::kIntAlu, DefectEffect::kBitFlip);
  spec.machine_check_fraction = 1.0;  // every firing escalates
  core.AddDefect(spec);
  const uint64_t got = core.Alu(AluOp::kAdd, 1, 1);
  EXPECT_EQ(got, 2u) << "escalated firings do not corrupt the result";
  EXPECT_TRUE(core.TakePendingMachineCheck());
  EXPECT_EQ(core.counters().machine_checks, 1u);
  EXPECT_EQ(core.counters().corruptions, 0u);
}

TEST(DefectTest, ProbabilisticFiringRate) {
  SimCore core = HealthyCore();
  DefectSpec spec = AlwaysFire(ExecUnit::kIntAlu, DefectEffect::kBitFlip);
  spec.fvt.base_rate = 0.1;
  core.AddDefect(spec);
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    core.Alu(AluOp::kAdd, 1, 1);
  }
  const double rate = static_cast<double>(core.counters().corruptions) / n;
  EXPECT_NEAR(rate, 0.1, 0.01);
}

// --- f/V/T surfaces ------------------------------------------------------------------------

TEST(FvtTest, DvfsCurveInterpolatesAndClamps) {
  const DvfsCurve curve{1.0, 3.0, 0.6, 1.0};
  EXPECT_DOUBLE_EQ(curve.VoltageAt(1.0), 0.6);
  EXPECT_DOUBLE_EQ(curve.VoltageAt(3.0), 1.0);
  EXPECT_DOUBLE_EQ(curve.VoltageAt(2.0), 0.8);
  EXPECT_DOUBLE_EQ(curve.VoltageAt(0.5), 0.6);
  EXPECT_DOUBLE_EQ(curve.VoltageAt(9.0), 1.0);
}

TEST(FvtTest, FrequencySensitiveDefectFiresMoreAtHighClock) {
  DefectSpec spec = AlwaysFire(ExecUnit::kIntAlu, DefectEffect::kBitFlip);
  spec.fvt.base_rate = 1e-4;
  spec.fvt.freq_slope = 3.0;
  const Defect defect(spec);
  Environment low{OperatingPoint{1.5, 60.0}, 0.8, 1.0};
  Environment high{OperatingPoint{3.5, 60.0}, 0.8, 1.0};
  EXPECT_GT(defect.FireProbability(high), 5.0 * defect.FireProbability(low));
}

TEST(FvtTest, VoltageSensitiveDefectInverseFrequencyUnderDvfs) {
  // §5: "lower frequency sometimes (surprisingly) increases the failure rate". With DVFS,
  // low frequency means low voltage; a voltage-margin defect then fires MORE.
  SimCore core = HealthyCore();
  core.set_dvfs(DvfsCurve{1.0, 3.5, 0.65, 1.10});
  DefectSpec spec = AlwaysFire(ExecUnit::kIntAlu, DefectEffect::kBitFlip);
  spec.fvt.base_rate = 1e-4;
  spec.fvt.volt_slope = 15.0;
  core.AddDefect(spec);

  core.set_operating_point(OperatingPoint{1.0, 60.0});
  const double p_low_freq = core.UnitFireProbability(ExecUnit::kIntAlu);
  core.set_operating_point(OperatingPoint{3.5, 60.0});
  const double p_high_freq = core.UnitFireProbability(ExecUnit::kIntAlu);
  EXPECT_GT(p_low_freq, 10.0 * p_high_freq);
}

TEST(FvtTest, TemperatureSlope) {
  DefectSpec spec = AlwaysFire(ExecUnit::kIntAlu, DefectEffect::kBitFlip);
  spec.fvt.base_rate = 1e-4;
  spec.fvt.temp_slope = 1.0;
  const Defect defect(spec);
  Environment cool{OperatingPoint{2.5, 50.0}, 0.9, 1.0};
  Environment hot{OperatingPoint{2.5, 90.0}, 0.9, 1.0};
  EXPECT_NEAR(defect.FireProbability(hot) / defect.FireProbability(cool), std::exp(4.0), 1.0);
}

TEST(FvtTest, InsensitiveDefectIsFlat) {
  DefectSpec spec = AlwaysFire(ExecUnit::kIntAlu, DefectEffect::kBitFlip);
  spec.fvt.base_rate = 1e-5;
  const Defect defect(spec);
  Environment a{OperatingPoint{1.0, 40.0}, 0.65, 0.5};
  Environment b{OperatingPoint{3.5, 95.0}, 1.10, 0.5};
  EXPECT_DOUBLE_EQ(defect.FireProbability(a), defect.FireProbability(b));
}

TEST(FvtTest, ProbabilityClampedToOne) {
  DefectSpec spec = AlwaysFire(ExecUnit::kIntAlu, DefectEffect::kBitFlip);
  spec.fvt.base_rate = 0.9;
  spec.fvt.temp_slope = 10.0;
  const Defect defect(spec);
  Environment very_hot{OperatingPoint{2.5, 150.0}, 0.9, 1.0};
  EXPECT_DOUBLE_EQ(defect.FireProbability(very_hot), 1.0);
}

// --- Aging ---------------------------------------------------------------------------------

TEST(AgingTest, LatentDefectSilentBeforeOnset) {
  SimCore core = HealthyCore();
  DefectSpec spec = AlwaysFire(ExecUnit::kIntAlu, DefectEffect::kBitFlip);
  spec.aging.onset = SimTime::Days(365);
  core.AddDefect(spec);

  core.set_age(SimTime::Days(100));
  EXPECT_FALSE(core.AnyDefectActive());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(core.Alu(AluOp::kAdd, i, 1), static_cast<uint64_t>(i + 1));
  }

  core.set_age(SimTime::Days(400));
  EXPECT_TRUE(core.AnyDefectActive());
  EXPECT_NE(core.Alu(AluOp::kAdd, 1, 1), 2u);
}

TEST(AgingTest, RateGrowsAfterOnset) {
  DefectSpec spec = AlwaysFire(ExecUnit::kIntAlu, DefectEffect::kBitFlip);
  spec.fvt.base_rate = 1e-6;
  spec.aging.onset = SimTime::Days(0);
  spec.aging.growth_per_year = 1.0;  // doubles every year
  const Defect defect(spec);
  Environment year1{OperatingPoint{}, 0.9, 1.0};
  Environment year3{OperatingPoint{}, 0.9, 3.0};
  EXPECT_NEAR(defect.FireProbability(year3) / defect.FireProbability(year1), 4.0, 0.01);
}

TEST(FvtTest, ProbabilityClampedToZeroAndOne) {
  DefectSpec spec = AlwaysFire(ExecUnit::kIntAlu, DefectEffect::kBitFlip);
  spec.fvt.base_rate = 1e-3;
  spec.fvt.temp_slope = 50.0;
  const Defect defect(spec);
  Environment very_hot{OperatingPoint{2.5, 200.0}, 0.9, 1.0};
  EXPECT_DOUBLE_EQ(defect.FireProbability(very_hot), 1.0);
  // exp(50 * (-400 - 60) / 10) underflows to zero: the clamp's lower edge, never negative.
  Environment very_cold{OperatingPoint{2.5, -400.0}, 0.9, 1.0};
  EXPECT_DOUBLE_EQ(defect.FireProbability(very_cold), 0.0);
}

TEST(AgingTest, FireProbabilityZeroBeforeOnset) {
  DefectSpec spec = AlwaysFire(ExecUnit::kIntAlu, DefectEffect::kBitFlip);
  spec.aging.onset = SimTime::Days(365);
  const Defect defect(spec);
  Environment just_before{OperatingPoint{}, 0.9, 0.999};
  EXPECT_DOUBLE_EQ(defect.FireProbability(just_before), 0.0);
}

TEST(AgingTest, NoGrowthAtExactOnsetBoundary) {
  DefectSpec spec = AlwaysFire(ExecUnit::kIntAlu, DefectEffect::kBitFlip);
  spec.fvt.base_rate = 1e-4;
  spec.aging.onset = SimTime::Days(365);  // onset_years == 1.0 exactly
  spec.aging.growth_per_year = 1.0;
  const Defect defect(spec);
  // Active at the boundary (age >= onset) but years_past_onset == 0: no growth multiplier.
  Environment at_onset{OperatingPoint{}, 0.9, 1.0};
  EXPECT_DOUBLE_EQ(defect.FireProbability(at_onset), 1e-4);
  Environment a_year_later{OperatingPoint{}, 0.9, 2.0};
  EXPECT_NEAR(defect.FireProbability(a_year_later), 2e-4, 1e-12);
}

// --- Dispatch-cache invalidation -----------------------------------------------------------

TEST(SimCoreTest, EnvRevisionTracksEnvironmentChanges) {
  SimCore core = HealthyCore();
  const uint64_t r0 = core.env_revision();
  core.set_operating_point(core.operating_point());
  EXPECT_EQ(core.env_revision(), r0) << "unchanged operating point must not invalidate";
  OperatingPoint hotter = core.operating_point();
  hotter.temperature_c += 20.0;
  core.set_operating_point(hotter);
  EXPECT_GT(core.env_revision(), r0);

  const uint64_t r1 = core.env_revision();
  core.set_age(core.age());
  EXPECT_EQ(core.env_revision(), r1) << "unchanged age must not invalidate";
  core.set_age(SimTime::Days(10));
  EXPECT_GT(core.env_revision(), r1);

  const uint64_t r2 = core.env_revision();
  core.set_dvfs(DvfsCurve{});
  EXPECT_GT(core.env_revision(), r2);

  const uint64_t r3 = core.env_revision();
  core.AddDefect(AlwaysFire(ExecUnit::kIntAlu, DefectEffect::kBitFlip));
  EXPECT_GT(core.env_revision(), r3);
}

TEST(SimCoreTest, DispatchCacheInvalidatedByOperatingPoint) {
  SimCore core = HealthyCore();
  DefectSpec spec = AlwaysFire(ExecUnit::kIntAlu, DefectEffect::kBitFlip);
  spec.fvt.temp_slope = 50.0;  // p == 1 at nominal temperature, underflows to 0 when frozen
  core.AddDefect(spec);
  ASSERT_TRUE(core.fast_path());
  EXPECT_NE(core.Alu(AluOp::kAdd, 1, 1), 2u) << "armed at p=1: every op corrupts";

  OperatingPoint frozen = core.operating_point();
  frozen.temperature_c = -400.0;
  core.set_operating_point(frozen);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(core.Alu(AluOp::kAdd, i, 1), static_cast<uint64_t>(i + 1))
        << "cache must re-arm after set_operating_point";
  }

  core.set_operating_point(OperatingPoint{});
  EXPECT_NE(core.Alu(AluOp::kAdd, 1, 1), 2u) << "cache must re-arm again on restore";
}

// --- One gate walk: the fast and reference paths agree op by op ----------------------------

// Takes both cores' pending machine checks and compares them with every counter.
::testing::AssertionResult SameDispatchState(SimCore& fast, SimCore& reference) {
  const bool fast_pending = fast.TakePendingMachineCheck();
  const bool reference_pending = reference.TakePendingMachineCheck();
  const CoreCounters& f = fast.counters();
  const CoreCounters& r = reference.counters();
  if (fast_pending != reference_pending || f.corruptions != r.corruptions ||
      f.machine_checks != r.machine_checks || f.ops_per_unit != r.ops_per_unit) {
    return ::testing::AssertionFailure()
           << "pending " << fast_pending << " vs " << reference_pending << ", corruptions "
           << f.corruptions << " vs " << r.corruptions << ", machine checks "
           << f.machine_checks << " vs " << r.machine_checks;
  }
  return ::testing::AssertionSuccess();
}

TEST(SimCoreTest, FastAndReferenceDispatchAgreeOpByOp) {
  // Mixed effects share each unit, so the walk must filter, draw and escalate across defects
  // the same way on both paths: rcon ops skip the AES bit flip before it draws, a CAS defect
  // whose effect does not apply still draws, and copy chunks escalate one by one.
  const auto make = [](ExecUnit unit, DefectEffect effect, double rate, double escalate) {
    DefectSpec spec = AlwaysFire(unit, effect);
    spec.fvt.base_rate = rate;
    spec.machine_check_fraction = escalate;
    return spec;
  };
  std::vector<DefectSpec> specs = {
      make(ExecUnit::kAes, DefectEffect::kRconCorrupt, 0.3, 0.0),
      make(ExecUnit::kAes, DefectEffect::kBitFlip, 0.05, 0.4),
      make(ExecUnit::kAtomic, DefectEffect::kCasDropStore, 0.2, 0.0),
      make(ExecUnit::kAtomic, DefectEffect::kBitFlip, 0.3, 0.0),
      make(ExecUnit::kAtomic, DefectEffect::kCasPhantomStore, 0.2, 0.0),
      make(ExecUnit::kCopy, DefectEffect::kStuckSet, 0.1, 0.0),
      make(ExecUnit::kCopy, DefectEffect::kRandomWrong, 0.1, 0.3),
      make(ExecUnit::kIntAlu, DefectEffect::kBitFlip, 0.2, 0.2),
  };
  specs[0].opcode_mask = 1ull << kAesOpRcon;
  specs[0].xor_mask = 0x1b;
  specs[5].bit_index = 13;
  SimCore fast(7, Rng(77));
  SimCore reference(7, Rng(77));
  fast.set_fast_path(true);
  reference.set_fast_path(false);
  for (const DefectSpec& spec : specs) {
    fast.AddDefect(spec);
    reference.AddDefect(spec);
  }

  Rng rng(2024);
  for (int step = 0; step < 2000; ++step) {
    SCOPED_TRACE(step);
    const uint64_t a = rng.NextU64();
    const uint64_t b = rng.NextU64();
    ASSERT_EQ(fast.Alu(AluOp::kXor, a, b), reference.Alu(AluOp::kXor, a, b));
    ASSERT_TRUE(SameDispatchState(fast, reference)) << "alu";

    uint8_t key[kAesKeyBytes];
    rng.FillBytes(key, sizeof(key));
    ASSERT_TRUE(fast.ExpandKey(key).round_keys == reference.ExpandKey(key).round_keys);
    ASSERT_TRUE(SameDispatchState(fast, reference)) << "expand key";

    AesBlock state;
    AesBlock round_key;
    rng.FillBytes(state.data(), state.size());
    rng.FillBytes(round_key.data(), round_key.size());
    const bool last = step % 10 == 9;
    ASSERT_EQ(fast.AesEnc(state, round_key, last), reference.AesEnc(state, round_key, last));
    ASSERT_TRUE(SameDispatchState(fast, reference)) << "aes enc";

    const size_t n = 1 + static_cast<size_t>(step) % 67;
    uint8_t src[67];
    uint8_t fast_dst[67];
    uint8_t reference_dst[67];
    rng.FillBytes(src, n);
    fast.Copy(fast_dst, src, n);
    reference.Copy(reference_dst, src, n);
    ASSERT_EQ(std::memcmp(fast_dst, reference_dst, n), 0) << "copy of " << n;
    ASSERT_TRUE(SameDispatchState(fast, reference)) << "copy of " << n;

    for (const bool succeed : {true, false}) {
      uint64_t fast_target = a;
      uint64_t reference_target = a;
      const uint64_t expected = succeed ? a : a + 1;
      ASSERT_EQ(fast.Cas(fast_target, expected, b), reference.Cas(reference_target, expected, b));
      ASSERT_EQ(fast_target, reference_target) << "cas " << succeed;
      ASSERT_TRUE(SameDispatchState(fast, reference)) << "cas " << succeed;
    }
  }
  EXPECT_GT(fast.counters().corruptions, 1000u);
  EXPECT_GT(fast.counters().machine_checks, 100u);
}

// --- Catalog -------------------------------------------------------------------------------

class DefectCatalogTest : public ::testing::TestWithParam<int> {};

TEST_P(DefectCatalogTest, DrawProducesConsistentSpec) {
  const auto klass = static_cast<DefectClass>(GetParam());
  Rng rng(1000 + GetParam());
  const CatalogOptions options;
  const DefectSpec spec = DrawDefect(klass, options, rng);
  EXPECT_EQ(spec.label, DefectClassName(klass));
  switch (klass) {
    case DefectClass::kVectorBitFlip:
      EXPECT_EQ(spec.unit, ExecUnit::kVector);
      EXPECT_EQ(spec.effect, DefectEffect::kBitFlip);
      EXPECT_GE(spec.bit_index, 0);
      EXPECT_LT(spec.bit_index, 128);
      break;
    case DefectClass::kCopyStuckBit:
      EXPECT_EQ(spec.unit, ExecUnit::kCopy);
      EXPECT_TRUE(spec.effect == DefectEffect::kStuckSet ||
                  spec.effect == DefectEffect::kStuckClear);
      break;
    case DefectClass::kSelfInvertingAes:
      EXPECT_EQ(spec.unit, ExecUnit::kAes);
      EXPECT_EQ(spec.effect, DefectEffect::kRconCorrupt);
      EXPECT_DOUBLE_EQ(spec.fvt.base_rate, 1.0);
      EXPECT_DOUBLE_EQ(spec.machine_check_fraction, 0.0);
      break;
    case DefectClass::kLockDrop:
      EXPECT_EQ(spec.unit, ExecUnit::kAtomic);
      break;
    case DefectClass::kDeterministicAlu:
      EXPECT_EQ(spec.unit, ExecUnit::kIntAlu);
      EXPECT_EQ(spec.effect, DefectEffect::kDeterministicWrong);
      EXPECT_NE(spec.trigger.mask, 0u) << "deterministic cases are data-triggered";
      break;
    default:
      break;
  }
  // Rates drawn within the catalog's bounds (deterministic classes pin base_rate to 1).
  if (spec.fvt.base_rate != 1.0) {
    EXPECT_GE(spec.fvt.base_rate, std::pow(10.0, options.log10_rate_min) * 0.999);
    EXPECT_LE(spec.fvt.base_rate, std::pow(10.0, options.log10_rate_max) * 1.001);
  }
}

INSTANTIATE_TEST_SUITE_P(AllClasses, DefectCatalogTest,
                         ::testing::Range(0, kDefectClassCount));

TEST(DefectCatalogTest2, DrawRandomDefectIsDeterministicUnderSeed) {
  const CatalogOptions options;
  Rng rng_a(7);
  Rng rng_b(7);
  for (int i = 0; i < 20; ++i) {
    const DefectSpec a = DrawRandomDefect(options, rng_a);
    const DefectSpec b = DrawRandomDefect(options, rng_b);
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(static_cast<int>(a.unit), static_cast<int>(b.unit));
    EXPECT_DOUBLE_EQ(a.fvt.base_rate, b.fvt.base_rate);
    EXPECT_EQ(a.bit_index, b.bit_index);
  }
}

TEST(DefectCatalogTest2, AllClassesEnumerated) {
  const auto classes = AllDefectClasses();
  EXPECT_EQ(classes.size(), static_cast<size_t>(kDefectClassCount));
  std::set<int> unique;
  for (DefectClass klass : classes) {
    unique.insert(static_cast<int>(klass));
    EXPECT_STRNE(DefectClassName(klass), "unknown");
  }
  EXPECT_EQ(unique.size(), classes.size());
}

TEST(ExecUnitTest, AllUnitsHaveNames) {
  for (int u = 0; u < kExecUnitCount; ++u) {
    EXPECT_STRNE(ExecUnitName(static_cast<ExecUnit>(u)), "unknown");
  }
}

}  // namespace
}  // namespace mercurial
