// Tests for src/workload: core-routed kernels, the corpus, the stress battery.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/sched/placement.h"
#include "src/sim/core.h"
#include "src/substrate/checksum.h"
#include "src/substrate/lz.h"
#include "src/substrate/matrix.h"
#include "src/workload/core_routines.h"
#include "src/workload/stress.h"
#include "src/workload/workload.h"

namespace mercurial {
namespace {

SimCore HealthyCore(uint64_t id = 1) { return SimCore(id, Rng(id)); }

DefectSpec AlwaysFire(ExecUnit unit, DefectEffect effect, double rate = 1.0) {
  DefectSpec spec;
  spec.unit = unit;
  spec.effect = effect;
  spec.fvt.base_rate = rate;
  spec.machine_check_fraction = 0.0;
  return spec;
}

std::vector<uint8_t> RandomBytes(Rng& rng, size_t n) {
  std::vector<uint8_t> data(n);
  rng.FillBytes(data.data(), n);
  return data;
}

// --- Core routines on healthy cores match golden -------------------------------------------

TEST(CoreRoutinesTest, MemcpyMatches) {
  SimCore core = HealthyCore();
  Rng rng(1);
  for (size_t n : {0u, 1u, 7u, 8u, 100u, 1000u}) {
    const auto data = RandomBytes(rng, n);
    EXPECT_EQ(CoreMemcpy(core, data), data);
  }
}

TEST(CoreRoutinesTest, Fnv1aMatchesGolden) {
  SimCore core = HealthyCore();
  Rng rng(2);
  for (size_t n : {0u, 1u, 8u, 9u, 63u, 256u}) {
    const auto data = RandomBytes(rng, n);
    EXPECT_EQ(CoreFnv1a64(core, data), Fnv1a64(data)) << "n=" << n;
  }
}

TEST(CoreRoutinesTest, Crc32MatchesGolden) {
  SimCore core = HealthyCore();
  Rng rng(3);
  for (size_t n : {0u, 1u, 64u, 65u, 500u}) {
    const auto data = RandomBytes(rng, n);
    EXPECT_EQ(CoreCrc32(core, data), Crc32(data)) << "n=" << n;
  }
}

TEST(CoreRoutinesTest, AesCtrMatchesGolden) {
  SimCore core = HealthyCore();
  Rng rng(4);
  uint8_t key[16];
  rng.FillBytes(key, 16);
  for (size_t n : {0u, 5u, 16u, 47u, 256u}) {
    const auto data = RandomBytes(rng, n);
    const auto on_core = CoreAesCtr(core, key, 7, data);
    const auto golden = AesCtrTransform(ExpandAesKey(key), 7, data);
    EXPECT_EQ(on_core, golden) << "n=" << n;
  }
}

TEST(CoreRoutinesTest, AesBlockHelpersRoundTrip) {
  SimCore core = HealthyCore();
  Rng rng(5);
  uint8_t key[16];
  rng.FillBytes(key, 16);
  const AesKeySchedule schedule = ExpandAesKey(key);
  AesBlock block;
  rng.FillBytes(block.data(), block.size());
  const AesBlock ct = CoreAesEncryptBlock(core, schedule, block);
  EXPECT_EQ(ct, AesEncryptBlock(schedule, block));
  EXPECT_EQ(CoreAesDecryptBlock(core, schedule, ct), block);
}

TEST(CoreRoutinesTest, LzDecompressMatchesGolden) {
  SimCore core = HealthyCore();
  Rng rng(6);
  // Mixed compressible payload.
  std::vector<uint8_t> data;
  for (int i = 0; i < 50; ++i) {
    const auto chunk = RandomBytes(rng, 20);
    data.insert(data.end(), chunk.begin(), chunk.end());
    data.insert(data.end(), chunk.begin(), chunk.end());  // guaranteed matches
  }
  const auto compressed = LzCompress(data);
  const auto result = CoreLzDecompress(core, compressed);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, data);
}

TEST(CoreRoutinesTest, LzDecompressRejectsMalformed) {
  SimCore core = HealthyCore();
  EXPECT_FALSE(CoreLzDecompress(core, {0x80}).ok());
  EXPECT_FALSE(CoreLzDecompress(core, {0x00, 'a', 0x80, 0x05, 0x00}).ok());
  EXPECT_FALSE(CoreLzDecompress(core, {10, 'a'}).ok());
}

TEST(CoreRoutinesTest, MergeSortMatchesStdSort) {
  SimCore core = HealthyCore();
  Rng rng(7);
  for (size_t n : {0u, 1u, 2u, 3u, 17u, 64u, 255u, 1000u}) {
    std::vector<uint64_t> keys(n);
    for (auto& k : keys) {
      k = rng.NextU64() % 100;  // plenty of duplicates
    }
    std::vector<uint64_t> golden = keys;
    std::sort(golden.begin(), golden.end());
    EXPECT_EQ(CoreMergeSort(core, keys), golden) << "n=" << n;
  }
}

TEST(CoreRoutinesTest, MatmulMatchesGolden) {
  SimCore core = HealthyCore();
  Rng rng(8);
  Matrix a(6, 4);
  Matrix b(4, 5);
  for (auto& v : a.data()) {
    v = rng.NextDouble();
  }
  for (auto& v : b.data()) {
    v = rng.NextDouble();
  }
  EXPECT_LT(CoreMatmul(core, a, b).MaxAbsDiff(Multiply(a, b)), 1e-12);
}

TEST(CoreRoutinesTest, VectorXorFoldMatchesScalarFold) {
  SimCore core = HealthyCore();
  Rng rng(9);
  for (size_t n : {0u, 1u, 15u, 16u, 17u, 250u}) {
    const auto data = RandomBytes(rng, n);
    uint64_t expected = 0;
    for (size_t i = 0; i < n; i += 16) {
      uint8_t buffer[16] = {0};
      std::copy(data.begin() + i, data.begin() + std::min(n, i + 16), buffer);
      uint64_t lo;
      uint64_t hi;
      std::memcpy(&lo, buffer, 8);
      std::memcpy(&hi, buffer + 8, 8);
      expected ^= lo ^ hi;
    }
    EXPECT_EQ(CoreVectorXorFold(core, data), expected) << "n=" << n;
  }
}

// --- Corruption propagation through routines -----------------------------------------------

TEST(CoreRoutinesTest, CopyStuckBitCorruptsMemcpyAtFixedPosition) {
  // The paper's "repeated bit-flips in strings at a particular bit position".
  SimCore core = HealthyCore();
  DefectSpec spec = AlwaysFire(ExecUnit::kCopy, DefectEffect::kStuckSet, 1.0);
  spec.bit_index = 9;  // bit 1 of byte 1 in every 8-byte chunk
  core.AddDefect(spec);
  std::vector<uint8_t> data(64, 0x00);
  const auto copy = CoreMemcpy(core, data);
  for (size_t chunk = 0; chunk < 8; ++chunk) {
    EXPECT_EQ(copy[chunk * 8 + 1], 0x02) << "chunk " << chunk;
    EXPECT_EQ(copy[chunk * 8 + 0], 0x00);
  }
}

TEST(CoreRoutinesTest, SelfInvertingAesRoundTripsOnDefectiveCoreOnly) {
  SimCore bad = HealthyCore(1);
  DefectSpec spec = AlwaysFire(ExecUnit::kAes, DefectEffect::kRconCorrupt);
  spec.opcode_mask = 1ull << kAesOpRcon;
  bad.AddDefect(spec);
  SimCore good = HealthyCore(2);

  Rng rng(10);
  uint8_t key[16];
  rng.FillBytes(key, 16);
  const auto plaintext = RandomBytes(rng, 128);

  const auto ciphertext = CoreAesCtr(bad, key, 3, plaintext);
  // Same-core round trip: identity.
  EXPECT_EQ(CoreAesCtr(bad, key, 3, ciphertext), plaintext);
  // Cross-core: gibberish in both directions.
  EXPECT_NE(CoreAesCtr(good, key, 3, ciphertext), plaintext);
  EXPECT_NE(ciphertext, CoreAesCtr(good, key, 3, plaintext));
}

// --- Workload corpus ------------------------------------------------------------------------

class WorkloadKindTest : public ::testing::TestWithParam<int> {};

TEST_P(WorkloadKindTest, HealthyCoreProducesNoSymptoms) {
  const auto kind = static_cast<WorkloadKind>(GetParam());
  WorkloadOptions options;
  options.payload_bytes = 512;
  options.check_probability = 1.0;
  auto workload = MakeWorkload(kind, options);
  SimCore core = HealthyCore();
  Rng rng(100 + GetParam());
  for (int i = 0; i < 10; ++i) {
    const WorkloadResult result = workload->Run(core, rng);
    EXPECT_EQ(static_cast<int>(result.symptom), static_cast<int>(Symptom::kNone))
        << WorkloadKindName(kind) << " iteration " << i;
    EXPECT_FALSE(result.wrong_output);
    EXPECT_GT(result.ops, 0u);
  }
}

TEST_P(WorkloadKindTest, NameAndUnitsAreDeclared) {
  // The placement profiles carry each kind's units and must stay index-aligned with the kinds.
  const auto kind = static_cast<WorkloadKind>(GetParam());
  auto workload = MakeWorkload(kind, WorkloadOptions{});
  EXPECT_EQ(workload->name(), WorkloadKindName(kind));
  const std::vector<WorkloadProfile> profiles = PlacementPlanner::StandardProfiles();
  ASSERT_EQ(profiles.size(), static_cast<size_t>(kWorkloadKindCount));
  EXPECT_EQ(profiles[GetParam()].name, WorkloadKindName(kind));
  EXPECT_FALSE(profiles[GetParam()].units_exercised.empty());
}

INSTANTIATE_TEST_SUITE_P(AllKinds, WorkloadKindTest, ::testing::Range(0, kWorkloadKindCount));

// Pairs each workload with a defect in a unit it exercises and expects observable trouble.
struct FaultCase {
  WorkloadKind kind;
  ExecUnit unit;
  DefectEffect effect;
};

class WorkloadFaultTest : public ::testing::TestWithParam<FaultCase> {};

TEST_P(WorkloadFaultTest, DefectInExercisedUnitCausesWrongOutputs) {
  const FaultCase& fault = GetParam();
  WorkloadOptions options;
  options.payload_bytes = 512;
  options.check_probability = 1.0;
  options.late_check_fraction = 0.0;
  auto workload = MakeWorkload(fault.kind, options);

  SimCore core = HealthyCore();
  DefectSpec spec = AlwaysFire(fault.unit, fault.effect, 0.02);
  // For FP results a low mantissa bit is numerically invisible; flip a high one.
  spec.bit_index = fault.unit == ExecUnit::kFp ? 50 : 3;
  core.AddDefect(spec);

  Rng rng(7);
  int troubled = 0;
  for (int i = 0; i < 60; ++i) {
    const WorkloadResult result = workload->Run(core, rng);
    if (result.wrong_output || result.symptom != Symptom::kNone) {
      ++troubled;
    }
  }
  EXPECT_GT(troubled, 0) << WorkloadKindName(fault.kind) << " never misbehaved under a defect in "
                         << ExecUnitName(fault.unit);
}

INSTANTIATE_TEST_SUITE_P(
    Pairings, WorkloadFaultTest,
    ::testing::Values(FaultCase{WorkloadKind::kCompression, ExecUnit::kCopy, DefectEffect::kBitFlip},
                      FaultCase{WorkloadKind::kHash, ExecUnit::kIntMul, DefectEffect::kBitFlip},
                      FaultCase{WorkloadKind::kCrypto, ExecUnit::kAes, DefectEffect::kRandomWrong},
                      FaultCase{WorkloadKind::kMemcpy, ExecUnit::kCopy, DefectEffect::kStuckSet},
                      FaultCase{WorkloadKind::kLocking, ExecUnit::kAtomic,
                                DefectEffect::kCasDropStore},
                      FaultCase{WorkloadKind::kSorting, ExecUnit::kStore, DefectEffect::kBitFlip},
                      FaultCase{WorkloadKind::kMatmul, ExecUnit::kFp, DefectEffect::kBitFlip},
                      FaultCase{WorkloadKind::kGarbageCollect, ExecUnit::kLoad,
                                DefectEffect::kBitFlip},
                      FaultCase{WorkloadKind::kDbIndex, ExecUnit::kLoad, DefectEffect::kBitFlip},
                      FaultCase{WorkloadKind::kKernel, ExecUnit::kIntAlu,
                                DefectEffect::kRandomWrong},
                      FaultCase{WorkloadKind::kVectorScan, ExecUnit::kVector,
                                DefectEffect::kBitFlip},
                      FaultCase{WorkloadKind::kArithmetic, ExecUnit::kIntDiv,
                                DefectEffect::kBitFlip}));

TEST(WorkloadTest, NoCheckingMeansSilentCorruption) {
  WorkloadOptions options;
  options.payload_bytes = 256;
  options.check_probability = 0.0;  // application never checks
  auto workload = MakeWorkload(WorkloadKind::kMemcpy, options);
  SimCore core = HealthyCore();
  core.AddDefect(AlwaysFire(ExecUnit::kCopy, DefectEffect::kBitFlip, 0.2));
  Rng rng(8);
  int silent = 0;
  int detected = 0;
  for (int i = 0; i < 50; ++i) {
    const WorkloadResult result = workload->Run(core, rng);
    if (result.symptom == Symptom::kSilentCorruption) {
      ++silent;
    }
    if (result.symptom == Symptom::kDetectedImmediately ||
        result.symptom == Symptom::kDetectedLate) {
      ++detected;
    }
  }
  EXPECT_GT(silent, 0);
  EXPECT_EQ(detected, 0) << "no checks -> nothing detected";
}

TEST(WorkloadTest, FullCheckingConvertsSilentToDetected) {
  WorkloadOptions options;
  options.payload_bytes = 256;
  options.check_probability = 1.0;
  options.late_check_fraction = 0.0;
  auto workload = MakeWorkload(WorkloadKind::kMemcpy, options);
  SimCore core = HealthyCore();
  core.AddDefect(AlwaysFire(ExecUnit::kCopy, DefectEffect::kBitFlip, 0.2));
  Rng rng(9);
  int silent = 0;
  int detected = 0;
  for (int i = 0; i < 50; ++i) {
    const WorkloadResult result = workload->Run(core, rng);
    silent += result.symptom == Symptom::kSilentCorruption ? 1 : 0;
    detected += result.symptom == Symptom::kDetectedImmediately ? 1 : 0;
  }
  EXPECT_EQ(silent, 0);
  EXPECT_GT(detected, 0);
}

TEST(WorkloadTest, LateCheckFractionProducesLateDetections) {
  WorkloadOptions options;
  options.payload_bytes = 256;
  options.check_probability = 1.0;
  options.late_check_fraction = 1.0;  // every catch is too late to retry
  auto workload = MakeWorkload(WorkloadKind::kMemcpy, options);
  SimCore core = HealthyCore();
  core.AddDefect(AlwaysFire(ExecUnit::kCopy, DefectEffect::kBitFlip, 0.3));
  Rng rng(10);
  int late = 0;
  int immediate = 0;
  for (int i = 0; i < 50; ++i) {
    const WorkloadResult result = workload->Run(core, rng);
    late += result.symptom == Symptom::kDetectedLate ? 1 : 0;
    immediate += result.symptom == Symptom::kDetectedImmediately ? 1 : 0;
  }
  EXPECT_GT(late, 0);
  EXPECT_EQ(immediate, 0);
}

TEST(WorkloadTest, CryptoSameCoreCheckBlindToSelfInvertingAes) {
  // E10's core observation at the workload level: the crypto workload self-check is a
  // same-core round trip, so a self-inverting key schedule slips through as SILENT corruption.
  WorkloadOptions options;
  options.payload_bytes = 256;
  options.check_probability = 1.0;
  auto workload = MakeWorkload(WorkloadKind::kCrypto, options);
  SimCore core = HealthyCore();
  DefectSpec spec = AlwaysFire(ExecUnit::kAes, DefectEffect::kRconCorrupt);
  spec.opcode_mask = 1ull << kAesOpRcon;
  core.AddDefect(spec);
  Rng rng(11);
  int silent = 0;
  for (int i = 0; i < 20; ++i) {
    const WorkloadResult result = workload->Run(core, rng);
    EXPECT_TRUE(result.wrong_output) << "every ciphertext is wrong";
    silent += result.symptom == Symptom::kSilentCorruption ? 1 : 0;
  }
  EXPECT_EQ(silent, 20) << "same-core round trip must never catch the self-inverting defect";
}

TEST(WorkloadTest, MachineCheckFractionSurfacesAsMceSymptom) {
  WorkloadOptions options;
  options.payload_bytes = 256;
  auto workload = MakeWorkload(WorkloadKind::kMemcpy, options);
  SimCore core = HealthyCore();
  DefectSpec spec = AlwaysFire(ExecUnit::kCopy, DefectEffect::kBitFlip, 0.1);
  spec.machine_check_fraction = 1.0;
  core.AddDefect(spec);
  Rng rng(12);
  int mce = 0;
  for (int i = 0; i < 50; ++i) {
    mce += workload->Run(core, rng).symptom == Symptom::kMachineCheck ? 1 : 0;
  }
  EXPECT_GT(mce, 0);
}

TEST(WorkloadTest, StandardCorpusCoversAllKinds) {
  const auto corpus = BuildStandardCorpus(WorkloadOptions{});
  ASSERT_EQ(corpus.size(), static_cast<size_t>(kWorkloadKindCount));
  std::set<std::string> names;
  for (const auto& workload : corpus) {
    names.insert(workload->name());
  }
  EXPECT_EQ(names.size(), corpus.size());
}

TEST(WorkloadTest, SymptomNamesAndObservability) {
  EXPECT_STREQ(SymptomName(Symptom::kSilentCorruption), "silent_corruption");
  EXPECT_FALSE(SymptomObservable(Symptom::kNone));
  EXPECT_FALSE(SymptomObservable(Symptom::kSilentCorruption));
  EXPECT_TRUE(SymptomObservable(Symptom::kCrash));
  EXPECT_TRUE(SymptomObservable(Symptom::kMachineCheck));
  EXPECT_TRUE(SymptomObservable(Symptom::kDetectedImmediately));
  EXPECT_TRUE(SymptomObservable(Symptom::kDetectedLate));
}

// --- Stress battery --------------------------------------------------------------------------

TEST(StressTest, HealthyCorePassesFullBattery) {
  SimCore core = HealthyCore();
  Rng rng(13);
  StressOptions options;
  options.iterations_per_unit = 64;
  const StressReport report = RunStressBattery(core, rng, options);
  EXPECT_TRUE(report.passed());
  EXPECT_TRUE(report.FailedUnits().empty());
  EXPECT_EQ(report.per_unit.size(), static_cast<size_t>(kExecUnitCount));
  EXPECT_GT(report.total_ops, 0u);
}

class StressUnitTest : public ::testing::TestWithParam<int> {};

TEST_P(StressUnitTest, DefectiveUnitIsCaught) {
  const auto unit = static_cast<ExecUnit>(GetParam());
  SimCore core = HealthyCore();
  DefectSpec spec = AlwaysFire(unit, DefectEffect::kBitFlip, 0.5);
  if (unit == ExecUnit::kAtomic) {
    spec.effect = DefectEffect::kCasDropStore;
  }
  if (unit == ExecUnit::kAes) {
    spec.effect = DefectEffect::kRconCorrupt;
    spec.opcode_mask = 1ull << kAesOpRcon;
  }
  core.AddDefect(spec);
  Rng rng(14);
  const UnitStressResult result = StressUnit(core, rng, unit, 128);
  EXPECT_FALSE(result.passed()) << ExecUnitName(unit);
  EXPECT_GT(result.mismatches, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllUnits, StressUnitTest, ::testing::Range(0, kExecUnitCount));

TEST(StressTest, RestrictedCoverageMissesUncoveredUnit) {
  SimCore core = HealthyCore();
  core.AddDefect(AlwaysFire(ExecUnit::kVector, DefectEffect::kBitFlip, 1.0));
  Rng rng(15);
  StressOptions options;
  options.iterations_per_unit = 64;
  options.units = {ExecUnit::kIntAlu, ExecUnit::kLoad};  // vector test not yet developed
  const StressReport report = RunStressBattery(core, rng, options);
  EXPECT_TRUE(report.passed()) << "a zero-day defect evades a battery that can't test its unit";
}

TEST(StressTest, FvtSweepCatchesCornerConditionDefect) {
  // Defect only fires at the low-voltage corner: nominal-only screening misses it, the sweep
  // finds it.
  SimCore core = HealthyCore();
  core.set_dvfs(DvfsCurve{1.0, 3.5, 0.65, 1.10});
  DefectSpec spec = AlwaysFire(ExecUnit::kIntAlu, DefectEffect::kBitFlip, 1e-7);
  spec.fvt.volt_slope = 60.0;  // ~e^15 at the droop corner
  core.AddDefect(spec);
  Rng rng(16);

  StressOptions nominal_only;
  nominal_only.iterations_per_unit = 256;
  nominal_only.units = {ExecUnit::kIntAlu};
  core.set_operating_point(OperatingPoint{2.5, 60.0});
  EXPECT_TRUE(RunStressBattery(core, rng, nominal_only).passed());

  StressOptions sweep = nominal_only;
  sweep.sweep = StandardScreeningSweep();
  const StressReport swept = RunStressBattery(core, rng, sweep);
  EXPECT_FALSE(swept.passed()) << "the droop corner must expose the voltage-sensitive defect";
}

TEST(StressTest, BatteryRestoresOperatingPoint) {
  SimCore core = HealthyCore();
  const OperatingPoint original{2.0, 55.0};
  core.set_operating_point(original);
  Rng rng(17);
  StressOptions options;
  options.iterations_per_unit = 8;
  options.sweep = StandardScreeningSweep();
  RunStressBattery(core, rng, options);
  EXPECT_EQ(core.operating_point(), original);
}

TEST(StressTest, SweepSplitsIterationBudget) {
  SimCore core = HealthyCore();
  Rng rng(18);
  StressOptions one_point;
  one_point.iterations_per_unit = 90;
  one_point.units = {ExecUnit::kIntAlu};
  const StressReport single = RunStressBattery(core, rng, one_point);

  StressOptions three_points = one_point;
  three_points.sweep = StandardScreeningSweep();
  const StressReport swept = RunStressBattery(core, rng, three_points);
  EXPECT_EQ(single.per_unit[0].iterations, swept.per_unit[0].iterations)
      << "sweeping must not triple the iteration cost";
}

// --- Skipped units match executed units -----------------------------------------------------
//
// A core with the fast path on skips every (unit, sweep point) where no defect on the unit is
// armed; its twin with the fast path off executes every op. The twins must agree op for op:
// same results, same counters, the battery's stream at the same point, and the core's own
// stream untouched by the skip.

struct SkipCase {
  const char* name;
  std::vector<DefectSpec> defects;
  bool skips;  // whether the unit under test is skipped at every sweep point
};

std::vector<SkipCase> SkipCases(ExecUnit unit) {
  DefectSpec armed = AlwaysFire(unit, DefectEffect::kBitFlip, 0.05);
  armed.machine_check_fraction = 0.3;
  if (unit == ExecUnit::kAtomic) {
    armed.effect = DefectEffect::kCasPhantomStore;
  }
  DefectSpec latent = armed;
  latent.aging.onset = SimTime::Days(400);  // the twins are 100 days old
  DefectSpec no_opcode = AlwaysFire(unit, DefectEffect::kBitFlip);
  no_opcode.opcode_mask = 0;
  DefectSpec unsatisfiable = AlwaysFire(unit, DefectEffect::kBitFlip);
  unsatisfiable.trigger = {0xff, 0x100};  // value has a bit outside the mask
  DefectSpec rcon = AlwaysFire(ExecUnit::kAes, DefectEffect::kRconCorrupt, 0.3);
  rcon.opcode_mask = 1ull << kAesOpRcon;
  const DefectSpec drop_store = AlwaysFire(ExecUnit::kAtomic, DefectEffect::kCasDropStore, 0.3);
  return {
      {"no defect", {}, true},
      {"armed defect", {armed}, false},
      {"pre-onset latent defect", {latent}, true},
      {"opcode mask 0", {no_opcode}, true},
      {"unsatisfiable trigger", {unsatisfiable}, true},
      {"rcon-only defect on aes", {rcon}, unit != ExecUnit::kAes},
      {"cas drop-store defect on atomic", {drop_store}, unit != ExecUnit::kAtomic},
  };
}

class SkippedUnitTest : public ::testing::TestWithParam<int> {};

TEST_P(SkippedUnitTest, MatchesExecutedUnitOpForOp) {
  const auto unit = static_cast<ExecUnit>(GetParam());
  // An armed defect on another unit: a burst of its ops after the battery shows whether the
  // core's own stream moved.
  const ExecUnit witness = unit == ExecUnit::kIntMul ? ExecUnit::kIntAlu : ExecUnit::kIntMul;
  DefectSpec witness_defect = AlwaysFire(witness, DefectEffect::kBitFlip, 0.3);
  witness_defect.machine_check_fraction = 0.2;
  uint64_t fired = 0;
  for (const SkipCase& c : SkipCases(unit)) {
    SCOPED_TRACE(std::string(ExecUnitName(unit)) + ", " + c.name);
    SimCore skip(7, Rng(77));
    SimCore execute(7, Rng(77));
    execute.set_fast_path(false);
    for (SimCore* core : {&skip, &execute}) {
      core->set_age(SimTime::Days(100));
      for (const DefectSpec& spec : c.defects) {
        core->AddDefect(spec);
      }
      core->AddDefect(witness_defect);
      core->Div(1, 0);  // a machine check left pending before the battery
    }
    Rng skip_rng(99);
    Rng execute_rng(99);
    bool first_point = true;
    for (const OperatingPoint& point : StandardScreeningSweep()) {
      skip.set_operating_point(point);
      execute.set_operating_point(point);
      ASSERT_EQ(skip.CanSkipOps(unit), c.skips);
      ASSERT_FALSE(execute.CanSkipOps(unit));
      const UnitStressResult skipped = StressUnit(skip, skip_rng, unit, 200);
      const UnitStressResult executed = StressUnit(execute, execute_rng, unit, 200);
      ASSERT_EQ(skipped, executed);
      ASSERT_EQ(skip.counters(), execute.counters());
      ASSERT_EQ(skip_rng.NextU64(), execute_rng.NextU64());
      if (first_point) {
        EXPECT_TRUE(skipped.machine_check) << "the pending machine check lands on point 0";
        first_point = false;
      }
    }
    for (int i = 0; i < 500; ++i) {
      const uint64_t a = skip_rng.NextU64();
      const uint64_t b = skip_rng.NextU64();
      ASSERT_EQ(skip.Alu(AluOp::kXor, a, b), execute.Alu(AluOp::kXor, a, b));
      ASSERT_EQ(skip.Mul(a, b), execute.Mul(a, b));
      ASSERT_EQ(skip.TakePendingMachineCheck(), execute.TakePendingMachineCheck());
    }
    ASSERT_EQ(skip.counters(), execute.counters());
    fired += skip.counters().corruptions + skip.counters().machine_checks;
  }
  EXPECT_GT(fired, 100u);
}

INSTANTIATE_TEST_SUITE_P(AllUnits, SkippedUnitTest, ::testing::Range(0, kExecUnitCount));

TEST(StressTest, SkippedBatteryMatchesExecutedBattery) {
  // A full swept battery on a core whose only defects are behavioural (rcon and CAS): nine
  // units are skipped at every point. A machine check pending before the battery must land
  // on the same unit, the first one, on both twins.
  SimCore skip(3, Rng(33));
  SimCore execute(3, Rng(33));
  execute.set_fast_path(false);
  DefectSpec rcon = AlwaysFire(ExecUnit::kAes, DefectEffect::kRconCorrupt, 0.2);
  rcon.opcode_mask = 1ull << kAesOpRcon;
  for (SimCore* core : {&skip, &execute}) {
    core->AddDefect(rcon);
    core->AddDefect(AlwaysFire(ExecUnit::kAtomic, DefectEffect::kCasDropStore, 0.1));
    core->Div(1, 0);
  }
  StressOptions options;
  options.iterations_per_unit = 300;
  options.sweep = StandardScreeningSweep();
  Rng skip_rng(5);
  Rng execute_rng(5);
  const StressReport skipped = RunStressBattery(skip, skip_rng, options);
  const StressReport executed = RunStressBattery(execute, execute_rng, options);
  EXPECT_EQ(skipped.per_unit, executed.per_unit);
  EXPECT_EQ(skipped.total_ops, executed.total_ops);
  EXPECT_EQ(skip.counters(), execute.counters());
  EXPECT_EQ(skip_rng.NextU64(), execute_rng.NextU64());
  EXPECT_TRUE(skipped.per_unit[0].machine_check);
  EXPECT_EQ(skipped.FailedUnits(),
            (std::vector<ExecUnit>{ExecUnit::kIntAlu, ExecUnit::kAes, ExecUnit::kAtomic}));
}

}  // namespace
}  // namespace mercurial
