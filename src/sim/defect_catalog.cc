#include "src/sim/defect_catalog.h"

#include <cmath>
#include <string>

#include "src/common/logging.h"
#include "src/sim/core.h"

namespace mercurial {
namespace {

// Class weights for DrawRandomDefect; relative, not normalized.
constexpr double kClassWeights[kDefectClassCount] = {
    /*kAluWrongResult=*/2.0,
    /*kVectorBitFlip=*/3.0,
    /*kCopyStuckBit=*/3.0,
    /*kLoadCorrupt=*/1.5,
    /*kStoreCorrupt=*/1.5,
    /*kSelfInvertingAes=*/0.5,
    /*kLockDrop=*/1.0,
    /*kCrcWrong=*/1.0,
    /*kFpWrong=*/1.0,
    /*kDeterministicAlu=*/0.5,
};

// Probability that a defect carries each environmental sensitivity.
constexpr double kPFreqSensitive = 0.4;
constexpr double kPVoltSensitive = 0.3;  // the inverse-frequency population
constexpr double kPTempSensitive = 0.3;
// Upper bound of a latent defect's drawn AgingProfile::growth_per_year.
constexpr double kMaxGrowthPerYear = 1.5;

double DrawLogUniformRate(const CatalogOptions& options, Rng& rng) {
  const double exponent =
      options.log10_rate_min +
      rng.NextDouble() * (options.log10_rate_max - options.log10_rate_min);
  return std::pow(10.0, exponent);
}

FvtSensitivity DrawSensitivity(const CatalogOptions& options, Rng& rng) {
  FvtSensitivity fvt;
  fvt.base_rate = DrawLogUniformRate(options, rng);
  if (rng.Bernoulli(kPFreqSensitive)) {
    // Positive slope: more failures at higher clocks (1.5..4 nats per GHz).
    fvt.freq_slope = 1.5 + rng.NextDouble() * 2.5;
  }
  if (rng.Bernoulli(kPVoltSensitive)) {
    // Voltage-margin sensitivity: more failures at LOWER voltage. Combined with DVFS this is
    // the paper's "lower frequency sometimes (surprisingly) increases the failure rate".
    fvt.volt_slope = 8.0 + rng.NextDouble() * 12.0;  // nats per volt of droop
  }
  if (rng.Bernoulli(kPTempSensitive)) {
    fvt.temp_slope = 0.3 + rng.NextDouble() * 0.7;  // nats per 10 C
  }
  return fvt;
}

AgingProfile DrawAging(const CatalogOptions& options, Rng& rng) {
  AgingProfile aging;
  if (rng.Bernoulli(options.p_latent)) {
    aging.onset = SimTime::Seconds(
        static_cast<int64_t>(rng.NextDouble() * static_cast<double>(options.max_onset.seconds())));
    aging.growth_per_year = rng.NextDouble() * kMaxGrowthPerYear;
  }
  return aging;
}

DataTrigger MaybeDrawTrigger(const CatalogOptions& options, Rng& rng) {
  DataTrigger trigger;  // default: always fires
  if (rng.Bernoulli(options.p_data_triggered)) {
    // Key on a random byte of the operand signature having a specific value: 1/256 of operand
    // patterns trip the defect.
    const int byte = static_cast<int>(rng.UniformInt(0, 7));
    trigger.mask = 0xffull << (8 * byte);
    trigger.value = rng.UniformInt(0, 255) << (8 * byte);
  }
  return trigger;
}

}  // namespace

const char* DefectClassName(DefectClass klass) {
  switch (klass) {
    case DefectClass::kAluWrongResult:
      return "alu_wrong_result";
    case DefectClass::kVectorBitFlip:
      return "vector_bit_flip";
    case DefectClass::kCopyStuckBit:
      return "copy_stuck_bit";
    case DefectClass::kLoadCorrupt:
      return "load_corrupt";
    case DefectClass::kStoreCorrupt:
      return "store_corrupt";
    case DefectClass::kSelfInvertingAes:
      return "self_inverting_aes";
    case DefectClass::kLockDrop:
      return "lock_drop";
    case DefectClass::kCrcWrong:
      return "crc_wrong";
    case DefectClass::kFpWrong:
      return "fp_wrong";
    case DefectClass::kDeterministicAlu:
      return "deterministic_alu";
  }
  return "unknown";
}

std::vector<DefectClass> AllDefectClasses() {
  std::vector<DefectClass> classes;
  classes.reserve(kDefectClassCount);
  for (int i = 0; i < kDefectClassCount; ++i) {
    classes.push_back(static_cast<DefectClass>(i));
  }
  return classes;
}

DefectSpec DrawDefect(DefectClass klass, const CatalogOptions& options, Rng& rng) {
  DefectSpec spec;
  spec.fvt = DrawSensitivity(options, rng);
  spec.aging = DrawAging(options, rng);
  spec.trigger = MaybeDrawTrigger(options, rng);
  spec.machine_check_fraction =
      options.min_machine_check_fraction +
      rng.NextDouble() *
          (options.max_machine_check_fraction - options.min_machine_check_fraction);
  spec.label = DefectClassName(klass);

  switch (klass) {
    case DefectClass::kAluWrongResult:
      spec.unit = ExecUnit::kIntAlu;
      spec.effect = DefectEffect::kRandomWrong;
      break;
    case DefectClass::kVectorBitFlip:
      spec.unit = ExecUnit::kVector;
      spec.effect = DefectEffect::kBitFlip;
      spec.bit_index = static_cast<int>(rng.UniformInt(0, 127));
      break;
    case DefectClass::kCopyStuckBit: {
      spec.unit = ExecUnit::kCopy;
      const bool stuck_set = rng.Bernoulli(0.5);
      spec.effect = stuck_set ? DefectEffect::kStuckSet : DefectEffect::kStuckClear;
      spec.bit_index = static_cast<int>(rng.UniformInt(0, 63));
      break;
    }
    case DefectClass::kLoadCorrupt:
      spec.unit = ExecUnit::kLoad;
      spec.effect = DefectEffect::kBitFlip;
      spec.bit_index = -1;  // random bit per firing
      break;
    case DefectClass::kStoreCorrupt:
      spec.unit = ExecUnit::kStore;
      spec.effect = DefectEffect::kBitFlip;
      spec.bit_index = -1;
      break;
    case DefectClass::kSelfInvertingAes:
      spec.unit = ExecUnit::kAes;
      spec.effect = DefectEffect::kRconCorrupt;
      spec.opcode_mask = 1ull << kAesOpRcon;
      spec.xor_mask = 1ull << rng.UniformInt(0, 7);
      // Deterministic: fires on every key expansion, no env sensitivity, no MCEs.
      spec.fvt = FvtSensitivity{};
      spec.fvt.base_rate = 1.0;
      spec.trigger = DataTrigger{};
      spec.machine_check_fraction = 0.0;
      break;
    case DefectClass::kLockDrop:
      spec.unit = ExecUnit::kAtomic;
      spec.effect = rng.Bernoulli(0.8) ? DefectEffect::kCasDropStore
                                       : DefectEffect::kCasPhantomStore;
      spec.machine_check_fraction = 0.0;  // lock bugs manifest as corruption/crash, not MCE
      break;
    case DefectClass::kCrcWrong:
      spec.unit = ExecUnit::kCrc;
      spec.effect = DefectEffect::kRandomWrong;
      break;
    case DefectClass::kFpWrong:
      spec.unit = ExecUnit::kFp;
      spec.effect = DefectEffect::kBitFlip;
      // High mantissa / low exponent bits: corruptions large enough to matter numerically.
      spec.bit_index = static_cast<int>(rng.UniformInt(40, 62));
      break;
    case DefectClass::kDeterministicAlu:
      spec.unit = ExecUnit::kIntAlu;
      spec.effect = DefectEffect::kDeterministicWrong;
      spec.xor_mask = rng.NextU64();
      // Deterministic cases in the paper still require "implementation-level and environmental
      // details to line up": always data-triggered.
      spec.trigger.mask = 0xffull;
      spec.trigger.value = rng.UniformInt(0, 255);
      spec.fvt.base_rate = 1.0;  // when the pattern matches, it always miscomputes
      spec.machine_check_fraction = 0.0;
      break;
  }
  spec.label = std::string(DefectClassName(klass));
  return spec;
}

DefectSpec DrawRandomDefect(const CatalogOptions& options, Rng& rng) {
  double total_weight = 0.0;
  for (double w : kClassWeights) {
    total_weight += w;
  }
  double draw = rng.NextDouble() * total_weight;
  for (int i = 0; i < kDefectClassCount; ++i) {
    draw -= kClassWeights[i];
    if (draw <= 0.0) {
      return DrawDefect(static_cast<DefectClass>(i), options, rng);
    }
  }
  return DrawDefect(DefectClass::kVectorBitFlip, options, rng);
}

}  // namespace mercurial
