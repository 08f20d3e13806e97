// A catalog of defect archetypes drawn from the paper's observed CEE examples (§2, §5).
//
// The fleet builder samples from this catalog when planting mercurial cores, so a simulated
// fleet exhibits the same qualitative mix Google reports: corruptions "scattered across many
// functions" with "some general patterns", rates spanning "many orders of magnitude", f/V/T
// sensitivity that varies per defect, and occasional deterministic cases.

#ifndef MERCURIAL_SRC_SIM_DEFECT_CATALOG_H_
#define MERCURIAL_SRC_SIM_DEFECT_CATALOG_H_

#include <vector>

#include "src/common/rng.h"
#include "src/sim/defect.h"

namespace mercurial {

enum class DefectClass : uint8_t {
  kAluWrongResult = 0,   // sporadic wrong scalar results
  kVectorBitFlip,        // SIMD lane bit flips ("data corruptions exhibited by vector ops")
  kCopyStuckBit,         // "repeated bit-flips in strings at a particular bit position"
  kLoadCorrupt,          // load-path corruption
  kStoreCorrupt,         // store-path corruption
  kSelfInvertingAes,     // the deterministic AES case study
  kLockDrop,             // "violations of lock semantics"
  kCrcWrong,             // checksum unit miscomputation
  kFpWrong,              // floating-point corruption
  kDeterministicAlu,     // data-pattern-triggered, deterministically reproducible
};

inline constexpr int kDefectClassCount = 10;

const char* DefectClassName(DefectClass klass);

// Tuning for catalog draws.
struct CatalogOptions {
  // Log10 range of per-op base firing rates ("corruption rates vary by many orders of
  // magnitude"): rates are drawn log-uniformly in [10^log10_rate_min, 10^log10_rate_max].
  double log10_rate_min = -6.5;
  double log10_rate_max = -3.0;
  // Probability of a latent (aged-onset) defect, and the onset window.
  double p_latent = 0.35;
  SimTime max_onset = SimTime::Days(3 * 365);
  // Fraction of firings escalating to machine checks (drawn uniformly in
  // [min_machine_check_fraction, max_machine_check_fraction]). Setting both to 1.0 models
  // §7.1's conservatively designed units: defects are fail-noisy, never silent.
  double min_machine_check_fraction = 0.0;
  double max_machine_check_fraction = 0.25;
  // Probability that the defect only fires on a data pattern.
  double p_data_triggered = 0.25;
};

// Draws a concrete DefectSpec for a class; all randomness comes from `rng`.
DefectSpec DrawDefect(DefectClass klass, const CatalogOptions& options, Rng& rng);

// Draws a defect of a random class using the catalog's class weights (vector/copy defects are
// more common, matching the paper's emphasis on copy/vector sharing defective logic).
DefectSpec DrawRandomDefect(const CatalogOptions& options, Rng& rng);

// All classes, for parameterized tests and sweeps.
std::vector<DefectClass> AllDefectClasses();

}  // namespace mercurial

#endif  // MERCURIAL_SRC_SIM_DEFECT_CATALOG_H_
