// Directed per-unit stress tests — the screening corpus (cpu-check analog).
//
// Each unit test executes randomized micro-ops on one execution unit and compares every result
// against the golden substrate ("extracting confessions", §6). A battery sweeps all units,
// optionally across a set of operating points, because "the order in which tests are run and
// swept through the (f, V, T) space can impact time-to-failure" (§4): some defects only fire
// at frequency/voltage/temperature corners, and data-pattern-triggered defects are found only
// if a matching operand pattern is drawn — both sources of the paper's "limited
// reproducibility".

#ifndef MERCURIAL_SRC_WORKLOAD_STRESS_H_
#define MERCURIAL_SRC_WORKLOAD_STRESS_H_

#include <vector>

#include "src/common/rng.h"
#include "src/sim/core.h"

namespace mercurial {

struct UnitStressResult {
  ExecUnit unit = ExecUnit::kIntAlu;
  uint64_t iterations = 0;
  uint64_t mismatches = 0;   // results that differed from golden
  bool machine_check = false;

  bool passed() const { return mismatches == 0 && !machine_check; }
  bool operator==(const UnitStressResult&) const = default;
};

struct StressReport {
  std::vector<UnitStressResult> per_unit;
  uint64_t total_ops = 0;

  bool passed() const;
  // Units with at least one mismatch or machine check.
  std::vector<ExecUnit> FailedUnits() const;
};

struct StressOptions {
  uint64_t iterations_per_unit = 256;
  // Operating points to sweep; empty means "test at the core's current point". The core's
  // point is restored afterwards.
  std::vector<OperatingPoint> sweep;
  // Units the battery knows how to test; empty = all. Models the corpus-coverage growth of
  // §6 ("testing has expanded to new classes of CEEs ... a few times per year"): a defect in
  // an uncovered unit is a zero-day the battery cannot confess.
  std::vector<ExecUnit> units;
};

// Standard offline-screening sweep: nominal point, max frequency + hot, and min frequency
// (low voltage, the droop corner).
std::vector<OperatingPoint> StandardScreeningSweep();

// Stresses a single unit at the core's current operating point. Where core.CanSkipOps(unit)
// holds (fast path on, no defect on the unit armed at this point) every op would match its
// golden result, so none is executed: each iteration makes its draws from `rng` alone, the
// ops are counted on the core in one step, and a machine check left pending is taken once.
// The result, the core's counters and both streams end as executing every op leaves them;
// with the fast path off every op executes, which is what the equivalence tests compare.
UnitStressResult StressUnit(SimCore& core, Rng& rng, ExecUnit unit, uint64_t iterations);

// Full battery over all units (and the f/V/T sweep if given).
StressReport RunStressBattery(SimCore& core, Rng& rng, const StressOptions& options);

}  // namespace mercurial

#endif  // MERCURIAL_SRC_WORKLOAD_STRESS_H_
