// E12: SDC-resilient algorithms under fault injection (§7, §9).
//
// Paper claims reproduced:
//   * "Blum and Kannan discussed some classes of algorithms for which efficient checkers
//     exist" — the sort checker and the Freivalds matmul checker are asymptotically cheaper
//     than the computations they certify;
//   * extends the fault-injection evaluation style of the cited sorting [11] and matrix
//     factorization [27] work: detection/correction rates and overheads for checked sorting,
//     ABFT matmul, and checked LU, across defect rates.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "src/common/csv.h"
#include "src/common/rng.h"
#include "src/mitigate/abft.h"
#include "src/sim/core.h"
#include "src/substrate/checksum.h"
#include "src/workload/core_routines.h"

using namespace mercurial;

namespace {

Matrix RandomMatrix(Rng& rng, size_t n) {
  Matrix m(n, n);
  for (auto& v : m.data()) {
    v = rng.NextDouble() * 2.0 - 1.0;
  }
  return m;
}

std::unique_ptr<SimCore> BadCore(uint64_t seed, ExecUnit unit, double rate, int bit) {
  auto core = std::make_unique<SimCore>(seed, Rng(seed));
  DefectSpec spec;
  spec.unit = unit;
  spec.effect = DefectEffect::kBitFlip;
  spec.fvt.base_rate = rate;
  spec.bit_index = bit;
  core->AddDefect(spec);
  return core;
}

}  // namespace

int main() {
  std::printf("# E12 — SDC-resilient algorithms under fault injection\n");
  constexpr int kTrials = 150;

  CsvWriter csv(stdout);

  // --- checked sorting ------------------------------------------------------------------
  std::printf("# checked sorting (order + multiset-digest checker, retry on another core)\n");
  csv.Header({"store_defect_rate", "unprotected_wrong_pct", "checked_wrong_pct",
              "checked_abort_pct", "mean_attempts"});
  for (double rate : {1e-4, 1e-3, 5e-3}) {
    auto bad = BadCore(1, ExecUnit::kStore, rate, 7);
    SimCore good(2, Rng(2));
    std::vector<SimCore*> pool{bad.get(), &good};
    Rng rng(11);
    int unprotected_wrong = 0;
    int checked_wrong = 0;
    int aborts = 0;
    CheckedSortStats stats;
    for (int trial = 0; trial < kTrials; ++trial) {
      std::vector<uint64_t> keys(512);
      for (auto& k : keys) {
        k = rng.NextU64();
      }
      std::vector<uint64_t> golden = keys;
      std::sort(golden.begin(), golden.end());
      // Unprotected: run on the defective core, ship whatever comes out.
      unprotected_wrong += CoreMergeSort(*bad, keys) != golden ? 1 : 0;
      // Checked: detection + retry over the pool.
      const auto result = CheckedSort(keys, pool, 3, &stats);
      if (!result.ok()) {
        ++aborts;
      } else {
        checked_wrong += *result != golden ? 1 : 0;
      }
    }
    csv.Row({CsvWriter::Num(rate), CsvWriter::Num(100.0 * unprotected_wrong / kTrials),
             CsvWriter::Num(100.0 * checked_wrong / kTrials),
             CsvWriter::Num(100.0 * aborts / kTrials),
             CsvWriter::Num(1.0 + static_cast<double>(stats.retries) / kTrials)});
  }
  std::printf("# expected: unprotected wrong%% grows with rate; checked wrong%% is 0 at every\n");
  std::printf("# rate (the checker is sound); attempts grow mildly with rate.\n\n");

  // --- ABFT matmul ----------------------------------------------------------------------
  std::printf("# ABFT matmul (checksum row/column; locate + correct single bad cell)\n");
  csv.Header({"fp_defect_rate", "runs_corrupted_pct", "detected_pct_of_corrupted",
              "corrected_pct_of_corrupted", "silent_escape_pct"});
  for (double rate : {1e-5, 1e-4, 5e-4}) {
    auto bad = BadCore(3, ExecUnit::kFp, rate, 51);
    Rng rng(13);
    int corrupted = 0;
    int detected = 0;
    int corrected = 0;
    int escaped = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      const Matrix a = RandomMatrix(rng, 12);
      const Matrix b = RandomMatrix(rng, 12);
      const Matrix golden = Multiply(a, b);
      const AbftMatmulResult result = AbftMatmul(*bad, a, b);
      const bool final_wrong = result.product.MaxAbsDiff(golden) > 1e-6;
      const bool was_corrupted = result.corruption_detected || final_wrong;
      corrupted += was_corrupted ? 1 : 0;
      detected += result.corruption_detected ? 1 : 0;
      corrected += result.corrected && !final_wrong ? 1 : 0;
      escaped += final_wrong && !result.corruption_detected ? 1 : 0;
    }
    csv.Row({CsvWriter::Num(rate), CsvWriter::Num(100.0 * corrupted / kTrials),
             CsvWriter::Num(corrupted == 0 ? 0.0 : 100.0 * detected / corrupted),
             CsvWriter::Num(corrupted == 0 ? 0.0 : 100.0 * corrected / corrupted),
             CsvWriter::Num(100.0 * escaped / kTrials)});
  }
  std::printf("# expected: detection ~100%% of corrupted runs; single-cell corruptions (the\n");
  std::printf("# common case at low rates) also get CORRECTED in place; silent escapes ~0.\n\n");

  // --- checker cost asymmetry -------------------------------------------------------------
  std::printf("# Blum-Kannan cost asymmetry: checker work vs computation work\n");
  csv.Header({"n", "matmul_fp_ops", "freivalds_host_ops", "checker_cost_pct"});
  for (size_t n : {8u, 16u, 32u}) {
    const double compute = 2.0 * n * n * n;           // matmul FLOPs
    const double check = 3.0 * 2.0 * n * n * 2.0;     // 2 rounds of Freivalds, 3 mat-vec each
    csv.Row({CsvWriter::Num(static_cast<uint64_t>(n)), CsvWriter::Num(compute),
             CsvWriter::Num(check), CsvWriter::Num(100.0 * check / compute)});
  }
  std::printf("# expected: checker cost share shrinks as n grows (O(n^2) vs O(n^3)) — exactly\n");
  std::printf("# why result checkers beat duplicate execution for checkable algorithms.\n\n");

  // --- checked LU --------------------------------------------------------------------------
  std::printf("# checked LU factorization (reconstruction checker, retry on another core)\n");
  csv.Header({"fp_defect_rate", "unchecked_bad_factor_pct", "checked_bad_pct", "abort_pct"});
  for (double rate : {1e-4, 1e-3}) {
    auto bad = BadCore(4, ExecUnit::kFp, rate, 51);
    SimCore good(5, Rng(5));
    std::vector<SimCore*> pool{bad.get(), &good};
    Rng rng(17);
    int unchecked_bad = 0;
    int checked_bad = 0;
    int aborts = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      Matrix a = RandomMatrix(rng, 10);
      for (size_t i = 0; i < 10; ++i) {
        a.at(i, i) += 5.0;
      }
      const auto unchecked = CoreLuFactorize(*bad, a);
      if (unchecked.ok() &&
          LuReconstruct(*unchecked).MaxAbsDiff(PermuteRows(a, unchecked->pivots)) > 1e-6) {
        ++unchecked_bad;
      }
      const auto checked = CheckedLuFactorize(a, pool, 3);
      if (!checked.ok()) {
        ++aborts;
      } else if (LuReconstruct(*checked).MaxAbsDiff(PermuteRows(a, checked->pivots)) > 1e-6) {
        ++checked_bad;
      }
    }
    csv.Row({CsvWriter::Num(rate), CsvWriter::Num(100.0 * unchecked_bad / kTrials),
             CsvWriter::Num(100.0 * checked_bad / kTrials),
             CsvWriter::Num(100.0 * aborts / kTrials)});
  }
  std::printf("# expected: unchecked factorizations go bad at the injection rate; checked\n");
  std::printf("# ones never ship a bad factorization (0%%), at the cost of occasional retries.\n");
  return 0;
}
