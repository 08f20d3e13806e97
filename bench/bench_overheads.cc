// E4: detection/mitigation overhead factors (§3, §7).
//
// Paper claims reproduced:
//   * "Detecting CEEs naively seems to imply a factor of two of extra work. Automatic
//     correction seems to possibly require triple work (e.g. via triple modular redundancy)."
//   * "Storage and networking can better tolerate low-level errors because they typically
//     operate on relatively large chunks of data... This allows corruption-checking costs to
//     be amortized, which seems harder to do at a per-instruction scale."
//
// Each case runs kRuns times under one wall clock and prints a CSV row: `sim_ops_per_run` is
// the simulated-core micro-op count per run, the paper's cost model (CPU work) and
// independent of host noise; `us_per_run` is host wall time; `overhead_factor` is physical
// executions per logical computation. Exit 2 unless simplex, DMR and TMR come out at exactly
// 1, 2 and 3.

#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "src/common/csv.h"
#include "src/common/rng.h"
#include "src/mitigate/e2e_store.h"
#include "src/mitigate/redundancy.h"
#include "src/sim/core.h"
#include "src/substrate/checksum.h"

namespace mercurial {
namespace {

constexpr uint64_t kRuns = 10000;

// Every case stores its results here, so the optimizer keeps the work that made them.
volatile uint64_t sink = 0;

Computation HashComputation(uint64_t seed) {
  return [seed](SimCore& core) {
    uint64_t x = seed;
    for (int i = 0; i < 256; ++i) {
      x = core.Mul(x | 1, 0x9e3779b97f4a7c15ull);
      x = core.Alu(AluOp::kXor, x, core.Alu(AluOp::kShr, x, 29));
    }
    return x;
  };
}

struct CaseResult {
  const char* name = "";
  double us_per_run = 0.0;
  double sim_ops_per_run = 0.0;
  double overhead_factor = 0.0;  // 0 for the cases that do not replicate a computation
};

// Calls run(i) for i in [0, kRuns) under one wall clock; returns microseconds per run.
template <class Run>
double UsPerRun(Run run) {
  return bench::TimeSeconds([&] {
           for (uint64_t i = 0; i < kRuns; ++i) {
             run(i);
           }
         }) *
         1e6 / static_cast<double>(kRuns);
}

double PerRun(uint64_t total) { return static_cast<double>(total) / static_cast<double>(kRuns); }

// One redundancy mode over a pool of three healthy cores; `execute` runs one computation.
template <class Execute>
CaseResult Redundancy(const char* name, Execute execute) {
  std::vector<SimCore> pool;
  pool.reserve(3);  // the executor keeps pointers into the pool
  std::vector<SimCore*> cores;
  for (int i = 0; i < 3; ++i) {
    cores.push_back(&pool.emplace_back(i, Rng(10 + i)));
  }
  RedundantExecutor executor(cores);
  CaseResult result{name};
  result.us_per_run =
      UsPerRun([&](uint64_t i) { sink = execute(executor, HashComputation(i + 1)); });
  uint64_t ops = 0;
  for (const SimCore& core : pool) {
    ops += core.counters().TotalOps();
  }
  result.sim_ops_per_run = PerRun(ops);
  result.overhead_factor = static_cast<double>(executor.stats().executions) /
                           static_cast<double>(executor.stats().runs);
  return result;
}

// Storage-style amortized checking: one CRC per 4 KiB block on the write path.
CaseResult StoreWrite(const char* name, bool verify_on_write, uint64_t seed) {
  SimCore server(1, Rng(seed));
  ChecksummedStore store(&server, verify_on_write);
  Rng rng(seed + 1);
  std::vector<uint8_t> block(4096);
  rng.FillBytes(block.data(), block.size());
  CaseResult result{name};
  result.us_per_run = UsPerRun([&](uint64_t i) { sink = store.Write(i % 64, block).ok(); });
  result.sim_ops_per_run = PerRun(server.counters().TotalOps());
  return result;
}

// Per-instruction-scale checking: every micro-op is run twice and compared (the naive 2x).
CaseResult PerOpDuplicateChecking() {
  SimCore a(1, Rng(54));
  SimCore b(2, Rng(55));
  CaseResult result{"per_op_duplicate_checking"};
  result.us_per_run = UsPerRun([&](uint64_t i) {
    uint64_t x = i + 1;
    uint64_t y = i + 1;
    for (int k = 0; k < 256; ++k) {
      x = a.Mul(x | 1, 0x9e3779b97f4a7c15ull);
      y = b.Mul(y | 1, 0x9e3779b97f4a7c15ull);
      sink = x == y;
      x = a.Alu(AluOp::kXor, x, a.Alu(AluOp::kShr, x, 29));
      y = b.Alu(AluOp::kXor, y, b.Alu(AluOp::kShr, y, 29));
      sink = x == y;
    }
  });
  result.sim_ops_per_run = PerRun(a.counters().TotalOps() + b.counters().TotalOps());
  return result;
}

// Block-granularity checking of the same logical work: compute once, CRC the 2 KiB result
// buffer (the storage/network trick the paper says is hard to apply per-instruction).
CaseResult BlockChecksumChecking() {
  SimCore core(1, Rng(56));
  std::vector<uint8_t> result_buffer(2048);
  CaseResult result{"block_checksum_checking"};
  result.us_per_run = UsPerRun([&](uint64_t i) {
    uint64_t x = i + 1;
    for (size_t word = 0; word < result_buffer.size() / 8; ++word) {
      x = core.Mul(x | 1, 0x9e3779b97f4a7c15ull);
      x = core.Alu(AluOp::kXor, x, core.Alu(AluOp::kShr, x, 29));
      for (int byte = 0; byte < 8; ++byte) {
        result_buffer[word * 8 + byte] = static_cast<uint8_t>(x >> (8 * byte));
      }
    }
    sink = core.Crc32Block(Crc32Init(), result_buffer.data(), result_buffer.size());
  });
  result.sim_ops_per_run = PerRun(core.counters().TotalOps());
  return result;
}

}  // namespace
}  // namespace mercurial

int main() {
  using namespace mercurial;
  const CaseResult cases[] = {
      Redundancy("simplex",
                 [](RedundantExecutor& e, const Computation& c) { return e.RunSimplex(c); }),
      Redundancy("dmr",
                 [](RedundantExecutor& e, const Computation& c) { return e.RunDmr(c).ok(); }),
      Redundancy("tmr",
                 [](RedundantExecutor& e, const Computation& c) { return e.RunTmr(c).ok(); }),
      StoreWrite("store_write_unverified", /*verify_on_write=*/false, /*seed=*/50),
      StoreWrite("store_write_e2e_verified", /*verify_on_write=*/true, /*seed=*/52),
      PerOpDuplicateChecking(),
      BlockChecksumChecking(),
  };

  CsvWriter csv(stdout);
  csv.Header({"case", "runs", "us_per_run", "sim_ops_per_run", "overhead_factor"});
  for (const CaseResult& c : cases) {
    csv.Row({c.name, CsvWriter::Num(kRuns), CsvWriter::Num(c.us_per_run),
             CsvWriter::Num(c.sim_ops_per_run),
             c.overhead_factor > 0.0 ? CsvWriter::Num(c.overhead_factor) : ""});
  }
  const CaseResult& simplex = cases[0];
  std::printf("# per-op duplicate checking: %.2fx simplex ops; block CRC checking: %.0f vs %.0f "
              "ops (%.4fx)\n",
              cases[5].sim_ops_per_run / simplex.sim_ops_per_run, cases[6].sim_ops_per_run,
              simplex.sim_ops_per_run, cases[6].sim_ops_per_run / simplex.sim_ops_per_run);
  const bool factors_exact = cases[0].overhead_factor == 1.0 && cases[1].overhead_factor == 2.0 &&
                             cases[2].overhead_factor == 3.0;
  std::printf("# simplex / DMR / TMR overhead factors exactly 1 / 2 / 3: %s\n",
              factors_exact ? "yes" : "NO — BUG");
  return factors_exact ? 0 : 2;
}
