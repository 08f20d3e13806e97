// E15 (§6.1 extension): safe-task placement on retired mercurial cores.
//
// Paper claim reproduced: "one might identify a set of tasks that can run safely on a given
// mercurial core (if these tasks avoid a defective execution unit), avoiding the cost of
// stranding those cores. It is not clear, though, if we can reliably identify safe tasks with
// respect to a specific defective core."
//
// A population of retired cores is interrogated; the placement planner computes how much of
// the workload mix each core can still run given its confessed failed units. The residual
// risk is then measured by actually RUNNING the "safe" workloads on those cores — the §5
// caveat that "the mapping of instructions to possibly-defective hardware is non-obvious" is
// exercised by cores whose defect afflicts a unit that evaded confession.

#include <cstdio>
#include <memory>
#include <map>
#include <vector>

#include "src/common/csv.h"
#include "src/common/rng.h"
#include "src/detect/confession.h"
#include "src/sched/placement.h"
#include "src/sim/defect_catalog.h"
#include "src/workload/workload.h"

using namespace mercurial;

int main() {
  std::printf("# E15 — reclaiming capacity from retired cores via safe-task placement\n");

  constexpr int kCores = 120;

  // Build the retired population: every core carries a catalog defect loud enough to have
  // been caught.
  Rng rng(42);
  CatalogOptions catalog;
  catalog.p_latent = 0.0;
  catalog.log10_rate_min = -3.5;
  catalog.log10_rate_max = -2.0;

  // Quiet secondary defects model §5's shared logic: "the same mercurial core manifests CEEs
  // both with certain data-copy operations and with certain vector operations" — and the quiet
  // one often evades confession.
  CatalogOptions quiet = catalog;
  quiet.log10_rate_min = -4.5;
  quiet.log10_rate_max = -3.0;

  std::vector<std::unique_ptr<SimCore>> cores;
  for (int i = 0; i < kCores; ++i) {
    cores.push_back(std::make_unique<SimCore>(i, Rng(100 + i)));
    cores.back()->AddDefect(DrawRandomDefect(catalog, rng));
    const uint64_t extra = rng.Poisson(0.7);
    for (uint64_t d = 0; d < extra; ++d) {
      cores.back()->AddDefect(DrawRandomDefect(quiet, rng));
    }
  }

  // Confess each core to learn its failed units (the planner's input — NOT ground truth).
  ConfessionTester tester(ConfessionOptions{});
  std::map<uint64_t, std::vector<ExecUnit>> failed_units;
  int confessed = 0;
  for (auto& core : cores) {
    const Confession confession = tester.Interrogate(*core, rng);
    if (confession.confessed) {
      failed_units[core->id()] = confession.failed_units;
      ++confessed;
    }
  }
  std::printf("# %d of %d retired cores confessed a unit; the rest stay fully stranded\n",
              confessed, kCores);

  PlacementPlanner planner(PlacementPlanner::StandardProfiles());
  const PlacementPlan plan = planner.Plan(failed_units);

  CsvWriter csv(stdout);
  csv.Header({"metric", "value"});
  csv.Row({"cores_planned", CsvWriter::Num(static_cast<uint64_t>(plan.decisions.size()))});
  csv.Row({"mean_reclaimed_mix_fraction", CsvWriter::Num(plan.mean_reclaimed)});
  csv.Row({"fully_stranded_even_with_plan", CsvWriter::Num(plan.fully_stranded)});

  // Residual risk: run each core's supposedly-safe workloads and count wrong outputs. A
  // defect whose unit evaded confession (or a multi-unit defect) can still corrupt.
  WorkloadOptions workload_options;
  workload_options.payload_bytes = 256;
  workload_options.check_probability = 0.0;  // we want raw ground truth here
  auto corpus = BuildStandardCorpus(workload_options);
  const auto& profiles = planner.profiles();

  uint64_t safe_units_run = 0;
  uint64_t safe_units_wrong = 0;
  for (const PlacementDecision& decision : plan.decisions) {
    SimCore& core = *cores[decision.core];
    for (size_t w : decision.safe_workloads) {
      // Find the corpus workload matching the profile by name.
      for (auto& workload : corpus) {
        if (workload->name() == profiles[w].name) {
          for (int round = 0; round < 25; ++round) {
            const WorkloadResult result = workload->Run(core, rng);
            ++safe_units_run;
            safe_units_wrong += result.wrong_output ? 1 : 0;
          }
        }
      }
    }
  }
  csv.Row({"safe_placement_work_units", CsvWriter::Num(safe_units_run)});
  csv.Row({"residual_wrong_outputs", CsvWriter::Num(safe_units_wrong)});
  csv.Row({"residual_wrong_rate",
           CsvWriter::Num(safe_units_run == 0
                              ? 0.0
                              : static_cast<double>(safe_units_wrong) /
                                    static_cast<double>(safe_units_run))});

  std::printf("# expected shape: a large fraction of each retired core's capacity (often\n");
  std::printf("# ~70-90%% of the workload mix) is reclaimable when the defect is confined to\n");
  std::printf("# one unit — but the residual wrong rate is NOT zero, quantifying the paper's\n");
  std::printf("# caution that safe-task identification is unreliable (shared logic between\n");
  std::printf("# units, multi-defect cores, and confession gaps leak corruption through).\n");
  return 0;
}
