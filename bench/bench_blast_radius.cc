// Blast-radius benchmark: escape rate and repair overhead vs. the repair budget.
//
// Runs the same audit-enabled fleet study across a sweep of repair budgets (artifacts touched
// per tick), from starved to effectively unbounded, plus one baseline row with auditing off.
// Two figures of merit per budget row:
//
//   * escape rate    — tagged corruptions NOT repaired (shed or still at rest) divided by all
//     tagged corruptions. More budget should monotonically (modulo chaos) buy fewer escapes.
//   * repair overhead — repair ops charged to the pipeline divided by production work units:
//     the fraction of fleet work spent re-verifying and re-executing old results. This is the
//     quantity the budget caps ("repair must not outrun detection", DESIGN.md).
//
// Every row embeds the conservation check: repaired + shed + still_at_rest must equal the
// tagged-corruption total exactly, and outside its audit-only fields every audited row's report
// must equal the audit-off baseline's — auditing observes the study, it must not perturb it.
// The binary exits nonzero if either fails.
//
//   bench_blast_radius --machines=800 --days=365 --json=BENCH_blast_radius.json
//
// Output: human-readable table on stdout plus a JSON artifact with the raw numbers.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/common/flags.h"
#include "src/core/fleet_study.h"

using namespace mercurial;

namespace {

struct BudgetRow {
  std::string label;
  uint64_t budget = 0;  // artifacts per tick; 0 = audit disabled (baseline)

  // Results.
  double seconds = 0.0;
  StudyReport production;  // the report with its audit-only fields reset
  uint64_t corruptions_tagged = 0;
  uint64_t repaired = 0;
  uint64_t shed = 0;
  uint64_t at_rest = 0;
  uint64_t repair_ops = 0;
  uint64_t retries = 0;
  uint64_t backlog_peak = 0;
  double escape_rate = 0.0;     // (shed + at_rest) / tagged
  double repair_overhead = 0.0; // repair ops / production work units
  bool conserved = false;
};

StudyOptions BaseOptions(uint64_t seed, size_t machines, int days) {
  StudyOptions options;
  options.seed = seed;
  options.fleet.machine_count = machines;
  options.fleet.mercurial_rate_multiplier = 200.0;
  options.duration = SimTime::Days(days);
  options.work_units_per_core_day = 20;
  options.workload.payload_bytes = 256;
  // A pipeline that actually convicts: retries convert low-reproducibility defects.
  options.control_plane.max_retries = 2;
  options.control_plane.retry_backoff = SimTime::Days(1);
  return options;
}

BudgetRow RunOnce(BudgetRow row, const StudyOptions& base) {
  StudyOptions options = base;
  options.audit.enabled = row.budget > 0;
  if (options.audit.enabled) {
    options.audit.repair_budget_per_tick = row.budget;
    options.audit.max_attempts = 3;
    options.audit.retry_backoff = SimTime::Days(1);
    // Repair-path chaos on in every audited row, so retries and misses are exercised.
    options.control_plane.chaos.repair_fail_reverify = 0.01;
    options.control_plane.chaos.repair_on_defective = 0.05;
    options.control_plane.chaos.repair_partial = 0.05;
  }
  FleetStudy study(options);
  StudyReport report;
  row.seconds = bench::TimeSeconds([&] { report = study.Run(); });
  row.corruptions_tagged = report.corruptions_tagged;
  row.repaired = report.repair.corruptions_repaired;
  row.shed = report.repair.corruptions_shed;
  row.at_rest = report.repair.corruptions_still_at_rest;
  row.repair_ops = report.repair.repair_ops;
  row.retries = report.repair.retries_scheduled;
  row.backlog_peak = report.repair.backlog_peak;
  row.conserved =
      !report.audit_enabled ||
      row.repaired + row.shed + row.at_rest == row.corruptions_tagged;
  if (row.corruptions_tagged > 0) {
    row.escape_rate = static_cast<double>(row.shed + row.at_rest) /
                      static_cast<double>(row.corruptions_tagged);
  }
  if (report.work_units_executed > 0) {
    row.repair_overhead =
        static_cast<double>(row.repair_ops) / static_cast<double>(report.work_units_executed);
  }
  // Strip the audit-only fields, as determinism suite D7 does.
  row.production = report;
  row.production.audit_enabled = false;
  row.production.artifacts_tagged = 0;
  row.production.corruptions_tagged = 0;
  row.production.repair = RepairStats{};
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  flags.DefineInt("machines", 800, "fleet size in machines");
  flags.DefineInt("days", 365, "simulated study duration");
  flags.DefineInt("seed", 42, "master seed");
  flags.DefineString("json", "BENCH_blast_radius.json", "path for the JSON artifact ('' = skip)");
  if (!flags.ParseOrUsage(argc, argv)) {
    return 1;
  }

  const size_t machines = static_cast<size_t>(flags.GetInt("machines"));
  const int days = static_cast<int>(flags.GetInt("days"));
  const StudyOptions base =
      BaseOptions(static_cast<uint64_t>(flags.GetInt("seed")), machines, days);

  std::printf("# blast radius — %zu machines, %d days, repair-budget sweep\n", machines, days);

  BudgetRow baseline;
  baseline.label = "audit off";
  baseline = RunOnce(baseline, base);

  std::vector<BudgetRow> rows;
  for (const uint64_t budget : {uint64_t{64}, uint64_t{512}, uint64_t{4096}, uint64_t{65536}}) {
    BudgetRow row;
    char label[32];
    std::snprintf(label, sizeof(label), "budget %llu", static_cast<unsigned long long>(budget));
    row.label = label;
    row.budget = budget;
    rows.push_back(RunOnce(row, base));
  }

  std::printf("%-14s %8s %10s %9s %7s %9s %10s %10s %12s\n", "config", "wall_s", "tagged",
              "repaired", "shed", "at_rest", "escape_%", "retries", "overhead_%");
  bool all_conserved = true;
  bool invisible = true;
  std::vector<bench::JsonObject> json_rows;
  for (const BudgetRow& row : rows) {
    std::printf("%-14s %8.2f %10llu %9llu %7llu %9llu %9.3f%% %10llu %11.3f%%\n",
                row.label.c_str(), row.seconds,
                static_cast<unsigned long long>(row.corruptions_tagged),
                static_cast<unsigned long long>(row.repaired),
                static_cast<unsigned long long>(row.shed),
                static_cast<unsigned long long>(row.at_rest), row.escape_rate * 100.0,
                static_cast<unsigned long long>(row.retries), row.repair_overhead * 100.0);
    json_rows.push_back(
        bench::JsonObject()
            .Str("config", row.label).Int("budget_per_tick", row.budget)
            .Num("wall_seconds", row.seconds).Int("corruptions_tagged", row.corruptions_tagged)
            .Int("repaired", row.repaired).Int("shed", row.shed).Int("still_at_rest", row.at_rest)
            .Num("escape_rate", row.escape_rate).Int("repair_ops", row.repair_ops)
            .Int("retries", row.retries).Int("backlog_peak", row.backlog_peak)
            .Num("repair_overhead", row.repair_overhead));
    all_conserved = all_conserved && row.conserved;
    // Auditing is an observer: every audited row must reproduce the baseline's report exactly.
    invisible = invisible && row.production == baseline.production;
  }
  std::printf("# conservation (repaired + shed + at_rest == tagged) in every row: %s\n",
              all_conserved ? "yes" : "NO — BUG");
  std::printf("# auditing bit-invisible to production results: %s\n",
              invisible ? "yes" : "NO — BUG");

  const bench::JsonObject record = bench::Record("blast_radius")
                                       .Int("machines", machines).Int("days", days)
                                       .Bool("conservation_held", all_conserved)
                                       .Bool("audit_invisible_to_production", invisible)
                                       .Num("baseline_wall_seconds", baseline.seconds)
                                       .Rows("rows", json_rows);
  if (!bench::WriteRecord(flags.GetString("json"), record)) {
    return 1;
  }
  return (all_conserved && invisible) ? 0 : 1;
}
