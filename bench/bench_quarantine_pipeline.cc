// Quarantine-pipeline benchmark: throughput and stranded capacity under chaos.
//
// Runs the same fleet study three times with the resilient control-plane settings held fixed
// (bounded queue, retry/backoff, capacity guardrail) while the detection-pipeline chaos
// injector is swept from off to high. Two figures of merit per row:
//
//   * suspects/sec  — pipeline throughput: suspects admitted per wall-clock second. Chaos
//     (dropped/duplicated reports, aborted interrogations, machine restarts) adds retries and
//     re-deliveries, so throughput should degrade gracefully, not collapse.
//   * stranded %    — stranded-capacity overhead: the time-integral of draining+quarantined
//     cores divided by total fleet core-time. The guardrail budgets this quantity, so the
//     high-chaos row must stay at or below --budget regardless of how much the injector
//     misbehaves.
//
// The chaos-off study is additionally run once with the dispatch fast path disabled (see
// SetDispatchFastPath in src/sim/core.h), recording the wall-clock reduction the armed-defect
// cache buys end-to-end under identical machine conditions.
//
// A second sweep measures the verdict layer (src/detect/quorum.h): with a lying-tester fault
// injected at a fixed rate, the study is re-run across quorum sizes {single tester, 3, 5}
// crossed with probation {off, on}. Figures of merit: false-positive retirements (healthy
// cores permanently stranded by flipped testimony), missed confessions, and the capacity
// cost of the appeal path (probation core-seconds). The binary exits nonzero if any quorum
// row convicts more healthy cores than the single tester, or if the quorum-5 + probation row
// fails to cut false positives by at least half versus the single-tester baseline.
//
//   bench_quarantine_pipeline --machines=2000 --days=365 --json=BENCH_quarantine.json
//
// Output: human-readable table on stdout plus a JSON artifact with the raw numbers.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/common/flags.h"
#include "src/core/fleet_study.h"
#include "src/sim/core.h"

using namespace mercurial;

namespace {

struct ChaosRow {
  std::string label;
  double drop = 0.0;
  double duplicate = 0.0;
  double delay = 0.0;
  double abort_interrogation = 0.0;
  double restarts_per_day = 0.0;

  // Results.
  double seconds = 0.0;
  uint64_t suspects_admitted = 0;
  uint64_t suspects_shed = 0;
  uint64_t retries = 0;
  uint64_t true_positive_retirements = 0;
  double stranded_fraction = 0.0;  // pending-isolation core-time / total core-time
  double suspects_per_sec = 0.0;
  StudyReport report;
};

StudyOptions BaseOptions(uint64_t seed, size_t machines, int days, double budget) {
  StudyOptions options;
  options.seed = seed;
  options.fleet.machine_count = machines;
  options.fleet.mercurial_rate_multiplier = 200.0;
  options.duration = SimTime::Days(days);
  options.work_units_per_core_day = 20;
  options.workload.payload_bytes = 256;
  // Resilient settings, fixed across the chaos sweep: the sweep measures how the *pipeline*
  // behaves as the failure injection ramps, not how the knobs behave.
  options.control_plane.max_pending = 256;
  options.control_plane.max_retries = 3;
  options.control_plane.retry_backoff = SimTime::Days(1);
  options.control_plane.retry_jitter = 0.25;
  options.control_plane.drain_latency = SimTime::Hours(12);
  options.control_plane.drain_timeout = SimTime::Days(4);
  options.control_plane.quarantine_budget_fraction = budget;
  return options;
}

ChaosRow RunOnce(ChaosRow row, const StudyOptions& base, bool fast_path = true) {
  SetDispatchFastPath(fast_path);
  StudyOptions options = base;
  options.control_plane.chaos.drop_report = row.drop;
  options.control_plane.chaos.duplicate_report = row.duplicate;
  options.control_plane.chaos.delay_report = row.delay;
  options.control_plane.chaos.abort_interrogation = row.abort_interrogation;
  options.control_plane.chaos.machine_restart_per_day = row.restarts_per_day;
  FleetStudy study(options);
  row.seconds = bench::TimeSeconds([&] { row.report = study.Run(); });
  const StudyReport& report = row.report;
  row.suspects_admitted = report.control_plane.suspects_admitted;
  row.suspects_shed = report.control_plane.suspects_shed;
  row.retries = report.control_plane.retries_scheduled;
  row.true_positive_retirements = report.quarantine.true_positive_retirements;
  const double total_core_seconds =
      static_cast<double>(report.cores) * static_cast<double>(options.duration.seconds());
  row.stranded_fraction = report.control_plane.pending_isolation_core_seconds / total_core_seconds;
  row.suspects_per_sec =
      row.seconds > 0.0 ? static_cast<double>(row.suspects_admitted) / row.seconds : 0.0;
  SetDispatchFastPath(true);
  return row;
}

// --- Verdict sweep: quorum size x probation under a lying tester ------------------------------

struct VerdictRow {
  std::string label;
  int witnesses = 0;  // 0 = legacy single tester (quorum disabled)
  bool probation = false;

  // Results.
  double seconds = 0.0;
  uint64_t false_positive_retirements = 0;
  uint64_t true_positive_retirements = 0;
  uint64_t missed_confessions = 0;
  uint64_t probation_entries = 0;
  uint64_t reinstatements = 0;
  uint64_t quorum_judgments = 0;
  uint64_t quorum_overrides = 0;
  double stranded_fraction = 0.0;
  double probation_core_seconds = 0.0;
};

VerdictRow RunVerdictRow(VerdictRow row, const StudyOptions& base, double lying_rate) {
  StudyOptions options = base;
  // Background accusations are the raw material of false convictions: amplify the ordinary
  // software-bug noise and loosen the concentration test so the sweep has enough healthy
  // suspects to measure verdict error rates on (an accusation-happy triage layer is exactly
  // the regime where the verdict layer's false-positive suppression matters).
  options.background_signal_rate_per_core_day = 5e-3;
  options.report_service.min_score = 1.0;
  options.report_service.p_value_threshold = 0.05;
  options.control_plane.chaos.lying_witness = lying_rate;
  options.control_plane.quorum.enabled = row.witnesses > 0;
  options.control_plane.quorum.witnesses = row.witnesses > 0 ? row.witnesses : 3;
  options.control_plane.probation.enabled = row.probation;
  options.control_plane.probation.window = SimTime::Days(7);
  options.control_plane.probation.clean_windows_to_reinstate = 3;
  FleetStudy study(options);
  StudyReport report;
  row.seconds = bench::TimeSeconds([&] { report = study.Run(); });
  row.false_positive_retirements = report.quarantine.false_positive_retirements;
  row.true_positive_retirements = report.quarantine.true_positive_retirements;
  row.missed_confessions = report.quarantine.missed_confessions;
  row.probation_entries = report.quarantine.probation_entries;
  row.reinstatements = report.quarantine.reinstatements;
  row.quorum_judgments = report.control_plane.quorum.judgments;
  row.quorum_overrides = report.control_plane.quorum.overrides;
  const double total_core_seconds =
      static_cast<double>(report.cores) * static_cast<double>(options.duration.seconds());
  row.stranded_fraction = report.control_plane.pending_isolation_core_seconds / total_core_seconds;
  row.probation_core_seconds = report.scheduler.probation_core_seconds;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  flags.DefineInt("machines", 2000, "fleet size in machines");
  flags.DefineInt("days", 365, "simulated study duration");
  flags.DefineInt("seed", 42, "master seed");
  flags.DefineDouble("budget", 0.25, "quarantine capacity budget (fraction of cores)");
  flags.DefineDouble("lying-rate", 0.15, "lying-tester rate for the verdict sweep");
  flags.DefineString("json", "BENCH_quarantine.json", "path for the JSON artifact ('' = skip)");
  if (!flags.ParseOrUsage(argc, argv)) {
    return 1;
  }

  const size_t machines = static_cast<size_t>(flags.GetInt("machines"));
  const int days = static_cast<int>(flags.GetInt("days"));
  const double budget = flags.GetDouble("budget");
  const StudyOptions base =
      BaseOptions(static_cast<uint64_t>(flags.GetInt("seed")), machines, days, budget);

  std::printf("# quarantine pipeline — %zu machines, %d days, budget %.0f%% of cores\n",
              machines, days, budget * 100.0);

  std::vector<ChaosRow> rows;
  // Dispatch-path baseline: the chaos-off study with the armed-defect cache disabled, so the
  // JSON records the wall-clock reduction the fast path buys on this pipeline under identical
  // machine conditions (cross-run wall clocks are not comparable).
  ChaosRow reference;
  {
    reference.label = "chaos off (reference dispatch)";
    reference = RunOnce(reference, base, /*fast_path=*/false);
  }
  {
    ChaosRow off;
    off.label = "chaos off";
    rows.push_back(RunOnce(off, base));
  }
  {
    ChaosRow low;
    low.label = "chaos low";
    low.drop = 0.05;
    low.duplicate = 0.05;
    low.delay = 0.05;
    low.abort_interrogation = 0.10;
    low.restarts_per_day = 0.05;
    rows.push_back(RunOnce(low, base));
  }
  {
    ChaosRow high;
    high.label = "chaos high";
    high.drop = 0.30;
    high.duplicate = 0.20;
    high.delay = 0.20;
    high.abort_interrogation = 0.50;
    high.restarts_per_day = 0.50;
    rows.push_back(RunOnce(high, base));
  }

  std::printf("%-12s %10s %14s %8s %8s %8s %12s\n", "config", "wall_s", "suspects/sec",
              "shed", "retries", "tp_ret", "stranded_%");
  bool budget_held = true;
  std::vector<bench::JsonObject> chaos_json;
  for (const ChaosRow& row : rows) {
    std::printf("%-12s %10.3f %14.1f %8llu %8llu %8llu %11.4f%%\n", row.label.c_str(),
                row.seconds, row.suspects_per_sec,
                static_cast<unsigned long long>(row.suspects_shed),
                static_cast<unsigned long long>(row.retries),
                static_cast<unsigned long long>(row.true_positive_retirements),
                row.stranded_fraction * 100.0);
    chaos_json.push_back(
        bench::JsonObject()
            .Str("config", row.label).Num("wall_seconds", row.seconds)
            .Int("suspects_admitted", row.suspects_admitted)
            .Num("suspects_per_second", row.suspects_per_sec)
            .Int("suspects_shed", row.suspects_shed).Int("retries_scheduled", row.retries)
            .Int("true_positive_retirements", row.true_positive_retirements)
            .Num("stranded_fraction", row.stranded_fraction));
    if (row.stranded_fraction > budget) {
      budget_held = false;
    }
  }
  std::printf("# stranded capacity within budget in every row: %s\n",
              budget_held ? "yes" : "NO — BUG");
  const bool reference_match = reference.report == rows[0].report;
  std::printf(
      "# dispatch fast path: %.3fs vs %.3fs reference on chaos off (%.2fx); outputs "
      "identical: %s\n",
      rows[0].seconds, reference.seconds, reference.seconds / rows[0].seconds,
      reference_match ? "yes" : "NO — BUG");

  // Verdict sweep: quorum size x probation under a fixed lying-tester rate. The single-tester
  // rows are the "trust one core's testimony" baseline the quorum exists to beat.
  const double lying_rate = flags.GetDouble("lying-rate");
  std::vector<VerdictRow> verdicts;
  for (const bool probation : {false, true}) {
    for (const int witnesses : {0, 3, 5}) {
      VerdictRow row;
      row.label = (witnesses == 0 ? std::string("single") : "quorum-" + std::to_string(witnesses)) +
                  (probation ? "+probation" : "");
      row.witnesses = witnesses;
      row.probation = probation;
      verdicts.push_back(RunVerdictRow(row, base, lying_rate));
    }
  }

  std::printf("\n# verdict sweep — lying tester rate %.2f\n", lying_rate);
  std::printf("%-18s %10s %8s %8s %8s %8s %8s %10s %14s\n", "config", "wall_s", "fp_ret",
              "tp_ret", "missed", "prob_in", "reinst", "overrides", "probation_cs");
  std::vector<bench::JsonObject> verdict_json;
  for (const VerdictRow& row : verdicts) {
    std::printf("%-18s %10.3f %8llu %8llu %8llu %8llu %8llu %10llu %14.0f\n", row.label.c_str(),
                row.seconds, static_cast<unsigned long long>(row.false_positive_retirements),
                static_cast<unsigned long long>(row.true_positive_retirements),
                static_cast<unsigned long long>(row.missed_confessions),
                static_cast<unsigned long long>(row.probation_entries),
                static_cast<unsigned long long>(row.reinstatements),
                static_cast<unsigned long long>(row.quorum_overrides),
                row.probation_core_seconds);
    verdict_json.push_back(
        bench::JsonObject()
            .Str("config", row.label).Int("witnesses", row.witnesses)
            .Bool("probation", row.probation).Num("wall_seconds", row.seconds)
            .Int("false_positive_retirements", row.false_positive_retirements)
            .Int("true_positive_retirements", row.true_positive_retirements)
            .Int("missed_confessions", row.missed_confessions)
            .Int("probation_entries", row.probation_entries)
            .Int("reinstatements", row.reinstatements)
            .Int("quorum_judgments", row.quorum_judgments)
            .Int("quorum_overrides", row.quorum_overrides)
            .Num("stranded_fraction", row.stranded_fraction)
            .Num("probation_core_seconds", row.probation_core_seconds));
  }

  // Gate: (a) no quorum row may strand more healthy cores than the single tester in the same
  // probation arm; (b) the widest quorum with probation must cut false positives by >= 50%
  // versus the single-tester, probation-off baseline without trading them for extra escapes.
  const VerdictRow& baseline = verdicts[0];       // single, probation off
  const VerdictRow& best = verdicts.back();       // quorum-5 + probation
  bool verdict_gate = true;
  for (const VerdictRow& row : verdicts) {
    if (row.witnesses == 0) {
      continue;
    }
    const VerdictRow& peer = row.probation ? verdicts[3] : verdicts[0];
    if (row.false_positive_retirements > peer.false_positive_retirements) {
      verdict_gate = false;
    }
  }
  const bool halved =
      best.false_positive_retirements * 2 <= baseline.false_positive_retirements;
  // Escapes must stay in the baseline's noise band: a wrong quorum majority can overturn a
  // true confession, and a late-onset defect can sit out its probation windows, but a verdict
  // layer that routinely masks real confessions would blow through 2x+3 immediately.
  const bool no_extra_escapes =
      best.missed_confessions <= 2 * baseline.missed_confessions + 3;
  std::printf("# quorum rows at or below single-tester false positives: %s\n",
              verdict_gate ? "yes" : "NO — BUG");
  std::printf("# quorum-5+probation halves baseline false positives (%llu -> %llu): %s\n",
              static_cast<unsigned long long>(baseline.false_positive_retirements),
              static_cast<unsigned long long>(best.false_positive_retirements),
              halved ? "yes" : "NO — BUG");
  std::printf("# ...with missed confessions inside the noise band (%llu -> %llu): %s\n",
              static_cast<unsigned long long>(baseline.missed_confessions),
              static_cast<unsigned long long>(best.missed_confessions),
              no_extra_escapes ? "yes" : "NO — BUG");

  const bench::JsonObject record =
      bench::Record("quarantine_pipeline")
          .Int("machines", machines).Int("days", days)
          .Num("budget_fraction", budget).Bool("budget_held", budget_held)
          .Num("reference_dispatch_wall_seconds", reference.seconds)
          .Num("fast_dispatch_wall_seconds", rows[0].seconds)
          .Num("dispatch_fast_path_speedup", reference.seconds / rows[0].seconds)
          .Bool("dispatch_outputs_identical", reference_match)
          .Rows("rows", chaos_json)
          .Obj("verdict_sweep",
               bench::JsonObject()
                   .Num("lying_tester_rate", lying_rate)
                   .Bool("quorum_at_or_below_single_fp", verdict_gate)
                   .Bool("best_row_halves_baseline_fp", halved)
                   .Bool("best_row_missed_confessions_in_noise_band", no_extra_escapes)
                   .Rows("rows", verdict_json));
  if (!bench::WriteRecord(flags.GetString("json"), record)) {
    return 1;
  }
  if (!verdict_gate || !halved || !no_extra_escapes) {
    return 4;
  }
  return 0;
}
