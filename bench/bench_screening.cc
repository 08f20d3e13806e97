// E7: screening economics (§6) — fixed cadence vs the risk-adaptive allocator.
//
// Paper claims reproduced:
//   * offline screening "can be more intrusive and can be scheduled to ensure coverage of all
//     cores ... However, draining a workload from the core ... can be expensive";
//   * §6 frames screening as spend-vs-escapes economics: the question is not whether to
//     screen but where each op buys the most detection.
//
// The benchmark runs the fixed-cadence baseline, measures what it actually spent, then hands
// the adaptive allocator that exact spend as its ops_per_day budget. Gates (CI release
// smoke): at equal ops budget the adaptive allocator's mean time-to-detection must not
// exceed the baseline's (scaled by --max-ttd-ratio), and it must respect the budget
// (--max-ops-ratio headroom for the final partial tick and battery-vs-plan rounding).
//
// Output: a human table plus BENCH_screening.json (see README, "Screening benchmark").

#include <cmath>
#include <cstdio>
#include <optional>
#include <string>

#include "bench/harness.h"
#include "src/common/flags.h"
#include "src/core/fleet_study.h"

using namespace mercurial;

namespace {

struct RunResult {
  double mean_ttd_days = 0.0;  // censored: undetected cores count as the full study length
  double mean_caught_ttd_days = 0.0;  // over caught cores only (selection-biased; info)
  double p50_ttd_days = 0.0;
  double caught_fraction = 0.0;
  uint64_t caught = 0;
  uint64_t planted = 0;
  uint64_t screening_ops = 0;
  uint64_t screen_failures = 0;
  uint64_t drains = 0;
  double migration_core_hours = 0.0;
  uint64_t risk_admitted = 0;
  uint64_t risk_deferred = 0;
  uint64_t hot_screens = 0;
  double wall_ms = 0.0;
};

StudyOptions BaseOptions(const FlagSet& flags) {
  StudyOptions options;
  options.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  options.fleet.machine_count = static_cast<size_t>(flags.GetInt("machines"));
  options.fleet.mercurial_rate_multiplier = flags.GetDouble("multiplier");
  options.duration = SimTime::Days(flags.GetInt("days"));
  options.work_units_per_core_day = 15;
  options.workload.payload_bytes = 256;
  // Isolate the screening signal: disable the production-signal path's human reports so
  // detection comes (almost) entirely from screening.
  options.crash_human_report_probability = 0.0;
  options.silent_human_notice_probability = 0.0;
  options.app_report_probability = 0.0;
  options.screening.offline_enabled = true;
  options.screening.offline_period = SimTime::Days(flags.GetInt("fixed-period-days"));
  options.screening.online_enabled = true;
  options.screening.online_fraction_per_day = 0.02;
  return options;
}

RunResult RunOnce(StudyOptions options) {
  std::optional<FleetStudy> study;
  StudyReport report;
  RunResult result;
  result.wall_ms = 1000.0 * bench::TimeSeconds([&] {
    study.emplace(options);
    report = study->Run();
  });
  // Mean TTD over caught cores alone is selection-biased: a better allocator that also
  // catches the slow, hard cores gets *punished* for it. Censor instead: every undetected
  // mercurial core contributes the full study length (a lower bound on its real latency),
  // so catching more and catching faster both push the mean down.
  const uint64_t uncaught = report.true_mercurial_cores - report.mercurial_retired;
  result.mean_ttd_days =
      report.true_mercurial_cores == 0
          ? 0.0
          : (report.detection_latency_days.sum() +
             static_cast<double>(uncaught) * options.duration.days()) /
                static_cast<double>(report.true_mercurial_cores);
  result.mean_caught_ttd_days = report.detection_latency_days.mean();
  result.p50_ttd_days = report.detection_latency_days.Quantile(0.5);
  result.caught = report.mercurial_retired;
  result.planted = report.true_mercurial_cores;
  result.caught_fraction =
      result.planted == 0
          ? 0.0
          : static_cast<double>(result.caught) / static_cast<double>(result.planted);
  result.screening_ops = report.screening_ops;
  result.screen_failures = report.screen_failures;
  result.drains = report.scheduler.drains;
  result.migration_core_hours = report.scheduler.migration_cost_core_seconds / 3600.0;
  result.risk_admitted = study->metrics().counter("screening.risk_admitted");
  result.risk_deferred = study->metrics().counter("screening.risk_deferred");
  result.hot_screens = study->metrics().counter("screening.risk_hot_screens");
  return result;
}

void PrintRow(const char* label, const RunResult& r) {
  std::printf("%-10s %9.1f %9.1f %8.1f %10.3f %12.2f %9llu %9llu %10.0f %9.0f\n", label,
              r.mean_ttd_days, r.mean_caught_ttd_days, r.p50_ttd_days, r.caught_fraction,
              static_cast<double>(r.screening_ops) / 1e9,
              static_cast<unsigned long long>(r.screen_failures),
              static_cast<unsigned long long>(r.drains), r.migration_core_hours, r.wall_ms);
}

bench::JsonObject RunJson(const RunResult& r) {
  return bench::JsonObject()
      .Num("mean_ttd_days", r.mean_ttd_days).Num("mean_caught_ttd_days", r.mean_caught_ttd_days)
      .Num("p50_ttd_days", r.p50_ttd_days)
      .Int("caught", r.caught).Int("planted", r.planted).Num("caught_fraction", r.caught_fraction)
      .Int("screening_ops", r.screening_ops).Int("screen_failures", r.screen_failures)
      .Int("drains", r.drains).Num("migration_core_hours", r.migration_core_hours)
      .Int("risk_admitted", r.risk_admitted).Int("risk_deferred", r.risk_deferred)
      .Int("risk_hot_screens", r.hot_screens);
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  flags.DefineInt("machines", 800, "fleet size in machines");
  flags.DefineInt("days", 540, "simulated study duration");
  flags.DefineInt("seed", 404, "master seed");
  flags.DefineDouble("multiplier", 40.0, "mercurial-core rate multiplier");
  flags.DefineInt("fixed-period-days", 45, "fixed-cadence baseline period");
  flags.DefineDouble("max-ttd-ratio", 1.0,
                     "gate: adaptive mean TTD must be <= baseline mean TTD * this");
  flags.DefineDouble("max-ops-ratio", 1.05,
                     "gate: adaptive screening ops must be <= baseline ops * this");
  flags.DefineDouble("risk-min-period-days", 10.0, "adaptive cadence floor");
  flags.DefineDouble("risk-max-period-days", 60.0, "adaptive cadence ceiling");
  flags.DefineString("json", "BENCH_screening.json", "JSON artifact path ('' = skip)");
  if (!flags.ParseOrUsage(argc, argv)) {
    return 1;
  }

  const int64_t days = flags.GetInt("days");
  std::printf("# E7 — fixed-cadence vs risk-adaptive screening at equal ops budget\n");
  std::printf("# %lld machines, %lld days, seed %lld, baseline period %lldd\n\n",
              static_cast<long long>(flags.GetInt("machines")),
              static_cast<long long>(days), static_cast<long long>(flags.GetInt("seed")),
              static_cast<long long>(flags.GetInt("fixed-period-days")));
  std::printf("%-10s %9s %9s %8s %10s %12s %9s %9s %10s %9s\n", "mode", "cens_ttd",
              "mean_ttd", "p50_ttd", "caught", "gops", "failures", "drains", "mig_hours",
              "wall_ms");

  // Baseline first: its realized spend defines the budget the adaptive run must live under.
  const RunResult fixed = RunOnce(BaseOptions(flags));
  PrintRow("fixed", fixed);

  const uint64_t budget_per_day = static_cast<uint64_t>(std::llround(
      std::ceil(static_cast<double>(fixed.screening_ops) / static_cast<double>(days))));
  StudyOptions adaptive_options = BaseOptions(flags);
  adaptive_options.screening.adaptive = true;
  adaptive_options.screening.budget_ops_per_day = budget_per_day;
  adaptive_options.screening.adaptive_min_period = SimTime::Seconds(
      static_cast<int64_t>(flags.GetDouble("risk-min-period-days") * 86400.0));
  adaptive_options.screening.adaptive_max_period = SimTime::Seconds(
      static_cast<int64_t>(flags.GetDouble("risk-max-period-days") * 86400.0));
  const RunResult adaptive = RunOnce(adaptive_options);
  PrintRow("adaptive", adaptive);

  const double max_ttd_ratio = flags.GetDouble("max-ttd-ratio");
  const double max_ops_ratio = flags.GetDouble("max-ops-ratio");
  const bool ttd_ok = adaptive.mean_ttd_days <= fixed.mean_ttd_days * max_ttd_ratio;
  const bool ops_ok = static_cast<double>(adaptive.screening_ops) <=
                      static_cast<double>(fixed.screening_ops) * max_ops_ratio;
  const bool caught_ok = adaptive.caught >= fixed.caught;

  std::printf("\nbudget: %llu ops/day (= baseline spend / %lld days)\n",
              static_cast<unsigned long long>(budget_per_day), static_cast<long long>(days));
  std::printf("adaptive plan: %llu admitted, %llu deferred, %llu hot-tier screens\n",
              static_cast<unsigned long long>(adaptive.risk_admitted),
              static_cast<unsigned long long>(adaptive.risk_deferred),
              static_cast<unsigned long long>(adaptive.hot_screens));
  std::printf("gate: censored mean TTD %.1f <= %.1f * %.2f ... %s\n", adaptive.mean_ttd_days,
              fixed.mean_ttd_days, max_ttd_ratio, ttd_ok ? "yes" : "NO — REGRESSION");
  std::printf("gate: ops %.2fG <= %.2fG * %.2f ........... %s\n",
              static_cast<double>(adaptive.screening_ops) / 1e9,
              static_cast<double>(fixed.screening_ops) / 1e9, max_ops_ratio,
              ops_ok ? "yes" : "NO — BUDGET BLOWN");
  std::printf("info: caught %llu vs baseline %llu ........ %s\n",
              static_cast<unsigned long long>(adaptive.caught),
              static_cast<unsigned long long>(fixed.caught),
              caught_ok ? "no worse" : "fewer (not gated)");

  const bench::JsonObject record =
      bench::Record("screening_adaptive_vs_fixed")
          .Int("machines", flags.GetInt("machines")).Int("days", days)
          .Int("seed", flags.GetInt("seed"))
          .Int("fixed_period_days", flags.GetInt("fixed-period-days"))
          .Int("budget_ops_per_day", budget_per_day)
          .Obj("runs", bench::JsonObject()
                           .Obj("fixed", RunJson(fixed))
                           .Obj("adaptive", RunJson(adaptive)))
          .Obj("gates", bench::JsonObject()
                            .Bool("ttd_ok", ttd_ok).Bool("ops_ok", ops_ok)
                            .Bool("caught_ok", caught_ok));
  if (!bench::WriteRecord(flags.GetString("json"), record, "\nwrote ")) {
    return 1;
  }

  if (!ttd_ok || !ops_ok) {
    std::fprintf(stderr,
                 "\nGATE FAILURE: the adaptive allocator must detect at least as fast as the "
                 "fixed cadence at equal ops budget\n");
    return 2;
  }
  return 0;
}
