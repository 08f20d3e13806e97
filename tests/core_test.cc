// Integration tests for src/core: the end-to-end FleetStudy lifecycle.

#include <gtest/gtest.h>

#include "src/core/fleet_study.h"

namespace mercurial {
namespace {

StudyOptions SmallStudy(uint64_t seed = 7) {
  StudyOptions options;
  options.seed = seed;
  options.fleet.seed = seed ^ 0x5a5a;
  options.fleet.machine_count = 120;
  options.fleet.mercurial_rate_multiplier = 60.0;  // dense enough to exercise the pipeline
  options.duration = SimTime::Days(200);
  options.work_units_per_core_day = 15;
  options.workload.payload_bytes = 256;
  return options;
}

TEST(FleetStudyTest, ReportShapeAndAccounting) {
  FleetStudy study(SmallStudy());
  const StudyReport report = study.Run();

  EXPECT_EQ(report.machines, 120u);
  EXPECT_GT(report.cores, 1000u);
  EXPECT_GT(report.true_mercurial_cores, 0u);
  EXPECT_GT(report.work_units_executed, 0u);

  // Symptom counts sum to executed units.
  uint64_t total_symptoms = 0;
  for (uint64_t count : report.symptom_counts) {
    total_symptoms += count;
  }
  EXPECT_EQ(total_symptoms, report.work_units_executed);
  EXPECT_EQ(report.symptom_counts[static_cast<int>(Symptom::kSilentCorruption)],
            report.silent_corruptions);

  // Weekly series cover the duration and are equally long.
  EXPECT_EQ(report.weekly_user_rate.size(), report.weekly_auto_rate.size());
  EXPECT_GE(report.weekly_user_rate.size(), 28u);

  // Quarantine accounting is internally consistent.
  EXPECT_EQ(report.quarantine.retirements,
            report.quarantine.true_positive_retirements +
                report.quarantine.false_positive_retirements);
  EXPECT_LE(report.mercurial_retired, report.true_mercurial_cores);
  EXPECT_EQ(report.mercurial_retired, report.quarantine.true_positive_retirements);
  EXPECT_DOUBLE_EQ(report.planted_per_thousand_machines,
                   static_cast<double>(report.true_mercurial_cores) / 0.12);
}

TEST(FleetStudyTest, DeterministicUnderSeed) {
  FleetStudy a(SmallStudy(11));
  FleetStudy b(SmallStudy(11));
  const StudyReport ra = a.Run();
  const StudyReport rb = b.Run();
  EXPECT_GT(ra.work_units_executed, 0u);
  EXPECT_TRUE(ra == rb);
}

TEST(FleetStudyTest, SeedsChangeOutcomes) {
  FleetStudy a(SmallStudy(1));
  FleetStudy b(SmallStudy(2));
  const StudyReport ra = a.Run();
  const StudyReport rb = b.Run();
  EXPECT_NE(ra.work_units_executed, rb.work_units_executed);
}

TEST(FleetStudyTest, HealthyFleetProducesNoCorruptionAndNoRetirements) {
  StudyOptions options = SmallStudy();
  options.fleet.mercurial_rate_multiplier = 0.0;
  options.duration = SimTime::Days(120);
  FleetStudy study(options);
  const StudyReport report = study.Run();
  EXPECT_EQ(report.true_mercurial_cores, 0u);
  EXPECT_EQ(report.silent_corruptions, 0u);
  EXPECT_EQ(report.work_units_executed, 0u) << "healthy cores are fast-pathed";
  EXPECT_EQ(report.screen_failures, 0u);
  // Background software-bug noise must not retire healthy cores (the concentration test plus
  // confession requirement filters it out).
  EXPECT_EQ(report.quarantine.retirements, 0u);
}

TEST(FleetStudyTest, DetectionActuallyFindsMercurialCores) {
  FleetStudy study(SmallStudy(3));
  const StudyReport report = study.Run();
  EXPECT_GT(report.quarantine.suspects_processed, 0u);
  EXPECT_GT(report.quarantine.true_positive_retirements, 0u)
      << "a 200-day study over a dense fleet must catch someone";
  EXPECT_GT(report.screening_ops, 0u);
}

TEST(FleetStudyTest, ObservableSymptomsGenerateSignals) {
  FleetStudy study(SmallStudy(5));
  StudyReport report = study.Run();
  const uint64_t observable =
      report.symptom_counts[static_cast<int>(Symptom::kDetectedImmediately)] +
      report.symptom_counts[static_cast<int>(Symptom::kMachineCheck)] +
      report.symptom_counts[static_cast<int>(Symptom::kCrash)] +
      report.symptom_counts[static_cast<int>(Symptom::kDetectedLate)];
  EXPECT_GT(observable, 0u);
  EXPECT_GT(study.metrics().counter("signals.background"), 0u);
}

// metrics() exports the engine counters the report lacks. Benches and fleetbench read them by
// name, and a dropped or renamed export would read 0 there without failing anything.
TEST(FleetStudyTest, ExportsTheEngineCountersReadOutsideTheLibrary) {
  StudyOptions options = SmallStudy(13);
  options.sparse_engine = true;
  options.screening.adaptive = true;
  FleetStudy study(options);
  study.Run();
  const MetricRegistry& metrics = study.metrics();

  uint64_t signals = 0;
  for (const auto& [name, count] : metrics.CountersWithPrefix("signals.")) {
    signals += count;
  }
  EXPECT_GT(signals, 0u);
  for (const char* name :
       {"screening.wheel_scheduled", "screening.wheel_drained",
        "screening.wheel_overflow_inserts", "production.active_admitted",
        "production.latent_at_end", "screening.risk_rescores", "screening.risk_admitted",
        "screening.risk_deferred", "screening.risk_hot_screens"}) {
    EXPECT_EQ(metrics.counters().count(name), 1u) << name;
  }
  for (const char* name : {"screening.wheel_max_bucket", "screening.wheel_peak_occupancy"}) {
    EXPECT_EQ(metrics.gauges().count(name), 1u) << name;
  }
  EXPECT_GT(metrics.counter("screening.wheel_drained"), 0u);
  EXPECT_GT(metrics.gauge_max("screening.wheel_peak_occupancy"), 0u);
  EXPECT_GT(metrics.counter("production.active_admitted"), 0u);
  EXPECT_GT(metrics.counter("screening.risk_rescores"), 0u);
  EXPECT_GT(metrics.counter("screening.risk_admitted"), 0u);
}

TEST(FleetStudyTest, BurnInCatchesActiveDefectsEarly) {
  StudyOptions with = SmallStudy(9);
  with.burn_in = true;
  with.duration = SimTime::Days(60);
  StudyOptions without = with;
  without.burn_in = false;

  FleetStudy study_with(with);
  FleetStudy study_without(without);
  const StudyReport report_with = study_with.Run();
  const StudyReport report_without = study_without.Run();
  // Burn-in screens every core at t=0, so cumulative screen failures can only be >=.
  EXPECT_GE(report_with.screen_failures, report_without.screen_failures);
}

// Burn-in is its own screen: it runs with offline screening off, and its battery ops and
// failures are charged like any other screen's.
TEST(FleetStudyTest, BurnInScreensWithOfflineScreeningOff) {
  StudyOptions options = SmallStudy(9);
  options.duration = SimTime::Days(1);
  options.screening.offline_enabled = false;
  options.screening.online_enabled = false;
  options.screening.initial_coverage.clear();
  for (int u = 0; u < kExecUnitCount; ++u) {
    options.screening.initial_coverage.push_back(static_cast<ExecUnit>(u));
  }
  options.screening.coverage_schedule.clear();
  StudyOptions without = options;
  options.burn_in = true;

  FleetStudy study(options);
  const StudyReport report = study.Run();
  const StudyReport baseline = FleetStudy(without).Run();
  EXPECT_EQ(baseline.screening_ops, 0u) << "nothing screens without burn-in";
  EXPECT_GT(report.screening_ops, 0u) << "the burn-in battery's ops are charged";
  EXPECT_GT(report.screen_failures, 0u) << "full coverage at t=0 catches active defects";
  EXPECT_EQ(report.screen_failures, study.metrics().counter("signals.screen_fail"))
      << "each burn-in failure is counted once";
}

TEST(FleetStudyTest, CatalogOverrideShapesDefectPopulation) {
  StudyOptions options = SmallStudy(21);
  CatalogOptions catalog;
  catalog.p_latent = 0.0;
  catalog.min_machine_check_fraction = 1.0;
  catalog.max_machine_check_fraction = 1.0;
  options.fleet.catalog_override = catalog;
  options.duration = SimTime::Days(90);
  FleetStudy study(options);
  // Every planted defect (except the classes that force their own fraction) is fail-noisy.
  int noisy = 0;
  int total = 0;
  for (uint64_t index : study.fleet().mercurial_cores()) {
    for (const Defect& defect : study.fleet().core(index).defects()) {
      ++total;
      noisy += defect.spec().machine_check_fraction == 1.0 ? 1 : 0;
    }
  }
  ASSERT_GT(total, 0);
  EXPECT_GT(noisy, 0);
}

TEST(FleetStudyTest, GrowingFleetDefersUninstalledMachines) {
  StudyOptions options = SmallStudy(22);
  options.fleet.install_spread = SimTime::Days(0);
  options.fleet.future_install_spread = SimTime::Days(10000);  // almost no machine installed
  options.duration = SimTime::Days(30);
  FleetStudy study(options);
  const size_t installed = study.fleet().InstalledMachines(SimTime::Days(30));
  EXPECT_LT(installed, study.fleet().machine_count() / 10)
      << "the population must mostly arrive later";
  const StudyReport report = study.Run();
  // Work only runs on installed mercurial cores; with almost none installed, very little runs.
  EXPECT_LT(report.work_units_executed, 2000u);
}

TEST(FleetStudyTest, SeriesWarmupTrimsLeadingWeeks) {
  StudyOptions base = SmallStudy(23);
  base.duration = SimTime::Days(140);
  StudyOptions trimmed = base;
  trimmed.series_warmup = SimTime::Weeks(8);
  FleetStudy study_a(base);
  FleetStudy study_b(trimmed);
  const StudyReport ra = study_a.Run();
  const StudyReport rb = study_b.Run();
  EXPECT_EQ(ra.weekly_user_rate.size(), rb.weekly_user_rate.size() + 8);
}

TEST(FleetStudyTest, McaTelemetryGradedAgainstGroundTruth) {
  StudyOptions options = SmallStudy(24);
  options.mca_bank_confusion = 0.0;
  FleetStudy study(options);
  const StudyReport report = study.Run();
  EXPECT_LE(report.mca_true_mercurial, report.mca_recidivists);
  EXPECT_LE(report.mca_unit_attribution_correct, report.mca_true_mercurial);
  if (report.mca_true_mercurial > 0) {
    // With perfect bank mapping, attribution should be perfect too.
    EXPECT_EQ(report.mca_unit_attribution_correct, report.mca_true_mercurial);
  }
}

TEST(FleetStudyTest, RunTwiceIsAnError) {
  FleetStudy study(SmallStudy());
  study.Run();
  EXPECT_DEATH(study.Run(), "Run can only be called once");
}

TEST(FleetStudyTest, StrandedCapacityAccounted) {
  FleetStudy study(SmallStudy(13));
  const StudyReport report = study.Run();
  if (report.quarantine.retirements > 0) {
    EXPECT_GT(report.scheduler.stranded_core_seconds, 0.0);
  }
}

}  // namespace
}  // namespace mercurial
