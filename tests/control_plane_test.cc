// Tests for the quarantine control plane (src/detect/control_plane.h) and the detection-
// pipeline chaos injector (src/detect/chaos.h).
//
// The two load-bearing claims:
//
//   1. Transparency: at default options (chaos off) the control plane judges every suspect in
//      the tick it appears and never draws from its control stream; its verdicts, counters,
//      scheduler accounting and durable bytes on a fixed workload are pinned
//      (DefaultPipelineMatchesPinnedVerdicts).
//   2. Resilience: under report-drop + interrogation-abort chaos, retry/backoff recovers at
//      least the no-retry baseline's true-positive retirements while the capacity guardrail
//      keeps pending-isolation core-seconds under budget, deterministically under a fixed
//      seed (ChaosRetriesRecoverAtLeastNoRetryBaseline).

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/fleet_study.h"
#include "src/detect/chaos.h"
#include "src/detect/confession.h"
#include "src/detect/control_plane.h"
#include "src/detect/quarantine.h"
#include "src/detect/quorum.h"
#include "src/detect/report_service.h"
#include "src/detect/screening.h"
#include "src/fleet/fleet.h"
#include "src/sched/scheduler.h"
#include "src/substrate/checksum.h"
#include "tests/durable_codec.h"

namespace mercurial {
namespace {

Signal ScreenFailAt(SimTime t, const Fleet& fleet, uint64_t core) {
  return Signal{t, fleet.core_id(core).machine, core, SignalType::kScreenFail};
}

CeeReportService MakeService(Fleet& fleet) {
  return CeeReportService(ReportServiceOptions{}, [&fleet](uint64_t m) {
    return static_cast<uint32_t>(fleet.machine(m).core_count());
  });
}

// --- Options validation ---------------------------------------------------------------------

TEST(ControlPlaneOptionsTest, DefaultsAreValid) {
  EXPECT_TRUE(ControlPlaneOptions{}.Validate().ok());
}

TEST(ControlPlaneOptionsTest, RejectsNegativeRetries) {
  ControlPlaneOptions options;
  options.max_retries = -1;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(ControlPlaneOptionsTest, RejectsRetriesWithoutBackoff) {
  ControlPlaneOptions options;
  options.max_retries = 2;
  options.retry_backoff = SimTime::Seconds(0);
  EXPECT_FALSE(options.Validate().ok());
}

TEST(ControlPlaneOptionsTest, RejectsJitterOutsideUnitInterval) {
  ControlPlaneOptions options;
  options.retry_jitter = 1.5;
  EXPECT_FALSE(options.Validate().ok());
  options.retry_jitter = -0.1;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(ControlPlaneOptionsTest, RejectsBudgetOutsideHalfOpenInterval) {
  ControlPlaneOptions options;
  options.quarantine_budget_fraction = 0.0;
  EXPECT_FALSE(options.Validate().ok());
  options.quarantine_budget_fraction = 1.5;
  EXPECT_FALSE(options.Validate().ok());
  options.quarantine_budget_fraction = 1.0;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(ControlPlaneOptionsTest, RejectsInvalidChaos) {
  ControlPlaneOptions options;
  options.chaos.drop_report = 1.5;
  EXPECT_FALSE(options.Validate().ok());
  options.chaos.drop_report = 0.5;
  EXPECT_TRUE(options.Validate().ok());
  options.chaos.machine_restart_per_day = -1.0;
  EXPECT_FALSE(options.Validate().ok());
  options.chaos.machine_restart_per_day = 0.0;
  options.chaos.delay_report = 0.5;
  options.chaos.report_delay_mean = SimTime::Seconds(0);
  EXPECT_FALSE(options.Validate().ok());
}

// One invalid field at a time, each starting from valid defaults, so every range check in
// QuorumOptions::Validate is individually proven to fire (and to name its own field).
TEST(ControlPlaneOptionsTest, RejectsInvalidQuorumOptions) {
  {
    ControlPlaneOptions options;
    options.quorum.witnesses = 0;
    EXPECT_FALSE(options.Validate().ok()) << "witnesses = 0";
  }
  {
    ControlPlaneOptions options;
    options.quorum.witnesses = -3;
    EXPECT_FALSE(options.Validate().ok()) << "negative witnesses";
  }
  {
    ControlPlaneOptions options;
    options.quorum.max_escalations = -1;
    EXPECT_FALSE(options.Validate().ok()) << "negative max_escalations";
  }
  {
    ControlPlaneOptions options;
    options.quorum.witness_error_rate = 1.5;
    EXPECT_FALSE(options.Validate().ok()) << "witness_error_rate > 1";
  }
  {
    ControlPlaneOptions options;
    options.quorum.witness_error_rate = std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE(options.Validate().ok()) << "NaN witness_error_rate";
  }
  {
    ControlPlaneOptions options;
    options.quorum.strong_agreement = -0.1;
    EXPECT_FALSE(options.Validate().ok()) << "negative strong_agreement";
  }
  {
    ControlPlaneOptions options;
    options.quorum.enabled = true;  // the largest valid configuration must still pass
    options.quorum.witnesses = 1;
    options.quorum.max_escalations = 0;
    options.quorum.witness_error_rate = 1.0;
    options.quorum.strong_agreement = 0.0;
    EXPECT_TRUE(options.Validate().ok());
  }
}

TEST(ControlPlaneOptionsTest, RejectsInvalidProbationOptions) {
  {
    ControlPlaneOptions options;
    options.probation.window = SimTime::Seconds(0);
    EXPECT_FALSE(options.Validate().ok()) << "zero window";
  }
  {
    ControlPlaneOptions options;
    options.probation.window = SimTime::Seconds(-5);
    EXPECT_FALSE(options.Validate().ok()) << "negative window";
  }
  {
    ControlPlaneOptions options;
    options.probation.clean_windows_to_reinstate = 0;
    EXPECT_FALSE(options.Validate().ok()) << "zero clean windows";
  }
  {
    ControlPlaneOptions options;
    options.probation.weak_after_attempts = -1;
    EXPECT_FALSE(options.Validate().ok()) << "negative weak_after_attempts";
  }
  {
    ControlPlaneOptions options;
    options.probation.enabled = true;
    options.probation.window = SimTime::Seconds(1);
    options.probation.clean_windows_to_reinstate = 1;
    options.probation.weak_after_attempts = 0;  // 0 = criterion disabled, still valid
    EXPECT_TRUE(options.Validate().ok());
  }
}

TEST(ControlPlaneOptionsTest, RejectsInvalidVerdictChaos) {
  {
    ControlPlaneOptions options;
    options.chaos.lying_witness = 1.5;
    EXPECT_FALSE(options.Validate().ok()) << "lying_witness > 1";
  }
  {
    ControlPlaneOptions options;
    options.chaos.witness_crash = -0.1;
    EXPECT_FALSE(options.Validate().ok()) << "negative witness_crash";
  }
  {
    ControlPlaneOptions options;
    options.chaos.probation_suppress = std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE(options.Validate().ok()) << "NaN probation_suppress";
  }
  {
    ControlPlaneOptions options;
    options.chaos.lying_witness = 1.0;
    options.chaos.witness_crash = 1.0;
    options.chaos.probation_suppress = 1.0;
    EXPECT_TRUE(options.Validate().ok());
  }
}

// --- Chaos injector -------------------------------------------------------------------------

TEST(ChaosInjectorTest, DisabledInjectorIsTransparent) {
  ChaosInjector chaos(ChaosOptions{}, Rng(1));
  EXPECT_FALSE(chaos.enabled());
  std::vector<Signal> deliver;
  chaos.InjectReport(Signal{SimTime::Days(1), 0, 7, SignalType::kCrash}, deliver);
  ASSERT_EQ(deliver.size(), 1u);
  EXPECT_EQ(deliver[0].core_global, 7u);
  double fraction = 1.0;
  EXPECT_FALSE(chaos.AbortInterrogation(&fraction));
  EXPECT_TRUE(chaos.DrawRestarts(SimTime::Days(1), {0, 1, 2}).empty());
  EXPECT_EQ(chaos.stats().reports_dropped, 0u);
}

TEST(ChaosInjectorTest, DropAllLosesEveryReport) {
  ChaosOptions options;
  options.drop_report = 1.0;
  ChaosInjector chaos(options, Rng(2));
  std::vector<Signal> deliver;
  for (int i = 0; i < 10; ++i) {
    chaos.InjectReport(Signal{SimTime::Days(1), 0, 7, SignalType::kCrash}, deliver);
  }
  EXPECT_TRUE(deliver.empty());
  EXPECT_EQ(chaos.stats().reports_dropped, 10u);
}

TEST(ChaosInjectorTest, DuplicateAllDeliversTwice) {
  ChaosOptions options;
  options.duplicate_report = 1.0;
  ChaosInjector chaos(options, Rng(3));
  std::vector<Signal> deliver;
  chaos.InjectReport(Signal{SimTime::Days(1), 0, 7, SignalType::kCrash}, deliver);
  EXPECT_EQ(deliver.size(), 2u);
  EXPECT_EQ(chaos.stats().reports_duplicated, 1u);
}

TEST(ChaosInjectorTest, DelayedReportsArriveLaterInDueOrder) {
  ChaosOptions options;
  options.delay_report = 1.0;
  options.report_delay_mean = SimTime::Days(2);
  ChaosInjector chaos(options, Rng(4));
  std::vector<Signal> deliver;
  for (uint64_t core = 0; core < 5; ++core) {
    chaos.InjectReport(Signal{SimTime::Days(1), 0, core, SignalType::kCrash}, deliver);
  }
  EXPECT_TRUE(deliver.empty()) << "a delayed report is not delivered immediately";
  EXPECT_EQ(chaos.delayed_in_flight(), 5u);
  EXPECT_TRUE(chaos.FlushDelayed(SimTime::Days(1)).empty())
      << "exponential delays are strictly positive";
  const auto late = chaos.FlushDelayed(SimTime::Days(1000));
  EXPECT_EQ(late.size(), 5u);
  EXPECT_EQ(chaos.delayed_in_flight(), 0u);
  EXPECT_EQ(chaos.stats().reports_delayed, 5u);
}

TEST(ChaosInjectorTest, RestartsDrawFromInstalledMachines) {
  ChaosOptions options;
  options.machine_restart_per_day = 5.0;  // mean 15 restarts/tick over 3 machines
  ChaosInjector chaos(options, Rng(5));
  const std::vector<uint64_t> installed = {10, 20, 30};
  const auto restarted = chaos.DrawRestarts(SimTime::Days(1), installed);
  ASSERT_FALSE(restarted.empty());
  for (uint64_t machine : restarted) {
    EXPECT_TRUE(machine == 10 || machine == 20 || machine == 30);
  }
  for (size_t i = 1; i < restarted.size(); ++i) {
    EXPECT_LT(restarted[i - 1], restarted[i]) << "sorted and deduplicated";
  }
}

// --- Quorum interrogator --------------------------------------------------------------------

// A healthy fleet for witness duty: no mercurial cores, so every witness reports the battery
// outcome faithfully unless chaos interferes.
struct QuorumBench {
  QuorumBench()
      : fleet([] {
          FleetOptions options;
          options.machine_count = 2;
          options.mercurial_rate_multiplier = 0.0;
          return Fleet::Build(options);
        }()),
        scheduler(fleet.core_count(), SchedulerCosts{}) {}

  Fleet fleet;
  CoreScheduler scheduler;
};

TEST(QuorumInterrogatorTest, FaithfulWitnessesConfirmUnanimously) {
  QuorumBench bench;
  QuorumOptions options;
  options.enabled = true;
  options.witnesses = 3;
  QuorumInterrogator quorum(options, Rng(5));
  ChaosInjector chaos(ChaosOptions{}, Rng(6));

  const QuorumVerdict guilty = quorum.Judge(0, /*tester_confessed=*/true, bench.fleet,
                                            bench.scheduler, chaos);
  EXPECT_TRUE(guilty.confessed);
  EXPECT_EQ(guilty.votes_for, 3);
  EXPECT_EQ(guilty.votes_against, 0);
  EXPECT_EQ(guilty.escalations, 0);
  EXPECT_FALSE(guilty.fell_back);
  EXPECT_EQ(guilty.agreement, 1.0);

  const QuorumVerdict clean = quorum.Judge(0, /*tester_confessed=*/false, bench.fleet,
                                           bench.scheduler, chaos);
  EXPECT_FALSE(clean.confessed);
  EXPECT_EQ(clean.votes_for, 3);

  EXPECT_EQ(quorum.stats().judgments, 2u);
  EXPECT_EQ(quorum.stats().votes_cast, 6u);
  EXPECT_EQ(quorum.stats().splits, 0u);
  EXPECT_EQ(quorum.stats().overrides, 0u);
  EXPECT_EQ(quorum.stats().fallbacks, 0u);
}

TEST(QuorumInterrogatorTest, MajorityOutvotesLyingMinority) {
  QuorumBench bench;
  QuorumOptions options;
  options.enabled = true;
  options.witnesses = 3;
  QuorumInterrogator quorum(options, Rng(7));
  ChaosOptions chaos_options;
  chaos_options.lying_witness = 0.2;  // per-vote flip; an override needs 2 of 3 flipped
  ChaosInjector chaos(chaos_options, Rng(8));

  const uint64_t judgments = 300;
  for (uint64_t i = 0; i < judgments; ++i) {
    quorum.Judge(0, /*tester_confessed=*/true, bench.fleet, bench.scheduler, chaos);
  }
  EXPECT_GT(chaos.stats().witnesses_lied, 0u) << "chaos must actually flip votes";
  EXPECT_GT(quorum.stats().overrides, 0u) << "a lying majority occasionally forms";
  // The point of the quorum: most flipped votes are outvoted, so overrides (wrong verdicts)
  // are far rarer than the lies themselves (~10% of judgments at p=0.2 vs ~60% with a vote
  // flipped). With a lone tester every one of those flips would have been a wrong verdict.
  EXPECT_LT(quorum.stats().overrides, judgments / 4);
  EXPECT_GT(chaos.stats().witnesses_lied, 2 * quorum.stats().overrides);
}

TEST(QuorumInterrogatorTest, AllWitnessesCrashingEscalatesThenFallsBack) {
  QuorumBench bench;
  QuorumOptions options;
  options.enabled = true;
  options.witnesses = 3;
  options.max_escalations = 2;
  QuorumInterrogator quorum(options, Rng(9));
  ChaosOptions chaos_options;
  chaos_options.witness_crash = 1.0;  // every seated witness dies mid-vote
  ChaosInjector chaos(chaos_options, Rng(10));

  const QuorumVerdict verdict =
      quorum.Judge(0, /*tester_confessed=*/true, bench.fleet, bench.scheduler, chaos);
  EXPECT_TRUE(verdict.fell_back) << "no vote was ever cast; the lone tester decided";
  EXPECT_TRUE(verdict.confessed) << "the fallback preserves the tester's verdict";
  EXPECT_EQ(verdict.votes_for, 0);
  EXPECT_EQ(verdict.votes_against, 0);
  EXPECT_EQ(verdict.escalations, 2);
  EXPECT_EQ(verdict.agreement, 0.5) << "a fallback verdict is weak evidence by definition";

  // Rounds of 3, 7, and 15 witnesses were seated and all crashed.
  EXPECT_EQ(quorum.stats().splits, 3u);
  EXPECT_EQ(quorum.stats().escalations, 2u);
  EXPECT_EQ(quorum.stats().fallbacks, 1u);
  EXPECT_EQ(quorum.stats().votes_cast, 0u);
  EXPECT_GE(chaos.stats().witnesses_crashed, 15u);
}

TEST(QuorumInterrogatorTest, PackedDetailRoundTrips) {
  QuorumVerdict verdict;
  verdict.confessed = true;
  verdict.votes_for = 5;
  verdict.votes_against = 2;
  verdict.escalations = 1;
  verdict.fell_back = false;
  const QuorumVerdict back = UnpackQuorumDetail(PackQuorumDetail(verdict));
  EXPECT_EQ(back.confessed, verdict.confessed);
  EXPECT_EQ(back.votes_for, verdict.votes_for);
  EXPECT_EQ(back.votes_against, verdict.votes_against);
  EXPECT_EQ(back.escalations, verdict.escalations);
  EXPECT_EQ(back.fell_back, verdict.fell_back);
  EXPECT_NEAR(back.agreement, 5.0 / 7.0, 1e-12);

  QuorumVerdict fallback;
  fallback.confessed = false;
  fallback.fell_back = true;
  fallback.votes_for = 0;
  fallback.votes_against = 0;
  const QuorumVerdict fallback_back = UnpackQuorumDetail(PackQuorumDetail(fallback));
  EXPECT_TRUE(fallback_back.fell_back);
  EXPECT_EQ(fallback_back.agreement, 0.5);
}

// --- Verdict rules ----------------------------------------------------------------------------

// One suspect at a time through the plane at default options, where every suspect is judged
// in the tick it is accused.
struct QuarantineHarness {
  QuarantineHarness(QuarantinePolicy policy, uint64_t seed)
      : fleet([] {
          FleetOptions fleet_options;
          fleet_options.machine_count = 4;
          fleet_options.mercurial_rate_multiplier = 0.0;
          return Fleet::Build(fleet_options);
        }()),
        scheduler(fleet.core_count(), SchedulerCosts{}),
        service(MakeService(fleet)),
        plane(ControlPlaneOptions{}, policy, Rng(seed), Rng(seed ^ 0x5eed)) {}
  QuarantineHarness(const QuarantineHarness&) = delete;
  QuarantineHarness& operator=(const QuarantineHarness&) = delete;

  // Accuses `core` with three screen failures on `day`; returns that day's verdicts.
  std::vector<QuarantineVerdict> Accuse(int day, uint64_t core) {
    const SimTime now = SimTime::Days(day);
    for (int r = 0; r < 3; ++r) {
      plane.Report(ScreenFailAt(now, fleet, core), service);
    }
    return plane.Tick(now, SimTime::Days(1), fleet, scheduler, service, nullptr);
  }

  Fleet fleet;
  CoreScheduler scheduler;
  CeeReportService service;
  QuarantineControlPlane plane;
};

DefectSpec AlwaysFire(ExecUnit unit, DefectEffect effect, double rate = 1.0) {
  DefectSpec spec;
  spec.unit = unit;
  spec.effect = effect;
  spec.fvt.base_rate = rate;
  spec.machine_check_fraction = 0.0;
  return spec;
}

TEST(QuarantineTest, DefectiveSuspectIsRetired) {
  QuarantinePolicy policy;
  policy.confession.stress.iterations_per_unit = 128;
  QuarantineHarness h(policy, 1);
  h.fleet.PlantDefect(9, AlwaysFire(ExecUnit::kVector, DefectEffect::kBitFlip, 0.3));

  const auto verdicts = h.Accuse(3, 9);  // retired by the day-3 tick
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_TRUE(verdicts[0].confessed);
  EXPECT_TRUE(verdicts[0].retired);
  EXPECT_EQ(static_cast<int>(h.scheduler.state(9)), static_cast<int>(CoreState::kRetired));
  EXPECT_EQ(h.plane.quarantine_stats().confessions, 1u);
  EXPECT_FALSE(verdicts[0].failed_units.empty());
}

TEST(QuarantineTest, HealthySuspectIsReleased) {
  QuarantineHarness h(QuarantinePolicy{}, 2);
  const auto verdicts = h.Accuse(3, 4);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_FALSE(verdicts[0].retired);
  EXPECT_TRUE(h.scheduler.Schedulable(4));
  EXPECT_EQ(h.plane.quarantine_stats().releases, 1u);
  EXPECT_EQ(h.plane.quarantine_stats().false_positive_retirements, 0u);
}

TEST(QuarantineTest, RecidivismRetiresEvasiveCore) {
  QuarantinePolicy policy;
  policy.confession.stress.iterations_per_unit = 8;
  policy.confession.max_attempts = 1;
  policy.recidivism_retire_after = 3;
  QuarantineHarness h(policy, 3);
  // Evasive defect: narrow data trigger, tiny interrogation budget -> never confesses.
  DefectSpec spec = AlwaysFire(ExecUnit::kIntAlu, DefectEffect::kBitFlip, 1.0);
  spec.trigger.mask = 0xffffff;
  spec.trigger.value = 0x123456;
  h.fleet.PlantDefect(2, spec);

  h.Accuse(1, 2);
  EXPECT_TRUE(h.scheduler.Schedulable(2)) << "first accusation: released";
  h.Accuse(2, 2);
  EXPECT_TRUE(h.scheduler.Schedulable(2)) << "second accusation: released";
  h.Accuse(3, 2);
  EXPECT_EQ(static_cast<int>(h.scheduler.state(2)), static_cast<int>(CoreState::kRetired))
      << "third accusation: recidivism retirement";
  EXPECT_EQ(h.plane.quarantine_stats().recidivism_retirements, 1u);
}

TEST(QuarantineTest, NoConfessionRequiredRetiresOnSuspicion) {
  QuarantinePolicy policy;
  policy.require_confession = false;
  QuarantineHarness h(policy, 4);
  h.Accuse(1, 4);
  EXPECT_EQ(static_cast<int>(h.scheduler.state(4)), static_cast<int>(CoreState::kRetired));
  EXPECT_EQ(h.plane.quarantine_stats().false_positive_retirements, 1u)
      << "aggressive policy strands healthy capacity";
}

TEST(QuarantineTest, AlreadyRetiredSuspectsAreSkipped) {
  QuarantinePolicy policy;
  policy.require_confession = false;
  QuarantineHarness h(policy, 5);
  h.Accuse(1, 4);
  const auto verdicts = h.Accuse(2, 4);
  EXPECT_TRUE(verdicts.empty());
  EXPECT_EQ(h.plane.quarantine_stats().retirements, 1u);
}

TEST(QuarantineTest, ReaccusedCoreIsNotDoubleCountedInSuspectsProcessed) {
  QuarantinePolicy policy;
  policy.recidivism_retire_after = 0;  // keep releasing so the core can be re-accused
  QuarantineHarness h(policy, 6);
  for (int day = 1; day <= 4; ++day) {
    h.Accuse(day, 4);
  }
  EXPECT_EQ(h.plane.quarantine_stats().suspects_processed, 1u)
      << "one distinct core, regardless of how many times it was re-accused";
  EXPECT_EQ(h.plane.quarantine_stats().accusations, 4u)
      << "every accusation event is still counted";
  EXPECT_EQ(h.plane.quarantine_stats().releases, 4u);
}

TEST(QuarantineTest, RecidivismBoundaryReleasesUntilThreshold) {
  QuarantinePolicy policy;
  policy.recidivism_retire_after = 4;
  QuarantineHarness h(policy, 7);
  // A healthy core never confesses, so every verdict is recidivism-driven.
  for (int accusation = 1; accusation <= 3; ++accusation) {
    h.Accuse(accusation, 4);
    EXPECT_TRUE(h.scheduler.Schedulable(4))
        << "accusation " << accusation << " of retire_after - 1 must release";
  }
  EXPECT_EQ(h.plane.quarantine_stats().recidivism_retirements, 0u);
  h.Accuse(4, 4);
  EXPECT_EQ(static_cast<int>(h.scheduler.state(4)), static_cast<int>(CoreState::kRetired))
      << "accusation number retire_after retires";
  EXPECT_EQ(h.plane.quarantine_stats().recidivism_retirements, 1u);
}

TEST(QuarantineTest, RecidivismZeroNeverRetiresByReaccusation) {
  QuarantinePolicy policy;
  policy.recidivism_retire_after = 0;
  QuarantineHarness h(policy, 8);
  for (int day = 1; day <= 8; ++day) {
    h.Accuse(day, 4);
    ASSERT_TRUE(h.scheduler.Schedulable(4)) << "day " << day;
  }
  EXPECT_EQ(h.plane.quarantine_stats().recidivism_retirements, 0u);
  EXPECT_EQ(h.plane.quarantine_stats().retirements, 0u);
}

// --- Transparency: the default pipeline, pinned ---------------------------------------------

// A 40-day suspicion workload through the plane at default options: every active mercurial
// core is accused daily (a planted always-firing core confesses on day 1), and a healthy decoy
// every 5th day exercises release, re-accusation and recidivism. The verdicts, counters,
// scheduler accounting and durable bytes are the ones the synchronous batch pipeline that
// preceded the plane produced on this workload, call for call. The control stream is seeded
// apart on purpose: at defaults it is never drawn from.
TEST(ControlPlaneTest, DefaultPipelineMatchesPinnedVerdicts) {
  FleetOptions fleet_options;
  fleet_options.machine_count = 10;
  fleet_options.mercurial_rate_multiplier = 300.0;
  Fleet fleet = Fleet::Build(fleet_options);
  ASSERT_EQ(fleet.mercurial_cores().size(), 4u);
  ASSERT_TRUE(fleet.Healthy(2));
  fleet.PlantDefect(2, AlwaysFire(ExecUnit::kVector, DefectEffect::kBitFlip));
  CoreScheduler scheduler(fleet.core_count(), SchedulerCosts{});
  CeeReportService service = MakeService(fleet);

  QuarantinePolicy policy;
  policy.confession.stress.iterations_per_unit = 64;
  QuarantineControlPlane plane(ControlPlaneOptions{}, policy, Rng(7), Rng(0xdead));

  struct Verdict {
    int day;
    uint64_t core;
    bool confessed;
    bool retired;
  };
  std::vector<Verdict> verdicts;
  const SimTime dt = SimTime::Days(1);
  for (int day = 1; day <= 40; ++day) {
    const SimTime now = SimTime::Days(day);
    fleet.SetAges(now);
    std::vector<uint64_t> accused = fleet.mercurial_cores();
    if (day % 5 == 0) {
      accused.push_back(1);
    }
    for (uint64_t core : accused) {
      plane.Report(ScreenFailAt(now, fleet, core), service);
    }
    for (const QuarantineVerdict& v : plane.Tick(now, dt, fleet, scheduler, service, nullptr)) {
      verdicts.push_back({day, v.core_global, v.confessed, v.retired});
    }
    scheduler.AccumulateStranding(dt);
  }

  const std::vector<Verdict> pinned = {
      {1, 2, true, true},     {1, 98, false, false},  {1, 282, false, false},
      {1, 354, false, false}, {1, 398, false, false}, {2, 98, false, false},
      {2, 282, false, false}, {2, 354, false, false}, {2, 398, false, false},
      {3, 98, false, true},   {3, 282, false, true},  {3, 354, false, true},
      {3, 398, false, true},  {5, 1, false, false},   {10, 1, false, false},
      {15, 1, false, true},
  };
  ASSERT_EQ(verdicts.size(), pinned.size());
  for (size_t v = 0; v < pinned.size(); ++v) {
    EXPECT_EQ(verdicts[v].day, pinned[v].day) << "verdict " << v;
    EXPECT_EQ(verdicts[v].core, pinned[v].core) << "verdict " << v;
    EXPECT_EQ(verdicts[v].confessed, pinned[v].confessed) << "verdict " << v;
    EXPECT_EQ(verdicts[v].retired, pinned[v].retired) << "verdict " << v;
  }
  // suspects_processed, accusations, confessions, releases, retirements, recidivism, probation
  // (entries, escalations, reinstatements), interrogation ops, TP, FP, missed confessions.
  EXPECT_TRUE(plane.quarantine_stats() ==
              (QuarantineStats{6, 16, 1, 10, 6, 5, 0, 0, 0, 61155, 5, 1, 8}));
  SchedulerStats pinned_scheduler;
  pinned_scheduler.drains = 16;
  pinned_scheduler.quarantines = 16;
  pinned_scheduler.releases = 10;
  pinned_scheduler.retirements = 6;
  pinned_scheduler.migration_cost_core_seconds = 960.0;
  pinned_scheduler.stranded_core_seconds = 18835200.0;
  EXPECT_TRUE(scheduler.stats() == pinned_scheduler);
  const std::vector<uint8_t> bytes = SaveBytes(plane);
  EXPECT_EQ(bytes.size(), 785u);
  EXPECT_EQ(Crc32(bytes), 0x14c9604du);

  // The plane's own machinery must have stayed inert.
  const ControlPlaneStats& cp = plane.stats();
  EXPECT_EQ(cp.suspects_shed, 0u);
  EXPECT_EQ(cp.retries_scheduled, 0u);
  EXPECT_EQ(cp.drain_escalations, 0u);
  EXPECT_EQ(cp.guardrail_activations, 0u);
  EXPECT_EQ(cp.restarts_reset, 0u);
  EXPECT_EQ(plane.pending_count(), 0u) << "defaults resolve every suspect within its tick";
}

// --- Admission control ----------------------------------------------------------------------

TEST(ControlPlaneTest, AdmissionBoundShedsAndShedSuspectsRecandidate) {
  FleetOptions fleet_options;
  fleet_options.machine_count = 2;
  fleet_options.mercurial_rate_multiplier = 0.0;
  Fleet fleet = Fleet::Build(fleet_options);
  CoreScheduler scheduler(fleet.core_count(), SchedulerCosts{});
  CeeReportService service = MakeService(fleet);

  ControlPlaneOptions options;
  options.max_pending = 1;
  options.drain_latency = SimTime::Days(3);  // keeps the admitted suspect resident for days
  QuarantineControlPlane plane(options, QuarantinePolicy{}, Rng(11), Rng(12));

  // Two simultaneous strong suspects, but room for only one.
  for (int i = 0; i < 3; ++i) {
    service.Report(ScreenFailAt(SimTime::Days(1), fleet, 5));
    service.Report(ScreenFailAt(SimTime::Days(1), fleet, 6));
  }
  size_t verdicts = 0;
  for (int day = 1; day <= 20; ++day) {
    verdicts += plane.Tick(SimTime::Days(day), SimTime::Days(1), fleet, scheduler, service,
                           nullptr)
                    .size();
  }
  const ControlPlaneStats& stats = plane.stats();
  EXPECT_EQ(stats.suspects_admitted, 2u) << "the shed suspect re-candidates once there is room";
  EXPECT_GE(stats.suspects_shed, 1u);
  EXPECT_EQ(stats.queue_peak, 1u);
  EXPECT_EQ(verdicts, 2u) << "backpressure delays verdicts, it does not lose them";
  EXPECT_EQ(plane.quarantine_stats().releases, 2u) << "both healthy cores eventually cleared";
}

// --- Retry with backoff ---------------------------------------------------------------------

TEST(ControlPlaneTest, RetriesFollowExponentialBackoff) {
  FleetOptions fleet_options;
  fleet_options.machine_count = 2;
  fleet_options.mercurial_rate_multiplier = 0.0;
  Fleet fleet = Fleet::Build(fleet_options);
  CoreScheduler scheduler(fleet.core_count(), SchedulerCosts{});
  CeeReportService service = MakeService(fleet);

  ControlPlaneOptions options;
  options.max_retries = 2;
  options.retry_backoff = SimTime::Days(2);
  options.retry_jitter = 0.0;  // deterministic schedule: attempts at day 1, 3, 7
  QuarantinePolicy policy;
  policy.recidivism_retire_after = 0;  // isolate the retry machinery
  QuarantineControlPlane plane(options, policy, Rng(21), Rng(22));

  for (int i = 0; i < 3; ++i) {
    service.Report(ScreenFailAt(SimTime::Days(1), fleet, 4));
  }
  std::vector<int> verdict_days;
  for (int day = 1; day <= 10; ++day) {
    const auto verdicts =
        plane.Tick(SimTime::Days(day), SimTime::Days(1), fleet, scheduler, service, nullptr);
    if (!verdicts.empty()) {
      verdict_days.push_back(day);
    }
    if (day < 7) {
      EXPECT_EQ(static_cast<int>(scheduler.state(4)),
                static_cast<int>(CoreState::kQuarantined))
          << "stays quarantined between attempts (day " << day << ")";
    }
  }
  // Attempt 1 at day 1 -> retry at 1+2=3; attempt 2 at day 3 -> retry at 3+4=7; attempt 3 at
  // day 7 exhausts the budget and the healthy core is released.
  ASSERT_EQ(verdict_days.size(), 1u);
  EXPECT_EQ(verdict_days[0], 7);
  EXPECT_EQ(plane.stats().retries_scheduled, 2u);
  EXPECT_EQ(plane.stats().retry_interrogations, 2u);
  EXPECT_EQ(plane.quarantine_stats().releases, 1u);
  EXPECT_TRUE(scheduler.Schedulable(4));
}

// --- Drain model ----------------------------------------------------------------------------

TEST(ControlPlaneTest, GracefulDrainDelaysInterrogation) {
  FleetOptions fleet_options;
  fleet_options.machine_count = 2;
  fleet_options.mercurial_rate_multiplier = 0.0;
  Fleet fleet = Fleet::Build(fleet_options);
  CoreScheduler scheduler(fleet.core_count(), SchedulerCosts{});
  CeeReportService service = MakeService(fleet);

  ControlPlaneOptions options;
  options.drain_latency = SimTime::Days(2);  // sampled completion in [2, 4) days
  QuarantineControlPlane plane(options, QuarantinePolicy{}, Rng(31), Rng(32));

  for (int i = 0; i < 3; ++i) {
    service.Report(ScreenFailAt(SimTime::Days(1), fleet, 4));
  }
  int verdict_day = -1;
  for (int day = 1; day <= 10 && verdict_day < 0; ++day) {
    if (!plane.Tick(SimTime::Days(day), SimTime::Days(1), fleet, scheduler, service, nullptr)
             .empty()) {
      verdict_day = day;
    }
  }
  EXPECT_GE(verdict_day, 3) << "interrogation must wait for the drain to complete";
  EXPECT_LE(verdict_day, 5);
  EXPECT_EQ(scheduler.stats().surprise_removals, 0u);
  EXPECT_EQ(plane.stats().drain_escalations, 0u);
}

TEST(ControlPlaneTest, DrainTimeoutEscalatesToSurpriseRemoval) {
  FleetOptions fleet_options;
  fleet_options.machine_count = 2;
  fleet_options.mercurial_rate_multiplier = 0.0;
  Fleet fleet = Fleet::Build(fleet_options);
  CoreScheduler scheduler(fleet.core_count(), SchedulerCosts{});
  CeeReportService service = MakeService(fleet);

  ControlPlaneOptions options;
  options.drain_latency = SimTime::Days(3);  // sampled completion in [3, 6) days...
  options.drain_timeout = SimTime::Days(1);  // ...but the plane only waits one
  QuarantineControlPlane plane(options, QuarantinePolicy{}, Rng(41), Rng(42));

  for (int i = 0; i < 3; ++i) {
    service.Report(ScreenFailAt(SimTime::Days(1), fleet, 4));
  }
  int verdict_day = -1;
  for (int day = 1; day <= 10 && verdict_day < 0; ++day) {
    if (!plane.Tick(SimTime::Days(day), SimTime::Days(1), fleet, scheduler, service, nullptr)
             .empty()) {
      verdict_day = day;
    }
  }
  EXPECT_EQ(verdict_day, 2) << "escalation fires at admission + timeout";
  EXPECT_EQ(plane.stats().drain_escalations, 1u);
  EXPECT_EQ(scheduler.stats().surprise_removals, 1u);
  EXPECT_GT(scheduler.stats().lost_work_core_seconds, 0.0);
}

// --- Capacity guardrail ---------------------------------------------------------------------

TEST(ControlPlaneTest, GuardrailReleasesLeastSuspectAndThrottlesScreening) {
  FleetOptions fleet_options;
  fleet_options.machine_count = 1;
  fleet_options.mercurial_rate_multiplier = 0.0;
  Fleet fleet = Fleet::Build(fleet_options);
  ASSERT_GE(fleet.core_count(), 8u);
  CoreScheduler scheduler(fleet.core_count(), SchedulerCosts{});
  CeeReportService service = MakeService(fleet);

  ScreeningOptions screening_options;
  screening_options.offline_period = SimTime::Days(30);
  ScreeningOrchestrator screening(screening_options, fleet.core_count(), Rng(50));

  ControlPlaneOptions options;
  options.drain_latency = SimTime::Days(5);  // suspects park in the pipeline
  // Budget: at most 2 cores draining + quarantined.
  options.quarantine_budget_fraction = 2.5 / static_cast<double>(fleet.core_count());
  QuarantineControlPlane plane(options, QuarantinePolicy{}, Rng(51), Rng(52));

  // Four suspects with strictly increasing suspicion: core 1 weakest ... core 4 strongest.
  const SimTime now = SimTime::Days(1);
  for (uint64_t core = 1; core <= 4; ++core) {
    for (uint64_t r = 0; r < core; ++r) {
      service.Report(ScreenFailAt(now, fleet, core));
    }
  }
  plane.Tick(now, SimTime::Days(1), fleet, scheduler, service, &screening);

  const ControlPlaneStats& stats = plane.stats();
  EXPECT_EQ(stats.guardrail_activations, 1u);
  EXPECT_EQ(stats.guardrail_releases, 2u);
  EXPECT_GE(stats.screening_deferrals, 1u) << "offline screens due soon must be pushed back";
  EXPECT_EQ(scheduler.pending_isolation_count(), 2u);
  EXPECT_TRUE(scheduler.Schedulable(1)) << "least-suspect core released first";
  EXPECT_TRUE(scheduler.Schedulable(2));
  EXPECT_EQ(static_cast<int>(scheduler.state(3)), static_cast<int>(CoreState::kDraining));
  EXPECT_EQ(static_cast<int>(scheduler.state(4)), static_cast<int>(CoreState::kDraining));
  EXPECT_EQ(plane.quarantine_stats().releases, 2u) << "guardrail releases count as releases";
}

// --- Machine restarts -----------------------------------------------------------------------

TEST(ControlPlaneTest, MachineRestartResetsInFlightQuarantine) {
  FleetOptions fleet_options;
  fleet_options.machine_count = 2;
  fleet_options.mercurial_rate_multiplier = 0.0;
  Fleet fleet = Fleet::Build(fleet_options);
  CoreScheduler scheduler(fleet.core_count(), SchedulerCosts{});
  CeeReportService service = MakeService(fleet);

  ControlPlaneOptions options;
  options.drain_latency = SimTime::Days(10);  // suspect stays in flight
  options.chaos.machine_restart_per_day = 20.0;  // virtually certain restart each tick
  QuarantineControlPlane plane(options, QuarantinePolicy{}, Rng(61), Rng(62));

  for (int i = 0; i < 3; ++i) {
    service.Report(ScreenFailAt(SimTime::Days(1), fleet, 0));
  }
  plane.Tick(SimTime::Days(1), SimTime::Days(1), fleet, scheduler, service, nullptr);
  ASSERT_EQ(plane.pending_count(), 1u);
  plane.Tick(SimTime::Days(2), SimTime::Days(1), fleet, scheduler, service, nullptr);

  EXPECT_EQ(plane.pending_count(), 0u);
  EXPECT_GE(plane.stats().restarts_reset, 1u);
  EXPECT_GE(plane.stats().chaos.machine_restarts, 1u);
  EXPECT_TRUE(scheduler.Schedulable(0)) << "the core reboots back into the schedule";
  EXPECT_EQ(plane.quarantine_stats().retirements, 0u) << "a reset is not a verdict";
}

// --- Quorum verdicts in the pipeline --------------------------------------------------------

// With faithful witnesses (no mercurial cores erring, no chaos) the quorum unanimously
// confirms every battery, so the verdict stream must be identical to a quorum-off twin — the
// quorum draws only from its own dedicated stream and never perturbs the interrogation stream.
TEST(ControlPlaneTest, FaithfulQuorumMatchesQuorumOffVerdicts) {
  FleetOptions fleet_options;
  fleet_options.machine_count = 10;
  fleet_options.mercurial_rate_multiplier = 300.0;
  Fleet fleet_a = Fleet::Build(fleet_options);
  Fleet fleet_b = Fleet::Build(fleet_options);
  CoreScheduler sched_a(fleet_a.core_count(), SchedulerCosts{});
  CoreScheduler sched_b(fleet_b.core_count(), SchedulerCosts{});
  CeeReportService service_a = MakeService(fleet_a);
  CeeReportService service_b = MakeService(fleet_b);

  QuarantinePolicy policy;
  policy.confession.stress.iterations_per_unit = 64;
  ControlPlaneOptions plain;
  ControlPlaneOptions quorum_on;
  quorum_on.quorum.enabled = true;
  quorum_on.quorum.witnesses = 3;
  quorum_on.quorum.witness_error_rate = 0.25;  // irrelevant: no witness is mercurial-active
  QuarantineControlPlane plane_a(plain, policy, Rng(7), Rng(0xaaaa));
  QuarantineControlPlane plane_b(quorum_on, policy, Rng(7), Rng(0xbbbb));

  for (int day = 1; day <= 40; ++day) {
    const SimTime now = SimTime::Days(day);
    fleet_a.SetAges(now);
    fleet_b.SetAges(now);
    std::vector<uint64_t> accused = fleet_a.mercurial_cores();
    if (day % 5 == 0) {
      accused.push_back(1);
    }
    for (uint64_t core : accused) {
      plane_a.Report(ScreenFailAt(now, fleet_a, core), service_a);
      plane_b.Report(ScreenFailAt(now, fleet_b, core), service_b);
    }
    const auto verdicts_a = plane_a.Tick(now, SimTime::Days(1), fleet_a, sched_a, service_a,
                                         nullptr);
    const auto verdicts_b = plane_b.Tick(now, SimTime::Days(1), fleet_b, sched_b, service_b,
                                         nullptr);
    ASSERT_EQ(verdicts_a.size(), verdicts_b.size()) << "day " << day;
    for (size_t v = 0; v < verdicts_a.size(); ++v) {
      EXPECT_EQ(verdicts_a[v].core_global, verdicts_b[v].core_global) << "day " << day;
      EXPECT_EQ(verdicts_a[v].confessed, verdicts_b[v].confessed) << "day " << day;
      EXPECT_EQ(verdicts_a[v].retired, verdicts_b[v].retired) << "day " << day;
    }
  }
  EXPECT_TRUE(plane_a.quarantine_stats() == plane_b.quarantine_stats());
  EXPECT_GT(plane_b.stats().quorum.judgments, 0u) << "the quorum must actually judge";
  EXPECT_EQ(plane_b.stats().quorum.overrides, 0u) << "faithful witnesses never overturn";
  EXPECT_EQ(plane_b.stats().quorum.fallbacks, 0u);
  EXPECT_GT(plane_a.quarantine_stats().retirements, 0u);
}

// The false-conviction source the quorum exists to suppress: with testimony chaos and no
// quorum, the lone tester's flipped verdicts retire healthy cores; the same chaos rate with a
// 5-witness quorum needs a majority of votes flipped, which is far rarer.
TEST(ControlPlaneTest, QuorumSuppressesLyingTesterFalseConvictions) {
  FleetOptions fleet_options;
  fleet_options.machine_count = 4;
  fleet_options.mercurial_rate_multiplier = 0.0;  // every conviction is a false positive

  QuarantinePolicy policy;
  policy.recidivism_retire_after = 0;  // isolate the lying-verdict path

  auto run = [&](bool quorum_enabled) {
    Fleet fleet = Fleet::Build(fleet_options);
    CoreScheduler scheduler(fleet.core_count(), SchedulerCosts{});
    CeeReportService service = MakeService(fleet);
    ControlPlaneOptions options;
    options.chaos.lying_witness = 0.15;
    options.quorum.enabled = quorum_enabled;
    options.quorum.witnesses = 5;
    QuarantineControlPlane plane(options, policy, Rng(31), Rng(32));
    for (int day = 1; day <= 12; ++day) {
      const SimTime now = SimTime::Days(day);
      fleet.SetAges(now);
      for (uint64_t core = 1; core <= 8; ++core) {
        if (scheduler.Schedulable(core)) {
          for (int r = 0; r < 3; ++r) {
            plane.Report(ScreenFailAt(now, fleet, core), service);
          }
        }
      }
      plane.Tick(now, SimTime::Days(1), fleet, scheduler, service, nullptr);
    }
    return plane.quarantine_stats().false_positive_retirements;
  };

  const uint64_t single_tester_fp = run(/*quorum_enabled=*/false);
  const uint64_t quorum_fp = run(/*quorum_enabled=*/true);
  EXPECT_GT(single_tester_fp, 0u) << "the lying tester must actually convict";
  EXPECT_LT(quorum_fp, single_tester_fp);
}

// --- Probation lifecycle --------------------------------------------------------------------

// A healthy core convicted on recidivism alone (weak evidence: no confession) must be held in
// probation and, after N clean shadow windows, reinstated — the false positive costs windows
// of restricted service instead of a permanently stranded core.
TEST(ControlPlaneTest, HealthyRecidivistReinstatesAfterCleanWindows) {
  FleetOptions fleet_options;
  fleet_options.machine_count = 2;
  fleet_options.mercurial_rate_multiplier = 0.0;
  Fleet fleet = Fleet::Build(fleet_options);
  CoreScheduler scheduler(fleet.core_count(), SchedulerCosts{});
  CeeReportService service = MakeService(fleet);

  QuarantinePolicy policy;
  policy.recidivism_retire_after = 2;
  ControlPlaneOptions options;
  options.probation.enabled = true;
  options.probation.window = SimTime::Days(1);
  options.probation.clean_windows_to_reinstate = 3;
  QuarantineControlPlane plane(options, policy, Rng(41), Rng(42));
  int reinstatement_hook_calls = 0;
  plane.set_reinstatement_hook(
      [&reinstatement_hook_calls](SimTime, uint64_t core) {
        EXPECT_EQ(core, 4u);
        ++reinstatement_hook_calls;
      });

  // Day 1: first accusation, released. Day 2: re-accused, recidivism convicts — weakly.
  for (int day = 1; day <= 2; ++day) {
    const SimTime now = SimTime::Days(day);
    for (int r = 0; r < 3; ++r) {
      plane.Report(ScreenFailAt(now, fleet, 4), service);
    }
    const auto verdicts = plane.Tick(now, SimTime::Days(1), fleet, scheduler, service, nullptr);
    ASSERT_EQ(verdicts.size(), 1u) << "day " << day;
    EXPECT_FALSE(verdicts[0].retired) << "probation holds the conviction open (day " << day
                                      << ")";
  }
  EXPECT_EQ(static_cast<int>(scheduler.state(4)), static_cast<int>(CoreState::kProbation));
  EXPECT_EQ(plane.probation_count(), 1u);
  EXPECT_EQ(plane.quarantine_stats().probation_entries, 1u);
  EXPECT_EQ(plane.quarantine_stats().retirements, 0u);
  EXPECT_EQ(scheduler.stats().probations, 1u);

  // Three clean shadow windows (healthy cores cannot confess), then reinstatement.
  for (int day = 3; day <= 5; ++day) {
    EXPECT_EQ(plane.probation_count(), 1u) << "day " << day;
    plane.Tick(SimTime::Days(day), SimTime::Days(1), fleet, scheduler, service, nullptr);
  }
  EXPECT_TRUE(scheduler.Schedulable(4));
  EXPECT_EQ(plane.probation_count(), 0u);
  EXPECT_EQ(reinstatement_hook_calls, 1);
  EXPECT_EQ(plane.quarantine_stats().reinstatements, 1u);
  EXPECT_EQ(scheduler.stats().reinstatements, 1u);
  EXPECT_EQ(plane.quarantine_stats().retirements, 0u);
  EXPECT_EQ(plane.quarantine_stats().false_positive_retirements, 0u)
      << "the appeal path saved a healthy core from a wrongful retirement";
  EXPECT_EQ(plane.quarantine_stats().missed_confessions, 0u)
      << "reinstating a healthy core misses nothing";

  // The slate is clean: a later accusation starts the lifecycle over instead of escalating.
  for (int r = 0; r < 3; ++r) {
    plane.Report(ScreenFailAt(SimTime::Days(20), fleet, 4), service);
  }
  const auto verdicts =
      plane.Tick(SimTime::Days(20), SimTime::Days(1), fleet, scheduler, service, nullptr);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_FALSE(verdicts[0].retired) << "recidivism must re-accumulate after reinstatement";
  EXPECT_TRUE(scheduler.Schedulable(4));
}

// A suspicion-only conviction (require_confession = false) runs no battery, so it is weak
// evidence: with probation on it enters restricted service instead of retirement. Its shadow
// windows run no battery either, so they can only come up clean, and the core is reinstated.
TEST(ControlPlaneTest, SuspicionOnlyConvictionEntersProbationThenReinstates) {
  FleetOptions fleet_options;
  fleet_options.machine_count = 2;
  fleet_options.mercurial_rate_multiplier = 0.0;
  Fleet fleet = Fleet::Build(fleet_options);
  CoreScheduler scheduler(fleet.core_count(), SchedulerCosts{});
  CeeReportService service = MakeService(fleet);

  QuarantinePolicy policy;
  policy.require_confession = false;
  ControlPlaneOptions options;
  options.probation.enabled = true;
  options.probation.window = SimTime::Days(5);
  options.probation.clean_windows_to_reinstate = 2;
  QuarantineControlPlane plane(options, policy, Rng(81), Rng(82));
  std::vector<int> reinstated_days;
  plane.set_reinstatement_hook([&reinstated_days](SimTime now, uint64_t core) {
    EXPECT_EQ(core, 4u);
    reinstated_days.push_back(static_cast<int>(now.seconds() / SimTime::Days(1).seconds()));
  });

  for (int r = 0; r < 3; ++r) {
    plane.Report(ScreenFailAt(SimTime::Days(1), fleet, 4), service);
  }
  std::vector<int> verdict_days;
  for (int day = 1; day <= 15; ++day) {
    for (const QuarantineVerdict& verdict :
         plane.Tick(SimTime::Days(day), SimTime::Days(1), fleet, scheduler, service, nullptr)) {
      EXPECT_EQ(verdict.core_global, 4u);
      EXPECT_FALSE(verdict.retired) << "probation holds the conviction open";
      EXPECT_FALSE(verdict.confessed);
      verdict_days.push_back(day);
    }
    if (day == 1) {
      EXPECT_EQ(static_cast<int>(scheduler.state(4)), static_cast<int>(CoreState::kProbation));
    }
  }
  EXPECT_EQ(verdict_days, std::vector<int>{1}) << "probation on day 1";
  EXPECT_EQ(reinstated_days, std::vector<int>{11}) << "two clean 5-day windows, then reinstated";
  EXPECT_TRUE(scheduler.Schedulable(4));
  EXPECT_EQ(plane.quarantine_stats().probation_entries, 1u);
  EXPECT_EQ(plane.quarantine_stats().reinstatements, 1u);
  EXPECT_EQ(plane.quarantine_stats().retirements, 0u);
  EXPECT_EQ(plane.quarantine_stats().interrogation_ops, 0u) << "no battery ever ran";
  EXPECT_EQ(plane.quarantine_stats().confessions, 0u);
}

// A fresh accusation while the conviction is held in appeal ends the appeal: straight to
// permanent retirement, no second interrogation.
TEST(ControlPlaneTest, FreshAccusationDuringProbationEscalatesToRetirement) {
  FleetOptions fleet_options;
  fleet_options.machine_count = 2;
  fleet_options.mercurial_rate_multiplier = 0.0;
  Fleet fleet = Fleet::Build(fleet_options);
  CoreScheduler scheduler(fleet.core_count(), SchedulerCosts{});
  CeeReportService service = MakeService(fleet);

  QuarantinePolicy policy;
  policy.recidivism_retire_after = 2;
  ControlPlaneOptions options;
  options.probation.enabled = true;
  options.probation.window = SimTime::Days(30);  // no shadow window fires in this test
  options.probation.clean_windows_to_reinstate = 3;
  QuarantineControlPlane plane(options, policy, Rng(51), Rng(52));

  for (int day = 1; day <= 2; ++day) {
    for (int r = 0; r < 3; ++r) {
      plane.Report(ScreenFailAt(SimTime::Days(day), fleet, 4), service);
    }
    plane.Tick(SimTime::Days(day), SimTime::Days(1), fleet, scheduler, service, nullptr);
  }
  ASSERT_EQ(static_cast<int>(scheduler.state(4)), static_cast<int>(CoreState::kProbation));

  for (int r = 0; r < 3; ++r) {
    plane.Report(ScreenFailAt(SimTime::Days(3), fleet, 4), service);
  }
  const auto verdicts =
      plane.Tick(SimTime::Days(3), SimTime::Days(1), fleet, scheduler, service, nullptr);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_TRUE(verdicts[0].retired);
  EXPECT_EQ(static_cast<int>(scheduler.state(4)), static_cast<int>(CoreState::kRetired));
  EXPECT_EQ(plane.probation_count(), 0u);
  EXPECT_EQ(plane.quarantine_stats().probation_escalations, 1u);
  EXPECT_EQ(plane.quarantine_stats().retirements, 1u);
  EXPECT_EQ(plane.quarantine_stats().false_positive_retirements, 1u)
      << "ground truth: the healthy core was wrongly escalated (the accusations were noise)";
  EXPECT_EQ(plane.quarantine_stats().reinstatements, 0u);
}

// A quorum fallback (agreement 0.5) makes even a confessed conviction weak evidence: the core
// enters probation with its confessed units as the placement restriction.
TEST(ControlPlaneTest, FallbackVerdictDivertsConfessionToRestrictedProbation) {
  FleetOptions fleet_options;
  fleet_options.machine_count = 10;
  fleet_options.mercurial_rate_multiplier = 300.0;
  Fleet fleet = Fleet::Build(fleet_options);
  ASSERT_FALSE(fleet.mercurial_cores().empty());
  CoreScheduler scheduler(fleet.core_count(), SchedulerCosts{});
  CeeReportService service = MakeService(fleet);

  QuarantinePolicy policy;
  policy.recidivism_retire_after = 0;  // only confessions convict here
  ControlPlaneOptions options;
  options.quorum.enabled = true;
  options.quorum.witnesses = 3;
  options.quorum.max_escalations = 1;
  options.chaos.witness_crash = 1.0;  // every quorum round dies => every judgment falls back
  options.probation.enabled = true;
  options.probation.window = SimTime::Days(365);  // hold the record open for inspection
  options.probation.clean_windows_to_reinstate = 1;
  QuarantineControlPlane plane(options, policy, Rng(61), Rng(62));

  // Accuse every mercurial core daily until one confesses; the confession must land in
  // probation (weak: fallback agreement 0.5 < strong_agreement 1.0), not in retirement.
  bool entered_probation = false;
  uint64_t probation_core = 0;
  std::vector<ExecUnit> confessed_units;
  for (int day = 1; day <= 60 && !entered_probation; ++day) {
    const SimTime now = SimTime::Days(day);
    fleet.SetAges(now);
    for (uint64_t core : fleet.mercurial_cores()) {
      if (scheduler.Schedulable(core)) {
        for (int r = 0; r < 3; ++r) {
          plane.Report(ScreenFailAt(now, fleet, core), service);
        }
      }
    }
    const auto verdicts = plane.Tick(now, SimTime::Days(1), fleet, scheduler, service, nullptr);
    for (const QuarantineVerdict& verdict : verdicts) {
      EXPECT_FALSE(verdict.retired) << "every conviction here is weak evidence";
      if (verdict.confessed) {
        entered_probation = true;
        probation_core = verdict.core_global;
        confessed_units = verdict.failed_units;
      }
    }
  }
  ASSERT_TRUE(entered_probation) << "no mercurial core confessed in 60 days";
  ASSERT_FALSE(confessed_units.empty()) << "a real confession names failed units";
  EXPECT_EQ(static_cast<int>(scheduler.state(probation_core)),
            static_cast<int>(CoreState::kProbation));
  EXPECT_GT(plane.stats().quorum.fallbacks, 0u);
  EXPECT_GE(plane.quarantine_stats().probation_entries, 1u);

  const std::vector<ExecUnit>* restricted = plane.ProbationRestrictedUnits(probation_core);
  ASSERT_NE(restricted, nullptr);
  EXPECT_EQ(*restricted, confessed_units)
      << "the placement restriction is exactly the confessed failed units";
  EXPECT_EQ(plane.ProbationRestrictedUnits(probation_core + 1), nullptr);
}

// A truly mercurial core that slips into probation is caught by the shadow screen (escalated),
// unless probation-signal suppression swallows the confessions — then the windows look clean
// and the defective core is wrongly reinstated, visibly: a missed confession is counted.
//
// Determinism comes from latent-defect aging: the accused core's defect onsets AFTER the
// conviction days, so the conviction batteries can only miss (fire probability is exactly 0
// before onset) and recidivism convicts on weak evidence. Once the defect ages in, the
// shadow screen's full-strength batteries start confessing.
TEST(ControlPlaneTest, ShadowConfessionEscalatesUnlessSuppressed) {
  // A large fleet with a high defect rate, so the probe below reliably finds a latent core.
  FleetOptions fleet_options;
  fleet_options.machine_count = 100;
  fleet_options.mercurial_rate_multiplier = 2000.0;

  QuarantinePolicy policy;
  policy.recidivism_retire_after = 2;

  // Probe an identical twin fleet for a latent core: every defect onsets after day 3 (so the
  // two conviction days deterministically miss), at least one onsets within 60 days, and the
  // standard battery confesses reliably once past onset.
  uint64_t accused = 0;
  int onset_days = 0;
  bool found = false;
  {
    Fleet probe_fleet = Fleet::Build(fleet_options);
    ConfessionTester probe_tester(policy.confession);
    Rng probe_rng(987);
    for (uint64_t core : probe_fleet.mercurial_cores()) {
      SimTime min_onset = SimTime::Days(1 << 20);
      for (const Defect& defect : probe_fleet.core(core).defects()) {
        if (defect.spec().aging.onset < min_onset) {
          min_onset = defect.spec().aging.onset;
        }
      }
      // Onset is measured in core AGE; machines install in the past, so the simulation day the
      // defect activates is onset + install_time (install times are negative).
      const SimTime install =
          probe_fleet.machine(probe_fleet.core_id(core).machine).install_time();
      const int64_t onset_day_seconds = min_onset.seconds() + install.seconds();
      if (onset_day_seconds <= SimTime::Days(3).seconds() ||
          onset_day_seconds > SimTime::Days(60).seconds()) {
        continue;
      }
      probe_fleet.SetAges(SimTime::Seconds(onset_day_seconds) + SimTime::Days(5));
      int hits = 0;
      for (int battery = 0; battery < 6; ++battery) {
        hits += probe_tester.Interrogate(probe_fleet.core(core), probe_rng).confessed ? 1 : 0;
      }
      if (hits >= 5) {
        accused = core;
        onset_days = static_cast<int>(onset_day_seconds / (24 * 3600)) + 1;
        found = true;
        break;
      }
    }
  }
  ASSERT_TRUE(found) << "no reliably-confessing latent-onset mercurial core in this fleet";

  // Drives the latent core into probation via recidivism (two accusation days before onset),
  // then lets shadow windows run with no further accusations.
  auto run = [&](double suppress, int clean_windows, int days) {
    Fleet fleet = Fleet::Build(fleet_options);
    CoreScheduler scheduler(fleet.core_count(), SchedulerCosts{});
    CeeReportService service = MakeService(fleet);
    ControlPlaneOptions options;
    options.probation.enabled = true;
    options.probation.window = SimTime::Days(1);
    options.probation.clean_windows_to_reinstate = clean_windows;
    options.chaos.probation_suppress = suppress;
    QuarantineControlPlane plane(options, policy, Rng(71), Rng(72));
    for (int day = 1; day <= days; ++day) {
      const SimTime now = SimTime::Days(day);
      fleet.SetAges(now);
      if (day <= 2) {
        for (int r = 0; r < 3; ++r) {
          plane.Report(ScreenFailAt(now, fleet, accused), service);
        }
      }
      plane.Tick(now, SimTime::Days(1), fleet, scheduler, service, nullptr);
    }
    return plane;
  };

  // Arm A: no suppression, reinstatement far away. Once the defect onsets, the shadow screen
  // extracts a confession and escalates to permanent retirement.
  {
    QuarantineControlPlane plane =
        run(/*suppress=*/0.0, /*clean_windows=*/10000, /*days=*/onset_days + 40);
    ASSERT_EQ(plane.quarantine_stats().probation_entries, 1u)
        << "pre-onset batteries cannot confess, so recidivism must convict weakly";
    EXPECT_EQ(plane.quarantine_stats().probation_escalations, 1u)
        << "the shadow screen must catch the defective core after onset";
    EXPECT_EQ(plane.quarantine_stats().true_positive_retirements, 1u);
    EXPECT_EQ(plane.quarantine_stats().reinstatements, 0u);
    EXPECT_EQ(plane.probation_count(), 0u);
    EXPECT_EQ(plane.quarantine_stats().missed_confessions, 1u)
        << "only the day-1 release misses; the escalation does not";
  }

  // Arm B: every shadow confession is swallowed in flight. The same core sails through its
  // clean-looking windows and is wrongly reinstated — counted as a missed confession.
  {
    QuarantineControlPlane plane =
        run(/*suppress=*/1.0, /*clean_windows=*/onset_days + 10, /*days=*/onset_days + 40);
    ASSERT_EQ(plane.quarantine_stats().probation_entries, 1u);
    EXPECT_EQ(plane.quarantine_stats().probation_escalations, 0u);
    EXPECT_EQ(plane.quarantine_stats().reinstatements, 1u);
    EXPECT_GE(plane.quarantine_stats().missed_confessions, 2u)
        << "wrongly reinstating a defective core must be visible in ground truth";
    EXPECT_GT(plane.stats().chaos.probation_signals_suppressed, 0u)
        << "suppression must have actually swallowed a confession";
    EXPECT_EQ(plane.quarantine_stats().retirements, 0u);
  }
}

// --- Resilience: chaos + retries + guardrail ------------------------------------------------

struct PipelineOutcome {
  QuarantineStats quarantine;
  ControlPlaneStats plane;
  SchedulerStats scheduler;
  size_t core_count = 0;
  int64_t duration_seconds = 0;

  bool operator==(const PipelineOutcome&) const = default;
};

QuarantinePolicy ChaosPipelinePolicy() {
  QuarantinePolicy policy;
  policy.confession.stress.iterations_per_unit = 64;
  return policy;
}

// The chaos pipeline's world: a 12-machine fleet at 400x incidence, its scheduler and report
// service, and a control plane under the options being tested. Not movable: the service
// reads the fleet through a reference.
struct ChaosPipeline {
  ChaosPipeline(const ControlPlaneOptions& options, uint64_t seed)
      : fleet([] {
          FleetOptions fleet_options;
          fleet_options.machine_count = 12;
          fleet_options.mercurial_rate_multiplier = 400.0;
          return Fleet::Build(fleet_options);
        }()),
        scheduler(fleet.core_count(), SchedulerCosts{}),
        service(MakeService(fleet)),
        plane(options, ChaosPipelinePolicy(), Rng(seed), Rng(seed ^ 0x5eed)) {}
  ChaosPipeline(const ChaosPipeline&) = delete;
  ChaosPipeline& operator=(const ChaosPipeline&) = delete;

  // A perfectly informed accusation stream: every truly mercurial core still in service is
  // accused daily. Chaos decides what survives the wire; the options under test decide how
  // the pipeline copes.
  void Run(int days) {
    for (int day = 1; day <= days; ++day) {
      const SimTime now = SimTime::Days(day);
      fleet.SetAges(now);
      for (uint64_t core : fleet.mercurial_cores()) {
        if (scheduler.state(core) != CoreState::kActive) {
          continue;
        }
        plane.Report(ScreenFailAt(now, fleet, core), service);
      }
      plane.Tick(now, SimTime::Days(1), fleet, scheduler, service, nullptr);
    }
  }

  Fleet fleet;
  CoreScheduler scheduler;
  CeeReportService service;
  QuarantineControlPlane plane;
};

PipelineOutcome RunChaosPipeline(const ControlPlaneOptions& options, uint64_t seed,
                                 int days = 60) {
  ChaosPipeline pipeline(options, seed);
  pipeline.Run(days);
  PipelineOutcome outcome;
  outcome.quarantine = pipeline.plane.quarantine_stats();
  outcome.plane = pipeline.plane.stats();
  outcome.scheduler = pipeline.scheduler.stats();
  outcome.core_count = pipeline.fleet.core_count();
  outcome.duration_seconds = SimTime::Days(days).seconds();
  return outcome;
}

ChaosOptions HarshChaos() {
  ChaosOptions chaos;
  chaos.drop_report = 0.4;
  chaos.abort_interrogation = 0.5;
  return chaos;
}

TEST(ControlPlaneTest, ChaosRetriesRecoverAtLeastNoRetryBaseline) {
  ControlPlaneOptions baseline;
  baseline.chaos = HarshChaos();

  ControlPlaneOptions resilient;
  resilient.chaos = HarshChaos();
  resilient.max_retries = 4;
  resilient.retry_backoff = SimTime::Days(1);
  resilient.quarantine_budget_fraction = 0.25;

  const PipelineOutcome base = RunChaosPipeline(baseline, 2021);
  const PipelineOutcome hardened = RunChaosPipeline(resilient, 2021);

  EXPECT_GT(base.plane.chaos.reports_dropped, 0u) << "chaos must actually bite";
  EXPECT_GT(hardened.plane.chaos.interrogations_aborted, 0u);
  EXPECT_GT(hardened.plane.retries_scheduled, 0u);

  // Retry/backoff must recover at least the no-retry baseline's true positives, and convert
  // evasive releases into confessions rather than waiting out recidivism.
  EXPECT_GE(hardened.quarantine.true_positive_retirements,
            base.quarantine.true_positive_retirements);
  EXPECT_GT(hardened.quarantine.confessions, base.quarantine.confessions);

  // The guardrail keeps reversible stranding under budget: never more than the budgeted core
  // count pending isolation, so the integral is bounded by budget * cores * duration.
  const double budget_cores =
      std::floor(resilient.quarantine_budget_fraction * static_cast<double>(hardened.core_count));
  EXPECT_LE(hardened.plane.peak_pending_isolation, static_cast<uint64_t>(budget_cores));
  EXPECT_LE(hardened.plane.pending_isolation_core_seconds,
            budget_cores * static_cast<double>(hardened.duration_seconds));
}

TEST(ControlPlaneTest, ChaosPipelineIsDeterministicUnderFixedSeed) {
  ControlPlaneOptions options;
  options.chaos = HarshChaos();
  options.chaos.delay_report = 0.2;
  options.chaos.machine_restart_per_day = 0.01;
  options.max_retries = 3;
  options.retry_backoff = SimTime::Days(1);
  options.quarantine_budget_fraction = 0.25;
  options.drain_latency = SimTime::Hours(6);
  options.drain_timeout = SimTime::Days(2);

  const PipelineOutcome a = RunChaosPipeline(options, 99, /*days=*/45);
  const PipelineOutcome b = RunChaosPipeline(options, 99, /*days=*/45);
  EXPECT_TRUE(a == b);
}

// --- Journal codec ---------------------------------------------------------------------------

// The plane's durable state mid-study: pending suspects (draining, awaiting retries),
// probation records, the verdict books, and the nested chaos and quorum state, which a failed
// load must leave untouched along with the plane's own books.
TEST(ControlPlaneTest, DurableCodecRoundTripsAndRefusesPrefixes) {
  ControlPlaneOptions options;
  options.chaos = HarshChaos();
  options.chaos.delay_report = 0.3;
  options.chaos.lying_witness = 0.2;
  options.max_retries = 3;
  options.retry_backoff = SimTime::Days(1);
  options.drain_latency = SimTime::Hours(6);
  options.quorum.enabled = true;
  options.probation.enabled = true;
  options.probation.weak_after_attempts = 1;
  ChaosPipeline pipeline(options, 99);
  pipeline.Run(/*days=*/45);
  const QuarantineControlPlane& plane = pipeline.plane;
  ASSERT_GT(plane.pending_count(), 0u);
  ASSERT_GT(plane.probation_count(), 0u);
  ASSERT_GT(plane.stats().quorum.judgments, 0u);
  ASSERT_GT(plane.stats().chaos.reports_delayed, 0u);
  ASSERT_GT(plane.quarantine_stats().retirements, 0u);

  ExpectDurableCodecContract(
      plane, QuarantineControlPlane(options, ChaosPipelinePolicy(), Rng(99), Rng(99 ^ 0x5eed)));
}

// The injector's durable state: fault counters and a queue of delayed reports.
TEST(ChaosInjectorTest, DurableCodecRoundTripsAndRefusesPrefixes) {
  ChaosOptions options;
  options.delay_report = 0.6;
  options.duplicate_report = 0.3;
  options.report_delay_mean = SimTime::Days(2);
  ChaosInjector chaos(options, Rng(4));
  std::vector<Signal> deliver;
  for (uint64_t core = 0; core < 8; ++core) {
    chaos.InjectReport(Signal{SimTime::Days(1), core / 4, core, SignalType::kMachineCheck},
                       deliver);
  }
  ASSERT_GT(chaos.delayed_in_flight(), 0u);

  ExpectDurableCodecContract(chaos, ChaosInjector(options, Rng(4)));
}

TEST(QuorumInterrogatorTest, DurableCodecRoundTripsAndRefusesPrefixes) {
  QuorumBench bench;
  QuorumOptions options;
  options.enabled = true;
  options.witnesses = 3;
  QuorumInterrogator quorum(options, Rng(7));
  ChaosOptions chaos_options;
  chaos_options.lying_witness = 0.2;
  ChaosInjector chaos(chaos_options, Rng(8));
  for (int i = 0; i < 20; ++i) {
    quorum.Judge(0, /*tester_confessed=*/true, bench.fleet, bench.scheduler, chaos);
  }

  ExpectDurableCodecContract(quorum, QuorumInterrogator(options, Rng(7)));
}

// --- Whole-study integration ----------------------------------------------------------------

StudyOptions ChaosStudyOptions(int threads) {
  StudyOptions options;
  options.seed = 777;
  options.fleet.machine_count = 60;
  options.fleet.mercurial_rate_multiplier = 150.0;
  options.workload.payload_bytes = 256;
  options.work_units_per_core_day = 20;
  options.duration = SimTime::Days(90);
  options.screening.offline_period = SimTime::Days(30);
  options.shards = 8;
  options.threads = threads;
  options.control_plane.max_retries = 2;
  options.control_plane.retry_backoff = SimTime::Days(2);
  options.control_plane.quarantine_budget_fraction = 0.2;
  options.control_plane.drain_latency = SimTime::Hours(12);
  options.control_plane.chaos.drop_report = 0.2;
  options.control_plane.chaos.duplicate_report = 0.1;
  options.control_plane.chaos.delay_report = 0.1;
  options.control_plane.chaos.abort_interrogation = 0.3;
  options.control_plane.chaos.machine_restart_per_day = 0.002;
  return options;
}

// The control plane and chaos injector run entirely in the serial phase, so a chaotic study
// must still be thread-count invariant (the sharded engine's core contract).
TEST(ControlPlaneStudyTest, ChaoticStudyIsThreadCountInvariant) {
  FleetStudy study_1(ChaosStudyOptions(1));
  const StudyReport a = study_1.Run();
  FleetStudy study_4(ChaosStudyOptions(4));
  const StudyReport b = study_4.Run();

  EXPECT_TRUE(a == b);
  EXPECT_GT(a.control_plane.chaos.reports_dropped, 0u) << "chaos must be active in this study";
}

TEST(ControlPlaneStudyTest, StudyRejectsInvalidControlPlaneOptions) {
  StudyOptions options;
  options.fleet.machine_count = 4;
  options.duration = SimTime::Days(2);
  options.control_plane.quarantine_budget_fraction = 0.0;
  FleetStudy study(options);
  EXPECT_DEATH(study.Run(), "quarantine_budget_fraction");
}

}  // namespace
}  // namespace mercurial
