// Tests for src/detect: report service, confession testing, screening.

#include <bit>
#include <cmath>
#include <functional>
#include <initializer_list>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/detect/confession.h"
#include "src/detect/report_service.h"
#include "src/detect/screening.h"
#include "src/fleet/fleet.h"
#include "src/sched/scheduler.h"

namespace mercurial {
namespace {

constexpr uint32_t kCoresPerMachine = 48;

CeeReportService MakeService(ReportServiceOptions options = {}) {
  return CeeReportService(options, [](uint64_t) { return kCoresPerMachine; });
}

Signal At(SimTime t, uint64_t machine, uint64_t core,
          SignalType type = SignalType::kAppReport) {
  return Signal{t, machine, core, type};
}

DefectSpec AlwaysFire(ExecUnit unit, DefectEffect effect, double rate = 1.0) {
  DefectSpec spec;
  spec.unit = unit;
  spec.effect = effect;
  spec.fvt.base_rate = rate;
  spec.machine_check_fraction = 0.0;
  return spec;
}

// --- Report service ---------------------------------------------------------------------------

TEST(ReportServiceTest, ConcentratedReportsBecomeSuspects) {
  CeeReportService service = MakeService();
  const SimTime t = SimTime::Days(1);
  for (int i = 0; i < 5; ++i) {
    service.Report(At(t, /*machine=*/3, /*core=*/77));
  }
  const auto suspects = service.Suspects(t);
  ASSERT_EQ(suspects.size(), 1u);
  EXPECT_EQ(suspects[0].core_global, 77u);
  EXPECT_EQ(suspects[0].machine, 3u);
  EXPECT_LT(suspects[0].p_value, 1e-3);
  EXPECT_GE(suspects[0].score, 5.0);
}

TEST(ReportServiceTest, EvenlySpreadReportsAreNotSuspects) {
  // "Reports that are evenly spread across cores probably are not CEEs."
  CeeReportService service = MakeService();
  const SimTime t = SimTime::Days(1);
  for (uint64_t core = 0; core < kCoresPerMachine; ++core) {
    service.Report(At(t, 3, core));
    service.Report(At(t, 3, core));
    service.Report(At(t, 3, core));
  }
  EXPECT_TRUE(service.Suspects(t).empty());
}

TEST(ReportServiceTest, MixedSpreadStillFlagsTheHotCore) {
  CeeReportService service = MakeService();
  const SimTime t = SimTime::Days(1);
  // Background: one report on each of 20 cores; hot core gets 6.
  for (uint64_t core = 0; core < 20; ++core) {
    service.Report(At(t, 5, core));
  }
  for (int i = 0; i < 6; ++i) {
    service.Report(At(t, 5, 7));
  }
  const auto suspects = service.Suspects(t);
  ASSERT_EQ(suspects.size(), 1u);
  EXPECT_EQ(suspects[0].core_global, 7u);
}

TEST(ReportServiceTest, ScoresDecayOverTime) {
  ReportServiceOptions options;
  options.half_life_days = 7.0;
  CeeReportService service = MakeService(options);
  for (int i = 0; i < 5; ++i) {
    service.Report(At(SimTime::Days(0), 1, 10));
  }
  // After 10 half-lives the mass is gone (also pruned).
  EXPECT_TRUE(service.Suspects(SimTime::Days(70)).empty());
  EXPECT_EQ(service.tracked_cores(), 0u) << "decayed records must be pruned";
}

TEST(ReportServiceTest, SuspectsComeOutInAscendingCoreOrder) {
  // Suspect order decides which suspect a bounded admission queue takes and which chaos and
  // quorum draws each one gets, so it must be the core order, never a hash table's.
  CeeReportService service = MakeService();
  const SimTime t = SimTime::Days(1);
  const uint64_t cores[] = {40, 5, 9000, 17, 3000, 6};
  for (const uint64_t core : cores) {
    const SignalType type = core % 2 == 0 ? SignalType::kScreenFail : SignalType::kAppReport;
    for (int i = 0; i < 5; ++i) {
      service.Report(At(t, /*machine=*/core / kCoresPerMachine, core, type));
    }
  }
  const auto suspects = service.Suspects(t);
  ASSERT_EQ(suspects.size(), std::size(cores));
  for (size_t i = 1; i < suspects.size(); ++i) {
    EXPECT_LT(suspects[i - 1].core_global, suspects[i].core_global) << "at position " << i;
  }
}

TEST(ReportServiceTest, FreshReportsSurviveDecay) {
  CeeReportService service = MakeService();
  for (int day = 0; day < 5; ++day) {
    service.Report(At(SimTime::Days(day), 1, 10, SignalType::kMachineCheck));
  }
  const auto suspects = service.Suspects(SimTime::Days(5));
  ASSERT_EQ(suspects.size(), 1u) << "recidivism within the half-life accumulates";
}

TEST(ReportServiceTest, SignalWeightsMatter) {
  // Screen failures (weight 4) reach the suspicion floor faster than crashes (weight 1).
  CeeReportService service = MakeService();
  const SimTime t = SimTime::Days(1);
  service.Report(At(t, 1, 10, SignalType::kScreenFail));
  const auto suspects = service.Suspects(t);
  ASSERT_EQ(suspects.size(), 1u) << "one screen failure alone is grounds for suspicion";
  CeeReportService service2 = MakeService();
  service2.Report(At(t, 1, 11, SignalType::kCrash));
  EXPECT_TRUE(service2.Suspects(t).empty()) << "one crash alone is not";
}

TEST(ReportServiceTest, ForgetClearsCore) {
  CeeReportService service = MakeService();
  const SimTime t = SimTime::Days(1);
  for (int i = 0; i < 5; ++i) {
    service.Report(At(t, 1, 10));
  }
  service.Forget(10);
  EXPECT_TRUE(service.Suspects(t).empty());
}

TEST(ReportServiceTest, TotalReportsCounted) {
  CeeReportService service = MakeService();
  for (int i = 0; i < 7; ++i) {
    service.Report(At(SimTime::Days(1), 1, static_cast<uint64_t>(i)));
  }
  EXPECT_EQ(service.total_reports(), 7u);
}

TEST(ReportServiceTest, SingleCoreMachineConcentrationIsDegenerate) {
  // On a single-core machine every report lands on the only core with probability 1, so the
  // uniform null IS the observation: BinomialUpperTail(k, n, 1/1) == 1 and the concentration
  // test can never fire, no matter how many reports pile up. There is no spread to
  // distinguish a CEE from a software bug, so "never a suspect by concentration" is the
  // correct answer — Suspects() skips the test explicitly rather than grinding through it.
  CeeReportService service(ReportServiceOptions{}, [](uint64_t) { return 1u; });
  const SimTime t = SimTime::Days(1);
  for (int i = 0; i < 50; ++i) {
    service.Report(At(t, /*machine=*/9, /*core=*/5));
  }
  EXPECT_TRUE(service.Suspects(t).empty())
      << "p = 1 null: indirect reports alone must never convict a single-core machine";
}

TEST(ReportServiceTest, SingleCoreMachineStillConvictableByDirectEvidence) {
  // The direct-evidence bypass is core-attributed (the screening battery compared against
  // golden on that very core), so it does not need spread and must still work at p = 1.
  CeeReportService service(ReportServiceOptions{}, [](uint64_t) { return 1u; });
  const SimTime t = SimTime::Days(1);
  service.Report(At(t, 9, 5, SignalType::kScreenFail));  // weight 4 >= direct threshold 3
  const auto suspects = service.Suspects(t);
  ASSERT_EQ(suspects.size(), 1u);
  EXPECT_EQ(suspects[0].core_global, 5u);
  EXPECT_EQ(suspects[0].p_value, 0.0);
}

TEST(ReportServiceTest, PeekEvidenceDecaysWithoutMutating) {
  ReportServiceOptions options;
  options.half_life_days = 14.0;
  CeeReportService service = MakeService(options);
  service.Report(At(SimTime::Days(0), 1, 10, SignalType::kScreenFail));
  const auto fresh = service.PeekEvidence(10, SimTime::Days(0));
  EXPECT_DOUBLE_EQ(fresh.score, 4.0);
  EXPECT_DOUBLE_EQ(fresh.direct_score, 4.0);
  const auto later = service.PeekEvidence(10, SimTime::Days(14));
  EXPECT_DOUBLE_EQ(later.score, 2.0) << "one half-life halves the mass";
  // Peeking far ahead must not advance the record: the same query again answers identically.
  const auto again = service.PeekEvidence(10, SimTime::Days(14));
  EXPECT_DOUBLE_EQ(again.score, later.score);
  EXPECT_DOUBLE_EQ(service.PeekEvidence(999, SimTime::Days(1)).score, 0.0)
      << "untracked cores peek as zero";
}

// The reference the lazy service must equal: every sweep decays every machine and core record,
// drops core records under kReportPruneBelow and tests all the others, in ascending core order.
class EagerReportService {
 public:
  EagerReportService(ReportServiceOptions options,
                     std::function<uint32_t(uint64_t)> cores_on_machine)
      : options_(options), cores_on_machine_(std::move(cores_on_machine)) {}

  void Report(const Signal& signal) {
    const double weight = kSignalTypeWeight[static_cast<int>(signal.type)];
    CoreRecord& core = cores_[signal.core_global];
    core.machine = signal.machine;
    DecayTo(core.last_update, signal.time, {&core.score, &core.raw_count, &core.direct_score});
    core.score += weight;
    core.raw_count += 1.0;
    if (signal.type == SignalType::kScreenFail) {
      core.direct_score += weight;
    }
    MachineRecord& machine = machines_[signal.machine];
    DecayTo(machine.last_update, signal.time, {&machine.score});
    machine.score += 1.0;
  }

  std::vector<SuspectCore> Suspects(SimTime now) {
    for (auto& [id, machine] : machines_) {
      DecayTo(machine.last_update, now, {&machine.score});
    }
    std::vector<SuspectCore> suspects;
    for (auto it = cores_.begin(); it != cores_.end();) {
      CoreRecord& core = it->second;
      DecayTo(core.last_update, now, {&core.score, &core.raw_count, &core.direct_score});
      if (core.score < kReportPruneBelow) {
        it = cores_.erase(it);
        continue;
      }
      if (core.direct_score >= options_.direct_evidence_threshold) {
        suspects.push_back(SuspectCore{it->first, core.machine, core.score, 0.0});
      } else if (core.score >= options_.min_score && cores_on_machine_(core.machine) > 1) {
        const auto k = static_cast<uint64_t>(std::lround(std::max(core.raw_count, 1.0)));
        const auto n = static_cast<uint64_t>(
            std::lround(std::max(machines_[core.machine].score, static_cast<double>(k))));
        const double p_value = BinomialUpperTail(k, n, 1.0 / cores_on_machine_(core.machine));
        if (p_value < options_.p_value_threshold) {
          suspects.push_back(SuspectCore{it->first, core.machine, core.score, p_value});
        }
      }
      ++it;
    }
    return suspects;
  }

  void Forget(uint64_t core) { cores_.erase(core); }

  CeeReportService::CoreEvidence PeekEvidence(uint64_t core, SimTime now) const {
    const auto it = cores_.find(core);
    if (it == cores_.end()) {
      return {};
    }
    const double factor =
        now > it->second.last_update ? Factor(now - it->second.last_update) : 1.0;
    return {it->second.score * factor, it->second.direct_score * factor};
  }

  size_t tracked_cores() const { return cores_.size(); }

 private:
  struct CoreRecord {
    double score = 0.0;
    double raw_count = 0.0;
    double direct_score = 0.0;
    SimTime last_update;
    uint64_t machine = 0;
  };
  struct MachineRecord {
    double score = 0.0;
    SimTime last_update;
  };

  double Factor(SimTime dt) const { return std::exp2(-dt.days() / options_.half_life_days); }

  void DecayTo(SimTime& last_update, SimTime now, std::initializer_list<double*> scores) const {
    if (now <= last_update) {
      return;
    }
    const double factor = Factor(now - last_update);
    for (double* score : scores) {
      *score *= factor;
    }
    last_update = now;
  }

  ReportServiceOptions options_;
  std::function<uint32_t(uint64_t)> cores_on_machine_;
  std::map<uint64_t, CoreRecord> cores_;
  std::map<uint64_t, MachineRecord> machines_;
};

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

void ExpectSameEvidence(CeeReportService& lazy, EagerReportService& eager, uint64_t core,
                        SimTime now) {
  const CeeReportService::CoreEvidence got = lazy.PeekEvidence(core, now);
  const CeeReportService::CoreEvidence want = eager.PeekEvidence(core, now);
  EXPECT_EQ(Bits(got.score), Bits(want.score)) << "core " << core << " at " << now.seconds();
  EXPECT_EQ(Bits(got.direct_score), Bits(want.direct_score))
      << "core " << core << " at " << now.seconds();
}

// Drives the lazy service and the eager reference with one seeded stream over `machines`
// machines (the last has a single core): reports at, between and behind sweep times and a
// little ahead of them, bursts that make cores hot and let them cool, Forget and PeekEvidence
// calls, and gaps without sweeps long enough for every record to fall below the prune floor.
void RunLazyOracle(const ReportServiceOptions& options, uint64_t seed, uint64_t machines = 6) {
  constexpr uint64_t kCoresPer = 8;
  const auto cores_on_machine = [machines](uint64_t machine) {
    return machine == machines - 1 ? 1u : static_cast<uint32_t>(kCoresPer);
  };
  CeeReportService lazy(options, cores_on_machine);
  EagerReportService eager(options, cores_on_machine);
  Rng rng(seed);
  const auto random_core = [&] {
    const uint64_t machine = rng.UniformInt(0, machines - 1);
    const uint64_t slot = rng.UniformInt(0, cores_on_machine(machine) - 1);
    return std::pair{machine, machine * kCoresPer + slot};
  };
  const auto report = [&](SimTime time, uint64_t machine, uint64_t core) {
    const auto type = static_cast<SignalType>(rng.UniformInt(0, kSignalTypeCount - 1));
    const Signal signal{std::max(time, SimTime()), machine, core, type};
    lazy.Report(signal);
    eager.Report(signal);
  };

  // One report per machine, in shuffled order, so a large fleet's machine records arrive
  // out of id order and every later concentration test depends on them.
  std::vector<uint64_t> order(machines);
  for (uint64_t m = 0; m < machines; ++m) {
    order[m] = m;
  }
  rng.Shuffle(order);
  for (const uint64_t machine : order) {
    report(SimTime(), machine, machine * kCoresPer);
  }

  const SimTime tick = SimTime::Hours(6);
  SimTime previous;
  SimTime now = tick;
  uint64_t suspects_seen = 0;
  for (int sweep = 0; sweep < 3000; ++sweep) {
    const uint64_t reports = rng.Bernoulli(0.3) ? rng.Poisson(2.0) : 0;
    for (uint64_t r = 0; r < reports; ++r) {
      const auto [machine, core] = random_core();
      const uint64_t where = rng.UniformInt(0, 9);
      SimTime time = now;  // at the coming sweep
      if (where < 4) {
        const auto gap = static_cast<uint64_t>((now - previous).seconds());
        time = previous + SimTime::Seconds(static_cast<int64_t>(rng.UniformInt(1, gap)));
      } else if (where < 7) {
        time = previous - SimTime::Seconds(static_cast<int64_t>(rng.UniformInt(0, 86400 * 3)));
      } else if (where == 7) {
        time = now + SimTime::Seconds(static_cast<int64_t>(rng.UniformInt(1, 3600)));
      }
      report(time, machine, core);
    }
    if (rng.Bernoulli(0.02)) {  // a burst: one core turns hot
      const auto [machine, core] = random_core();
      for (uint64_t r = rng.UniformInt(3, 8); r > 0; --r) {
        report(now, machine, core);
      }
    }
    if (rng.Bernoulli(0.05)) {
      const uint64_t core = random_core().second;
      lazy.Forget(core);
      eager.Forget(core);
    }
    if (rng.Bernoulli(0.2)) {
      ExpectSameEvidence(lazy, eager, random_core().second,
                         previous + SimTime::Seconds(static_cast<int64_t>(
                                        rng.UniformInt(0, 86400 * 40))));
    }

    const std::vector<SuspectCore> got = lazy.Suspects(now);
    const std::vector<SuspectCore> want = eager.Suspects(now);
    ASSERT_EQ(got.size(), want.size()) << "sweep " << sweep;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].core_global, want[i].core_global) << "sweep " << sweep;
      EXPECT_EQ(got[i].machine, want[i].machine) << "sweep " << sweep;
      EXPECT_EQ(Bits(got[i].score), Bits(want[i].score)) << "sweep " << sweep;
      EXPECT_EQ(Bits(got[i].p_value), Bits(want[i].p_value)) << "sweep " << sweep;
    }
    suspects_seen += got.size();
    ASSERT_EQ(lazy.tracked_cores(), eager.tracked_cores()) << "sweep " << sweep;
    for (int peek = 0; peek < 2; ++peek) {
      ExpectSameEvidence(lazy, eager, random_core().second, now);
    }

    previous = now;
    // Now and then no sweep for 200 days: longer than any record here takes to die.
    now = now + (rng.Bernoulli(0.005) ? SimTime::Days(200) : tick);
  }
  EXPECT_GT(suspects_seen, 20u) << "the stream must make suspects to compare";
}

TEST(ReportServiceTest, LazyServiceMatchesEagerSweep) {
  RunLazyOracle(ReportServiceOptions{}, 1);
  ReportServiceOptions often_hot;  // low thresholds: records cross between hot and cold
  often_hot.half_life_days = 3.0;
  often_hot.min_score = 1.0;
  often_hot.direct_evidence_threshold = 1.5;
  often_hot.p_value_threshold = 0.2;
  RunLazyOracle(often_hot, 2);
  ReportServiceOptions hot_below_floor;  // hot records can fall below the prune floor
  hot_below_floor.half_life_days = 1.0;
  hot_below_floor.min_score = 0.01;
  hot_below_floor.p_value_threshold = 0.5;
  RunLazyOracle(hot_below_floor, 3);
  RunLazyOracle(often_hot, 4, /*machines=*/1500);  // enough machines to merge new records
}

TEST(ReportServiceTest, LazyServiceDropsARecordAtTheEagerSweepExactly) {
  // Sweeps every second around the time the closed-form score crosses the prune floor land
  // inside the death check's margin, where only the replayed chain can tell the eager
  // sweep's verdict.
  const auto cores_on_machine = [](uint64_t) { return kCoresPerMachine; };
  for (int reports = 1; reports <= 6; ++reports) {
    SCOPED_TRACE(reports);
    CeeReportService lazy(ReportServiceOptions{}, cores_on_machine);
    EagerReportService eager(ReportServiceOptions{}, cores_on_machine);
    for (int r = 0; r < reports; ++r) {
      const Signal signal = At(SimTime::Hours(r), 1, 10);
      lazy.Report(signal);
      eager.Report(signal);
    }
    const double score = lazy.PeekEvidence(10, SimTime::Hours(reports)).score;
    const auto crossing = static_cast<int64_t>(
        ReportServiceOptions{}.half_life_days * std::log2(score / kReportPruneBelow) * 86400.0);
    SimTime now = SimTime::Hours(reports);
    for (; now < SimTime::Seconds(crossing - 10); now = now + SimTime::Days(1)) {
      lazy.Suspects(now);
      eager.Suspects(now);
      ASSERT_EQ(lazy.tracked_cores(), 1u);
    }
    for (now = SimTime::Seconds(crossing + reports * 3600 - 5);
         now <= SimTime::Seconds(crossing + reports * 3600 + 5); now = now + SimTime::Seconds(1)) {
      lazy.Suspects(now);
      eager.Suspects(now);
      ASSERT_EQ(lazy.tracked_cores(), eager.tracked_cores()) << "at " << now.seconds();
      ExpectSameEvidence(lazy, eager, 10, now);
    }
    EXPECT_EQ(eager.tracked_cores(), 0u) << "the window must cover the eager prune";
  }
}

// --- Confession -----------------------------------------------------------------------------

TEST(ConfessionTest, MercurialCoreConfesses) {
  SimCore core(1, Rng(1));
  core.AddDefect(AlwaysFire(ExecUnit::kVector, DefectEffect::kBitFlip, 0.3));
  ConfessionOptions options;
  options.stress.iterations_per_unit = 128;
  ConfessionTester tester(options);
  Rng rng(2);
  const Confession confession = tester.Interrogate(core, rng);
  EXPECT_TRUE(confession.confessed);
  ASSERT_FALSE(confession.failed_units.empty());
  EXPECT_EQ(static_cast<int>(confession.failed_units[0]), static_cast<int>(ExecUnit::kVector));
  EXPECT_EQ(confession.attempts, 1);
  EXPECT_GT(confession.ops_used, 0u);
}

TEST(ConfessionTest, HealthyCoreNeverConfesses) {
  SimCore core(1, Rng(1));
  ConfessionOptions options;
  options.stress.iterations_per_unit = 64;
  options.max_attempts = 2;
  ConfessionTester tester(options);
  Rng rng(3);
  const Confession confession = tester.Interrogate(core, rng);
  EXPECT_FALSE(confession.confessed);
  EXPECT_EQ(confession.attempts, 2);
}

TEST(ConfessionTest, LimitedReproducibility) {
  // A defect with a narrow data trigger and a tiny budget often evades interrogation — the
  // paper's "limited reproducibility" half.
  SimCore core(1, Rng(4));
  DefectSpec spec = AlwaysFire(ExecUnit::kIntAlu, DefectEffect::kBitFlip, 1.0);
  spec.trigger.mask = 0xffff;  // 1 in 65536 operand patterns
  spec.trigger.value = 0x1234;
  core.AddDefect(spec);
  ConfessionOptions options;
  options.stress.iterations_per_unit = 16;
  options.max_attempts = 1;
  ConfessionTester tester(options);
  Rng rng(5);
  const Confession confession = tester.Interrogate(core, rng);
  EXPECT_FALSE(confession.confessed) << "narrow triggers evade small interrogation budgets";
}

// --- Screening ------------------------------------------------------------------------------

TEST(ScreeningTest, CoverageGrowsOnSchedule) {
  ScreeningOptions options;
  options.initial_coverage = {ExecUnit::kIntAlu};
  options.coverage_schedule = {{SimTime::Days(100), ExecUnit::kCopy},
                               {SimTime::Days(200), ExecUnit::kAes}};
  ScreeningOrchestrator orchestrator(options, 16, Rng(1));
  EXPECT_EQ(orchestrator.CoveredUnits(SimTime::Days(0)).size(), 1u);
  EXPECT_EQ(orchestrator.CoveredUnits(SimTime::Days(150)).size(), 2u);
  EXPECT_EQ(orchestrator.CoveredUnits(SimTime::Days(365)).size(), 3u);
}

TEST(ScreeningTest, OfflineScreeningFindsCoveredDefect) {
  FleetOptions fleet_options;
  fleet_options.machine_count = 4;
  fleet_options.mercurial_rate_multiplier = 0.0;
  Fleet fleet = Fleet::Build(fleet_options);
  // Plant a deterministic copy defect by hand on core 5.
  fleet.PlantDefect(5, AlwaysFire(ExecUnit::kCopy, DefectEffect::kStuckSet, 0.5));

  ScreeningOptions options;
  options.initial_coverage = {ExecUnit::kCopy};
  options.coverage_schedule.clear();
  options.offline_period = SimTime::Days(1);
  options.online_enabled = false;
  ScreeningOrchestrator orchestrator(options, fleet.core_count(), Rng(2));
  CoreScheduler scheduler(fleet.core_count(), SchedulerCosts{});

  std::vector<Signal> emitted;
  // Two ticks: staggering spreads first screens over one period.
  orchestrator.Tick(SimTime::Days(1), SimTime::Days(1), fleet, scheduler,
                    [&](const Signal& s) { emitted.push_back(s); });
  orchestrator.Tick(SimTime::Days(2), SimTime::Days(1), fleet, scheduler,
                    [&](const Signal& s) { emitted.push_back(s); });
  ASSERT_FALSE(emitted.empty());
  EXPECT_EQ(emitted[0].core_global, 5u);
  EXPECT_EQ(static_cast<int>(emitted[0].type), static_cast<int>(SignalType::kScreenFail));
  EXPECT_TRUE(fleet.IsMercurial(5));
}

TEST(ScreeningTest, UncoveredDefectIsAZeroDay) {
  FleetOptions fleet_options;
  fleet_options.machine_count = 2;
  fleet_options.mercurial_rate_multiplier = 0.0;
  Fleet fleet = Fleet::Build(fleet_options);
  fleet.PlantDefect(3, AlwaysFire(ExecUnit::kAes, DefectEffect::kRandomWrong, 1.0));

  ScreeningOptions options;
  options.initial_coverage = {ExecUnit::kIntAlu, ExecUnit::kCopy};
  options.coverage_schedule.clear();
  options.offline_period = SimTime::Days(1);
  options.online_enabled = false;
  ScreeningOrchestrator orchestrator(options, fleet.core_count(), Rng(3));
  CoreScheduler scheduler(fleet.core_count(), SchedulerCosts{});

  int failures = 0;
  for (int day = 1; day <= 3; ++day) {
    const auto stats = orchestrator.Tick(SimTime::Days(day), SimTime::Days(1), fleet, scheduler,
                                         [&](const Signal&) { ++failures; });
    (void)stats;
  }
  EXPECT_EQ(failures, 0) << "no AES test in the corpus yet -> defect invisible to screening";
}

TEST(ScreeningTest, ScreeningChargesOpsForHealthyCores) {
  FleetOptions fleet_options;
  fleet_options.machine_count = 2;
  fleet_options.mercurial_rate_multiplier = 0.0;
  Fleet fleet = Fleet::Build(fleet_options);
  ScreeningOptions options;
  options.offline_period = SimTime::Days(1);
  options.online_enabled = false;
  ScreeningOrchestrator orchestrator(options, fleet.core_count(), Rng(4));
  CoreScheduler scheduler(fleet.core_count(), SchedulerCosts{});
  const auto stats = orchestrator.Tick(SimTime::Days(2), SimTime::Days(1), fleet, scheduler,
                                       [](const Signal&) {});
  EXPECT_GT(stats.offline_screens, 0u);
  EXPECT_GT(stats.ops_spent, 0u) << "screening is not free even when nothing fails";
  EXPECT_EQ(stats.screen_failures, 0u);
}

TEST(ScreeningTest, QuarantinedCoresAreSkipped) {
  FleetOptions fleet_options;
  fleet_options.machine_count = 1;
  fleet_options.mercurial_rate_multiplier = 0.0;
  Fleet fleet = Fleet::Build(fleet_options);
  ScreeningOptions options;
  options.offline_period = SimTime::Days(1);
  options.online_enabled = false;
  ScreeningOrchestrator orchestrator(options, fleet.core_count(), Rng(5));
  CoreScheduler scheduler(fleet.core_count(), SchedulerCosts{});
  for (uint64_t c = 0; c < fleet.core_count(); ++c) {
    scheduler.Quarantine(c);
  }
  const auto stats = orchestrator.Tick(SimTime::Days(2), SimTime::Days(1), fleet, scheduler,
                                       [](const Signal&) {});
  EXPECT_EQ(stats.offline_screens, 0u);
}

// --- Screening option validation --------------------------------------------------------------

TEST(ScreeningValidationTest, DefaultsAreValid) {
  EXPECT_TRUE(ValidateScreeningOptions(ScreeningOptions{}).ok());
}

TEST(ScreeningValidationTest, RejectsNegativeOnlineFraction) {
  ScreeningOptions options;
  options.online_fraction_per_day = -0.01;
  EXPECT_FALSE(ValidateScreeningOptions(options).ok());
}

TEST(ScreeningValidationTest, RejectsOnlineFractionAboveOne) {
  ScreeningOptions options;
  options.online_fraction_per_day = 1.01;
  EXPECT_FALSE(ValidateScreeningOptions(options).ok());
}

TEST(ScreeningValidationTest, RejectsNanOnlineFraction) {
  ScreeningOptions options;
  options.online_fraction_per_day = std::nan("");
  EXPECT_FALSE(ValidateScreeningOptions(options).ok());
}

TEST(ScreeningValidationTest, RejectsNonPositiveOfflinePeriod) {
  ScreeningOptions options;
  options.offline_enabled = true;
  options.offline_period = SimTime::Seconds(0);
  EXPECT_FALSE(ValidateScreeningOptions(options).ok());
  options.offline_period = SimTime::Seconds(-5);
  EXPECT_FALSE(ValidateScreeningOptions(options).ok());
}

TEST(ScreeningValidationTest, RejectsZeroOfflineIterations) {
  ScreeningOptions options;
  options.offline_enabled = true;
  options.offline_iterations = 0;
  EXPECT_FALSE(ValidateScreeningOptions(options).ok());
}

TEST(ScreeningValidationTest, RejectsZeroOnlineIterations) {
  ScreeningOptions options;
  options.online_enabled = true;
  options.online_iterations = 0;
  EXPECT_FALSE(ValidateScreeningOptions(options).ok());
}

TEST(ScreeningValidationTest, DisabledStagesSkipTheirChecks) {
  ScreeningOptions options;
  options.offline_enabled = false;
  options.offline_period = SimTime::Seconds(0);  // irrelevant while offline screening is off
  options.offline_iterations = 0;
  options.online_enabled = false;
  options.online_iterations = 0;
  EXPECT_TRUE(ValidateScreeningOptions(options).ok());
}

TEST(ScreeningValidationTest, RejectsUnsortedCoverageSchedule) {
  // An out-of-order entry used to be accepted silently; schedule-order consumers (the
  // adaptive coverage-gap scorer, operators reading the config) then see a unit that "never
  // comes online". The validator must reject, not sort in place.
  ScreeningOptions options;
  options.initial_coverage = {ExecUnit::kIntAlu};
  options.coverage_schedule = {{SimTime::Days(300), ExecUnit::kVector},
                               {SimTime::Days(150), ExecUnit::kCopy}};
  const Status status = ValidateScreeningOptions(options);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("sorted"), std::string::npos) << status.ToString();
}

TEST(ScreeningValidationTest, AcceptsTiedActivationTimes) {
  // Two units coming online the same day is fine — only strict inversions are rejected.
  ScreeningOptions options;
  options.initial_coverage = {ExecUnit::kIntAlu};
  options.coverage_schedule = {{SimTime::Days(150), ExecUnit::kCopy},
                               {SimTime::Days(150), ExecUnit::kVector}};
  EXPECT_TRUE(ValidateScreeningOptions(options).ok());
}

TEST(ScreeningValidationTest, RejectsDuplicateUnitWithinSchedule) {
  ScreeningOptions options;
  options.initial_coverage = {ExecUnit::kIntAlu};
  options.coverage_schedule = {{SimTime::Days(150), ExecUnit::kCopy},
                               {SimTime::Days(300), ExecUnit::kCopy}};
  const Status status = ValidateScreeningOptions(options);
  EXPECT_FALSE(status.ok()) << "a unit covered twice double-charges every battery";
  EXPECT_NE(status.ToString().find("copy"), std::string::npos) << status.ToString();
}

TEST(ScreeningValidationTest, RejectsScheduleUnitAlreadyInInitialCoverage) {
  ScreeningOptions options;
  options.initial_coverage = {ExecUnit::kIntAlu, ExecUnit::kCopy};
  options.coverage_schedule = {{SimTime::Days(150), ExecUnit::kCopy}};
  EXPECT_FALSE(ValidateScreeningOptions(options).ok());
}

TEST(ScreeningValidationTest, RejectsDuplicateUnitWithinInitialCoverage) {
  ScreeningOptions options;
  options.initial_coverage = {ExecUnit::kIntAlu, ExecUnit::kIntAlu};
  options.coverage_schedule.clear();
  EXPECT_FALSE(ValidateScreeningOptions(options).ok());
}

TEST(ScreeningValidationTest, AdaptiveRequiresOfflineScreening) {
  ScreeningOptions options;
  options.adaptive = true;
  options.offline_enabled = false;
  options.offline_period = SimTime::Days(45);
  options.offline_iterations = 2048;
  EXPECT_FALSE(ValidateScreeningOptions(options).ok());
}

TEST(ScreeningValidationTest, AdaptiveRejectsBadCadenceBounds) {
  ScreeningOptions options;
  options.adaptive = true;
  options.adaptive_min_period = SimTime::Seconds(0);
  EXPECT_FALSE(ValidateScreeningOptions(options).ok());
  options.adaptive_min_period = SimTime::Days(30);
  options.adaptive_max_period = SimTime::Days(10);
  EXPECT_FALSE(ValidateScreeningOptions(options).ok());
}

TEST(ScreeningValidationTest, AdaptiveRejectsBadTierThresholds) {
  ScreeningOptions options;
  options.adaptive = true;
  options.risk_warm = 3.0;
  options.risk_hot = 1.0;
  EXPECT_FALSE(ValidateScreeningOptions(options).ok());
  options.risk_warm = std::nan("");
  options.risk_hot = 3.0;
  EXPECT_FALSE(ValidateScreeningOptions(options).ok()) << "NaN thresholds must not validate";
}

TEST(ScreeningValidationTest, AdaptiveDefaultsAreValid) {
  ScreeningOptions options;
  options.adaptive = true;
  EXPECT_TRUE(ValidateScreeningOptions(options).ok());
}

TEST(ScreeningTest, ThrottleOfflineDefersScreensDueSoon) {
  ScreeningOptions options;
  options.offline_period = SimTime::Days(30);
  ScreeningOrchestrator orchestrator(options, 64, Rng(9));
  // First screens are staggered over [0, 30) days; deferring 10 days from day 1 must push a
  // nonzero batch (those due in (1, 11]) out past the window.
  const uint64_t deferred = orchestrator.ThrottleOffline(SimTime::Days(1), SimTime::Days(10));
  EXPECT_GT(deferred, 0u);
  EXPECT_EQ(orchestrator.ThrottleOffline(SimTime::Days(1), SimTime::Days(10)), 0u)
      << "second throttle in the same window finds nothing left to defer";
  EXPECT_EQ(orchestrator.ThrottleOffline(SimTime::Days(1), SimTime::Seconds(0)), 0u)
      << "zero defer is a no-op";
}

TEST(ScreeningTest, SparseWheelDrainsOnlyDefectiveCoresAfterFirstScreens) {
  // After one offline period every healthy core has had its first screen and rides a cohort,
  // so over the next period the per-core wheel drains exactly the defective cores' screens,
  // while the sparse twin's totals stay equal to the dense scan's tick by tick.
  FleetOptions fleet_options;
  fleet_options.machine_count = 6;
  fleet_options.mercurial_rate_multiplier = 0.0;
  Fleet fleet_dense = Fleet::Build(fleet_options);
  Fleet fleet_sparse = Fleet::Build(fleet_options);
  for (const uint64_t core : {3u, 40u, 41u, 97u}) {
    const DefectSpec spec = AlwaysFire(ExecUnit::kIntAlu, DefectEffect::kBitFlip, 0.01);
    fleet_dense.PlantDefect(core, spec);
    fleet_sparse.PlantDefect(core, spec);
  }
  const size_t cores = fleet_dense.core_count();

  ScreeningOptions options;
  options.offline_period = SimTime::Days(5);
  options.offline_iterations = 64;
  options.online_enabled = false;
  ScreeningOrchestrator dense(options, cores, Rng(5));
  ScreeningOrchestrator sparse(options, cores, Rng(5));
  CoreScheduler sched_dense(cores, SchedulerCosts{});
  CoreScheduler sched_sparse(cores, SchedulerCosts{});
  const SimTime dt = SimTime::Days(1);
  sparse.EnableSparse(dt, {{0, cores}});

  uint64_t failures = 0;
  uint64_t cohort_screens = 0;
  const auto run_period = [&](int64_t first_tick) {
    uint64_t defective_screens = 0;
    for (int64_t t = first_tick; t < first_tick + 5; ++t) {
      const SimTime now = SimTime::Seconds(t * dt.seconds());
      fleet_dense.SetAges(now);
      fleet_sparse.SetAges(now);
      Rng rng_dense(DeriveStreamSeed(31, 0, static_cast<uint64_t>(t)));
      Rng rng_sparse(DeriveStreamSeed(31, 0, static_cast<uint64_t>(t)));
      const ShardScreenOutcome out_dense =
          dense.TickShard(now, dt, 0, cores, fleet_dense, sched_dense, rng_dense);
      const ShardScreenOutcome out_sparse =
          sparse.TickShard(now, dt, 0, cores, fleet_sparse, sched_sparse, rng_sparse);
      EXPECT_EQ(out_dense.stats.offline_screens, out_sparse.stats.offline_screens) << t;
      EXPECT_EQ(out_dense.stats.ops_spent, out_sparse.stats.ops_spent) << t;
      EXPECT_EQ(out_dense.stats.screen_failures, out_sparse.stats.screen_failures) << t;
      out_dense.ApplyDrains(sched_dense);
      out_sparse.ApplyDrains(sched_sparse);
      defective_screens += out_sparse.offline_drained.size();
      failures += out_sparse.stats.screen_failures;
      cohort_screens += out_sparse.healthy_drained;
    }
    return defective_screens;
  };

  run_period(1);  // every core's first screen: the healthy ones leave the per-core wheel
  const uint64_t drained_after_first_period = sparse.wheel_stats().drained;
  EXPECT_EQ(drained_after_first_period, cores) << "one per-core drain per first screen";
  const uint64_t defective_screens = run_period(6);
  EXPECT_EQ(defective_screens, 4u) << "each defective core screens once per period";
  EXPECT_EQ(sparse.wheel_stats().drained - drained_after_first_period, defective_screens);
  EXPECT_EQ(cohort_screens, 2 * (cores - 4)) << "every healthy core screened once per period";
  EXPECT_GT(failures, 0u) << "no defective screen failed; the failure path is untested";
  EXPECT_TRUE(sched_dense.stats() == sched_sparse.stats());
}

TEST(ScreeningTest, SparseEngineDiesOnDefectPlantedAfterItsFirstTick) {
  // A healthy core leaves the per-core wheel for a cohort at its first screen, and cohorts
  // are counted, never run: a defect planted after cohorts began to form would go unscreened.
  FleetOptions fleet_options;
  fleet_options.machine_count = 2;
  fleet_options.mercurial_rate_multiplier = 0.0;
  Fleet fleet = Fleet::Build(fleet_options);
  const size_t cores = fleet.core_count();
  ScreeningOptions options;
  options.offline_period = SimTime::Days(2);
  options.online_enabled = false;
  ScreeningOrchestrator orchestrator(options, cores, Rng(6));
  CoreScheduler scheduler(cores, SchedulerCosts{});
  orchestrator.EnableSparse(SimTime::Days(1), {{0, cores}});
  const auto discard = [](const Signal&) {};
  orchestrator.Tick(SimTime::Days(1), SimTime::Days(1), fleet, scheduler, discard);
  fleet.PlantDefect(1, AlwaysFire(ExecUnit::kIntAlu, DefectEffect::kBitFlip, 1.0));
  EXPECT_DEATH(orchestrator.Tick(SimTime::Days(2), SimTime::Days(1), fleet, scheduler, discard),
               "cohort members must stay healthy");
}

TEST(ScreeningTest, OnlineSamplingRatePreservedAtSubDayTicks) {
  // online_fraction_per_day -> per-tick conversion: the Poisson mean is cores * fraction *
  // dt.days(), which is exact at ANY tick length (expectation is additive across ticks), so a
  // 30-minute control tick must produce the same expected daily sample count as a 1-day tick.
  // Locked statistically: each realized total must sit within 4 sigma of the analytic
  // expectation (sum of per-tick Poissons is Poisson, sigma = sqrt(mean)).
  FleetOptions fleet_options;
  fleet_options.machine_count = 50;  // 2400 cores, all installed before t = 0
  fleet_options.mercurial_rate_multiplier = 0.0;
  Fleet fleet = Fleet::Build(fleet_options);
  CoreScheduler scheduler(fleet.core_count(), SchedulerCosts{});

  ScreeningOptions options;
  options.offline_enabled = false;
  options.online_enabled = true;
  options.online_fraction_per_day = 0.5;
  constexpr int kDays = 20;
  const double expected = static_cast<double>(fleet.core_count()) * 0.5 * kDays;
  const double tolerance = 4.0 * std::sqrt(expected);

  const auto run = [&](SimTime dt, uint64_t rng_seed) {
    ScreeningOrchestrator orchestrator(options, fleet.core_count(), Rng(rng_seed));
    uint64_t sampled = 0;
    const int64_t ticks = SimTime::Days(kDays).seconds() / dt.seconds();
    for (int64_t t = 1; t <= ticks; ++t) {
      const auto stats = orchestrator.Tick(SimTime::Seconds(t * dt.seconds()), dt, fleet,
                                           scheduler, [](const Signal&) {});
      sampled += stats.online_screens;
    }
    return sampled;
  };

  const auto daily = static_cast<double>(run(SimTime::Days(1), /*rng_seed=*/11));
  const auto sub_day = static_cast<double>(run(SimTime::Seconds(1800), /*rng_seed=*/12));
  EXPECT_NEAR(daily, expected, tolerance) << "1-day ticks off the analytic rate";
  EXPECT_NEAR(sub_day, expected, tolerance) << "30-minute ticks off the analytic rate";
}

// --- Risk-adaptive allocation -----------------------------------------------------------------

TEST(ScreeningAdaptiveTest, RiskToPolicyMappings) {
  ScreeningOptions options;
  options.adaptive = true;
  ScreeningOrchestrator orchestrator(options, 16, Rng(1));
  // Cadence: max_period / (1 + risk), clamped to [min, max].
  EXPECT_EQ(orchestrator.PeriodForRisk(0.0).seconds(), options.adaptive_max_period.seconds());
  EXPECT_EQ(orchestrator.PeriodForRisk(-5.0).seconds(), options.adaptive_max_period.seconds())
      << "negative risk clamps at the ceiling";
  EXPECT_EQ(orchestrator.PeriodForRisk(1.0).seconds(),
            options.adaptive_max_period.seconds() / 2);
  EXPECT_EQ(orchestrator.PeriodForRisk(1e9).seconds(), options.adaptive_min_period.seconds())
      << "extreme risk clamps at the floor";
  // Tiers: cold below warm, warm below hot, hot at and above.
  EXPECT_EQ(orchestrator.TierForRisk(0.0), 0);
  EXPECT_EQ(orchestrator.TierForRisk(options.risk_warm - 1e-9), 0);
  EXPECT_EQ(orchestrator.TierForRisk(options.risk_warm), 1);
  EXPECT_EQ(orchestrator.TierForRisk(options.risk_hot), 2);
  // Battery depth: 1x / 2x / 4x the configured iteration count.
  EXPECT_EQ(orchestrator.IterationsForTier(0), options.offline_iterations);
  EXPECT_EQ(orchestrator.IterationsForTier(1), 2 * options.offline_iterations);
  EXPECT_EQ(orchestrator.IterationsForTier(2), 4 * options.offline_iterations);
}

// Shared setup: a 2-machine fleet with every core due at the first tick (period = 1 day, the
// stagger spreads first screens over [0, 1d)), a corpus of the 6 default initial units, and
// online screening off so offline admission is the only signal.
ScreeningOptions AdaptiveDueNowOptions() {
  ScreeningOptions options;
  options.adaptive = true;
  options.offline_period = SimTime::Days(1);
  options.offline_iterations = 64;
  options.coverage_schedule.clear();
  options.online_enabled = false;
  return options;
}

TEST(ScreeningAdaptiveTest, BudgetDefersDueCoresDeterministically) {
  FleetOptions fleet_options;
  fleet_options.machine_count = 2;
  fleet_options.mercurial_rate_multiplier = 0.0;
  Fleet fleet = Fleet::Build(fleet_options);
  ScreeningOptions options = AdaptiveDueNowOptions();
  // Never-screened cores score warm (coverage gap alone: 6 units * 0.25 = 1.5 >= risk_warm),
  // so one warm battery — 2 * 64 iterations * 6 units — admits exactly one core.
  options.budget_ops_per_day = 2 * 64 * 6;
  ScreeningOrchestrator orchestrator(options, fleet.core_count(), Rng(2));
  CoreScheduler scheduler(fleet.core_count(), SchedulerCosts{});

  orchestrator.PlanAdaptiveTick(SimTime::Days(1), SimTime::Days(1), fleet, scheduler);
  const ScreeningRiskStats& stats = orchestrator.risk_stats();
  EXPECT_EQ(stats.rescores, fleet.core_count());
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.deferred, fleet.core_count() - 1);
  EXPECT_EQ(stats.budget_exhausted_ticks, 1u);
  EXPECT_EQ(stats.tier_screens[1], 1u) << "never-screened cores sit in the warm tier";
  EXPECT_EQ(stats.ops_planned, options.budget_ops_per_day);

  const auto tick_stats = orchestrator.Tick(SimTime::Days(1), SimTime::Days(1), fleet,
                                            scheduler, [](const Signal&) {});
  EXPECT_EQ(tick_stats.offline_screens, 1u) << "execution consumes exactly the planned list";
  EXPECT_EQ(tick_stats.ops_spent, options.budget_ops_per_day);
}

TEST(ScreeningAdaptiveTest, EvidenceWinsThePriorityQueueUnderBudget) {
  FleetOptions fleet_options;
  fleet_options.machine_count = 2;
  fleet_options.mercurial_rate_multiplier = 0.0;
  Fleet fleet = Fleet::Build(fleet_options);
  // Core 7 carries a defect in a covered unit AND heavy report-service evidence; with budget
  // for a single screen, the allocator must pick it over 95 equally-due peers.
  fleet.PlantDefect(7, AlwaysFire(ExecUnit::kIntAlu, DefectEffect::kBitFlip, 1.0));
  ScreeningOptions options = AdaptiveDueNowOptions();
  options.budget_ops_per_day = 4 * 64 * 6;  // one hot battery
  ScreeningOrchestrator orchestrator(options, fleet.core_count(), Rng(3));
  orchestrator.set_risk_probe([](uint64_t core, SimTime) {
    ScreeningRiskEvidence evidence;
    if (core == 7) {
      evidence.report_score = 40.0;  // 0.5 * 40 = +20 risk: hot tier, top priority
    }
    return evidence;
  });
  CoreScheduler scheduler(fleet.core_count(), SchedulerCosts{});

  orchestrator.PlanAdaptiveTick(SimTime::Days(1), SimTime::Days(1), fleet, scheduler);
  EXPECT_EQ(orchestrator.risk_stats().admitted, 1u);
  EXPECT_EQ(orchestrator.risk_stats().tier_screens[2], 1u);

  std::vector<Signal> emitted;
  const auto tick_stats = orchestrator.Tick(SimTime::Days(1), SimTime::Days(1), fleet,
                                            scheduler,
                                            [&](const Signal& s) { emitted.push_back(s); });
  EXPECT_EQ(tick_stats.offline_screens, 1u);
  ASSERT_EQ(emitted.size(), 1u) << "the admitted screen must be the defective, accused core";
  EXPECT_EQ(emitted[0].core_global, 7u);
  EXPECT_EQ(static_cast<int>(emitted[0].type), static_cast<int>(SignalType::kScreenFail));
}

TEST(SignalTest, TypeNames) {
  for (int t = 0; t < kSignalTypeCount; ++t) {
    EXPECT_STRNE(SignalTypeName(static_cast<SignalType>(t)), "unknown");
  }
}

TEST(SignalTest, EveryTypeCarriesAPositiveDefaultWeight) {
  // Companion to the static_assert in report_service.h: the compile-time guard pins the
  // count; this pins the values — a new SignalType that slid in with a zero (value-initialized)
  // weight would silently erase every report of that type from the evidence ledger.
  for (int t = 0; t < kSignalTypeCount; ++t) {
    EXPECT_GT(kSignalTypeWeight[t], 0.0)
        << "kSignalTypeWeight[" << SignalTypeName(static_cast<SignalType>(t)) << "] must be set";
  }
}

}  // namespace
}  // namespace mercurial
