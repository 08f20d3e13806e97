// Tests for src/fleet (population builder) and src/sched (core scheduler, isolation).

#include <fstream>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "src/fleet/fleet.h"
#include "src/sched/scheduler.h"

namespace mercurial {
namespace {

FleetOptions SmallFleet(double rate_multiplier = 1.0) {
  FleetOptions options;
  options.machine_count = 50;
  options.seed = 99;
  options.mercurial_rate_multiplier = rate_multiplier;
  return options;
}

// --- Fleet ----------------------------------------------------------------------------------

TEST(FleetTest, BuildIsDeterministicUnderSeed) {
  Fleet a = Fleet::Build(SmallFleet(100.0));
  Fleet b = Fleet::Build(SmallFleet(100.0));
  EXPECT_EQ(a.core_count(), b.core_count());
  EXPECT_EQ(a.mercurial_cores(), b.mercurial_cores());
  // Same products per machine.
  for (size_t m = 0; m < a.machine_count(); ++m) {
    EXPECT_EQ(a.machine(m).product().name, b.machine(m).product().name);
    EXPECT_EQ(a.machine(m).install_time(), b.machine(m).install_time());
  }
}

TEST(FleetTest, DifferentSeedsDifferentPopulations) {
  FleetOptions options_a = SmallFleet(200.0);
  FleetOptions options_b = SmallFleet(200.0);
  options_b.seed = 100;
  Fleet a = Fleet::Build(options_a);
  Fleet b = Fleet::Build(options_b);
  EXPECT_NE(a.mercurial_cores(), b.mercurial_cores());
}

TEST(FleetTest, ZeroRateMeansNoMercurialCores) {
  Fleet fleet = Fleet::Build(SmallFleet(0.0));
  EXPECT_TRUE(fleet.mercurial_cores().empty());
  for (uint64_t i = 0; i < fleet.core_count(); ++i) {
    EXPECT_TRUE(fleet.Healthy(i)) << "core " << i;
    EXPECT_FALSE(fleet.IsMercurial(i)) << "core " << i;
  }
}

TEST(FleetTest, RateMultiplierScalesIncidence) {
  FleetOptions low = SmallFleet(10.0);
  low.machine_count = 400;
  FleetOptions high = low;
  high.mercurial_rate_multiplier = 100.0;
  const size_t low_count = Fleet::Build(low).mercurial_cores().size();
  const size_t high_count = Fleet::Build(high).mercurial_cores().size();
  EXPECT_GT(high_count, low_count * 3);
}

TEST(FleetTest, MercurialGroundTruthMatchesDefects) {
  FleetOptions options = SmallFleet(500.0);
  Fleet fleet = Fleet::Build(options);
  ASSERT_FALSE(fleet.mercurial_cores().empty());
  for (uint64_t i = 0; i < fleet.core_count(); ++i) {
    EXPECT_EQ(fleet.IsMercurial(i), !fleet.Healthy(i)) << "core " << i;
    if (fleet.IsMercurial(i)) {
      EXPECT_FALSE(fleet.core(i).defects().empty()) << "core " << i;
    }
  }
}

TEST(FleetTest, CoreIdsAreConsistent) {
  Fleet fleet = Fleet::Build(SmallFleet(500.0));
  ASSERT_FALSE(fleet.mercurial_cores().empty());
  size_t expected_total = 0;
  for (size_t m = 0; m < fleet.machine_count(); ++m) {
    expected_total += fleet.machine(m).core_count();
  }
  EXPECT_EQ(fleet.core_count(), expected_total);
  for (uint64_t i = 0; i < fleet.core_count(); ++i) {
    const CoreId id = fleet.core_id(i);
    EXPECT_EQ(id.global_index, i);
    EXPECT_LT(id.machine, fleet.machine_count());
    EXPECT_LT(id.core, fleet.machine(id.machine).core_count());
    EXPECT_EQ(fleet.machine(id.machine).first_core() + id.core, i);
  }
  for (uint64_t i : fleet.mercurial_cores()) {
    EXPECT_EQ(fleet.core(i).id(), i);
  }
}

TEST(FleetTest, ProductMixRoughlyHonored) {
  FleetOptions options;
  options.machine_count = 3000;
  options.seed = 5;
  options.product_mix = {1.0, 0.0, 0.0};  // everything is product 0
  Fleet fleet = Fleet::Build(options);
  for (size_t m = 0; m < fleet.machine_count(); ++m) {
    EXPECT_EQ(fleet.machine(m).product().name, "orion-gen2");
  }
}

TEST(FleetTest, InstallTimesWithinSpread) {
  FleetOptions options = SmallFleet();
  options.install_spread = SimTime::Days(100);
  Fleet fleet = Fleet::Build(options);
  for (size_t m = 0; m < fleet.machine_count(); ++m) {
    const SimTime install = fleet.machine(m).install_time();
    EXPECT_LE(install.seconds(), 0);
    EXPECT_GE(install.seconds(), -SimTime::Days(100).seconds());
  }
}

TEST(FleetTest, SetAgesReflectsInstallTime) {
  FleetOptions options = SmallFleet(500.0);
  Fleet fleet = Fleet::Build(options);
  ASSERT_FALSE(fleet.mercurial_cores().empty());
  const SimTime now = SimTime::Days(10);
  fleet.SetAges(now);
  for (uint64_t index : fleet.mercurial_cores()) {
    const Machine& machine = fleet.machine(fleet.core_id(index).machine);
    const SimTime expected = now - machine.install_time();
    EXPECT_EQ(fleet.core(index).age(), expected);
  }
}

TEST(FleetTest, DvfsComesFromProduct) {
  Fleet fleet = Fleet::Build(SmallFleet(500.0));
  ASSERT_FALSE(fleet.mercurial_cores().empty());
  for (uint64_t index : fleet.mercurial_cores()) {
    const double v_min = fleet.machine(fleet.core_id(index).machine).product().dvfs.v_min;
    SimCore& core = fleet.core(index);
    core.set_operating_point(OperatingPoint{0.1, 60.0});  // below f_min => clamped to v_min
    EXPECT_DOUBLE_EQ(core.voltage(), v_min);
  }
}

TEST(FleetTest, HealthyCoreHasNoSimCore) {
  Fleet fleet = Fleet::Build(SmallFleet(500.0));
  ASSERT_FALSE(fleet.mercurial_cores().empty());
  uint64_t healthy = 0;
  while (fleet.IsMercurial(healthy)) {
    ++healthy;
  }
  EXPECT_DEATH(fleet.core(healthy), "has no SimCore");
}

TEST(FleetTest, PlantDefectKeepsGroundTruthConsistent) {
  Fleet fleet = Fleet::Build(SmallFleet(0.0));
  ASSERT_TRUE(fleet.mercurial_cores().empty());
  const uint64_t k = 77;
  DefectSpec spec;
  spec.unit = ExecUnit::kCopy;
  fleet.PlantDefect(k, spec);
  EXPECT_TRUE(fleet.IsMercurial(k));
  EXPECT_FALSE(fleet.Healthy(k));
  EXPECT_EQ(fleet.mercurial_cores(), std::vector<uint64_t>{k});
  EXPECT_EQ(fleet.core(k).id(), k);
  // The planted core gets its product's DVFS curve, like a core planted at Build.
  const double v_min = fleet.machine(fleet.core_id(k).machine).product().dvfs.v_min;
  fleet.core(k).set_operating_point(OperatingPoint{0.1, 60.0});
  EXPECT_DOUBLE_EQ(fleet.core(k).voltage(), v_min);
  // SetAges reaches it.
  fleet.SetAges(SimTime::Days(3 * 365));
  EXPECT_GT(fleet.core(k).age().seconds(), 0);

  spec.unit = ExecUnit::kAes;
  fleet.PlantDefect(k, spec);
  EXPECT_EQ(fleet.mercurial_cores(), std::vector<uint64_t>{k});
  EXPECT_EQ(fleet.core(k).defects().size(), 2u);
}

// Resident set of this process in bytes, or 0 when /proc is unavailable.
uint64_t ResidentBytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stoull(line.substr(6)) * 1024;
    }
  }
  return 0;
}

TEST(FleetTest, HealthyFleetCostsUnder100BytesPerCore) {
  // The 926k-core fleet of the repo benchmark's healthy-fleet workload. Each test runs in a
  // process of its own (gtest_discover_tests), so the RSS difference is this fleet's alone.
  FleetOptions options;
  options.machine_count = 20000;
  options.mercurial_rate_multiplier = 1.0;
  const uint64_t before = ResidentBytes();
  if (before == 0) {
    GTEST_SKIP() << "/proc/self/status unavailable";
  }
  const Fleet fleet = Fleet::Build(options);
  const uint64_t after = ResidentBytes();
  const double per_core =
      static_cast<double>(after > before ? after - before : 0) / fleet.core_count();
  EXPECT_LT(per_core, 100.0) << fleet.core_count() << " cores";
}

TEST(FleetTest, StandardProductsDifferInRates) {
  const auto products = StandardProducts();
  ASSERT_EQ(products.size(), 3u);
  std::set<std::string> vendors;
  for (const auto& product : products) {
    vendors.insert(product.vendor);
    EXPECT_GT(product.mercurial_core_rate, 0.0);
    EXPECT_GT(product.cores_per_machine, 0);
  }
  EXPECT_GE(vendors.size(), 2u) << "industry-wide problem: multiple vendors";
  EXPECT_GT(products[2].mercurial_core_rate, products[0].mercurial_core_rate)
      << "newest process has the highest rate";
}

// --- Scheduler -------------------------------------------------------------------------------

TEST(SchedulerTest, InitialStateAllActive) {
  CoreScheduler scheduler(10, SchedulerCosts{});
  EXPECT_EQ(scheduler.active_count(), 10u);
  EXPECT_EQ(scheduler.quarantined_count(), 0u);
  for (uint64_t c = 0; c < 10; ++c) {
    EXPECT_TRUE(scheduler.Schedulable(c));
    EXPECT_EQ(static_cast<int>(scheduler.state(c)), static_cast<int>(CoreState::kActive));
  }
}

TEST(SchedulerTest, DrainQuarantineReleaseCycle) {
  CoreScheduler scheduler(4, SchedulerCosts{});
  EXPECT_TRUE(scheduler.Drain(1));
  EXPECT_EQ(static_cast<int>(scheduler.state(1)), static_cast<int>(CoreState::kDraining));
  EXPECT_FALSE(scheduler.Schedulable(1));
  EXPECT_EQ(scheduler.active_count(), 3u);

  scheduler.Quarantine(1);
  EXPECT_EQ(scheduler.quarantined_count(), 1u);

  scheduler.Release(1);
  EXPECT_TRUE(scheduler.Schedulable(1));
  EXPECT_EQ(scheduler.active_count(), 4u);
  EXPECT_EQ(scheduler.stats().drains, 1u);
  EXPECT_EQ(scheduler.stats().quarantines, 1u);
  EXPECT_EQ(scheduler.stats().releases, 1u);
}

TEST(SchedulerTest, DrainOnlyFromActive) {
  CoreScheduler scheduler(2, SchedulerCosts{});
  EXPECT_TRUE(scheduler.Drain(0));
  EXPECT_FALSE(scheduler.Drain(0)) << "already draining";
}

TEST(SchedulerTest, QuarantineFromActiveImplicitlyDrains) {
  CoreScheduler scheduler(2, SchedulerCosts{});
  scheduler.Quarantine(0);
  EXPECT_EQ(scheduler.stats().drains, 1u);
  EXPECT_EQ(scheduler.quarantined_count(), 1u);
}

TEST(SchedulerTest, RetireIsTerminal) {
  CoreScheduler scheduler(3, SchedulerCosts{});
  scheduler.Quarantine(2);
  scheduler.Retire(2);
  EXPECT_EQ(scheduler.retired_count(), 1u);
  EXPECT_FALSE(scheduler.Schedulable(2));
  EXPECT_FALSE(scheduler.Drain(2));
  EXPECT_FALSE(scheduler.SurpriseRemove(2));
}

TEST(SchedulerTest, SurpriseRemovalCostsLostWork) {
  SchedulerCosts costs;
  costs.surprise_kill_core_seconds = 600.0;
  CoreScheduler scheduler(2, costs);
  EXPECT_TRUE(scheduler.SurpriseRemove(0));
  EXPECT_DOUBLE_EQ(scheduler.stats().lost_work_core_seconds, 600.0);
  EXPECT_EQ(scheduler.stats().surprise_removals, 1u);
}

TEST(SchedulerTest, DrainCostsMigration) {
  SchedulerCosts costs;
  costs.migrate_task_core_seconds = 30.0;
  costs.tasks_per_core = 2.0;
  CoreScheduler scheduler(2, costs);
  scheduler.Drain(0);
  EXPECT_DOUBLE_EQ(scheduler.stats().migration_cost_core_seconds, 60.0);
}

TEST(SchedulerTest, BulkScreenDrainChargeEqualsPerCorePairs) {
  // 0.1 * 3 is inexact in binary, so a `count * cost` product rounds differently from the
  // repeated sum `count` Drain calls make: the bulk charge must make that same sum, whatever
  // per-core and quarantine drains it is interleaved with.
  SchedulerCosts costs;
  costs.migrate_task_core_seconds = 0.1;
  costs.tasks_per_core = 3.0;
  CoreScheduler per_core(64, costs);
  CoreScheduler bulk(64, costs);
  const auto screen_pairs = [](CoreScheduler& scheduler, uint64_t count) {
    for (uint64_t core = 10; core < 10 + count; ++core) {
      ASSERT_TRUE(scheduler.Drain(core));
      scheduler.Release(core);
    }
  };
  for (CoreScheduler* scheduler : {&per_core, &bulk}) {
    ASSERT_TRUE(scheduler->Drain(0));
    scheduler->Release(0);
    scheduler->Quarantine(5);
  }
  screen_pairs(per_core, 37);
  bulk.ChargeScreenDrains(37);
  for (CoreScheduler* scheduler : {&per_core, &bulk}) {
    ASSERT_TRUE(scheduler->Drain(1));
    scheduler->Release(1);
  }
  screen_pairs(per_core, 50);
  bulk.ChargeScreenDrains(50);
  bulk.ChargeScreenDrains(0);

  EXPECT_EQ(per_core.stats().drains, 90u);
  EXPECT_EQ(per_core.stats().releases, 89u);
  EXPECT_EQ(per_core.stats().migration_cost_core_seconds,
            bulk.stats().migration_cost_core_seconds);
  EXPECT_TRUE(per_core.stats() == bulk.stats());
  EXPECT_EQ(bulk.active_count(), 63u);
  EXPECT_EQ(bulk.draining_count(), 0u);
  EXPECT_EQ(bulk.quarantined_count(), 1u);
}

TEST(SchedulerTest, NextActiveCoreRoundRobinSkipsUnschedulable) {
  CoreScheduler scheduler(4, SchedulerCosts{});
  scheduler.Quarantine(1);
  std::vector<uint64_t> picks;
  for (int i = 0; i < 6; ++i) {
    const auto pick = scheduler.NextActiveCore();
    ASSERT_TRUE(pick.has_value());
    picks.push_back(*pick);
    EXPECT_NE(*pick, 1u);
  }
  EXPECT_EQ(picks, (std::vector<uint64_t>{0, 2, 3, 0, 2, 3}));
}

TEST(SchedulerTest, NextActiveCoreEmptyWhenAllRemoved) {
  CoreScheduler scheduler(2, SchedulerCosts{});
  scheduler.Quarantine(0);
  scheduler.Quarantine(1);
  EXPECT_FALSE(scheduler.NextActiveCore().has_value());
}

TEST(SchedulerTest, StrandingAccumulation) {
  CoreScheduler scheduler(10, SchedulerCosts{});
  scheduler.Quarantine(0);
  scheduler.Quarantine(1);
  scheduler.AccumulateStranding(SimTime::Hours(1));
  EXPECT_DOUBLE_EQ(scheduler.stats().stranded_core_seconds, 2.0 * 3600.0);
  scheduler.Quarantine(2);
  scheduler.Retire(2);
  scheduler.AccumulateStranding(SimTime::Hours(1));
  EXPECT_DOUBLE_EQ(scheduler.stats().stranded_core_seconds, 2.0 * 3600.0 + 3.0 * 3600.0);
}

TEST(SchedulerTest, StateNames) {
  EXPECT_STREQ(CoreStateName(CoreState::kActive), "active");
  EXPECT_STREQ(CoreStateName(CoreState::kDraining), "draining");
  EXPECT_STREQ(CoreStateName(CoreState::kQuarantined), "quarantined");
  EXPECT_STREQ(CoreStateName(CoreState::kRetired), "retired");
}

TEST(SafePlacementTest, DisjointUnitsAreSafe) {
  // §6.1: tasks that avoid the defective unit may run on a mercurial core.
  const std::vector<ExecUnit> failed{ExecUnit::kAes, ExecUnit::kVector};
  EXPECT_TRUE(TaskSafeOnCore({ExecUnit::kIntAlu, ExecUnit::kLoad}, failed));
  EXPECT_FALSE(TaskSafeOnCore({ExecUnit::kAes}, failed));
  EXPECT_FALSE(TaskSafeOnCore({ExecUnit::kIntAlu, ExecUnit::kVector}, failed));
  EXPECT_TRUE(TaskSafeOnCore({}, failed)) << "a task using no units is vacuously safe";
  EXPECT_TRUE(TaskSafeOnCore({ExecUnit::kCopy}, {})) << "no known-bad units";
}

}  // namespace
}  // namespace mercurial
