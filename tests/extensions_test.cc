// Tests for the §9/§6.1/§4 extensions: selective replication, safe-task placement, the cost
// tradeoff model, and the MCA log analyzer.

#include <map>
#include <memory>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/tradeoff.h"
#include "src/detect/mca_log.h"
#include "src/mitigate/selective.h"
#include "src/sched/placement.h"

namespace mercurial {
namespace {

DefectSpec AlwaysFire(ExecUnit unit, DefectEffect effect, double rate = 1.0) {
  DefectSpec spec;
  spec.unit = unit;
  spec.effect = effect;
  spec.fvt.base_rate = rate;
  spec.machine_check_fraction = 0.0;
  return spec;
}

struct CorePool {
  std::vector<std::unique_ptr<SimCore>> owned;
  std::vector<SimCore*> ptrs;

  explicit CorePool(int n, int defective = -1, double rate = 1.0) {
    for (int i = 0; i < n; ++i) {
      owned.push_back(std::make_unique<SimCore>(i, Rng(700 + i)));
      if (i == defective) {
        owned.back()->AddDefect(AlwaysFire(ExecUnit::kIntMul, DefectEffect::kRandomWrong, rate));
      }
      ptrs.push_back(owned.back().get());
    }
  }
};

Block MakeBlock(const char* label, Criticality criticality) {
  Block block;
  block.label = label;
  block.criticality = criticality;
  block.body = [](SimCore& core, uint64_t state) {
    uint64_t x = state;
    for (int i = 0; i < 16; ++i) {
      x = core.Mul(x | 1, 0x9e3779b97f4a7c15ull);
      x = core.Alu(AluOp::kXor, x, core.Alu(AluOp::kShr, x, 29));
    }
    return x;
  };
  return block;
}

uint64_t GoldenProgram(const std::vector<Block>& program, uint64_t state) {
  SimCore golden(999, Rng(999));
  for (const Block& block : program) {
    state = block.body(golden, state);
  }
  return state;
}

// --- SelectiveReplicator ---------------------------------------------------------------------

TEST(SelectiveTest, HealthyPoolAnyPolicyIsCorrect) {
  const std::vector<Block> program = {MakeBlock("a", Criticality::kOrdinary),
                                      MakeBlock("b", Criticality::kImportant),
                                      MakeBlock("c", Criticality::kCritical)};
  for (auto policy : {ReplicationPolicy::None(), ReplicationPolicy::Selective(),
                      ReplicationPolicy::FullTmr()}) {
    CorePool pool(3);
    SelectiveReplicator replicator(pool.ptrs, policy);
    const auto result = replicator.RunProgram(program, 5);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(*result, GoldenProgram(program, 5));
  }
}

TEST(SelectiveTest, OverheadScalesWithPolicy) {
  const std::vector<Block> program = {MakeBlock("a", Criticality::kOrdinary),
                                      MakeBlock("b", Criticality::kOrdinary),
                                      MakeBlock("c", Criticality::kCritical)};
  CorePool none_pool(3);
  SelectiveReplicator none(none_pool.ptrs, ReplicationPolicy::None());
  ASSERT_TRUE(none.RunProgram(program, 1).ok());
  EXPECT_DOUBLE_EQ(none.stats().OverheadFactor(), 1.0);

  CorePool selective_pool(3);
  SelectiveReplicator selective(selective_pool.ptrs, ReplicationPolicy::Selective());
  ASSERT_TRUE(selective.RunProgram(program, 1).ok());
  // 2 simplex + 1 TMR = 5 executions over 3 blocks.
  EXPECT_DOUBLE_EQ(selective.stats().OverheadFactor(), 5.0 / 3.0);

  CorePool full_pool(3);
  SelectiveReplicator full(full_pool.ptrs, ReplicationPolicy::FullTmr());
  ASSERT_TRUE(full.RunProgram(program, 1).ok());
  EXPECT_DOUBLE_EQ(full.stats().OverheadFactor(), 3.0);
}

TEST(SelectiveTest, CriticalBlockSurvivesDefectiveCore) {
  // One defective core in a pool of four. Under the selective policy the critical block is
  // TMR-protected: even when a replica lands on the bad core it is outvoted.
  const std::vector<Block> program = {MakeBlock("critical", Criticality::kCritical)};
  int wrong = 0;
  for (int trial = 0; trial < 30; ++trial) {
    CorePool pool(4, /*defective=*/1, /*rate=*/1.0);
    SelectiveReplicator replicator(pool.ptrs, ReplicationPolicy::Selective());
    const auto result = replicator.RunProgram(program, 100 + trial);
    ASSERT_TRUE(result.ok());
    wrong += *result != GoldenProgram(program, 100 + trial) ? 1 : 0;
  }
  EXPECT_EQ(wrong, 0);
}

TEST(SelectiveTest, OrdinaryBlocksRemainExposedUnderSelectivePolicy) {
  // The point of the tradeoff: unprotected blocks on a defective core still corrupt.
  const std::vector<Block> program = {MakeBlock("ordinary", Criticality::kOrdinary)};
  int wrong = 0;
  for (int trial = 0; trial < 40; ++trial) {
    CorePool pool(1, /*defective=*/0, /*rate=*/1.0);
    SelectiveReplicator replicator(pool.ptrs, ReplicationPolicy::Selective());
    const auto result = replicator.RunProgram(program, trial);
    ASSERT_TRUE(result.ok());
    wrong += *result != GoldenProgram(program, trial) ? 1 : 0;
  }
  EXPECT_GT(wrong, 0);
}

TEST(SelectiveTest, DisagreementsAreCounted) {
  CorePool pool(4, /*defective=*/0, /*rate=*/1.0);
  SelectiveReplicator replicator(pool.ptrs, ReplicationPolicy::FullTmr());
  const std::vector<Block> program = {MakeBlock("x", Criticality::kOrdinary)};
  ASSERT_TRUE(replicator.RunProgram(program, 7).ok());
  EXPECT_GT(replicator.stats().detected_disagreements, 0u);
}

TEST(SelectiveTest, CriticalityNames) {
  EXPECT_STREQ(CriticalityName(Criticality::kOrdinary), "ordinary");
  EXPECT_STREQ(CriticalityName(Criticality::kImportant), "important");
  EXPECT_STREQ(CriticalityName(Criticality::kCritical), "critical");
}

// --- PlacementPlanner ---------------------------------------------------------------------------

TEST(PlacementTest, DisjointWorkloadsReclaimCapacity) {
  PlacementPlanner planner(PlacementPlanner::StandardProfiles());
  std::map<uint64_t, std::vector<ExecUnit>> failed;
  failed[7] = {ExecUnit::kAes};  // crypto-only defect
  const PlacementPlan plan = planner.Plan(failed);
  ASSERT_EQ(plan.decisions.size(), 1u);
  // Everything except the crypto workload is safe: 11/12 of the mix.
  EXPECT_NEAR(plan.decisions[0].reclaimable_fraction, 11.0 / 12.0, 1e-9);
  EXPECT_EQ(plan.decisions[0].safe_workloads.size(), 11u);
  EXPECT_EQ(plan.fully_stranded, 0u);
}

TEST(PlacementTest, BroadDefectStrandsCore) {
  PlacementPlanner planner(PlacementPlanner::StandardProfiles());
  std::map<uint64_t, std::vector<ExecUnit>> failed;
  // A load-path defect poisons almost everything that touches memory.
  failed[3] = {ExecUnit::kLoad, ExecUnit::kCopy, ExecUnit::kIntAlu,
               ExecUnit::kStore, ExecUnit::kFp, ExecUnit::kAes,
               ExecUnit::kCrc, ExecUnit::kAtomic, ExecUnit::kIntMul,
               ExecUnit::kIntDiv, ExecUnit::kVector};
  const PlacementPlan plan = planner.Plan(failed);
  ASSERT_EQ(plan.decisions.size(), 1u);
  EXPECT_TRUE(plan.decisions[0].safe_workloads.empty());
  EXPECT_EQ(plan.fully_stranded, 1u);
  EXPECT_DOUBLE_EQ(plan.mean_reclaimed, 0.0);
}

TEST(PlacementTest, MixedPopulation) {
  PlacementPlanner planner(PlacementPlanner::StandardProfiles());
  std::map<uint64_t, std::vector<ExecUnit>> failed;
  failed[1] = {ExecUnit::kAes};
  failed[2] = {ExecUnit::kFp};
  failed[3] = {ExecUnit::kLoad};  // strands hash/locking/sorting/gc/db/kernel
  const PlacementPlan plan = planner.Plan(failed);
  EXPECT_EQ(plan.decisions.size(), 3u);
  EXPECT_GT(plan.mean_reclaimed, 0.0);
  EXPECT_LT(plan.mean_reclaimed, 1.0);
}

TEST(PlacementTest, EmptyInput) {
  PlacementPlanner planner(PlacementPlanner::StandardProfiles());
  const PlacementPlan plan = planner.Plan({});
  EXPECT_TRUE(plan.decisions.empty());
  EXPECT_DOUBLE_EQ(plan.mean_reclaimed, 0.0);
}

// --- Tradeoff model ----------------------------------------------------------------------------

TEST(TradeoffTest, CostsAddUp) {
  StudyReport report;
  report.symptom_counts[static_cast<int>(Symptom::kSilentCorruption)] = 2;
  report.symptom_counts[static_cast<int>(Symptom::kDetectedLate)] = 3;
  report.symptom_counts[static_cast<int>(Symptom::kDetectedImmediately)] = 10;
  report.symptom_counts[static_cast<int>(Symptom::kCrash)] = 1;
  report.symptom_counts[static_cast<int>(Symptom::kMachineCheck)] = 4;
  report.screening_ops = 2'000'000'000;           // 2 Gop
  report.quarantine.interrogation_ops = 1'000'000'000;
  report.scheduler.stranded_core_seconds = 86400.0 * 5;  // 5 core-days
  report.scheduler.migration_cost_core_seconds = 3600.0 * 2;
  report.scheduler.lost_work_core_seconds = 3600.0;

  CostModel model;  // defaults
  const CostBreakdown bill = EvaluateStudyCost(report, model);
  EXPECT_DOUBLE_EQ(bill.corruption, 2 * 500.0 + 3 * 100.0);
  EXPECT_DOUBLE_EQ(bill.disruption, 10 * 2.0 + 1 * 10.0 + 4 * 5.0);
  EXPECT_DOUBLE_EQ(bill.screening, 3.0);
  EXPECT_DOUBLE_EQ(bill.capacity, 5.0 + 1.0 + 1.0);
  EXPECT_DOUBLE_EQ(bill.total(),
                   bill.corruption + bill.disruption + bill.screening + bill.capacity);
}

TEST(TradeoffTest, AcceptableRateDominanceCriterion) {
  // §4: CEE probability dominated by the inherent software-bug rate.
  EXPECT_DOUBLE_EQ(AcceptableCeeRate(1e-5, 0.1), 1e-6);
  EXPECT_DOUBLE_EQ(AcceptableCeeRate(0.0, 0.1), 0.0);
}

TEST(TradeoffTest, MeasuredRate) {
  StudyReport report;
  EXPECT_DOUBLE_EQ(MeasuredCeeRate(report), 0.0);
  report.work_units_executed = 1000;
  report.symptom_counts[static_cast<int>(Symptom::kSilentCorruption)] = 5;
  report.symptom_counts[static_cast<int>(Symptom::kCrash)] = 5;
  EXPECT_DOUBLE_EQ(MeasuredCeeRate(report), 0.01);
}

// --- MCA log ------------------------------------------------------------------------------------

McaRecord Record(int64_t day, uint64_t core, ExecUnit bank, uint64_t syndrome) {
  McaRecord record;
  record.time = SimTime::Days(day);
  record.machine = core / 48;
  record.core_global = core;
  record.bank = bank;
  record.syndrome = syndrome;
  return record;
}

TEST(McaLogTest, RingBufferOverwritesOldest) {
  McaLog log(3);
  for (int i = 0; i < 5; ++i) {
    log.Append(Record(i, static_cast<uint64_t>(i), ExecUnit::kIntAlu, 0));
  }
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.total_appended(), 5u);
  EXPECT_EQ(log.overwritten(), 2u);
  const auto snapshot = log.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].core_global, 2u);  // oldest surviving
  EXPECT_EQ(snapshot[2].core_global, 4u);  // newest
}

TEST(McaLogTest, AnalyzerFindsRecidivistAndAttributesUnit) {
  McaLog log(64);
  // Core 7: five MCEs, four from the vector bank, same syndrome twice.
  log.Append(Record(1, 7, ExecUnit::kVector, 0xAA));
  log.Append(Record(2, 7, ExecUnit::kVector, 0xAB));
  log.Append(Record(3, 7, ExecUnit::kVector, 0xAA));
  log.Append(Record(4, 7, ExecUnit::kCopy, 0xAC));
  log.Append(Record(5, 7, ExecUnit::kVector, 0xAD));
  // Background: single MCEs on other cores (random transients).
  log.Append(Record(2, 100, ExecUnit::kIntAlu, 0x01));
  log.Append(Record(3, 200, ExecUnit::kFp, 0x02));

  const McaAnalysis analysis = AnalyzeMcaLog(log, /*recidivism_threshold=*/3);
  EXPECT_EQ(analysis.records_analyzed, 7u);
  EXPECT_EQ(analysis.distinct_cores, 3u);
  ASSERT_EQ(analysis.recidivists.size(), 1u);
  const McaCoreFinding& finding = analysis.recidivists[0];
  EXPECT_EQ(finding.core_global, 7u);
  EXPECT_EQ(finding.record_count, 5u);
  EXPECT_EQ(static_cast<int>(finding.dominant_bank), static_cast<int>(ExecUnit::kVector));
  EXPECT_DOUBLE_EQ(finding.bank_concentration, 0.8);
  EXPECT_TRUE(finding.repeated_syndrome);
  EXPECT_EQ(finding.first_seen, SimTime::Days(1));
  EXPECT_EQ(finding.last_seen, SimTime::Days(5));
}

TEST(McaLogTest, RankingByRecordCount) {
  McaLog log(64);
  for (int i = 0; i < 3; ++i) {
    log.Append(Record(i, 11, ExecUnit::kIntAlu, 1));
  }
  for (int i = 0; i < 6; ++i) {
    log.Append(Record(i, 22, ExecUnit::kCopy, 2));
  }
  const McaAnalysis analysis = AnalyzeMcaLog(log, 3);
  ASSERT_EQ(analysis.recidivists.size(), 2u);
  EXPECT_EQ(analysis.recidivists[0].core_global, 22u);
  EXPECT_EQ(analysis.recidivists[1].core_global, 11u);
}

TEST(McaLogTest, NoRepeatedSyndromeForDistinctTransients) {
  McaLog log(16);
  log.Append(Record(1, 5, ExecUnit::kFp, 0x10));
  log.Append(Record(2, 5, ExecUnit::kFp, 0x20));
  log.Append(Record(3, 5, ExecUnit::kFp, 0x30));
  const McaAnalysis analysis = AnalyzeMcaLog(log, 3);
  ASSERT_EQ(analysis.recidivists.size(), 1u);
  EXPECT_FALSE(analysis.recidivists[0].repeated_syndrome);
}

TEST(McaLogTest, RingOverwriteErasesEvidence) {
  // The telemetry deficiency: a tiny MCA bank log loses recidivism evidence under load.
  McaLog log(4);
  for (int i = 0; i < 3; ++i) {
    log.Append(Record(i, 7, ExecUnit::kVector, 0xAA));
  }
  for (int i = 0; i < 4; ++i) {  // a burst from elsewhere pushes core 7 out
    log.Append(Record(10 + i, static_cast<uint64_t>(100 + i), ExecUnit::kIntAlu, 1));
  }
  const McaAnalysis analysis = AnalyzeMcaLog(log, 3);
  EXPECT_TRUE(analysis.recidivists.empty()) << "the culprit's records were overwritten";
}

}  // namespace
}  // namespace mercurial
