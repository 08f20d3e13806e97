// Tests for the blast-radius audit subsystem: the provenance ledger, the retroactive-repair
// orchestrator (budgeting, retries, shedding, conservation), and the audited fleet study
// end to end under repair-path chaos.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/core/fleet_study.h"
#include "src/mitigate/blast_radius.h"
#include "src/mitigate/repair_orchestrator.h"
#include "tests/durable_codec.h"

namespace mercurial {
namespace {

// --- BlastRadiusLedger ------------------------------------------------------------------------

TEST(BlastRadiusLedgerTest, RecordsAndAggregatesPerCoreEpochKind) {
  BlastRadiusLedger ledger;
  ledger.RecordArtifacts(7, 0, ArtifactKind::kChecksummedWrite, 10, 1);
  ledger.RecordArtifacts(7, 0, ArtifactKind::kChecksummedWrite, 5, 0);
  ledger.RecordArtifacts(7, 0, ArtifactKind::kPlainOutput, 3, 2);
  ledger.RecordArtifacts(7, 2, ArtifactKind::kLogEpoch, 4, 0);
  ledger.RecordArtifacts(9, 2, ArtifactKind::kCheckpoint, 1, 1);

  EXPECT_EQ(ledger.artifacts_recorded(), 23u);
  EXPECT_EQ(ledger.corrupt_recorded(), 4u);

  const BlastRadiusLedger::CoreLedger* seven = ledger.Find(7);
  ASSERT_NE(seven, nullptr);
  ASSERT_EQ(seven->epochs.size(), 2u);
  EXPECT_EQ(seven->epochs[0].epoch, 0u);
  EXPECT_EQ(seven->epochs[0].counts[0].produced, 15u);
  EXPECT_EQ(seven->epochs[0].counts[0].corrupt, 1u);
  EXPECT_EQ(seven->epochs[0].produced(), 18u);
  EXPECT_EQ(seven->epochs[0].corrupt(), 3u);
  EXPECT_EQ(seven->epochs[1].epoch, 2u);
  EXPECT_EQ(seven->epochs[1].produced(), 4u);

  EXPECT_EQ(ledger.Find(8), nullptr);
}

TEST(BlastRadiusLedgerTest, NoteSignalKeepsTheEarliest) {
  BlastRadiusLedger ledger;
  ledger.NoteSignal(3, SimTime::Days(5));
  ledger.NoteSignal(3, SimTime::Days(2));
  ledger.NoteSignal(3, SimTime::Days(9));
  const BlastRadiusLedger::CoreLedger* record = ledger.Find(3);
  ASSERT_NE(record, nullptr);
  EXPECT_TRUE(record->has_signal);
  EXPECT_EQ(record->first_signal, SimTime::Days(2));
}

TEST(BlastRadiusLedgerTest, MergeFoldsAndClearsTheSource) {
  BlastRadiusLedger main;
  main.RecordArtifacts(1, 0, ArtifactKind::kPlainOutput, 2, 0);
  BlastRadiusLedger shard;
  shard.RecordArtifacts(2, 0, ArtifactKind::kPlainOutput, 3, 1);
  shard.NoteSignal(2, SimTime::Days(1));

  main.MergeFrom(shard);
  EXPECT_EQ(main.artifacts_recorded(), 5u);
  EXPECT_EQ(main.corrupt_recorded(), 1u);
  ASSERT_NE(main.Find(2), nullptr);
  EXPECT_TRUE(main.Find(2)->has_signal);
  EXPECT_EQ(shard.artifacts_recorded(), 0u);
  EXPECT_EQ(shard.Find(2), nullptr);
}

// The ledger's journal codec: the full round trip, and the op log a tick frame carries —
// direct recordings plus the ops MergeFrom logs for a shard ledger's content.
TEST(BlastRadiusLedgerTest, DurableCodecRoundTripsAndRefusesPrefixes) {
  BlastRadiusLedger ledger;
  ledger.EnableMutationLog(true);
  ledger.RecordArtifacts(7, 0, ArtifactKind::kChecksummedWrite, 10, 1);
  ledger.RecordArtifacts(7, 2, ArtifactKind::kLogEpoch, 4, 0);
  ledger.RecordArtifacts(9, 2, ArtifactKind::kCheckpoint, 1, 1);
  ledger.NoteSignal(9, SimTime::Days(2));
  std::vector<uint8_t> drained;
  ByteWriter drain_writer(drained);
  ledger.DrainTickOps(drain_writer);  // a tick boundary
  const BlastRadiusLedger before = ledger;

  ledger.RecordArtifacts(7, 3, ArtifactKind::kPlainOutput, 3, 2);
  ledger.NoteSignal(7, SimTime::Days(3));
  BlastRadiusLedger shard;
  shard.RecordArtifacts(11, 3, ArtifactKind::kLogEpoch, 6, 1);
  shard.NoteSignal(11, SimTime::Days(3));
  ledger.MergeFrom(shard);
  ASSERT_TRUE(ledger.HasTickOps());
  std::vector<uint8_t> ops;
  ByteWriter ops_writer(ops);
  ledger.DrainTickOps(ops_writer);

  ExpectDurableCodecContract(ledger, BlastRadiusLedger{});
  ExpectTickOpsContract(before, ledger, ops);
}

TEST(BlastRadiusLedgerTest, WorkloadToArtifactKindMapping) {
  EXPECT_EQ(ArtifactKindForWorkload(WorkloadKind::kMemcpy), ArtifactKind::kChecksummedWrite);
  EXPECT_EQ(ArtifactKindForWorkload(WorkloadKind::kDbIndex), ArtifactKind::kLogEpoch);
  EXPECT_EQ(ArtifactKindForWorkload(WorkloadKind::kGarbageCollect), ArtifactKind::kCheckpoint);
  EXPECT_EQ(ArtifactKindForWorkload(WorkloadKind::kCrypto), ArtifactKind::kPlainOutput);
}

// --- RepairOrchestrator -----------------------------------------------------------------------

RepairOptions BaseRepairOptions() {
  RepairOptions options;
  options.enabled = true;
  options.epoch_length = SimTime::Days(1);
  options.repair_budget_per_tick = 1 << 20;
  options.max_attempts = 3;
  options.retry_backoff = SimTime::Days(1);
  options.retry_jitter = 0.0;  // deterministic backoff for the schedule assertions below
  options.onset_margin = SimTime::Days(3);
  options.max_lookback = SimTime::Days(180);
  return options;
}

void HealthyPool(RepairOrchestrator& repair) {
  repair.SetExecutorPool(16, [](uint64_t) { return false; });
}

void DefectivePool(RepairOrchestrator& repair) {
  repair.SetExecutorPool(16, [](uint64_t) { return true; });
}

TEST(RepairOrchestratorTest, SuspectSetReachesBackToEstimatedOnset) {
  // Signal at day 8, margin 3 days => onset estimate day 5: epochs 5..9 are suspect, 0..4
  // stay at rest.
  BlastRadiusLedger ledger;
  for (uint64_t epoch = 0; epoch < 10; ++epoch) {
    ledger.RecordArtifacts(7, epoch, ArtifactKind::kChecksummedWrite, 10, 1);
  }
  ledger.NoteSignal(7, SimTime::Days(8));

  RepairOrchestrator repair(BaseRepairOptions(), Rng(1));
  HealthyPool(repair);
  repair.OnConviction(SimTime::Days(10), 7, ledger);
  EXPECT_EQ(repair.stats().convictions, 1u);
  EXPECT_EQ(repair.stats().suspect_epochs, 5u);
  EXPECT_EQ(repair.stats().suspect_artifacts, 50u);
  EXPECT_EQ(repair.backlog_artifacts(), 50u);
  EXPECT_EQ(repair.queued_tasks(), 5u);

  repair.Tick(SimTime::Days(10));
  EXPECT_EQ(repair.queued_tasks(), 0u);
  EXPECT_EQ(repair.stats().corruptions_repaired, 5u);
  repair.FinalizeAccounting(ledger);
  // The 5 corruptions in pre-onset epochs are the explicit at-rest remainder.
  EXPECT_EQ(repair.stats().corruptions_still_at_rest, 5u);
}

TEST(RepairOrchestratorTest, NoSignalFallsBackToLookbackWindow) {
  BlastRadiusLedger ledger;
  for (uint64_t epoch = 0; epoch < 300; epoch += 100) {
    ledger.RecordArtifacts(4, epoch, ArtifactKind::kPlainOutput, 1, 0);
  }
  RepairOrchestrator repair(BaseRepairOptions(), Rng(2));
  HealthyPool(repair);
  // Conviction at day 250, lookback 180 => onset day 70: only epochs 100 and 200 qualify.
  repair.OnConviction(SimTime::Days(250), 4, ledger);
  EXPECT_EQ(repair.stats().suspect_epochs, 2u);
}

TEST(RepairOrchestratorTest, BudgetCutoffResumesNextTickWithoutRetryPenalty) {
  // One 30-artifact epoch against a budget of 8: exactly four ticks of steady progress, and a
  // budget cutoff is backlog, not failure — no retries, no backoff, no abandonment.
  BlastRadiusLedger ledger;
  ledger.RecordArtifacts(5, 1, ArtifactKind::kChecksummedWrite, 30, 3);
  RepairOptions options = BaseRepairOptions();
  options.repair_budget_per_tick = 8;
  RepairOrchestrator repair(options, Rng(3));
  HealthyPool(repair);
  repair.OnConviction(SimTime::Days(2), 5, ledger);

  int ticks = 0;
  while (repair.queued_tasks() > 0) {
    ASSERT_LT(ticks, 10);
    repair.Tick(SimTime::Days(2));
    ++ticks;
  }
  EXPECT_EQ(ticks, 4) << "30 artifacts at 8 per tick";
  EXPECT_EQ(repair.stats().retries_scheduled, 0u);
  EXPECT_EQ(repair.stats().tasks_abandoned, 0u);
  EXPECT_EQ(repair.stats().artifacts_reverified, 30u);
  EXPECT_EQ(repair.stats().artifacts_reexecuted, 3u);
  EXPECT_EQ(repair.stats().corruptions_repaired, 3u);
  EXPECT_EQ(repair.backlog_artifacts(), 0u);
  repair.FinalizeAccounting(ledger);
  EXPECT_EQ(repair.stats().corruptions_still_at_rest, 0u);
}

TEST(RepairOrchestratorTest, HighestRiskEpochRepairsFirst) {
  // Epoch 5 (closest to the conviction) carries the marked corruption; with budget for only
  // one epoch per tick, it must be repaired before epoch 1.
  BlastRadiusLedger ledger;
  ledger.RecordArtifacts(6, 1, ArtifactKind::kChecksummedWrite, 10, 0);
  ledger.RecordArtifacts(6, 5, ArtifactKind::kChecksummedWrite, 10, 2);
  RepairOptions options = BaseRepairOptions();
  options.repair_budget_per_tick = 10;
  RepairOrchestrator repair(options, Rng(4));
  HealthyPool(repair);
  repair.OnConviction(SimTime::Days(6), 6, ledger);

  repair.Tick(SimTime::Days(6));
  EXPECT_EQ(repair.queued_tasks(), 1u);
  EXPECT_EQ(repair.stats().corruptions_repaired, 2u) << "the newest epoch went first";
}

TEST(RepairOrchestratorTest, DefectiveExecutorRetriesWithBackoffThenAbandons) {
  // Every executor draw is tainted: each repair pass that reaches a corrupt artifact is
  // voided. max_attempts = 3 => two backed-off retries, then the task is abandoned with its
  // corruption accounted as abandoned (and, after finalize, still at rest).
  BlastRadiusLedger ledger;
  ledger.RecordArtifacts(8, 2, ArtifactKind::kChecksummedWrite, 10, 2);
  RepairOrchestrator repair(BaseRepairOptions(), Rng(5));
  DefectivePool(repair);
  repair.OnConviction(SimTime::Days(3), 8, ledger);

  repair.Tick(SimTime::Days(3));
  EXPECT_EQ(repair.stats().retries_scheduled, 1u);
  EXPECT_EQ(repair.stats().defective_executor_retries, 1u);
  EXPECT_EQ(repair.queued_tasks(), 1u);

  // Backoff: the retry is due one full backoff later, not immediately.
  repair.Tick(SimTime::Days(3));
  EXPECT_EQ(repair.stats().defective_executor_retries, 1u) << "retry not due yet";

  repair.Tick(SimTime::Days(4));  // attempt 2 fails, backoff doubles
  EXPECT_EQ(repair.stats().retries_scheduled, 2u);
  repair.Tick(SimTime::Days(5));
  EXPECT_EQ(repair.stats().defective_executor_retries, 2u) << "doubled backoff not due yet";

  repair.Tick(SimTime::Days(6));  // attempt 3 fails => abandoned
  EXPECT_EQ(repair.stats().tasks_abandoned, 1u);
  EXPECT_EQ(repair.stats().corruptions_abandoned, 2u);
  EXPECT_EQ(repair.queued_tasks(), 0u);
  EXPECT_EQ(repair.backlog_artifacts(), 0u);
  EXPECT_EQ(repair.stats().corruptions_repaired, 0u);

  repair.FinalizeAccounting(ledger);
  EXPECT_EQ(repair.stats().corruptions_still_at_rest, 2u);
}

TEST(RepairOrchestratorTest, ReplicatedLogMajorityMasksDefectiveExecutor) {
  // Log epochs repair through the log's own replica majority: even an always-defective
  // executor pool cannot void them, and the path never needs an executor draw.
  BlastRadiusLedger ledger;
  ledger.RecordArtifacts(2, 1, ArtifactKind::kLogEpoch, 12, 4);
  RepairOrchestrator repair(BaseRepairOptions(), Rng(6));
  DefectivePool(repair);
  repair.OnConviction(SimTime::Days(2), 2, ledger);

  repair.Tick(SimTime::Days(2));
  EXPECT_EQ(repair.queued_tasks(), 0u);
  EXPECT_EQ(repair.stats().corruptions_repaired, 4u);
  EXPECT_EQ(repair.stats().defective_executor_retries, 0u);
  EXPECT_EQ(repair.stats().retries_scheduled, 0u);
}

TEST(RepairOrchestratorTest, BacklogBoundShedsOldestEpochsWithAccounting) {
  // 10 epochs x 10 artifacts against a 25-artifact backlog bound: the 8 oldest epochs are
  // shed (with their corruption counted), the 2 newest stay queued.
  BlastRadiusLedger ledger;
  for (uint64_t epoch = 0; epoch < 10; ++epoch) {
    ledger.RecordArtifacts(3, epoch, ArtifactKind::kPlainOutput, 10, 1);
  }
  ledger.NoteSignal(3, SimTime::Days(1));
  RepairOptions options = BaseRepairOptions();
  options.max_backlog_artifacts = 25;
  RepairOrchestrator repair(options, Rng(7));
  HealthyPool(repair);
  repair.OnConviction(SimTime::Days(10), 3, ledger);

  EXPECT_EQ(repair.stats().backlog_peak, 100u) << "peak observed before shedding";
  EXPECT_EQ(repair.stats().epochs_shed, 8u);
  EXPECT_EQ(repair.stats().artifacts_shed, 80u);
  EXPECT_EQ(repair.stats().corruptions_shed, 8u);
  EXPECT_EQ(repair.backlog_artifacts(), 20u);
  EXPECT_EQ(repair.queued_tasks(), 2u);

  repair.Tick(SimTime::Days(10));
  repair.FinalizeAccounting(ledger);
  // Conservation: 10 corrupt total = 2 repaired + 8 shed + 0 at rest.
  EXPECT_EQ(repair.stats().corruptions_repaired, 2u);
  EXPECT_EQ(repair.stats().corruptions_still_at_rest, 0u);
  EXPECT_EQ(repair.stats().corruptions_repaired + repair.stats().corruptions_shed +
                repair.stats().corruptions_still_at_rest,
            ledger.corrupt_recorded());
}

TEST(RepairOrchestratorTest, DisabledOrchestratorIsInert) {
  BlastRadiusLedger ledger;
  ledger.RecordArtifacts(1, 0, ArtifactKind::kPlainOutput, 5, 1);
  RepairOptions options = BaseRepairOptions();
  options.enabled = false;
  RepairOrchestrator repair(options, Rng(8));
  repair.OnConviction(SimTime::Days(1), 1, ledger);
  repair.Tick(SimTime::Days(1));
  repair.FinalizeAccounting(ledger);
  EXPECT_EQ(repair.stats().convictions, 0u);
  EXPECT_EQ(repair.queued_tasks(), 0u);
  EXPECT_EQ(repair.stats().corruptions_still_at_rest, 0u);
}

TEST(RepairOrchestratorTest, ReinstatementCancelsQueuedRepairWork) {
  // Two convicted cores share the queue; core 7 is then reinstated (probation cleared), so
  // its still-queued passes are withdrawn with accounting while core 9's task runs as usual.
  BlastRadiusLedger ledger;
  for (uint64_t epoch = 0; epoch < 5; ++epoch) {
    ledger.RecordArtifacts(7, epoch, ArtifactKind::kChecksummedWrite, 10, 1);
  }
  ledger.NoteSignal(7, SimTime::Days(1));
  ledger.RecordArtifacts(9, 2, ArtifactKind::kPlainOutput, 8, 2);
  ledger.NoteSignal(9, SimTime::Days(1));

  RepairOrchestrator repair(BaseRepairOptions(), Rng(9));
  HealthyPool(repair);
  repair.OnConviction(SimTime::Days(6), 7, ledger);
  repair.OnConviction(SimTime::Days(6), 9, ledger);
  EXPECT_EQ(repair.queued_tasks(), 6u);
  EXPECT_EQ(repair.backlog_artifacts(), 58u);

  repair.OnReinstated(7);
  EXPECT_EQ(repair.stats().reinstated_epochs_cancelled, 5u);
  EXPECT_EQ(repair.stats().reinstated_artifacts_cancelled, 50u);
  EXPECT_EQ(repair.backlog_artifacts(), 8u);
  EXPECT_EQ(repair.queued_tasks(), 1u);

  repair.Tick(SimTime::Days(6));
  repair.FinalizeAccounting(ledger);
  // Conservation: 7 corrupt total = core 9's 2 repaired + core 7's 5 left at rest (the
  // cleared core's artifacts need no pass, so they are at-rest remainder — not shed).
  EXPECT_EQ(repair.stats().corruptions_repaired, 2u);
  EXPECT_EQ(repair.stats().corruptions_shed, 0u);
  EXPECT_EQ(repair.stats().corruptions_still_at_rest, 5u);
  EXPECT_EQ(repair.stats().corruptions_repaired + repair.stats().corruptions_shed +
                repair.stats().corruptions_still_at_rest,
            ledger.corrupt_recorded());

  // A disabled orchestrator ignores reinstatement hooks entirely.
  RepairOptions off = BaseRepairOptions();
  off.enabled = false;
  RepairOrchestrator inert(off, Rng(10));
  inert.OnReinstated(7);
  EXPECT_EQ(inert.stats().reinstated_epochs_cancelled, 0u);
  EXPECT_EQ(inert.stats().reinstated_artifacts_cancelled, 0u);
}

// The orchestrator's journal codec, mid-repair: queued tasks with attempts behind them, the
// once-ever enqueue books of two convicted cores, and repair-path chaos counters.
TEST(RepairOrchestratorTest, DurableCodecRoundTripsAndRefusesPrefixes) {
  BlastRadiusLedger ledger;
  for (uint64_t epoch = 0; epoch < 6; ++epoch) {
    ledger.RecordArtifacts(8, epoch, ArtifactKind::kChecksummedWrite, 10, 2);
    ledger.RecordArtifacts(3, epoch, ArtifactKind::kPlainOutput, 5, 1);
  }
  ledger.NoteSignal(8, SimTime::Days(2));
  RepairOptions options = BaseRepairOptions();
  options.repair_budget_per_tick = 12;
  ChaosOptions chaos;
  chaos.repair_partial = 0.5;
  chaos.repair_fail_reverify = 0.2;
  RepairOrchestrator repair(options, Rng(5), chaos);
  DefectivePool(repair);
  repair.OnConviction(SimTime::Days(6), 8, ledger);
  repair.OnConviction(SimTime::Days(6), 3, ledger);
  repair.Tick(SimTime::Days(6));
  repair.Tick(SimTime::Days(7));
  ASSERT_GT(repair.queued_tasks(), 0u);
  ASSERT_GT(repair.stats().retries_scheduled, 0u);

  ExpectDurableCodecContract(repair, RepairOrchestrator(options, Rng(5), chaos));
}

// --- Audited fleet study under repair chaos ---------------------------------------------------

TEST(BlastRadiusStudyTest, ChaoticRepairConservesEveryInjectedCorruption) {
  // End-to-end acceptance property: with repair-path chaos on and a backlog bound tight
  // enough to force shedding, retries and sheds both occur — and yet every corruption the
  // harness injected is classified as exactly one of repaired / shed / still at rest.
  StudyOptions options;
  options.seed = 20210601;
  options.fleet.machine_count = 200;
  options.fleet.mercurial_rate_multiplier = 250.0;
  options.duration = SimTime::Days(200);
  options.work_units_per_core_day = 20;
  options.workload.payload_bytes = 128;
  options.control_plane.max_retries = 2;
  options.control_plane.retry_backoff = SimTime::Days(1);
  options.audit.enabled = true;
  options.audit.repair_budget_per_tick = 64;
  options.audit.max_backlog_artifacts = 64;
  options.audit.max_attempts = 3;
  options.audit.retry_backoff = SimTime::Days(1);
  options.control_plane.chaos.repair_fail_reverify = 0.05;
  options.control_plane.chaos.repair_on_defective = 0.20;
  options.control_plane.chaos.repair_partial = 0.10;

  FleetStudy study(options);
  const StudyReport report = study.Run();

  ASSERT_TRUE(report.audit_enabled);
  EXPECT_EQ(report.artifacts_tagged, report.work_units_executed)
      << "every production work unit carries a provenance tag";
  ASSERT_GT(report.corruptions_tagged, 0u);
  EXPECT_GT(report.repair.convictions, 0u);
  EXPECT_GT(report.repair.artifacts_reverified, 0u);
  EXPECT_GT(report.repair.retries_scheduled, 0u) << "chaos forces backed-off retries";
  EXPECT_GT(report.repair.epochs_shed, 0u) << "the tight backlog bound forces shedding";
  // Conservation, exactly: nothing double-counted, nothing silently dropped.
  EXPECT_EQ(report.repair.corruptions_repaired + report.repair.corruptions_shed +
                report.repair.corruptions_still_at_rest,
            report.corruptions_tagged);
  // Injected repair-path faults were actually drawn.
  EXPECT_GT(report.repair.chaos.defective_repairs + report.repair.chaos.partial_repairs +
                report.repair.chaos.reverify_misses,
            0u);
}

}  // namespace
}  // namespace mercurial
