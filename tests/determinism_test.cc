// Determinism-equivalence harness for the sharded parallel fleet engine.
//
// The whole repro's credibility rests on seeded determinism (DESIGN.md; fleet.h's header
// contract), so the parallel engine is proven equivalent by test, not by assertion:
//
//   D1. Thread-count invariance: the same StudyOptions (shards fixed) produce a StudyReport
//       that is EXACTLY equal — every counter, every weekly bucket, every histogram bin,
//       every floating-point cost accumulator — at threads = 1, 2, and 8.
//   D3. Replays: a study replayed with the same options matches itself at shards 1 and 8
//       (the engine is a pure function of StudyOptions).
//   D4. The thread knob is execution-only: thread pool sizes beyond the shard count are
//       clamped and still reproduce the shards-fixed result.
//   D5. Fast-path equivalence: the dispatch fast path (armed-defect caching, pooled shard
//       deltas) produces a StudyReport EXACTLY equal to the reference path — per op
//       environment + FireProbability recomputation — across seeds, chaos settings, and
//       thread counts. This is the RNG-stream-neutrality obligation of the hot-path overhaul
//       (DESIGN.md, "Decision: hot-path caching must be RNG-stream neutral").
//   D8. Golden traces: with the incident flight recorder on, the SERIALIZED trace — every
//       event, byte for byte — is identical across threads {1, 2, 8} for every combination of
//       chaos {off, high} x audit {on, off}; and tracing is an observer: enabling it leaves
//       every legacy StudyReport field bit-identical to a tracing-off run.
//   D9. Quorum + probation invariance: with quorum interrogation, probation/reinstatement, and
//       testimony chaos all armed, the report — including every quorum, probation, and verdict
//       chaos counter — stays bit-identical across threads {1, 2, 8}. All verdict machinery
//       runs in the serial phase on dedicated streams, so threads remain execution-only.
//   D10. Sparse-engine equivalence: the due-wheel + active-index sparse tick engine produces
//       a StudyReport (including trace bytes, quorum, audit, and probation fields) EXACTLY
//       equal to the dense reference oracle, across 3 seeds x chaos {off, high} x audit
//       {off, on} x shards {1, 8} x threads {1, 2, 8} (threads <= shards). This is the
//       stream-neutrality obligation of the sparse overhaul (DESIGN.md, "Decision: sparsity
//       is free when streams are counter-keyed"): skipped cores draw nothing, so visiting
//       only due/active cores cannot shift any stream.
//   D11. Crash-recovery equivalence: with the write-ahead journal on and the controller
//       killed and recovered after every k-th tick (k in {1, 7, 64}), the report — including
//       serialized trace bytes — is EXACTLY equal to an uncrashed run, across threads
//       {1, 2, 8} x {sparse, dense} x chaos {off, high}. And durability itself is an
//       observer: enabled with no crash due, it is bit-invisible to every report field.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/thread_pool.h"
#include "src/core/fleet_study.h"
#include "src/sim/core.h"

namespace mercurial {
namespace {

StudyOptions HarnessOptions(int shards, int threads) {
  StudyOptions options;
  options.seed = 20210531;
  options.fleet.machine_count = 120;
  options.fleet.mercurial_rate_multiplier = 150.0;  // enough mercurial cores to exercise paths
  options.fleet.future_install_spread = SimTime::Days(60);  // fleet growth during the study
  options.workload.payload_bytes = 256;
  options.work_units_per_core_day = 20;
  options.duration = SimTime::Days(150);
  options.screening.offline_period = SimTime::Days(30);
  options.shards = shards;
  options.threads = threads;
  return options;
}

StudyReport RunStudy(const StudyOptions& options) {
  FleetStudy study(options);
  return study.Run();
}

// The equivalence oracle: StudyReport's defaulted operator== covers every field, the trace
// included. The blocks are compared first so that a failure names the one that diverged.
void ExpectReportsEqual(const StudyReport& a, const StudyReport& b) {
  EXPECT_TRUE(a.quarantine == b.quarantine) << "quarantine diverged";
  EXPECT_TRUE(a.control_plane == b.control_plane) << "control_plane diverged";
  EXPECT_TRUE(a.scheduler == b.scheduler) << "scheduler diverged";
  EXPECT_TRUE(a.repair == b.repair) << "repair diverged";
  EXPECT_TRUE(a.trace == b.trace) << "trace diverged";
  EXPECT_TRUE(a.durability == b.durability) << "durability diverged";
  EXPECT_TRUE(a == b) << "report diverged";
}

// Sanity: the harness options actually exercise the machinery (otherwise equality over empty
// reports would prove nothing).
TEST(DeterminismTest, HarnessOptionsExerciseTheStack) {
  const StudyReport report = RunStudy(HarnessOptions(/*shards=*/8, /*threads=*/2));
  EXPECT_GT(report.true_mercurial_cores, 0u);
  EXPECT_GT(report.work_units_executed, 0u);
  EXPECT_GT(report.screening_ops, 0u);
  uint64_t observable = 0;
  for (int s = 1; s < kSymptomCount; ++s) {
    observable += report.symptom_counts[s];
  }
  EXPECT_GT(observable, 0u);
}

// D1: bit-identical across threads = 1, 2, 8 with the shard count held fixed. The engine
// counters the study exports through metrics() are summed in shard order like the report, so
// they match too.
TEST(DeterminismTest, ReportIsThreadCountInvariant) {
  FleetStudy one(HarnessOptions(/*shards=*/8, /*threads=*/1));
  const StudyReport one_report = one.Run();
  for (const int threads : {2, 8}) {
    SCOPED_TRACE("threads=1 vs threads=" + std::to_string(threads));
    FleetStudy other(HarnessOptions(/*shards=*/8, threads));
    ExpectReportsEqual(one_report, other.Run());
    EXPECT_EQ(one.metrics().counters(), other.metrics().counters());
    EXPECT_EQ(one.metrics().gauges(), other.metrics().gauges());
  }
}

// D3: the engine is a pure function of StudyOptions, at one shard and at eight.
TEST(DeterminismTest, ShardedEngineIsSeedDeterministic) {
  for (const int shards : {1, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const int threads = std::min(shards, 4);
    const StudyReport first = RunStudy(HarnessOptions(shards, threads));
    const StudyReport second = RunStudy(HarnessOptions(shards, threads));
    ExpectReportsEqual(first, second);
  }
}

// D4: threads beyond the shard count clamp and cannot perturb results.
TEST(DeterminismTest, ExcessThreadsClampToShardCount) {
  const StudyReport ref = RunStudy(HarnessOptions(/*shards=*/4, /*threads=*/4));
  const StudyReport oversubscribed = RunStudy(HarnessOptions(/*shards=*/4, /*threads=*/64));
  ExpectReportsEqual(ref, oversubscribed);
}

// --- D5: fast-path equivalence ---------------------------------------------------------------

// Restores the process-wide fast-path default on scope exit. SimCore captures the flag at
// construction, so the value must be set before FleetStudy's constructor builds the fleet.
class ScopedFastPath {
 public:
  explicit ScopedFastPath(bool enabled) : previous_(DispatchFastPathEnabled()) {
    SetDispatchFastPath(enabled);
  }
  ~ScopedFastPath() { SetDispatchFastPath(previous_); }

 private:
  bool previous_;
};

// Smaller than HarnessOptions (the matrix below runs 8 studies per seed) but still exercising
// production symptoms, screening sweeps, quarantine, and — with `chaos` — the whole resilient
// control plane, whose retry/abort draws ride on interrogation batteries run through SimCore.
StudyOptions FastPathHarness(uint64_t seed, bool chaos, int threads) {
  StudyOptions options;
  options.seed = seed;
  options.fleet.seed = seed ^ 0x5eedf1ee7ull;
  options.fleet.machine_count = 80;
  options.fleet.mercurial_rate_multiplier = 150.0;
  options.workload.payload_bytes = 256;
  options.work_units_per_core_day = 20;
  options.duration = SimTime::Days(100);
  options.screening.offline_period = SimTime::Days(25);
  options.shards = 8;
  options.threads = threads;
  if (chaos) {
    options.control_plane.max_pending = 64;
    options.control_plane.max_retries = 3;
    options.control_plane.retry_backoff = SimTime::Days(1);
    options.control_plane.drain_latency = SimTime::Hours(12);
    options.control_plane.drain_timeout = SimTime::Days(4);
    options.control_plane.quarantine_budget_fraction = 0.25;
    options.control_plane.chaos.drop_report = 0.30;
    options.control_plane.chaos.duplicate_report = 0.20;
    options.control_plane.chaos.delay_report = 0.20;
    options.control_plane.chaos.abort_interrogation = 0.50;
    options.control_plane.chaos.machine_restart_per_day = 0.50;
  }
  return options;
}

void ExpectFastPathMatchesReference(bool chaos) {
  for (const uint64_t seed : {uint64_t{7}, uint64_t{20210531}, uint64_t{424242}}) {
    StudyReport reference;
    {
      ScopedFastPath off(false);
      reference = RunStudy(FastPathHarness(seed, chaos, /*threads=*/1));
    }
    for (const int threads : {1, 2, 8}) {
      ScopedFastPath on(true);
      SCOPED_TRACE("seed=" + std::to_string(seed) + " chaos=" + (chaos ? "high" : "off") +
                   " threads=" + std::to_string(threads));
      const StudyReport fast = RunStudy(FastPathHarness(seed, chaos, threads));
      ExpectReportsEqual(reference, fast);
    }
  }
}

// D5a: fast path on/off bit-identical for 3 seeds x threads {1, 2, 8}, chaos off.
TEST(DeterminismTest, FastPathMatchesReferencePath) {
  ExpectFastPathMatchesReference(/*chaos=*/false);
}

// D5b: same, with the chaos injector at the bench's "high" setting, so delayed/duplicated
// reports, aborted interrogations, and machine restarts all flow through the cached dispatch.
TEST(DeterminismTest, FastPathMatchesReferencePathUnderChaos) {
  ExpectFastPathMatchesReference(/*chaos=*/true);
}

// --- D6/D7: blast-radius audit determinism ---------------------------------------------------

// Audit-enabled harness: convictions happen (retries convert low-reproducibility defects), the
// repair budget is small enough that backlogs span ticks, and repair-path chaos is armed so
// the orchestrator's own RNG stream is exercised, not idle.
StudyOptions AuditHarness(int shards, int threads) {
  StudyOptions options = HarnessOptions(shards, threads);
  options.control_plane.max_retries = 2;
  options.control_plane.retry_backoff = SimTime::Days(1);
  options.audit.enabled = true;
  options.audit.repair_budget_per_tick = 256;
  options.audit.max_attempts = 3;
  options.audit.retry_backoff = SimTime::Days(1);
  options.control_plane.chaos.repair_fail_reverify = 0.02;
  options.control_plane.chaos.repair_on_defective = 0.10;
  options.control_plane.chaos.repair_partial = 0.10;
  return options;
}

// D6: with auditing + repair chaos on, the report (including every repair/escape counter) is
// bit-identical across thread counts — the ledger merges in shard order and the orchestrator
// runs serially on a dedicated stream, so threads stay execution-only.
TEST(DeterminismTest, AuditedReportIsThreadCountInvariant) {
  const StudyReport one = RunStudy(AuditHarness(/*shards=*/8, /*threads=*/1));
  const StudyReport two = RunStudy(AuditHarness(/*shards=*/8, /*threads=*/2));
  const StudyReport eight = RunStudy(AuditHarness(/*shards=*/8, /*threads=*/8));
  EXPECT_TRUE(one.audit_enabled);
  EXPECT_GT(one.artifacts_tagged, 0u);
  {
    SCOPED_TRACE("audited threads=1 vs threads=2");
    ExpectReportsEqual(one, two);
  }
  {
    SCOPED_TRACE("audited threads=1 vs threads=8");
    ExpectReportsEqual(one, eight);
  }
}

// D7: auditing is an observer. Turning it on must not change any legacy field of the report —
// the ledger taps existing events, the conviction hook rides existing verdicts, and the
// orchestrator draws only from its own Split stream. At one shard and at eight.
TEST(DeterminismTest, AuditIsBitInvisibleToLegacyReport) {
  for (const int shards : {1, 8}) {
    StudyOptions audited = AuditHarness(shards, /*threads=*/shards == 1 ? 1 : 2);
    StudyOptions plain = audited;
    plain.audit = RepairOptions{};  // disabled, all defaults
    SCOPED_TRACE("shards=" + std::to_string(shards));
    StudyReport on = RunStudy(audited);
    const StudyReport off = RunStudy(plain);
    EXPECT_TRUE(on.audit_enabled);
    EXPECT_FALSE(off.audit_enabled);
    EXPECT_GT(on.artifacts_tagged, 0u);
    // Strip the audit-only fields; everything that remains must match exactly.
    on.audit_enabled = false;
    on.artifacts_tagged = 0;
    on.corruptions_tagged = 0;
    on.repair = RepairStats{};
    ExpectReportsEqual(on, off);
  }
}

// --- D8: golden-trace determinism ------------------------------------------------------------

// Flight-recorder harness: the FastPathHarness matrix (whose chaos knobs exercise the whole
// resilient control plane) plus optional auditing, with tracing on. Shards stay fixed at 8 —
// the shard count is part of the experiment's identity; threads must be execution-only.
StudyOptions TraceHarness(bool chaos, bool audit, int threads) {
  StudyOptions options = FastPathHarness(/*seed=*/20210531, chaos, threads);
  if (audit) {
    options.audit.enabled = true;
    options.audit.repair_budget_per_tick = 256;
    options.audit.max_attempts = 3;
    options.audit.retry_backoff = SimTime::Days(1);
    options.control_plane.chaos.repair_fail_reverify = 0.02;
    options.control_plane.chaos.repair_on_defective = 0.10;
    options.control_plane.chaos.repair_partial = 0.10;
  }
  options.trace.enabled = true;
  return options;
}

// D8a: the assembled trace serializes to the same bytes at any thread count, for every
// chaos x audit combination. Byte equality of the CRC-framed codec output is the strongest
// equality there is: event order, stamps, causes, details, and conservation counters all
// included.
TEST(DeterminismTest, GoldenTraceIsThreadCountInvariant) {
  for (const bool chaos : {false, true}) {
    for (const bool audit : {false, true}) {
      SCOPED_TRACE(std::string("chaos=") + (chaos ? "high" : "off") +
                   " audit=" + (audit ? "on" : "off"));
      const StudyReport one = RunStudy(TraceHarness(chaos, audit, /*threads=*/1));
      const std::vector<uint8_t> golden = SerializeTrace(one.trace);
      ASSERT_GT(one.trace.events.size(), 0u) << "harness recorded no events";
      EXPECT_EQ(one.trace.counters.events_recorded + one.trace.counters.events_dropped,
                one.trace.counters.events_emitted);
      for (const int threads : {2, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        const StudyReport other = RunStudy(TraceHarness(chaos, audit, threads));
        EXPECT_EQ(golden, SerializeTrace(other.trace));
      }
    }
  }
}

// D8b: tracing is an observer. The recorder consumes no randomness and emission sits off the
// decision paths, so every legacy report field must be bit-identical with tracing on vs off —
// at one shard and at eight.
TEST(DeterminismTest, TracingIsBitInvisibleToLegacyReport) {
  for (const int shards : {1, 8}) {
    StudyOptions traced = TraceHarness(/*chaos=*/true, /*audit=*/true,
                                       /*threads=*/shards == 1 ? 1 : 2);
    traced.shards = shards;
    StudyOptions plain = traced;
    plain.trace = TraceOptions{};  // disabled, all defaults
    SCOPED_TRACE("shards=" + std::to_string(shards));
    StudyReport on = RunStudy(traced);
    const StudyReport off = RunStudy(plain);
    EXPECT_GT(on.trace.events.size(), 0u);
    EXPECT_TRUE(off.trace.events.empty());
    // Strip the trace-only output; everything that remains must match exactly.
    on.trace = IncidentTrace{};
    ExpectReportsEqual(on, off);
  }
}

// --- D9: quorum + probation determinism ------------------------------------------------------

// The FastPathHarness matrix with the untrusted-interrogator stack armed: quorum witnesses,
// probation with reinstatement, and (in the chaos arm) lying witnesses, witness crashes, and
// suppressed probation signals.
StudyOptions QuorumHarness(bool chaos, int threads) {
  StudyOptions options = FastPathHarness(/*seed=*/20210531, chaos, threads);
  options.fleet.mercurial_rate_multiplier = 400.0;  // enough convictions to matter
  options.quarantine.recidivism_retire_after = 2;   // a chaos-free weak-evidence source
  options.control_plane.quorum.enabled = true;
  options.control_plane.quorum.witnesses = 3;
  options.control_plane.quorum.witness_error_rate = 0.30;
  options.control_plane.probation.enabled = true;
  options.control_plane.probation.window = SimTime::Days(5);
  options.control_plane.probation.clean_windows_to_reinstate = 2;
  options.control_plane.probation.weak_after_attempts = 1;
  if (chaos) {
    options.control_plane.chaos.lying_witness = 0.15;
    options.control_plane.chaos.witness_crash = 0.10;
    options.control_plane.chaos.probation_suppress = 0.25;
  }
  return options;
}

// D9: quorum verdicts, probation windows, and reinstatement all happen in the serial phase on
// dedicated Split streams, so the full report is bit-identical across thread counts whether
// testimony chaos is off or high.
TEST(DeterminismTest, QuorumProbationReportIsThreadCountInvariant) {
  for (const bool chaos : {false, true}) {
    SCOPED_TRACE(std::string("chaos=") + (chaos ? "high" : "off"));
    const StudyReport one = RunStudy(QuorumHarness(chaos, /*threads=*/1));
    EXPECT_GT(one.control_plane.quorum.judgments, 0u)
        << "harness produced no quorum judgments; invariance is vacuous";
    EXPECT_GT(one.quarantine.probation_entries, 0u)
        << "harness produced no probation entries; invariance is vacuous";
    for (const int threads : {2, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const StudyReport other = RunStudy(QuorumHarness(chaos, threads));
      ExpectReportsEqual(one, other);
    }
  }
}

// --- D10: sparse-engine equivalence ----------------------------------------------------------

// The widest harness in this file: fleet growth (install-time wheel reschedules), chaos
// (guardrail throttles -> wheel rebucketing), quorum + probation (reinstatement churn in the
// scanned set), recidivism retirement (index removals), optional audit, and tracing always on
// (the trace is part of the report, so every event is compared).
StudyOptions SparseHarness(uint64_t seed, bool chaos, bool audit, bool sparse, int shards,
                           int threads) {
  StudyOptions options = FastPathHarness(seed, chaos, threads);
  options.fleet.future_install_spread = SimTime::Days(40);
  options.fleet.mercurial_rate_multiplier = 400.0;
  options.quarantine.recidivism_retire_after = 2;
  options.control_plane.quorum.enabled = true;
  options.control_plane.quorum.witnesses = 3;
  options.control_plane.quorum.witness_error_rate = 0.30;
  options.control_plane.probation.enabled = true;
  options.control_plane.probation.window = SimTime::Days(5);
  options.control_plane.probation.clean_windows_to_reinstate = 2;
  options.control_plane.probation.weak_after_attempts = 1;
  if (chaos) {
    options.control_plane.chaos.lying_witness = 0.15;
    options.control_plane.chaos.witness_crash = 0.10;
    options.control_plane.chaos.probation_suppress = 0.25;
    // Far tighter than FastPathHarness's 0.25: pending isolation peaks at ~3 cores on this
    // fleet, so the budget must round down to a single core for the guardrail to ever engage
    // and throttle offline screens — exercising the sparse path's due-wheel window extraction.
    options.control_plane.quarantine_budget_fraction = 0.0005;
  }
  if (audit) {
    options.audit.enabled = true;
    options.audit.repair_budget_per_tick = 256;
    options.audit.max_attempts = 3;
    options.audit.retry_backoff = SimTime::Days(1);
    options.control_plane.chaos.repair_fail_reverify = 0.02;
    options.control_plane.chaos.repair_on_defective = 0.10;
    options.control_plane.chaos.repair_partial = 0.10;
  }
  options.trace.enabled = true;
  options.sparse_engine = sparse;
  options.shards = shards;
  options.threads = threads;
  return options;
}

// D10a: sparse == dense, full matrix. The dense run (sparse_engine = false) is the reference
// oracle; the sparse engine must reproduce it bit-for-bit at every shard and thread count.
// A single shard owns one wheel spanning the whole fleet, the partition's degenerate case.
TEST(DeterminismTest, SparseEngineMatchesDenseOracle) {
  for (const uint64_t seed : {uint64_t{7}, uint64_t{20210531}, uint64_t{424242}}) {
    for (const bool chaos : {false, true}) {
      for (const bool audit : {false, true}) {
        for (const int shards : {1, 8}) {
          SCOPED_TRACE("seed=" + std::to_string(seed) + " chaos=" + (chaos ? "high" : "off") +
                       " audit=" + (audit ? "on" : "off") +
                       " shards=" + std::to_string(shards));
          const StudyReport dense = RunStudy(
              SparseHarness(seed, chaos, audit, /*sparse=*/false, shards, /*threads=*/1));
          ASSERT_GT(dense.trace.events.size(), 0u) << "harness recorded no events";
          for (const int threads : {1, 2, 8}) {
            if (threads > shards) {
              break;  // clamped to the shard count: a repeat of a row already run
            }
            SCOPED_TRACE("threads=" + std::to_string(threads));
            const StudyReport sparse = RunStudy(
                SparseHarness(seed, chaos, audit, /*sparse=*/true, shards, threads));
            ExpectReportsEqual(dense, sparse);
          }
        }
      }
    }
  }
}

// D10c: the harness actually exercises what the engine claims to sparsify — without
// retirements and fleet growth, D10a would pass vacuously on the hard cases.
TEST(DeterminismTest, SparseHarnessExercisesTheHardPaths) {
  const StudyReport report = RunStudy(SparseHarness(/*seed=*/20210531, /*chaos=*/true,
                                                    /*audit=*/true, /*sparse=*/true,
                                                    /*shards=*/8, /*threads=*/2));
  EXPECT_GT(report.quarantine.retirements, 0u) << "no index removals exercised";
  EXPECT_GT(report.quarantine.probation_entries, 0u) << "no probation churn exercised";
  EXPECT_GT(report.control_plane.screening_deferrals, 0u)
      << "no guardrail throttle -> wheel rebucketing exercised"
      << " peak_iso=" << report.control_plane.peak_pending_isolation
      << " activations=" << report.control_plane.guardrail_activations
      << " releases=" << report.control_plane.guardrail_releases
      << " cores=" << report.cores;
}

// Report equality is total: one changed field anywhere in a traced, audited, chaotic report —
// including the fields the old hand-written comparison lists skipped — makes it unequal.
TEST(DeterminismTest, ReportEqualityCoversEveryBlock) {
  const StudyReport report = RunStudy(SparseHarness(/*seed=*/20210531, /*chaos=*/true,
                                                    /*audit=*/true, /*sparse=*/true,
                                                    /*shards=*/8, /*threads=*/2));
  ASSERT_TRUE(report.audit_enabled);
  ASSERT_FALSE(report.trace.events.empty());
  EXPECT_TRUE(report == StudyReport(report));
  using Perturbation = void (*)(StudyReport&);
  const Perturbation perturbations[] = {
      [](StudyReport& r) { ++r.quarantine.accusations; },
      [](StudyReport& r) { ++r.control_plane.chaos.machine_restarts; },
      [](StudyReport& r) { ++r.repair.reinstated_artifacts_cancelled; },
      [](StudyReport& r) { ++r.repair.chaos.reports_dropped; },
      [](StudyReport& r) { r.scheduler.screen_migration_cost_by_tier[2] += 1.0; },
      [](StudyReport& r) { r.detection_latency_days.Add(1.0); },
      [](StudyReport& r) { ++r.trace.events.back().detail; },
      [](StudyReport& r) { r.durability.enabled = !r.durability.enabled; },
  };
  for (size_t i = 0; i < std::size(perturbations); ++i) {
    StudyReport changed = report;
    perturbations[i](changed);
    EXPECT_FALSE(changed == report) << "perturbation " << i << " went unnoticed";
  }
}

// --- D11: crash-recovery equivalence ---------------------------------------------------------

// The D10 harness (quorum + probation + audit + tracing, chaos optional) with the write-ahead
// journal on and the controller crashed-and-recovered after every k-th tick. Clean crashes
// only: the journal is intact, so every recovery must be exact and bit-identical.
StudyOptions CrashHarness(bool chaos, bool sparse, int threads, int crash_every) {
  StudyOptions options = SparseHarness(/*seed=*/20210531, chaos, /*audit=*/true, sparse,
                                       /*shards=*/8, threads);
  options.durability.enabled = true;
  options.control_plane.chaos.controller_crash_every_ticks = crash_every;
  return options;
}

// D11a: a controller that dies after every k-th tick and recovers from the journal finishes
// the study with EXACTLY the report — and the trace bytes — of a controller that never died,
// for every k x thread-count x engine x chaos combination. LoadDurableState must therefore
// round-trip every bit of controller state: one forgotten field diverges this matrix.
TEST(DeterminismTest, CrashedControllerRecoversBitIdentically) {
  for (const bool chaos : {false, true}) {
    for (const bool sparse : {false, true}) {
      SCOPED_TRACE(std::string("chaos=") + (chaos ? "high" : "off") +
                   " engine=" + (sparse ? "sparse" : "dense"));
      const StudyReport uncrashed = RunStudy(SparseHarness(
          /*seed=*/20210531, chaos, /*audit=*/true, sparse, /*shards=*/8, /*threads=*/1));
      ASSERT_GT(uncrashed.trace.events.size(), 0u) << "harness recorded no events";
      for (const int crash_every : {1, 7, 64}) {
        for (const int threads : {1, 2, 8}) {
          SCOPED_TRACE("crash_every=" + std::to_string(crash_every) +
                       " threads=" + std::to_string(threads));
          StudyReport crashed = RunStudy(CrashHarness(chaos, sparse, threads, crash_every));
          ASSERT_GT(crashed.durability.controller_crashes, 0u);
          EXPECT_EQ(crashed.durability.recoveries, crashed.durability.controller_crashes);
          EXPECT_EQ(crashed.durability.recoveries, crashed.durability.exact_recoveries)
              << "a clean crash must recover exactly";
          EXPECT_EQ(crashed.durability.frames_truncated, 0u);
          EXPECT_EQ(crashed.durability.reconcile_released_unknown +
                        crashed.durability.reconcile_reinstated_unknown +
                        crashed.durability.reconcile_dropped_pending +
                        crashed.durability.reconcile_dropped_probation,
                    0u)
              << "exact recovery must never need fleet reconciliation";
          // Strip the crash accounting; every simulation field must match the uncrashed run.
          crashed.durability = DurabilityStats{};
          ExpectReportsEqual(uncrashed, crashed);
        }
      }
    }
  }
}

// D11b: durability is an observer. Journaling consumes no randomness and the crash stream is
// stateless per tick, so enabling the journal with no crash due leaves every report field and
// every trace byte identical to a durability-off run — at one shard and at eight.
TEST(DeterminismTest, DurabilityIsBitInvisibleWithoutCrashes) {
  for (const int shards : {1, 8}) {
    StudyOptions durable = SparseHarness(/*seed=*/20210531, /*chaos=*/true, /*audit=*/true,
                                         /*sparse=*/true, shards,
                                         /*threads=*/shards == 1 ? 1 : 2);
    durable.durability.enabled = true;
    StudyOptions plain = durable;
    plain.durability = DurabilityOptions{};  // disabled, all defaults
    SCOPED_TRACE("shards=" + std::to_string(shards));
    StudyReport on = RunStudy(durable);
    const StudyReport off = RunStudy(plain);
    EXPECT_TRUE(on.durability.enabled);
    EXPECT_FALSE(off.durability.enabled);
    EXPECT_GT(on.durability.frames_written, 0u);
    EXPECT_EQ(on.durability.recoveries, 0u);
    // Strip the journal accounting; everything that remains must match exactly.
    on.durability = DurabilityStats{};
    ExpectReportsEqual(on, off);
  }
}

// --- D12: risk-adaptive screening determinism -------------------------------------------------

// The D10 harness (fleet growth, quorum + probation churn, optional chaos, tracing on) with
// the risk-adaptive allocator armed under a budget tight enough that every tick defers work —
// the admission cutoff, the risk-scaled reschedules, and the tiered batteries all live on the
// determinism-critical path. The plan phase is serial in BOTH engines and scores in ascending
// core order, so threads must stay execution-only.
StudyOptions AdaptiveHarness(bool chaos, bool sparse, int threads) {
  StudyOptions options = SparseHarness(/*seed=*/20210531, chaos, /*audit=*/false, sparse,
                                       /*shards=*/8, threads);
  options.screening.adaptive = true;
  options.screening.budget_ops_per_day = 1'000'000;  // ~half the fleet's steady-state demand
  options.screening.adaptive_min_period = SimTime::Days(5);
  options.screening.adaptive_max_period = SimTime::Days(40);
  return options;
}

// D12a: adaptive reports — including the per-tier drain/migration-cost views and the trace
// bytes (plan-phase kRiskRescore events included) — are bit-identical across threads
// {1, 2, 8} x {sparse, dense} x chaos {off, high}.
TEST(DeterminismTest, AdaptiveScreeningReportIsThreadCountInvariant) {
  for (const bool chaos : {false, true}) {
    for (const bool sparse : {false, true}) {
      SCOPED_TRACE(std::string("chaos=") + (chaos ? "high" : "off") +
                   " engine=" + (sparse ? "sparse" : "dense"));
      const StudyReport one = RunStudy(AdaptiveHarness(chaos, sparse, /*threads=*/1));
      ASSERT_GT(one.trace.events.size(), 0u) << "harness recorded no events";
      for (const int threads : {2, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        const StudyReport other = RunStudy(AdaptiveHarness(chaos, sparse, threads));
        ExpectReportsEqual(one, other);
      }
    }
  }
}

// D12b: the harness actually exercises budget pressure and the tier machinery — without
// deferrals and tiered admissions, D12a would pass vacuously.
TEST(DeterminismTest, AdaptiveHarnessExercisesBudgetPressure) {
  FleetStudy study(AdaptiveHarness(/*chaos=*/false, /*sparse=*/true, /*threads=*/2));
  const StudyReport report = study.Run();
  EXPECT_GT(study.metrics().counter("screening.risk_admitted"), 0u);
  EXPECT_GT(study.metrics().counter("screening.risk_deferred"), 0u)
      << "budget never bound; the admission cutoff went unexercised";
  uint64_t tier_drains = 0;
  for (int t = 0; t < kScreenRiskTierCount; ++t) {
    tier_drains += report.scheduler.screen_drains_by_tier[t];
  }
  EXPECT_GT(tier_drains, 0u) << "no tiered screens reached the scheduler";
  EXPECT_GT(report.screening_ops, 0u);
}

// D12c: adaptive = false is bit-invisible. Every new knob set to non-default values while the
// master switch stays off must leave the legacy report — trace bytes included — byte-for-byte
// identical to a run with pure default screening knobs: the allocator may not touch a single
// stream, counter, or schedule when disabled.
TEST(DeterminismTest, AdaptiveOffIsBitInvisibleToLegacyReport) {
  for (const int shards : {1, 8}) {
    StudyOptions knobbed = SparseHarness(/*seed=*/20210531, /*chaos=*/true, /*audit=*/false,
                                         /*sparse=*/true, shards,
                                         /*threads=*/shards == 1 ? 1 : 2);
    StudyOptions plain = knobbed;
    knobbed.screening.adaptive = false;  // master switch off; everything else cranked
    knobbed.screening.budget_ops_per_day = 123456;
    knobbed.screening.adaptive_min_period = SimTime::Days(3);
    knobbed.screening.adaptive_max_period = SimTime::Days(33);
    knobbed.screening.risk_warm = 0.5;
    knobbed.screening.risk_hot = 2.0;
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const StudyReport on = RunStudy(knobbed);
    const StudyReport off = RunStudy(plain);
    ExpectReportsEqual(on, off);
    for (int t = 0; t < kScreenRiskTierCount; ++t) {
      EXPECT_EQ(off.scheduler.screen_drains_by_tier[t], 0u)
          << "legacy runs must never account tiered drains";
    }
  }
}

// --- Background-noise draw accounting (stream pin) -------------------------------------------

// EmitBackgroundNoiseShard's contract: the uniform core pick is drawn BEFORE the Installed
// check, and an uninstalled pick consumes exactly that one draw (the signal-type NextDouble
// is skipped). This test pins the contract by replaying the production/noise stream from
// first principles — same seed, salt, shard, tick — and demanding the study's traced noise
// signals match the replay event for event while fleet growth is thinning the noise. Any
// reordering of the pick draw, or any draw added/removed on the uninstalled path, diverges.
void ExpectBackgroundNoiseMatchesReplay(int shards) {
  StudyOptions options;
  options.seed = 20210531;
  options.fleet.machine_count = 8;
  options.fleet.seed = 99;
  options.fleet.mercurial_rate_multiplier = 0.0;  // no mercurial cores: noise draws lead
  // Most machines install DURING the study, so uninstalled picks (the one-draw skip path
  // under test) are common in the first half.
  options.fleet.install_spread = SimTime::Days(20);
  options.fleet.future_install_spread = SimTime::Days(60);
  options.duration = SimTime::Days(80);
  options.background_signal_rate_per_core_day = 0.02;
  options.shards = shards;
  options.threads = 1;
  options.trace.enabled = true;

  FleetStudy study(options);
  const Fleet& fleet = study.fleet();
  ASSERT_TRUE(fleet.mercurial_cores().empty())
      << "replay assumes the production pass consumes no draws before the noise pass";
  const StudyReport report = study.Run();

  // Replay the per-(shard, tick) production streams. With zero mercurial cores the noise
  // draws are the first draws on each stream. Install times are construction state, so the
  // study's own fleet serves as the replay's layout oracle.
  const std::vector<ShardRange> ranges = PartitionCores(fleet.core_count(), options.shards);
  struct NoiseEvent {
    int64_t time_seconds;
    uint64_t core;
    uint64_t type;
  };
  std::vector<NoiseEvent> expected;
  uint64_t skipped_uninstalled = 0;
  const int64_t ticks = options.duration.seconds() / options.tick.seconds();
  for (int64_t t = 0; t < ticks; ++t) {
    const SimTime now = SimTime::Seconds((t + 1) * options.tick.seconds());
    for (size_t k = 0; k < ranges.size(); ++k) {
      Rng rng(DeriveStreamSeed(options.seed ^ kProductionStreamSalt, k,
                               static_cast<uint64_t>(t)));
      const uint64_t span = ranges[k].end - ranges[k].begin;
      const double mean = static_cast<double>(span) *
                          options.background_signal_rate_per_core_day *
                          options.tick.days();
      const uint64_t events = rng.Poisson(mean);
      for (uint64_t e = 0; e < events; ++e) {
        const uint64_t core = ranges[k].begin + rng.UniformInt(0, span - 1);
        if (!fleet.Installed(core, now)) {
          ++skipped_uninstalled;  // exactly one draw consumed: the pick above
          continue;
        }
        const double draw = rng.NextDouble();
        uint64_t type = static_cast<uint64_t>(SignalType::kCrash);
        if (draw < 0.15) {
          type = static_cast<uint64_t>(SignalType::kSanitizer);
        } else if (draw < 0.30) {
          type = static_cast<uint64_t>(SignalType::kAppReport);
        }
        expected.push_back({now.seconds(), core, type});
      }
    }
  }
  ASSERT_GT(skipped_uninstalled, 0u) << "growth never thinned the noise; pin is vacuous";
  ASSERT_GT(expected.size(), 0u);

  std::vector<NoiseEvent> traced;
  for (const TraceEvent& event : report.trace.events) {
    if (event.kind == TraceEventKind::kSignalEmitted &&
        event.cause == TraceCause::kBackgroundNoise) {
      traced.push_back({event.time_seconds, event.core, event.detail});
    }
  }
  ASSERT_EQ(traced.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(traced[i].time_seconds, expected[i].time_seconds) << "event " << i;
    EXPECT_EQ(traced[i].core, expected[i].core) << "event " << i;
    EXPECT_EQ(traced[i].type, expected[i].type) << "event " << i;
  }
}

TEST(DeterminismTest, BackgroundNoiseDrawAccountingIsPinnedUnderFleetGrowth) {
  // One shard and two: a single shard draws from the same (seed, shard 0, tick) streams as
  // any other partition's first shard.
  for (const int shards : {1, 2}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ExpectBackgroundNoiseMatchesReplay(shards);
  }
}

// Different seeds must (overwhelmingly) give different studies — guards against the harness
// comparing constants.
TEST(DeterminismTest, DifferentSeedsDiverge) {
  StudyOptions a = HarnessOptions(/*shards=*/8, /*threads=*/2);
  StudyOptions b = a;
  b.seed = a.seed + 1;
  b.fleet.seed = a.fleet.seed + 1;
  const StudyReport ra = RunStudy(a);
  const StudyReport rb = RunStudy(b);
  EXPECT_NE(ra.work_units_executed, rb.work_units_executed);
}

// The thread pool itself: every index runs exactly once, under any thread count.
TEST(DeterminismTest, ThreadPoolRunsEachIndexExactlyOnce) {
  for (const size_t threads : {size_t{1}, size_t{3}, size_t{16}}) {
    ThreadPool pool(threads);
    constexpr size_t kN = 1000;
    std::vector<std::atomic<uint32_t>> hits(kN);
    for (auto& h : hits) {
      h.store(0);
    }
    for (int batch = 0; batch < 3; ++batch) {
      pool.ParallelFor(kN, [&](size_t i) { hits[i].fetch_add(1); });
    }
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 3u) << "threads=" << threads << " index " << i;
    }
  }
}

// ParallelForChunks: the chunked dispatch the sparse engine batches shards through must cover
// [0, n) exactly once with contiguous, non-overlapping ranges, for n above, equal to, and
// below the thread count — plus the n = 0 and single-thread degenerate cases.
TEST(DeterminismTest, ParallelForChunksCoversEveryIndexExactlyOnce) {
  for (const size_t threads : {size_t{1}, size_t{3}, size_t{16}}) {
    ThreadPool pool(threads);
    for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{16}, size_t{1000}}) {
      std::vector<std::atomic<uint32_t>> hits(n);
      for (auto& h : hits) {
        h.store(0);
      }
      std::atomic<uint32_t> chunks{0};
      pool.ParallelForChunks(n, [&](size_t begin, size_t end) {
        ASSERT_LT(begin, end) << "empty chunk dispatched";
        ASSERT_LE(end, n);
        chunks.fetch_add(1);
        for (size_t i = begin; i < end; ++i) {
          hits[i].fetch_add(1);
        }
      });
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1u)
            << "threads=" << threads << " n=" << n << " index " << i;
      }
      // At most one chunk per worker (that is the whole point: O(threads) sync per batch),
      // and none at all for n = 0.
      EXPECT_LE(chunks.load(), static_cast<uint32_t>(std::min(n, pool.thread_count())));
      if (n == 0) {
        EXPECT_EQ(chunks.load(), 0u);
      }
    }
  }
}

}  // namespace
}  // namespace mercurial
