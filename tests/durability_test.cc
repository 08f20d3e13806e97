// DurabilityManager unit tests: the write-ahead journal + snapshot + recovery engine behind
// the crash-tolerant control plane (src/durability/journal.h), exercised with toy units whose
// durable state is cheap to model exactly, plus study-level regressions for the recovery
// accounting the control plane must reconstruct (pending-at-end books).
//
// The frame-prefix contract under test: recovery trusts exactly the longest valid frame
// prefix. A torn tail (clipped frame) or a corrupt frame (CRC mismatch) ends the prefix and
// is classified and counted; the state that comes back is always the state at some durable
// tick, never a blend, never garbage.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/wire.h"
#include "src/core/fleet_study.h"
#include "src/durability/journal.h"
#include "src/substrate/checksum.h"

namespace mercurial {
namespace {

// Full-state toy unit: a single register. Serialize-and-compare dirtiness means a tick where
// the value does not change writes nothing for this unit.
struct ToyRegister {
  uint64_t value = 0;

  void Save(ByteWriter& w) const { w.PutU64(value); }
  Status Load(ByteReader& r) { return r.GetU64(&value); }
};

// Delta toy unit: an append-only log with a per-tick op journal, the same shape as the
// blast-radius ledger and the trace rings.
struct ToyLog {
  std::vector<uint64_t> entries;
  std::vector<uint64_t> tick_ops;

  void Append(uint64_t v) {
    entries.push_back(v);
    tick_ops.push_back(v);
  }
  bool HasTickOps() const { return !tick_ops.empty(); }
  void DrainTickOps(ByteWriter& w) {
    w.PutU32(static_cast<uint32_t>(tick_ops.size()));
    for (uint64_t v : tick_ops) {
      w.PutU64(v);
    }
    tick_ops.clear();
  }
  Status ApplyTickOps(ByteReader& r) {
    uint32_t count = 0;
    if (Status s = r.GetU32(&count); !s.ok()) {
      return s;
    }
    for (uint32_t i = 0; i < count; ++i) {
      uint64_t v = 0;
      if (Status s = r.GetU64(&v); !s.ok()) {
        return s;
      }
      entries.push_back(v);
    }
    return Status::Ok();
  }
  void Save(ByteWriter& w) const {
    w.PutU32(static_cast<uint32_t>(entries.size()));
    for (uint64_t v : entries) {
      w.PutU64(v);
    }
  }
  Status Load(ByteReader& r) {
    uint32_t count = 0;
    if (Status s = r.GetU32(&count); !s.ok()) {
      return s;
    }
    std::vector<uint64_t> loaded;
    loaded.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      uint64_t v = 0;
      if (Status s = r.GetU64(&v); !s.ok()) {
        return s;
      }
      loaded.push_back(v);
    }
    entries = std::move(loaded);
    tick_ops.clear();
    return Status::Ok();
  }
};

void RegisterToyUnits(DurabilityManager& manager, ToyRegister& reg, ToyLog& log) {
  manager.RegisterUnit(
      "register", [&reg](ByteWriter& w) { reg.Save(w); },
      [&reg](ByteReader& r) { return reg.Load(r); });
  manager.RegisterDeltaUnit(
      "log", [&log](ByteWriter& w) { log.Save(w); },
      [&log](ByteReader& r) { return log.Load(r); }, [&log]() { return log.HasTickOps(); },
      [&log](ByteWriter& w) { log.DrainTickOps(w); },
      [&log](ByteReader& r) { return log.ApplyTickOps(r); });
}

// The modeled durable state after each tick, for exact-rollback assertions.
struct ToyStateAtTick {
  uint64_t reg = 0;
  std::vector<uint64_t> log;
  size_t journal_size = 0;  // journal byte size right after this tick's EndTick
};

// Runs `ticks` deterministic mutations through a journal, recording the expected durable
// state after each tick. Tick i (1-based) sets the register to 100 + i and appends i to the
// log (two entries on even ticks, so delta payload sizes vary).
std::vector<ToyStateAtTick> DriveTicks(DurabilityManager& manager, ToyRegister& reg,
                                       ToyLog& log, uint64_t ticks) {
  std::vector<ToyStateAtTick> after;
  for (uint64_t i = 1; i <= ticks; ++i) {
    reg.value = 100 + i;
    log.Append(i);
    if (i % 2 == 0) {
      log.Append(1000 + i);
    }
    manager.EndTick(i);
    after.push_back({reg.value, log.entries, manager.size()});
  }
  return after;
}

TEST(DurabilityTest, StartWritesHeaderManifestAndInitialSnapshot) {
  ToyRegister reg;
  ToyLog log;
  DurabilityManager manager(DurabilityManager::Options{});
  RegisterToyUnits(manager, reg, log);
  const std::vector<uint8_t> manifest = {0xde, 0xad, 0xbe, 0xef};
  ASSERT_TRUE(manager.Start(0, manifest).ok());

  EXPECT_TRUE(manager.started());
  EXPECT_EQ(manager.stats().frames_written, 3u);  // header + manifest + initial snapshot
  EXPECT_EQ(manager.stats().snapshots_written, 1u);
  EXPECT_EQ(manager.stats().tick_frames_written, 0u);
  EXPECT_EQ(manager.stats().bytes_written, manager.size());
  EXPECT_GT(manager.size(), manifest.size());
  // The initial snapshot closes the immutable prefix: the mutable (chaos-exposed) tail is
  // empty until the first tick frame lands.
  EXPECT_EQ(manager.mutable_tail_start(), manager.size());
}

TEST(DurabilityTest, ExactRecoveryRestoresTheLatestDurableTick) {
  ToyRegister reg;
  ToyLog log;
  DurabilityManager manager(DurabilityManager::Options{});
  RegisterToyUnits(manager, reg, log);
  ASSERT_TRUE(manager.Start(0, {}).ok());
  const std::vector<ToyStateAtTick> after = DriveTicks(manager, reg, log, 5);

  // Mutations after the last EndTick never reached the journal; a crash forgets them.
  reg.value = 999999;
  log.Append(999999);

  StatusOr<DurabilityManager::RecoveryResult> recovered = manager.Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->exact);
  EXPECT_EQ(recovered->durable_tick, 5u);
  EXPECT_EQ(recovered->frames_replayed, 5u);
  EXPECT_EQ(recovered->frames_truncated, 0u);
  EXPECT_EQ(reg.value, after[4].reg);
  EXPECT_EQ(log.entries, after[4].log);
  EXPECT_TRUE(log.tick_ops.empty()) << "recovery must not leave replayed ops pending";
  EXPECT_EQ(manager.stats().recoveries, 1u);
  EXPECT_EQ(manager.stats().exact_recoveries, 1u);
  EXPECT_EQ(manager.stats().torn_tail_truncations, 0u);
  EXPECT_EQ(manager.stats().corrupt_frames_rejected, 0u);

  // The journal keeps working after recovery: the next tick appends past the durable prefix.
  reg.value = 777;
  manager.EndTick(6);
  StatusOr<DurabilityManager::RecoveryResult> again = manager.Recover();
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->exact);
  EXPECT_EQ(again->durable_tick, 6u);
  EXPECT_EQ(reg.value, 777u);
}

TEST(DurabilityTest, SnapshotCadenceBoundsTheReplayTail) {
  ToyRegister reg;
  ToyLog log;
  DurabilityManager::Options options;
  options.snapshot_every = 4;
  DurabilityManager manager(options);
  RegisterToyUnits(manager, reg, log);
  ASSERT_TRUE(manager.Start(0, {}).ok());
  DriveTicks(manager, reg, log, 16);

  // Ticks 4, 8, 12, 16 each replaced their due tick frame with a full snapshot.
  EXPECT_EQ(manager.stats().snapshots_written, 5u);  // initial + 4 due
  EXPECT_EQ(manager.stats().tick_frames_written, 16u);
  EXPECT_EQ(manager.tick_frames_since_snapshot(), 0u);
  EXPECT_EQ(manager.mutable_tail_start(), manager.size());

  // Cadence keeps the replay bounded: recovery after a full cadence replays nothing.
  StatusOr<DurabilityManager::RecoveryResult> recovered = manager.Recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered->exact);
  EXPECT_EQ(recovered->frames_replayed, 0u);
  EXPECT_EQ(recovered->snapshot_tick, 16u);
}

TEST(DurabilityTest, TornTailRecoversThePrefixAndCountsTheLoss) {
  ToyRegister reg;
  ToyLog log;
  DurabilityManager manager(DurabilityManager::Options{});  // snapshot_every=64: no mid snapshots
  RegisterToyUnits(manager, reg, log);
  ASSERT_TRUE(manager.Start(0, {}).ok());
  const std::vector<ToyStateAtTick> after = DriveTicks(manager, reg, log, 5);

  // Tear into the middle of tick 4's frame: ticks 4 and 5 fall past the durable horizon.
  const size_t tear = manager.size() - (after[2].journal_size + 5);
  manager.TearTail(tear);

  StatusOr<DurabilityManager::RecoveryResult> recovered = manager.Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(recovered->exact);
  EXPECT_EQ(recovered->durable_tick, 3u);
  EXPECT_EQ(recovered->frames_replayed, 3u);
  EXPECT_EQ(recovered->frames_truncated, 2u);
  EXPECT_EQ(manager.stats().torn_tail_truncations, 1u);
  EXPECT_EQ(manager.stats().prefix_recoveries, 1u);
  EXPECT_EQ(reg.value, after[2].reg);
  EXPECT_EQ(log.entries, after[2].log);
  // The clipped frame is untrusted: the journal truncates to the durable prefix exactly.
  EXPECT_EQ(manager.size(), after[2].journal_size);

  // The write cursor continues from the durable prefix; conservation stays closed.
  reg.value = 4242;
  manager.EndTick(6);
  StatusOr<DurabilityManager::RecoveryResult> again = manager.Recover();
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->exact);
  EXPECT_EQ(again->frames_replayed, 4u);  // ticks 1..3 + tick 6
  EXPECT_EQ(reg.value, 4242u);
}

TEST(DurabilityTest, FlippedBitIsRejectedNeverTrusted) {
  ToyRegister reg;
  ToyLog log;
  DurabilityManager manager(DurabilityManager::Options{});
  RegisterToyUnits(manager, reg, log);
  ASSERT_TRUE(manager.Start(0, {}).ok());
  const std::vector<ToyStateAtTick> after = DriveTicks(manager, reg, log, 5);

  // Flip one bit inside tick 4's frame (the tick stamp, byte 6 of the frame): the stored CRC
  // no longer matches, so the scan must reject the frame and everything after it.
  manager.FlipBit(after[2].journal_size + 6, 3);

  StatusOr<DurabilityManager::RecoveryResult> recovered = manager.Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(recovered->exact);
  EXPECT_EQ(recovered->durable_tick, 3u);
  EXPECT_EQ(recovered->frames_replayed, 3u);
  EXPECT_EQ(recovered->frames_truncated, 2u);
  EXPECT_EQ(manager.stats().corrupt_frames_rejected, 1u);
  EXPECT_EQ(manager.stats().torn_tail_truncations, 0u);
  EXPECT_EQ(reg.value, after[2].reg);
  EXPECT_EQ(log.entries, after[2].log);
  EXPECT_EQ(manager.size(), after[2].journal_size);
}

TEST(DurabilityTest, FreshManagerRecoversAJournalImageAndItsManifest) {
  // The CLI `recover` path: the journal bytes are all that survives; a fresh manager with the
  // same unit registration order restores state and the stored manifest from them.
  std::vector<uint8_t> image;
  std::vector<ToyStateAtTick> after;
  const std::vector<uint8_t> manifest = {'a', 'r', 'g', 'v'};
  {
    ToyRegister reg;
    ToyLog log;
    DurabilityManager writer(DurabilityManager::Options{});
    RegisterToyUnits(writer, reg, log);
    ASSERT_TRUE(writer.Start(0, manifest).ok());
    after = DriveTicks(writer, reg, log, 7);
    image = writer.buffer();
  }

  ToyRegister reg;
  ToyLog log;
  DurabilityManager reader(DurabilityManager::Options{});
  RegisterToyUnits(reader, reg, log);
  reader.ReplaceBuffer(image);
  StatusOr<DurabilityManager::RecoveryResult> recovered = reader.Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->exact);
  EXPECT_EQ(recovered->durable_tick, 7u);
  EXPECT_EQ(reg.value, after[6].reg);
  EXPECT_EQ(log.entries, after[6].log);
  EXPECT_EQ(reader.recovered_manifest(), manifest);
  EXPECT_TRUE(reader.started()) << "a recovered manager can keep journaling";
}

// An image whose header names another journal version is refused with DATA_LOSS, by both the
// read-only inspection and recovery, instead of being decoded against this version's layout.
// The header frame is re-sealed with a valid CRC, so the version check is what refuses it.
TEST(DurabilityTest, OlderJournalVersionIsRefused) {
  ToyRegister reg;
  ToyLog log;
  std::vector<uint8_t> image;
  {
    DurabilityManager writer(DurabilityManager::Options{});
    RegisterToyUnits(writer, reg, log);
    ASSERT_TRUE(writer.Start(0, {}).ok());
    DriveTicks(writer, reg, log, 3);
    image = writer.buffer();
  }
  ASSERT_TRUE(InspectJournalImage(image).ok());

  // Header frame: u32 payload length, u8 type, u64 tick, then the payload (u32 magic, u32
  // version) and the CRC of everything before it, all little-endian.
  constexpr size_t kPrefixBytes = 4 + 1 + 8;
  const auto put_u32 = [&image](size_t offset, uint32_t value) {
    for (int b = 0; b < 4; ++b) {
      image[offset + b] = static_cast<uint8_t>(value >> (8 * b));
    }
  };
  put_u32(kPrefixBytes + 4, 1);  // an older version
  put_u32(kPrefixBytes + 8, Crc32(image.data(), kPrefixBytes + 8));

  const StatusOr<JournalImageInfo> info = InspectJournalImage(image);
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(info.status().message(), "journal header magic/version mismatch");

  DurabilityManager reader(DurabilityManager::Options{});
  RegisterToyUnits(reader, reg, log);
  reader.ReplaceBuffer(image);
  const StatusOr<DurabilityManager::RecoveryResult> recovered = reader.Recover();
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(recovered.status().message(), "journal header magic/version mismatch");
}

TEST(DurabilityTest, JournalKeepsEveryByteAcrossImageGrowth) {
  // The image grows by remapping its pages, not by copying them into a new vector: every frame
  // written before a growth must read back after it, and a copy must recover on its own.
  ToyRegister reg;
  ToyLog log;
  DurabilityManager writer(DurabilityManager::Options{});
  RegisterToyUnits(writer, reg, log);
  ASSERT_TRUE(writer.Start(0, {}).ok());
  constexpr uint64_t kTicks = 5000;
  for (uint64_t i = 1; i <= kTicks; ++i) {
    reg.value = 100 + i;
    log.Append(i);
    writer.EndTick(i);
  }
  ASSERT_GT(writer.size(), size_t{1} << 20) << "the image must grow several times";
  EXPECT_EQ(writer.stats().bytes_written, writer.size());
  const std::vector<uint8_t> image = writer.buffer();
  StatusOr<JournalImageInfo> info = InspectJournalImage(image);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->frames, writer.stats().frames_written);
  EXPECT_EQ(info->durable_tick, kTicks);
  EXPECT_FALSE(info->torn_tail);
  EXPECT_FALSE(info->corrupt_frame);

  ToyRegister recovered_reg;
  ToyLog recovered_log;
  DurabilityManager reader(DurabilityManager::Options{});
  RegisterToyUnits(reader, recovered_reg, recovered_log);
  reader.ReplaceBuffer(image);
  StatusOr<DurabilityManager::RecoveryResult> recovered = reader.Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->exact);
  EXPECT_EQ(recovered_reg.value, reg.value);
  EXPECT_EQ(recovered_log.entries, log.entries);
  EXPECT_EQ(reader.buffer(), image);
}

// After its first recovery a manager resumes the frame scan at the end of the snapshot it last
// restored. Each resumed recovery must agree with a full scan from offset 0 of the same image:
// a fresh manager handed a copy of it by ReplaceBuffer. The tail is torn before some
// recoveries and has a bit flipped before others, the flip moving through the tail's frames in
// turn, the first frame after the remembered snapshot included.
TEST(DurabilityTest, ResumedScanRecoversWhatAFullScanRecovers) {
  ToyRegister reg;
  ToyLog log;
  DurabilityManager::Options options;
  options.snapshot_every = 5;
  DurabilityManager manager(options);
  RegisterToyUnits(manager, reg, log);
  ASSERT_TRUE(manager.Start(0, {'m'}).ok());

  std::vector<size_t> frame_ends;  // journal size after each tick's frame, in write order
  bool snapshot_since_recovery = false;
  uint64_t flips = 0;
  uint64_t first_frame_flips = 0;  // flips into the first frame after the remembered snapshot
  uint64_t recoveries = 0;
  uint64_t prefix_recoveries = 0;
  for (uint64_t tick = 1; tick <= 240; ++tick) {
    reg.value = 100 + tick / 2;  // unchanged on every other tick: no full-unit payload then
    log.Append(tick);
    const uint64_t snapshots = manager.stats().snapshots_written;
    manager.EndTick(tick);
    snapshot_since_recovery |= manager.stats().snapshots_written != snapshots;
    frame_ends.push_back(manager.size());
    if (tick % 3 != 0) {
      continue;
    }

    // The frames of the mutable tail, which chaos may damage.
    std::vector<size_t> tail_ends;
    for (size_t end : frame_ends) {
      if (end > manager.mutable_tail_start()) {
        tail_ends.push_back(end);
      }
    }
    const size_t tail = manager.size() - manager.mutable_tail_start();
    if ((tick / 3) % 3 == 1 && tail > 0) {
      manager.TearTail(1 + (tick * 7919) % tail);
    } else if ((tick / 3) % 3 == 2 && !tail_ends.empty()) {
      const size_t frame = flips++ % tail_ends.size();
      const size_t begin = frame == 0 ? manager.mutable_tail_start() : tail_ends[frame - 1];
      if (frame == 0 && !snapshot_since_recovery) {
        ++first_frame_flips;
      }
      manager.FlipBit(begin + (tick * 31) % (tail_ends[frame] - begin), static_cast<int>(tick % 8));
    }

    const std::vector<uint8_t> image = manager.buffer();
    ToyRegister full_reg;
    ToyLog full_log;
    DurabilityManager full(options);
    RegisterToyUnits(full, full_reg, full_log);
    full.ReplaceBuffer(image);
    const StatusOr<DurabilityManager::RecoveryResult> expected = full.Recover();
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();

    const JournalStats before = manager.stats();
    const StatusOr<DurabilityManager::RecoveryResult> resumed = manager.Recover();
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    ++recoveries;
    prefix_recoveries += resumed->exact ? 0 : 1;
    SCOPED_TRACE("recovery at tick " + std::to_string(tick));
    EXPECT_EQ(resumed->durable_tick, expected->durable_tick);
    EXPECT_EQ(resumed->snapshot_tick, expected->snapshot_tick);
    EXPECT_EQ(resumed->frames_replayed, expected->frames_replayed);
    EXPECT_EQ(manager.stats().torn_tail_truncations - before.torn_tail_truncations,
              full.stats().torn_tail_truncations);
    EXPECT_EQ(manager.stats().corrupt_frames_rejected - before.corrupt_frames_rejected,
              full.stats().corrupt_frames_rejected);
    EXPECT_EQ(manager.buffer(), full.buffer()) << "the truncated images differ";
    EXPECT_EQ(manager.SaveUnits(), full.SaveUnits()) << "the recovered units differ";
    EXPECT_EQ(reg.value, full_reg.value);
    EXPECT_EQ(log.entries, full_log.entries);

    while (!frame_ends.empty() && frame_ends.back() > manager.size()) {
      frame_ends.pop_back();
    }
    snapshot_since_recovery = false;
  }
  EXPECT_EQ(recoveries, 80u);
  EXPECT_GT(prefix_recoveries, 20u) << "too few damaged tails to compare";
  EXPECT_GT(first_frame_flips, 0u) << "no flip landed right after the remembered snapshot";
  EXPECT_GT(manager.stats().torn_tail_truncations, 0u);
  EXPECT_GT(manager.stats().corrupt_frames_rejected, 0u);
}

// --- Study-level recovery accounting regressions -----------------------------------------------

// A compact study with the whole controller armed: chaos on the report pipeline, quorum +
// probation (so both books carry entries at study end), and auditing (so the repair
// orchestrator and ledger are part of the journaled state).
StudyOptions RecoveryStudyOptions() {
  StudyOptions options;
  options.seed = 20210531;
  options.fleet.machine_count = 100;
  options.fleet.mercurial_rate_multiplier = 800.0;
  options.workload.payload_bytes = 256;
  options.work_units_per_core_day = 20;
  options.duration = SimTime::Days(80);
  options.screening.offline_period = SimTime::Days(25);
  options.shards = 8;
  options.threads = 2;
  options.control_plane.max_pending = 64;
  options.control_plane.max_retries = 3;
  // Slow retries + frequent aborts keep the interrogation pipeline busy, so suspects are
  // still pending when the study ends.
  options.control_plane.retry_backoff = SimTime::Days(8);
  options.control_plane.drain_latency = SimTime::Hours(12);
  options.control_plane.drain_timeout = SimTime::Days(4);
  options.control_plane.chaos.abort_interrogation = 0.50;
  options.control_plane.chaos.probation_suppress = 0.80;
  options.control_plane.chaos.machine_restart_per_day = 0.20;
  options.quarantine.recidivism_retire_after = 2;
  options.control_plane.quorum.enabled = true;
  options.control_plane.quorum.witnesses = 3;
  options.control_plane.quorum.witness_error_rate = 0.30;
  options.control_plane.probation.enabled = true;
  // Long probation (4 x 15-day clean windows), so convictions from the back half of the
  // 80-day study are still on the books at the end.
  options.control_plane.probation.window = SimTime::Days(15);
  options.control_plane.probation.clean_windows_to_reinstate = 4;
  options.control_plane.probation.weak_after_attempts = 1;
  options.audit.enabled = true;
  options.audit.repair_budget_per_tick = 256;
  options.trace.enabled = true;
  return options;
}

// Satellite regression: the pending-at-end books (suspects still in the pipeline, probation
// records still open) are reconstructed exactly across clean controller crashes — the
// recovered controller finishes with the same open books as one that never died.
TEST(DurabilityTest, PendingAtEndBooksSurviveControllerCrashes) {
  StudyOptions uncrashed = RecoveryStudyOptions();
  // Reinstatement takes 6 x 15 = 90 clean days, longer than the 80-day study, so every
  // probation entry that does not escalate is still open at the end: the open books follow
  // from the options, not from one trajectory.
  uncrashed.control_plane.probation.clean_windows_to_reinstate = 6;
  FleetStudy reference_study(uncrashed);
  const StudyReport reference = reference_study.Run();

  StudyOptions crashed = uncrashed;
  crashed.durability.enabled = true;
  crashed.control_plane.chaos.controller_crash_every_ticks = 1;  // die after every tick
  FleetStudy crashed_study(crashed);
  StudyReport report = crashed_study.Run();

  ASSERT_GT(report.durability.controller_crashes, 0u);
  EXPECT_EQ(report.durability.recoveries, report.durability.controller_crashes);
  EXPECT_EQ(report.durability.prefix_recoveries, 0u) << "clean crashes recover exactly";
  EXPECT_EQ(report.durability.frames_truncated, 0u);

  ASSERT_GT(reference.control_plane.pending_at_end +
                reference.control_plane.probation_pending_at_end,
            0u)
      << "harness left no open books; the regression is vacuous";
  // Strip the crash accounting; the open books, and every other field, must match.
  report.durability = DurabilityStats{};
  EXPECT_TRUE(report == reference);
}

// Torn tails and bit flips force prefix recoveries; every loss and every reconciliation
// action must be accounted, and the run must complete with conservation intact (the study
// CHECKs frames_replayed + frames_truncated == frames covered at finalization).
TEST(DurabilityTest, TornTailRecoveryAccountsEveryLossLoudly) {
  StudyOptions options = RecoveryStudyOptions();
  options.durability.enabled = true;
  options.durability.snapshot_every = 8;
  options.control_plane.chaos.controller_crash_every_ticks = 3;
  options.control_plane.chaos.journal_torn_tail = 0.6;
  options.control_plane.chaos.journal_bit_flip = 0.3;
  FleetStudy study(options);
  const StudyReport report = study.Run();

  ASSERT_GT(report.durability.controller_crashes, 0u);
  EXPECT_EQ(report.durability.recoveries, report.durability.controller_crashes);
  EXPECT_EQ(report.durability.exact_recoveries + report.durability.prefix_recoveries,
            report.durability.recoveries);
  EXPECT_GT(report.durability.prefix_recoveries, 0u)
      << "no torn tail ever landed; the accounting path is untested";
  EXPECT_GT(report.durability.frames_truncated, 0u);
  EXPECT_GT(report.durability.torn_tail_truncations + report.durability.corrupt_frames_rejected,
            0u);
  // Reaching this line at all proves the strong form: FleetStudy::Finalize CHECK-fails unless
  // frames_replayed + frames_truncated exactly covers the frames at risk across every
  // recovery. The books the rolled-back controller kept must stay within what it admitted.
  EXPECT_LE(report.control_plane.pending_at_end, report.control_plane.suspects_admitted);
}

}  // namespace
}  // namespace mercurial
