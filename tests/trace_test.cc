// Unit tests for the incident flight recorder (src/telemetry/trace.h): recorder semantics
// (shard routing, ring overwrite, per-kind sampling, conservation), the deterministic shard
// merge, the CRC-framed codec's refusal to parse corrupted or clipped payloads (mirroring the
// checkpoint framing tests in mitigate_test.cc), the TraceQuery read API, and the JSONL/CSV
// exports.

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/fleet_study.h"
#include "src/substrate/checksum.h"
#include "src/telemetry/trace.h"
#include "tests/durable_codec.h"

namespace mercurial {
namespace {

// A small recorder with events spread over shards, ticks, and kinds — the codec fixture.
TraceRecorder MakeBusyRecorder() {
  TraceOptions options;
  options.enabled = true;
  options.ring_capacity = 64;
  TraceRecorder recorder(options, /*core_count=*/16, /*shards=*/4);
  recorder.SetTickContext(SimTime::Days(1), /*epoch=*/1);
  recorder.Emit(0, TraceEventKind::kDefectFired, TraceCause::kCorruption, 3);
  recorder.Emit(5, TraceEventKind::kSignalEmitted, TraceCause::kCrashSignal);
  recorder.Emit(9, TraceEventKind::kSuspicionRaised, TraceCause::kConcentration, 2100);
  recorder.SetTickContext(SimTime::Days(2), /*epoch=*/2);
  recorder.Emit(9, TraceEventKind::kQuarantineAdmit, TraceCause::kAdmitted, 1);
  recorder.Emit(9, TraceEventKind::kInterrogationStart, TraceCause::kScheduled, 1);
  recorder.Emit(9, TraceEventKind::kInterrogationVerdict, TraceCause::kConfessed, 1);
  recorder.Emit(9, TraceEventKind::kConviction, TraceCause::kConfessed, 2);
  recorder.SetTickContext(SimTime::Days(3), /*epoch=*/3);
  recorder.Emit(9, TraceEventKind::kRepairPass, TraceCause::kRepairDone, 40);
  recorder.Emit(15, TraceEventKind::kQuarantineShed, TraceCause::kPipelineFull, 64);
  return recorder;
}

// --- Recorder semantics -----------------------------------------------------------------------

TEST(TraceRecorderTest, ShardRoutingMatchesPartitionCores) {
  Rng rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    const uint64_t core_count = 1 + rng.UniformInt(0, 4000);
    const int shards = static_cast<int>(rng.UniformInt(1, 32));
    TraceOptions options;
    options.enabled = true;
    const TraceRecorder recorder(options, core_count, shards);
    const auto ranges = PartitionCores(core_count, shards);
    for (int probe = 0; probe < 50; ++probe) {
      const uint64_t core = rng.UniformInt(0, core_count - 1);
      size_t expected = 0;
      for (size_t k = 0; k < ranges.size(); ++k) {
        if (core >= ranges[k].begin && core < ranges[k].end) {
          expected = k;
          break;
        }
      }
      ASSERT_EQ(recorder.shard_of(core), expected)
          << "core " << core << " of " << core_count << " across " << shards << " shards";
    }
  }
}

TEST(TraceRecorderTest, RingOverwriteDropsOldestAndKeepsConservation) {
  TraceOptions options;
  options.enabled = true;
  options.ring_capacity = 4;
  TraceRecorder recorder(options, /*core_count=*/8, /*shards=*/1);
  for (uint64_t i = 0; i < 10; ++i) {
    recorder.Emit(0, TraceEventKind::kDefectFired, TraceCause::kCorruption, /*detail=*/i);
  }
  const IncidentTrace trace = recorder.Assemble();
  EXPECT_EQ(trace.counters.events_emitted, 10u);
  EXPECT_EQ(trace.counters.events_recorded, 4u);
  EXPECT_EQ(trace.counters.events_dropped, 6u);
  EXPECT_EQ(trace.counters.events_sampled_out, 0u);
  // The survivors are the newest four, unwrapped oldest-first.
  ASSERT_EQ(trace.events.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(trace.events[i].detail, 6 + i);
  }
}

TEST(TraceRecorderTest, PerKindSamplingThinsDeterministically) {
  TraceOptions options;
  options.enabled = true;
  options.sample_every[static_cast<size_t>(TraceEventKind::kDefectFired)] = 3;
  options.sample_every[static_cast<size_t>(TraceEventKind::kSignalEmitted)] = 0;  // suppress
  TraceRecorder recorder(options, /*core_count=*/8, /*shards=*/1);
  for (uint64_t i = 0; i < 10; ++i) {
    recorder.Emit(0, TraceEventKind::kDefectFired, TraceCause::kCorruption, i);
  }
  for (uint64_t i = 0; i < 5; ++i) {
    recorder.Emit(0, TraceEventKind::kSignalEmitted, TraceCause::kCrashSignal, i);
  }
  const IncidentTrace trace = recorder.Assemble();
  // Every 3rd defect fire survives (0, 3, 6, 9); every signal is suppressed but accounted.
  ASSERT_EQ(trace.events.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(trace.events[i].detail, 3 * i);
  }
  EXPECT_EQ(trace.counters.events_emitted, 4u);
  EXPECT_EQ(trace.counters.events_recorded, 4u);
  EXPECT_EQ(trace.counters.events_sampled_out, 11u);
  EXPECT_EQ(trace.counters.events_dropped, 0u);
}

TEST(TraceRecorderTest, AssembleOrdersByTimeThenShard) {
  TraceOptions options;
  options.enabled = true;
  TraceRecorder recorder(options, /*core_count=*/8, /*shards=*/2);  // cores 0-3 | 4-7
  recorder.SetTickContext(SimTime::Days(1), 1);
  recorder.Emit(6, TraceEventKind::kSignalEmitted, TraceCause::kCrashSignal, 0);  // shard 1
  recorder.Emit(1, TraceEventKind::kDefectFired, TraceCause::kCorruption, 1);     // shard 0
  recorder.SetTickContext(SimTime::Days(2), 2);
  recorder.Emit(5, TraceEventKind::kDefectFired, TraceCause::kCorruption, 2);     // shard 1
  recorder.Emit(0, TraceEventKind::kDefectFired, TraceCause::kCorruption, 3);     // shard 0
  const IncidentTrace trace = recorder.Assemble();
  ASSERT_EQ(trace.events.size(), 4u);
  // Within each time group, shard 0's events precede shard 1's regardless of emission order.
  EXPECT_EQ(trace.events[0].core, 1u);
  EXPECT_EQ(trace.events[1].core, 6u);
  EXPECT_EQ(trace.events[2].core, 0u);
  EXPECT_EQ(trace.events[3].core, 5u);
  EXPECT_EQ(trace.events[0].epoch, 1u);
  EXPECT_EQ(trace.events[2].epoch, 2u);
}

TEST(TraceOptionsTest, ValidateRejectsZeroRingCapacity) {
  TraceOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.ring_capacity = 0;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
}

// --- Codec round trip and corruption (mirrors CheckpointFrameTest) ----------------------------

TEST(TraceCodecTest, RoundTripRecoversEventsAndCounters) {
  const IncidentTrace golden = MakeBusyRecorder().Assemble();
  ASSERT_GT(golden.events.size(), 0u);
  const std::vector<uint8_t> bytes = SerializeTrace(golden);
  const auto parsed = ParseTrace(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->shards, golden.shards);
  EXPECT_TRUE(parsed->counters == golden.counters);
  ASSERT_EQ(parsed->events.size(), golden.events.size());
  for (size_t i = 0; i < golden.events.size(); ++i) {
    EXPECT_TRUE(parsed->events[i] == golden.events[i]) << "event " << i;
  }
}

TEST(TraceCodecTest, FrameBytesArePinned) {
  // The on-disk layout of a hand-built two-event trace, byte for byte (fleetbench's report
  // digest hashes these bytes, so a change here is a format change, not a refactor).
  IncidentTrace trace;
  trace.shards = 2;
  trace.counters = TraceCounters{3, 2, 1, 4};
  trace.events.push_back(
      {86400, 5, 1, TraceEventKind::kSignalEmitted, TraceCause::kCrashSignal, 9});
  trace.events.push_back({172800, 17, 2, TraceEventKind::kConviction, TraceCause::kConfessed,
                          0x0102});
  const std::vector<uint8_t> expected = {
      0x63, 0x72, 0x74, 0x6d,                          // magic "crtm"
      0x01, 0x00, 0x00, 0x00,                          // version
      0x02, 0x00, 0x00, 0x00,                          // shards
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // event count
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // emitted
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // recorded
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // dropped
      0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // sampled out
      0x80, 0x51, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00,  // event 0: time 86400 s
      0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //   core
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //   epoch
      0x01, 0x03,                                      //   kind, cause
      0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //   detail
      0x00, 0xa3, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00,  // event 1: time 172800 s
      0x11, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //   core
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //   epoch
      0x09, 0x13,                                      //   kind, cause
      0x02, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //   detail
      0x49, 0x1b, 0x15, 0xcd,                          // crc32 of everything above
  };
  EXPECT_EQ(SerializeTrace(trace), expected);
  const auto parsed = ParseTrace(expected);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, trace);
}

TEST(TraceCodecTest, EmptyTraceRoundTrips) {
  TraceOptions options;
  options.enabled = true;
  const IncidentTrace empty = TraceRecorder(options, 4, 2).Assemble();
  const auto parsed = ParseTrace(SerializeTrace(empty));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->events.empty());
  EXPECT_EQ(parsed->shards, 2u);
}

TEST(TraceCodecTest, EveryBitFlipFailsLoudly) {
  // A trace is incident evidence: parsing must never yield silently-wrong events. Flipping
  // ANY single bit — magic, counters, event payload, or the CRC itself — must be DATA_LOSS.
  const std::vector<uint8_t> golden = SerializeTrace(MakeBusyRecorder().Assemble());
  for (size_t byte = 0; byte < golden.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> mutated = golden;
      mutated[byte] ^= static_cast<uint8_t>(1u << bit);
      const auto parsed = ParseTrace(mutated);
      ASSERT_FALSE(parsed.ok()) << "bit " << bit << " of byte " << byte << " parsed silently";
      EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss);
    }
  }
}

TEST(TraceCodecTest, EveryTruncationFailsLoudly) {
  const std::vector<uint8_t> golden = SerializeTrace(MakeBusyRecorder().Assemble());
  for (size_t len = 0; len < golden.size(); ++len) {
    const std::vector<uint8_t> truncated(golden.begin(), golden.begin() + len);
    const auto parsed = ParseTrace(truncated);
    ASSERT_FALSE(parsed.ok()) << "truncation to " << len << " bytes parsed silently";
    EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss);
  }
  // Trailing garbage is a framing violation too.
  std::vector<uint8_t> extended = golden;
  extended.push_back(0);
  EXPECT_EQ(ParseTrace(extended).status().code(), StatusCode::kDataLoss);
}

TEST(TraceCodecTest, OutOfRangeKindOrCauseFailsEvenWithValidCrc) {
  // A CRC-consistent frame carrying an enum value this build does not know is still refused:
  // the range check guards against decoding a future (or corrupt-but-CRC-colliding) trace
  // into aliased enum values. Patch the byte, then re-seal the CRC so only the range check
  // can object.
  const std::vector<uint8_t> golden = SerializeTrace(MakeBusyRecorder().Assemble());
  constexpr size_t kHeaderBytes = 52;  // magic, version, shards (u32 each) + 5 u64 counters
  constexpr size_t kKindOffset = kHeaderBytes + 8 + 8 + 8;  // first event: time, core, epoch
  for (const auto& [offset, bad] :
       {std::pair<size_t, uint8_t>{kKindOffset, static_cast<uint8_t>(kTraceEventKindCount)},
        std::pair<size_t, uint8_t>{kKindOffset + 1, static_cast<uint8_t>(kTraceCauseCount)}}) {
    std::vector<uint8_t> mutated = golden;
    mutated[offset] = bad;
    const uint32_t crc = Crc32(mutated.data(), mutated.size() - 4);
    for (int i = 0; i < 4; ++i) {
      mutated[mutated.size() - 4 + static_cast<size_t>(i)] =
          static_cast<uint8_t>(crc >> (8 * i));
    }
    const auto parsed = ParseTrace(mutated);
    ASSERT_FALSE(parsed.ok()) << "out-of-range byte at offset " << offset;
    EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss);
  }
}

// The recorder's journal codec: full snapshots of wrapped and partly filled rings, and the
// ring deltas a tick frame carries (inserts that overwrite, sampled-out events that only
// move seen[] and the counters).
TEST(TraceRecorderTest, DurableCodecRoundTripsAndRefusesPrefixes) {
  TraceOptions options;
  options.enabled = true;
  options.ring_capacity = 4;
  options.sample_every[static_cast<size_t>(TraceEventKind::kSignalEmitted)] = 2;
  TraceRecorder recorder(options, /*core_count=*/16, /*shards=*/4);
  recorder.EnableMutationLog(true);
  recorder.SetTickContext(SimTime::Days(1), 1);
  for (uint64_t i = 0; i < 6; ++i) {
    recorder.Emit(1, TraceEventKind::kDefectFired, TraceCause::kCorruption, i);
  }
  recorder.Emit(9, TraceEventKind::kSuspicionRaised, TraceCause::kConcentration, 2100);
  std::vector<uint8_t> drained;
  ByteWriter drain_writer(drained);
  recorder.DrainTickOps(drain_writer);  // a tick boundary
  const TraceRecorder before = recorder;

  recorder.SetTickContext(SimTime::Days(2), 2);
  recorder.Emit(2, TraceEventKind::kQuarantineAdmit, TraceCause::kAdmitted, 1);
  recorder.Emit(9, TraceEventKind::kConviction, TraceCause::kConfessed, 2);
  recorder.Emit(13, TraceEventKind::kSignalEmitted, TraceCause::kCrashSignal);
  recorder.Emit(13, TraceEventKind::kSignalEmitted, TraceCause::kCrashSignal);
  ASSERT_TRUE(recorder.HasTickOps());
  std::vector<uint8_t> ops;
  ByteWriter ops_writer(ops);
  recorder.DrainTickOps(ops_writer);
  ASSERT_GT(recorder.Totals().events_dropped, 0u) << "a ring must have wrapped";
  ASSERT_GT(recorder.Totals().events_sampled_out, 0u);

  ExpectDurableCodecContract(recorder, TraceRecorder(options, 16, 4));
  ExpectTickOpsContract(before, recorder, ops);
}

// --- TraceQuery -------------------------------------------------------------------------------

TEST(TraceQueryTest, CoreTimelineAndTimeWindowSliceTheTrace) {
  const IncidentTrace trace = MakeBusyRecorder().Assemble();
  const TraceQuery query(trace);

  const std::vector<TraceEvent> core9 = query.CoreTimeline(9);
  ASSERT_EQ(core9.size(), 6u);
  EXPECT_EQ(core9.front().kind, TraceEventKind::kSuspicionRaised);
  EXPECT_EQ(core9.back().kind, TraceEventKind::kRepairPass);
  EXPECT_TRUE(query.CoreTimeline(1234).empty());

  const std::vector<TraceEvent> day2 = query.TimeWindow(SimTime::Days(2), SimTime::Days(3));
  ASSERT_EQ(day2.size(), 4u);
  for (const TraceEvent& event : day2) {
    EXPECT_EQ(event.epoch, 2u);
  }
}

TEST(TraceQueryTest, CauseChainWalksBackFromConviction) {
  const IncidentTrace trace = MakeBusyRecorder().Assemble();
  const TraceQuery query(trace);

  const std::vector<uint64_t> convicted = query.ConvictedCores();
  ASSERT_EQ(convicted, std::vector<uint64_t>{9});

  const std::vector<TraceEvent> chain = query.CauseChain(9);
  ASSERT_EQ(chain.size(), 5u);  // suspicion .. conviction; the repair pass is after it
  EXPECT_EQ(chain.front().kind, TraceEventKind::kSuspicionRaised);
  EXPECT_EQ(chain.back().kind, TraceEventKind::kConviction);
  EXPECT_TRUE(query.CauseChain(0).empty()) << "unconvicted cores have no cause chain";
  EXPECT_TRUE(query.CauseChain(1234).empty()) << "unknown cores have no cause chain";
}

TEST(TraceQueryTest, EveryKindAndCauseHasASymbolicName) {
  // Exports and the CLI timeline print these names; a new enum value without one would show
  // up as "unknown" in every artifact, so pin the full range (and the out-of-range fallback).
  std::set<std::string> kind_names;
  for (size_t k = 0; k < kTraceEventKindCount; ++k) {
    const char* name = TraceEventKindName(static_cast<TraceEventKind>(k));
    EXPECT_STRNE(name, "unknown") << "kind " << k;
    kind_names.insert(name);
  }
  EXPECT_EQ(kind_names.size(), kTraceEventKindCount) << "duplicate kind names";
  std::set<std::string> cause_names;
  for (size_t c = 0; c < kTraceCauseCount; ++c) {
    const char* name = TraceCauseName(static_cast<TraceCause>(c));
    EXPECT_STRNE(name, "unknown") << "cause " << c;
    cause_names.insert(name);
  }
  EXPECT_EQ(cause_names.size(), kTraceCauseCount) << "duplicate cause names";
  EXPECT_STREQ(TraceEventKindName(static_cast<TraceEventKind>(kTraceEventKindCount)),
               "unknown");
  EXPECT_STREQ(TraceCauseName(static_cast<TraceCause>(kTraceCauseCount)), "unknown");
}

// --- Exports ----------------------------------------------------------------------------------

TEST(TraceExportTest, JsonlEmitsOneObjectPerEventWithSymbolicNames) {
  const IncidentTrace trace = MakeBusyRecorder().Assemble();
  const std::string jsonl = TraceToJsonl(trace);
  size_t lines = 0;
  for (const char c : jsonl) {
    lines += c == '\n';
  }
  EXPECT_EQ(lines, trace.events.size());
  EXPECT_NE(jsonl.find("\"kind\":\"conviction\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"cause\":\"confessed\""), std::string::npos);
}

TEST(TraceExportTest, CsvEmitsHeaderPlusOneRowPerEvent) {
  const IncidentTrace trace = MakeBusyRecorder().Assemble();
  const std::string csv = TraceToCsv(trace);
  size_t lines = 0;
  for (const char c : csv) {
    lines += c == '\n';
  }
  EXPECT_EQ(lines, trace.events.size() + 1);
  EXPECT_EQ(csv.rfind("time_s,core,epoch,kind,cause,detail", 0), 0u);
}

}  // namespace
}  // namespace mercurial
