// Tests for the one wire codec (src/common/wire.h): ByteReader::Take, the sticky WireIn
// visitor, and byte pins for every stats block's field list and for TraceEvent. The pins fill
// each record with 1, 2, 3, … in declaration order (aggregate initialization, independent of
// the field list), so a reordered or re-sized field in a list changes the bytes and fails.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/wire.h"
#include "src/detect/chaos.h"
#include "src/detect/control_plane.h"
#include "src/detect/quarantine.h"
#include "src/detect/quorum.h"
#include "src/mitigate/repair_orchestrator.h"
#include "src/telemetry/trace.h"

namespace mercurial {
namespace {

// Parses hex digit pairs, ignoring spaces: "0100 0000" -> {0x01, 0x00, 0x00, 0x00}.
std::vector<uint8_t> Hex(const std::string& text) {
  std::vector<uint8_t> bytes;
  std::string digits;
  for (char c : text) {
    if (c != ' ') {
      digits.push_back(c);
    }
  }
  for (size_t i = 0; i + 1 < digits.size(); i += 2) {
    bytes.push_back(static_cast<uint8_t>(std::stoul(digits.substr(i, 2), nullptr, 16)));
  }
  return bytes;
}

// Encodes `value` through `fields`, compares the bytes with `hex`, and decodes the pinned
// bytes back into a value equal to `value`.
template <class T, class Fields>
void ExpectPinned(const T& value, Fields fields, const std::string& hex) {
  const std::vector<uint8_t> expected = Hex(hex);
  std::vector<uint8_t> bytes;
  ByteWriter w(bytes);
  WireOut out(w);
  fields(value, out);
  EXPECT_EQ(bytes, expected);

  T decoded{};
  ByteReader r(expected.data(), expected.size());
  WireIn in(r);
  fields(decoded, in);
  ASSERT_TRUE(in.ok()) << in.status().ToString();
  EXPECT_TRUE(r.ExpectEnd().ok());
  EXPECT_EQ(decoded, value);
}

// --- ByteReader::Take -------------------------------------------------------------------------

TEST(WireTest, TakeBoundsThePartAndMovesPastIt) {
  const std::vector<uint8_t> bytes = {1, 2, 3, 4, 5};
  ByteReader r(bytes.data(), bytes.size());
  ByteReader part;
  ASSERT_TRUE(r.Take(3, &part).ok());
  EXPECT_EQ(part.remaining(), 3u);
  EXPECT_EQ(part.data(), bytes.data());
  EXPECT_EQ(r.remaining(), 2u);
  uint8_t byte = 0;
  ASSERT_TRUE(r.GetU8(&byte).ok());
  EXPECT_EQ(byte, 4);
  uint32_t word = 0;
  EXPECT_EQ(part.GetU32(&word).code(), StatusCode::kDataLoss) << "the part ends at its length";
}

TEST(WireTest, TakePastTheEndFailsWithoutMoving) {
  const std::vector<uint8_t> bytes = {1, 2, 3};
  ByteReader r(bytes.data(), bytes.size());
  uint8_t byte = 0;
  ASSERT_TRUE(r.GetU8(&byte).ok());
  ByteReader part;
  EXPECT_EQ(r.Take(3, &part).code(), StatusCode::kDataLoss);
  EXPECT_EQ(r.remaining(), 2u) << "a failed Take leaves the reader where it was";
  ASSERT_TRUE(r.Take(2, &part).ok());
  EXPECT_TRUE(r.ExpectEnd().ok());
}

// --- WireIn -----------------------------------------------------------------------------------

TEST(WireTest, WireInIsStickyAfterTheFirstFailure) {
  const std::vector<uint8_t> bytes = Hex("0700000000000000 05 0900");
  ByteReader r(bytes.data(), bytes.size());
  WireIn in(r);
  uint64_t first = 0;
  ExecUnit unit = ExecUnit::kIntAlu;
  uint64_t truncated = 42;
  uint8_t after = 42;
  in.U64(first);
  in.Enum(unit, kExecUnitCount, "unit out of range");
  in.U64(truncated);
  in.U8(after);
  EXPECT_EQ(first, 7u);
  EXPECT_EQ(unit, static_cast<ExecUnit>(5));
  EXPECT_EQ(in.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(truncated, 42u) << "a failed read leaves its field as it was";
  EXPECT_EQ(after, 42) << "every read after a failure is a no-op";
  EXPECT_EQ(r.remaining(), 2u);
}

TEST(WireTest, EnumBoundAndRequireFailWithTheirMessage) {
  const std::vector<uint8_t> bytes = Hex("11");
  ByteReader r(bytes.data(), bytes.size());
  WireIn in(r);
  TraceEventKind kind = TraceEventKind::kDefectFired;
  in.Enum(kind, kTraceEventKindCount, "trace event kind out of range");
  EXPECT_EQ(in.status(), DataLossError("trace event kind out of range"));
  EXPECT_EQ(kind, TraceEventKind::kDefectFired);
  in.Require(false, "a later check does not overwrite the first failure");
  EXPECT_EQ(in.status(), DataLossError("trace event kind out of range"));
}

TEST(WireTest, SeqDecodesNoMoreThanThePayloadHolds) {
  // A count of 2^32 - 1 with one element behind it: decoding stops at the first short read.
  const std::vector<uint8_t> bytes = Hex("ffffffff 0100000000000000");
  ByteReader r(bytes.data(), bytes.size());
  WireIn in(r);
  std::vector<uint64_t> items = {9, 9, 9};
  in.Seq(items, [&](uint64_t& item) { in.U64(item); });
  EXPECT_EQ(in.status().code(), StatusCode::kDataLoss);
  EXPECT_LE(items.size(), 2u);

  // Given the element's wire size, the vector reserves no more than the payload behind the
  // count can hold: here 8 bytes, one u64.
  constexpr size_t kElementBytes = 8;
  ByteReader sized_reader(bytes.data(), bytes.size());
  WireIn sized(sized_reader);
  std::vector<uint64_t> reserved;
  sized.Seq(reserved, kElementBytes, [&](uint64_t& item) { sized.U64(item); });
  EXPECT_EQ(sized.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(reserved, std::vector<uint64_t>{1});
  EXPECT_LE(reserved.capacity(), (bytes.size() - 4) / kElementBytes);
}

// --- Stats-block and TraceEvent pins ----------------------------------------------------------

TEST(WireTest, QuarantineStatsBytesArePinned) {
  ExpectPinned(
      QuarantineStats{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13},
      [](auto& s, auto& io) { WireQuarantineStats(s, io); },
      "0100000000000000 0200000000000000 0300000000000000 0400000000000000 0500000000000000"
      "0600000000000000 0700000000000000 0800000000000000 0900000000000000 0a00000000000000"
      "0b00000000000000 0c00000000000000 0d00000000000000");
}

TEST(WireTest, QuorumStatsBytesArePinned) {
  ExpectPinned(
      QuorumStats{1, 2, 3, 4, 5, 6}, [](auto& s, auto& io) { WireQuorumStats(s, io); },
      "0100000000000000 0200000000000000 0300000000000000 0400000000000000 0500000000000000"
      "0600000000000000");
}

TEST(WireTest, ChaosStatsBytesArePinned) {
  ExpectPinned(
      ChaosStats{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
      [](auto& s, auto& io) { WireChaosStats(s, io); },
      "0100000000000000 0200000000000000 0300000000000000 0400000000000000 0500000000000000"
      "0600000000000000 0700000000000000 0800000000000000 0900000000000000 0a00000000000000"
      "0b00000000000000");
}

TEST(WireTest, ControlPlaneStatsBytesArePinned) {
  // pending_isolation_core_seconds = 12.0 travels as its IEEE-754 bits, 0x4028000000000000.
  ExpectPinned(
      ControlPlaneStats{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12.0, 13, 14,
                        QuorumStats{15, 16, 17, 18, 19, 20},
                        ChaosStats{21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31}},
      [](auto& s, auto& io) { WireControlPlaneStats(s, io); },
      "0100000000000000 0200000000000000 0300000000000000 0400000000000000 0500000000000000"
      "0600000000000000 0700000000000000 0800000000000000 0900000000000000 0a00000000000000"
      "0b00000000000000 0000000000002840 0d00000000000000 0e00000000000000 0f00000000000000"
      "1000000000000000 1100000000000000 1200000000000000 1300000000000000 1400000000000000"
      "1500000000000000 1600000000000000 1700000000000000 1800000000000000 1900000000000000"
      "1a00000000000000 1b00000000000000 1c00000000000000 1d00000000000000 1e00000000000000"
      "1f00000000000000");
}

TEST(WireTest, RepairStatsBytesArePinned) {
  ExpectPinned(
      RepairStats{1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20,
                  ChaosStats{21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31}},
      [](auto& s, auto& io) { WireRepairStats(s, io); },
      "0100000000000000 0200000000000000 0300000000000000 0400000000000000 0500000000000000"
      "0600000000000000 0700000000000000 0800000000000000 0900000000000000 0a00000000000000"
      "0b00000000000000 0c00000000000000 0d00000000000000 0e00000000000000 0f00000000000000"
      "1000000000000000 1100000000000000 1200000000000000 1300000000000000 1400000000000000"
      "1500000000000000 1600000000000000 1700000000000000 1800000000000000 1900000000000000"
      "1a00000000000000 1b00000000000000 1c00000000000000 1d00000000000000 1e00000000000000"
      "1f00000000000000");
}

TEST(WireTest, TraceCountersBytesArePinned) {
  ExpectPinned(
      TraceCounters{1, 2, 3, 4}, [](auto& s, auto& io) { WireTraceCounters(s, io); },
      "0100000000000000 0200000000000000 0300000000000000 0400000000000000");
}

TEST(WireTest, TraceEventBytesArePinned) {
  // time i64 | core u64 | epoch u64 | kind u8 | cause u8 | detail u64: 34 bytes.
  ExpectPinned(
      TraceEvent{1, 2, 3, static_cast<TraceEventKind>(4), static_cast<TraceCause>(5), 6},
      [](auto& e, auto& io) { WireTraceEvent(e, io); },
      "0100000000000000 0200000000000000 0300000000000000 04 05 0600000000000000");
}

}  // namespace
}  // namespace mercurial
