// The durable-state codec contract every journaled unit keeps (src/common/wire.h), checked
// from the unit's public Save/LoadDurableState and DrainTickOps/ApplyTickOps:
//
//   * decoding a payload into a fresh unit and encoding it again gives the same bytes;
//   * every strict prefix of a payload fails with DATA_LOSS — never OK, never an abort;
//   * a unit whose decode failed still encodes to its previous bytes (all-or-nothing loads),
//     both a fresh unit and one that already holds the driven state, so a load that resets the
//     unit on failure is caught as well as one that keeps half a payload.

#ifndef MERCURIAL_TESTS_DURABLE_CODEC_H_
#define MERCURIAL_TESTS_DURABLE_CODEC_H_

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/status.h"
#include "src/common/wire.h"

namespace mercurial {

template <class Unit>
std::vector<uint8_t> SaveBytes(const Unit& unit) {
  std::vector<uint8_t> bytes;
  ByteWriter w(bytes);
  unit.SaveDurableState(w);
  return bytes;
}

// `unit` was driven through a scenario; `fresh` was built with the same options and seeds
// and never driven.
template <class Unit>
void ExpectDurableCodecContract(const Unit& unit, const Unit& fresh) {
  const std::vector<uint8_t> bytes = SaveBytes(unit);
  const std::vector<uint8_t> fresh_bytes = SaveBytes(fresh);
  ASSERT_NE(bytes, fresh_bytes) << "the scenario left the unit in its initial state";

  Unit loaded = fresh;
  ByteReader r(bytes.data(), bytes.size());
  ASSERT_TRUE(loaded.LoadDurableState(r).ok());
  EXPECT_TRUE(r.ExpectEnd().ok());
  EXPECT_EQ(SaveBytes(loaded), bytes) << "decode then encode must give the payload back";

  Unit target = fresh;
  Unit driven = unit;
  for (size_t len = 0; len < bytes.size(); ++len) {
    ByteReader prefix(bytes.data(), len);
    ASSERT_EQ(target.LoadDurableState(prefix).code(), StatusCode::kDataLoss)
        << "prefix of " << len << " of " << bytes.size() << " bytes";
    ASSERT_EQ(SaveBytes(target), fresh_bytes)
        << "a failed load of " << len << " bytes changed the unit";
    ByteReader driven_prefix(bytes.data(), len);
    ASSERT_EQ(driven.LoadDurableState(driven_prefix).code(), StatusCode::kDataLoss)
        << "prefix of " << len << " of " << bytes.size() << " bytes, into the driven unit";
    ASSERT_EQ(SaveBytes(driven), bytes)
        << "a failed load of " << len << " bytes changed the driven unit";
  }
}

// Delta units: `before` is the unit at a tick boundary, `after` the same unit once it
// recorded the mutations that `ops` (its next DrainTickOps payload) carries.
template <class Unit>
void ExpectTickOpsContract(const Unit& before, const Unit& after,
                           const std::vector<uint8_t>& ops) {
  const std::vector<uint8_t> before_bytes = SaveBytes(before);
  ASSERT_NE(SaveBytes(after), before_bytes) << "the ops change nothing";

  Unit replayed = before;
  ByteReader r(ops.data(), ops.size());
  ASSERT_TRUE(replayed.ApplyTickOps(r).ok());
  EXPECT_TRUE(r.ExpectEnd().ok());
  EXPECT_EQ(SaveBytes(replayed), SaveBytes(after)) << "replaying the ops must reach `after`";

  for (size_t len = 0; len < ops.size(); ++len) {
    Unit target = before;
    ByteReader prefix(ops.data(), len);
    ASSERT_EQ(target.ApplyTickOps(prefix).code(), StatusCode::kDataLoss)
        << "prefix of " << len << " of " << ops.size() << " bytes";
    ASSERT_EQ(SaveBytes(target), before_bytes)
        << "a failed replay of " << len << " bytes changed the unit";
  }
}

}  // namespace mercurial

#endif  // MERCURIAL_TESTS_DURABLE_CODEC_H_
