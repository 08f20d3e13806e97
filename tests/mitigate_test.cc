// Tests for src/mitigate: redundancy, checkpointing, self-checking libraries, end-to-end
// storage, replicated log, ABFT, checked algorithms.

#include <algorithm>
#include <memory>
#include <utility>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/mitigate/abft.h"
#include "src/mitigate/checkpoint.h"
#include "src/mitigate/e2e_store.h"
#include "src/mitigate/redundancy.h"
#include "src/mitigate/replicated_log.h"
#include "src/mitigate/selfcheck.h"
#include "src/substrate/checksum.h"
#include "src/substrate/lz.h"
#include "src/workload/core_routines.h"

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

// A computation whose digest depends on correct ALU/MUL behavior.
Computation MixComputation(uint64_t seed) {
  return [seed](SimCore& core) {
    uint64_t x = seed;
    for (int i = 0; i < 32; ++i) {
      x = core.Mul(x | 1, 0x9e3779b97f4a7c15ull);
      x = core.Alu(AluOp::kXor, x, core.Alu(AluOp::kShr, x, 29));
    }
    return x;
  };
}

struct CorePool {
  std::vector<std::unique_ptr<SimCore>> owned;
  std::vector<SimCore*> ptrs;

  explicit CorePool(int n, int defective_index = -1, double rate = 1.0) {
    for (int i = 0; i < n; ++i) {
      owned.push_back(std::make_unique<SimCore>(i, Rng(1000 + i)));
      if (i == defective_index) {
        owned.back()->AddDefect(AlwaysFire(ExecUnit::kIntMul, DefectEffect::kRandomWrong, rate));
      }
      ptrs.push_back(owned.back().get());
    }
  }
};

// --- Redundancy -------------------------------------------------------------------------------

TEST(RedundancyTest, SimplexOnHealthyCore) {
  CorePool pool(1);
  RedundantExecutor executor(pool.ptrs);
  const uint64_t a = executor.RunSimplex(MixComputation(7));
  const uint64_t b = executor.RunSimplex(MixComputation(7));
  EXPECT_EQ(a, b);
  EXPECT_EQ(executor.stats().executions, 2u);
}

TEST(RedundancyTest, DmrAgreesOnHealthyCores) {
  CorePool pool(2);
  RedundantExecutor executor(pool.ptrs);
  const auto result = executor.RunDmr(MixComputation(9));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(executor.stats().mismatches, 0u);
  EXPECT_EQ(executor.stats().executions, 2u);
}

TEST(RedundancyTest, DmrDetectsDefectiveCoreAndRetries) {
  // Core 0 always corrupts multiplies; cores 1..3 are healthy. The first DMR pair (0,1)
  // disagrees; the retry pair (2,3) agrees.
  CorePool pool(4, /*defective_index=*/0);
  RedundantExecutor executor(pool.ptrs);
  const auto result = executor.RunDmr(MixComputation(11));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, MixComputation(11)(*pool.ptrs[1]) /* healthy digest */);
  EXPECT_EQ(executor.stats().mismatches, 1u);
  EXPECT_EQ(executor.stats().retries, 1u);
  EXPECT_EQ(executor.stats().executions, 4u);
}

TEST(RedundancyTest, DmrExhaustsRetriesWhenEveryPairHasTheDefectiveCore) {
  // Pool of exactly two cores, one defective: every round re-picks the same bad pair.
  CorePool pool(2, /*defective_index=*/0);
  RedundantExecutor executor(pool.ptrs);
  const auto result = executor.RunDmr(MixComputation(13), /*max_retries=*/2);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAborted);
  EXPECT_EQ(executor.stats().unresolved, 1u);
}

TEST(RedundancyTest, TmrOutvotesSingleDefectiveCore) {
  CorePool pool(3, /*defective_index=*/1);
  RedundantExecutor executor(pool.ptrs);
  const auto result = executor.RunTmr(MixComputation(15));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, MixComputation(15)(*pool.ptrs[0]));
  EXPECT_EQ(executor.stats().vote_corrections, 1u);
  EXPECT_EQ(executor.stats().executions, 3u);
}

TEST(RedundancyTest, TmrCleanVoteOnHealthyCores) {
  CorePool pool(3);
  RedundantExecutor executor(pool.ptrs);
  const auto result = executor.RunTmr(MixComputation(17));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(executor.stats().vote_corrections, 0u);
  EXPECT_EQ(executor.stats().mismatches, 0u);
}

TEST(RedundancyTest, VotedTmrMatchesPlainTmrWithReliableVoter) {
  CorePool pool(3, /*defective_index=*/1);
  SimCore voter(9, Rng(909));
  RedundantExecutor executor(pool.ptrs);
  const auto result = executor.RunTmrVotedOn(MixComputation(21), voter);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, MixComputation(21)(*pool.ptrs[0]));
  EXPECT_EQ(executor.stats().vote_corrections, 1u);
}

TEST(RedundancyTest, DefectiveVoterLoadCorruptsAgreedDigest) {
  // §7: "this relies on the voting mechanism itself being reliable" — three healthy
  // replicas, but the voter's load path always flips a bit of the winning digest.
  CorePool pool(3);
  SimCore voter(9, Rng(910));
  DefectSpec spec;
  spec.unit = ExecUnit::kLoad;
  spec.effect = DefectEffect::kBitFlip;
  spec.fvt.base_rate = 1.0;
  spec.bit_index = 13;
  voter.AddDefect(spec);
  RedundantExecutor executor(pool.ptrs);
  const auto result = executor.RunTmrVotedOn(MixComputation(23), voter);
  ASSERT_TRUE(result.ok()) << "the vote completes...";
  EXPECT_EQ(*result, MixComputation(23)(*pool.ptrs[0]) ^ (1ull << 13))
      << "...but the agreed digest was corrupted on egress";
}

TEST(RedundancyTest, DefectiveVoterAluCausesPhantomDisagreement) {
  CorePool pool(3);
  SimCore voter(9, Rng(911));
  DefectSpec spec;
  spec.unit = ExecUnit::kIntAlu;
  spec.effect = DefectEffect::kBitFlip;
  spec.fvt.base_rate = 1.0;
  spec.opcode_mask = 1ull << static_cast<int>(AluOp::kXor);
  voter.AddDefect(spec);
  RedundantExecutor executor(pool.ptrs);
  const auto result = executor.RunTmrVotedOn(MixComputation(25), voter);
  // All three replicas agreed, but the always-firing corrupted XOR makes every pair look
  // unequal: total availability loss (abort), though never a wrong answer.
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(executor.stats().unresolved, 1u);
  EXPECT_EQ(executor.stats().mismatches, 1u);
}

// --- Checkpointing -----------------------------------------------------------------------------

GranuleFn MixGranule() {
  return [](SimCore& core, uint64_t state) {
    uint64_t x = state;
    for (int i = 0; i < 8; ++i) {
      x = core.Mul(x | 1, 0xbf58476d1ce4e5b9ull);
      x = core.Alu(AluOp::kXor, x, core.Alu(AluOp::kShr, x, 31));
    }
    return x;
  };
}

uint64_t GoldenChain(uint64_t state, int granules) {
  SimCore golden(999, Rng(999));
  const GranuleFn fn = MixGranule();
  for (int g = 0; g < granules; ++g) {
    state = fn(golden, state);
  }
  return state;
}

TEST(CheckpointTest, HealthyChainCommitsEveryGranule) {
  CorePool pool(2);
  CheckpointRunner runner(pool.ptrs);
  const auto result = runner.RunPaired(MixGranule(), 5, /*granules=*/10);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, GoldenChain(5, 10));
  EXPECT_EQ(runner.stats().granules_committed, 10u);
  EXPECT_EQ(runner.stats().rollbacks, 0u);
  EXPECT_EQ(runner.stats().granule_executions, 20u);
}

TEST(CheckpointTest, PairedRollsBackPastDefectiveCore) {
  // Pool (bad, good, good, good): pairs rotate, so a corrupted granule is retried on a clean
  // pair and the final state is golden.
  CorePool pool(4, /*defective_index=*/0);
  CheckpointRunner runner(pool.ptrs);
  const auto result = runner.RunPaired(MixGranule(), 5, /*granules=*/8);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, GoldenChain(5, 8));
  EXPECT_GT(runner.stats().rollbacks, 0u);
}

TEST(CheckpointTest, CheckerDrivenRun) {
  CorePool pool(3, /*defective_index=*/0);
  CheckpointRunner runner(pool.ptrs);
  // The application checker here knows the golden chain (models a cheap invariant that is
  // precise for this computation).
  uint64_t expected = 5;
  const GranuleFn fn = MixGranule();
  auto checker = [&](uint64_t state_in, uint64_t state_out) {
    SimCore golden(998, Rng(998));
    return fn(golden, state_in) == state_out;
  };
  const auto result = runner.Run(fn, checker, 5, /*granules=*/6);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, GoldenChain(expected, 6));
}

TEST(CheckpointTest, ExhaustedRetriesAbort) {
  CorePool pool(1, /*defective_index=*/0);  // only a defective core available
  CheckpointRunner runner(pool.ptrs);
  auto always_reject = [](uint64_t, uint64_t) { return false; };
  const auto result = runner.Run(MixGranule(), always_reject, 1, /*granules=*/2,
                                 /*max_retries_per_granule=*/2);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(runner.stats().failures, 1u);
}

// --- Durable checkpoint framing ---------------------------------------------------------------

TEST(CheckpointFrameTest, RoundTripRecoversStateAndProvenance) {
  const ProvenanceTag tag{/*core_global=*/1234, /*epoch=*/87};
  const std::vector<uint8_t> bytes = SerializeCheckpoint(0xdeadbeefcafef00dull, tag);
  ASSERT_EQ(bytes.size(), kCheckpointFrameBytes);
  ProvenanceTag recovered;
  const auto state = RestoreCheckpoint(bytes, &recovered);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, 0xdeadbeefcafef00dull);
  EXPECT_EQ(recovered.core_global, tag.core_global);
  EXPECT_EQ(recovered.epoch, tag.epoch);
}

TEST(CheckpointFrameTest, FrameBytesArePinned) {
  // The on-disk layout, byte for byte: a checkpoint written by one build must restore in the
  // next, so any change to these bytes is a format change, not a refactor.
  const std::vector<uint8_t> expected = {
      0x50, 0x4b, 0x43, 0x4d,                          // magic "MCKP"
      0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,  // core_global
      0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // epoch 42
      0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01,  // state
      0xa0, 0x12, 0x59, 0x88,                          // crc32 of the 28 bytes above
  };
  const std::vector<uint8_t> bytes =
      SerializeCheckpoint(0x0123456789abcdefull, ProvenanceTag{0x0706050403020100ull, 42});
  EXPECT_EQ(bytes, expected);
  ProvenanceTag restored;
  const auto state = RestoreCheckpoint(expected, &restored);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, 0x0123456789abcdefull);
  EXPECT_EQ(restored, (ProvenanceTag{0x0706050403020100ull, 42}));
}

TEST(CheckpointFrameTest, EveryBitFlipFailsLoudly) {
  // Restore-from-corrupt must never resume from silently-wrong state: flipping ANY single bit
  // of the frame — magic, provenance, state payload, or the CRC itself — must yield DATA_LOSS.
  const std::vector<uint8_t> golden =
      SerializeCheckpoint(0x0123456789abcdefull, ProvenanceTag{7, 3});
  for (size_t byte = 0; byte < golden.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> mutated = golden;
      mutated[byte] ^= static_cast<uint8_t>(1u << bit);
      const auto state = RestoreCheckpoint(mutated);
      ASSERT_FALSE(state.ok()) << "bit " << bit << " of byte " << byte << " flipped silently";
      EXPECT_EQ(state.status().code(), StatusCode::kDataLoss);
    }
  }
}

TEST(CheckpointFrameTest, EveryTruncationFailsLoudly) {
  const std::vector<uint8_t> golden = SerializeCheckpoint(42, ProvenanceTag{1, 1});
  for (size_t len = 0; len < golden.size(); ++len) {
    const std::vector<uint8_t> truncated(golden.begin(), golden.begin() + len);
    const auto state = RestoreCheckpoint(truncated);
    ASSERT_FALSE(state.ok()) << "truncation to " << len << " bytes restored silently";
    EXPECT_EQ(state.status().code(), StatusCode::kDataLoss);
  }
  // Trailing garbage is a framing violation too.
  std::vector<uint8_t> extended = golden;
  extended.push_back(0);
  EXPECT_EQ(RestoreCheckpoint(extended).status().code(), StatusCode::kDataLoss);
}

// --- Self-checking crypto -----------------------------------------------------------------------

struct AesDefectiveCore {
  SimCore core{1, Rng(21)};
  AesDefectiveCore() {
    DefectSpec spec = AlwaysFire(ExecUnit::kAes, DefectEffect::kRconCorrupt);
    spec.opcode_mask = 1ull << kAesOpRcon;
    core.AddDefect(spec);
  }
};

TEST(SelfCheckTest, SameCoreRoundTripBlindToSelfInvertingAes) {
  AesDefectiveCore bad;
  SelfCheckingAes aes(&bad.core, nullptr, CryptoCheckMode::kSameCoreRoundTrip);
  Rng rng(22);
  uint8_t key[16];
  rng.FillBytes(key, 16);
  std::vector<uint8_t> plaintext(128);
  rng.FillBytes(plaintext.data(), plaintext.size());

  const auto result = aes.Encrypt(key, 1, plaintext);
  ASSERT_TRUE(result.ok()) << "the blind check must pass";
  EXPECT_EQ(aes.stats().corruptions_caught, 0u);
  // And yet the ciphertext is wrong (no healthy core can decrypt it).
  const auto golden = AesCtrTransform(ExpandAesKey(key), 1, plaintext);
  EXPECT_NE(*result, golden);
}

TEST(SelfCheckTest, CrossCoreRoundTripCatchesSelfInvertingAes) {
  AesDefectiveCore bad;
  SimCore checker(2, Rng(23));
  SelfCheckingAes aes(&bad.core, &checker, CryptoCheckMode::kCrossCoreRoundTrip);
  Rng rng(24);
  uint8_t key[16];
  rng.FillBytes(key, 16);
  std::vector<uint8_t> plaintext(128);
  rng.FillBytes(plaintext.data(), plaintext.size());

  const auto result = aes.Encrypt(key, 1, plaintext);
  ASSERT_TRUE(result.ok()) << "retry on the checker core must produce a good ciphertext";
  EXPECT_EQ(aes.stats().corruptions_caught, 1u);
  const auto golden = AesCtrTransform(ExpandAesKey(key), 1, plaintext);
  EXPECT_EQ(*result, golden);
}

TEST(SelfCheckTest, NoCheckModePassesCorruptionThrough) {
  AesDefectiveCore bad;
  SelfCheckingAes aes(&bad.core, nullptr, CryptoCheckMode::kNone);
  uint8_t key[16] = {1};
  const std::vector<uint8_t> plaintext(64, 0x7);
  const auto result = aes.Encrypt(key, 1, plaintext);
  ASSERT_TRUE(result.ok());
  EXPECT_NE(*result, AesCtrTransform(ExpandAesKey(key), 1, plaintext));
}

TEST(SelfCheckTest, HealthyCoreAllModesAgreeWithGolden) {
  SimCore core(1, Rng(25));
  SimCore checker(2, Rng(26));
  uint8_t key[16] = {9};
  const std::vector<uint8_t> plaintext(80, 0x3c);
  const auto golden = AesCtrTransform(ExpandAesKey(key), 5, plaintext);
  for (CryptoCheckMode mode : {CryptoCheckMode::kNone, CryptoCheckMode::kSameCoreRoundTrip,
                               CryptoCheckMode::kCrossCoreRoundTrip}) {
    SelfCheckingAes aes(&core, &checker, mode);
    const auto result = aes.Encrypt(key, 5, plaintext);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(*result, golden);
  }
}

TEST(SelfCheckTest, CompressVerifiedHealthy) {
  SimCore core(1, Rng(27));
  Rng rng(28);
  std::vector<uint8_t> data(512);
  rng.FillBytes(data.data(), data.size());
  SelfCheckStats stats;
  const auto result = CompressVerified(core, data, &stats);
  ASSERT_TRUE(result.ok());
  const auto decompressed = LzDecompress(*result);
  ASSERT_TRUE(decompressed.ok());
  EXPECT_EQ(*decompressed, data);
  EXPECT_EQ(stats.corruptions_caught, 0u);
}

TEST(SelfCheckTest, CompressVerifiedCatchesDecodeCorruption) {
  SimCore core(1, Rng(29));
  core.AddDefect(AlwaysFire(ExecUnit::kCopy, DefectEffect::kBitFlip, 0.05));
  Rng rng(30);
  int caught = 0;
  for (int i = 0; i < 20; ++i) {
    std::vector<uint8_t> data(512);
    rng.FillBytes(data.data(), data.size());
    SelfCheckStats stats;
    (void)CompressVerified(core, data, &stats);
    caught += stats.corruptions_caught > 0 ? 1 : 0;
  }
  EXPECT_GT(caught, 0);
}

// --- End-to-end store ----------------------------------------------------------------------------

TEST(E2eStoreTest, HealthyWriteReadRoundTrip) {
  SimCore server(1, Rng(31));
  ChecksummedStore store(&server, /*verify_on_write=*/true);
  const std::vector<uint8_t> data{1, 2, 3, 4, 5};
  ASSERT_TRUE(store.Write(42, data).ok());
  const auto read = store.Read(42);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
  EXPECT_EQ(store.stats().write_corruptions_caught, 0u);
}

TEST(E2eStoreTest, ReadMissingKey) {
  SimCore server(1, Rng(32));
  ChecksummedStore store(&server, true);
  EXPECT_EQ(store.Read(1).status().code(), StatusCode::kNotFound);
}

TEST(E2eStoreTest, WritePathCorruptionNeverSilent) {
  // The core property of the end-to-end argument: with a defective copy engine, every
  // corruption is either caught at write time or at read time — reads never return bad bytes.
  SimCore server(1, Rng(33));
  server.AddDefect(AlwaysFire(ExecUnit::kCopy, DefectEffect::kBitFlip, 0.02));
  ChecksummedStore store(&server, /*verify_on_write=*/true);
  Rng rng(34);
  int data_loss = 0;
  for (uint64_t key = 0; key < 50; ++key) {
    std::vector<uint8_t> data(256);
    rng.FillBytes(data.data(), data.size());
    const Status write_status = store.Write(key, data);
    if (!write_status.ok()) {
      ++data_loss;
      continue;
    }
    const auto read = store.Read(key);
    if (!read.ok()) {
      EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
      ++data_loss;
      continue;
    }
    EXPECT_EQ(*read, data) << "a successful read must return exactly the written bytes";
  }
  EXPECT_GT(store.stats().write_corruptions_caught + store.stats().read_corruptions_caught, 0u);
  (void)data_loss;
}

TEST(E2eStoreTest, DeferredVerificationCatchesAtRead) {
  SimCore server(1, Rng(35));
  server.AddDefect(AlwaysFire(ExecUnit::kCopy, DefectEffect::kBitFlip, 0.05));
  ChecksummedStore store(&server, /*verify_on_write=*/false);
  Rng rng(36);
  uint64_t read_failures = 0;
  for (uint64_t key = 0; key < 40; ++key) {
    std::vector<uint8_t> data(256);
    rng.FillBytes(data.data(), data.size());
    ASSERT_TRUE(store.Write(key, data).ok()) << "writes are acked blind";
    const auto read = store.Read(key);
    if (!read.ok()) {
      ++read_failures;
    } else {
      EXPECT_EQ(*read, data);
    }
  }
  EXPECT_GT(read_failures, 0u) << "corruption surfaces at read time instead";
  EXPECT_EQ(store.stats().write_corruptions_caught, 0u);
}

TEST(E2eStoreTest, BlobsCarryWriteTimeProvenance) {
  SimCore server(17, Rng(61));
  ChecksummedStore store(&server, /*verify_on_write=*/true);
  ASSERT_TRUE(store.Write(1, {1, 2, 3}).ok());
  server.set_provenance_epoch(5);
  ASSERT_TRUE(store.Write(2, {4, 5, 6}).ok());
  const ProvenanceTag* first = store.Provenance(1);
  const ProvenanceTag* second = store.Provenance(2);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(first->core_global, 17u);
  EXPECT_EQ(first->epoch, 0u);
  EXPECT_EQ(second->epoch, 5u);
  EXPECT_EQ(store.Provenance(99), nullptr);
}

TEST(E2eStoreTest, ReverifySuspectFindsAndEvictsCorruptBlobsInEpochRange) {
  // Deferred verification + a defective copy engine: corrupt payloads land at rest. The
  // retroactive audit scan must find exactly the corrupt blobs of the suspect (core, epochs),
  // evict them for re-execution, and leave healthy blobs and out-of-range epochs untouched.
  SimCore server(9, Rng(62));
  server.AddDefect(AlwaysFire(ExecUnit::kCopy, DefectEffect::kBitFlip, 0.15));
  ChecksummedStore store(&server, /*verify_on_write=*/false);
  Rng rng(63);
  std::vector<std::vector<uint8_t>> written(60);
  for (uint64_t key = 0; key < 60; ++key) {
    server.set_provenance_epoch(key / 20);  // epochs 0, 1, 2 — 20 keys each
    written[key].resize(128);
    rng.FillBytes(written[key].data(), written[key].size());
    ASSERT_TRUE(store.Write(key, written[key]).ok());
  }
  // A scan keyed to some other core touches nothing.
  EXPECT_TRUE(store.ReverifySuspect(/*core_global=*/1, 0, 2).empty());
  EXPECT_EQ(store.stats().suspect_blobs_scanned, 0u);

  const std::vector<uint64_t> corrupt = store.ReverifySuspect(/*core_global=*/9, 1, 1);
  EXPECT_EQ(store.stats().suspect_scans, 2u);
  EXPECT_EQ(store.stats().suspect_blobs_scanned, 20u) << "only epoch-1 blobs are suspect";
  EXPECT_EQ(store.stats().suspect_corruptions_found, corrupt.size());
  EXPECT_FALSE(corrupt.empty()) << "a 15% bit-flip rate over 20 writes corrupts some blob";
  for (size_t i = 1; i < corrupt.size(); ++i) {
    EXPECT_LT(corrupt[i - 1], corrupt[i]) << "keys are returned in deterministic order";
  }
  for (const uint64_t key : corrupt) {
    EXPECT_GE(key, 20u);
    EXPECT_LT(key, 40u);
    EXPECT_EQ(store.Read(key).status().code(), StatusCode::kNotFound)
        << "corrupt blobs are evicted so re-execution can rewrite them";
  }
  // Every surviving epoch-1 blob passes its golden CRC at rest; a read may still fail loudly
  // (the read path itself runs on the defective copy engine) but never returns wrong bytes.
  for (uint64_t key = 20; key < 40; ++key) {
    if (std::find(corrupt.begin(), corrupt.end(), key) != corrupt.end()) {
      continue;
    }
    const auto read = store.Read(key);
    if (read.ok()) {
      EXPECT_EQ(*read, written[key]);
    } else {
      EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
    }
  }
}

// --- Replicated log -------------------------------------------------------------------------------

TEST(ReplicatedLogTest, HealthyReplicasAgree) {
  CorePool pool(3);
  ReplicatedLog log(pool.ptrs, 7);
  Rng rng(37);
  for (int i = 0; i < 50; ++i) {
    const auto result = log.Apply(rng.NextU64());
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(log.last_divergent_replica(), -1);
  }
  EXPECT_EQ(log.stats().divergences_detected, 0u);
}

TEST(ReplicatedLogTest, DivergentReplicaDetectedAndRepaired) {
  CorePool pool(3, /*defective_index=*/1, /*rate=*/0.05);
  ReplicatedLog log(pool.ptrs, 7);
  Rng rng(38);
  int divergences = 0;
  for (int i = 0; i < 200; ++i) {
    const auto result = log.Apply(rng.NextU64());
    ASSERT_TRUE(result.ok()) << "a single bad replica can never block the quorum";
    if (log.last_divergent_replica() >= 0) {
      EXPECT_EQ(log.last_divergent_replica(), 1) << "the defective replica is the one flagged";
      ++divergences;
    }
  }
  EXPECT_GT(divergences, 0);
  EXPECT_EQ(log.stats().repairs, log.stats().divergences_detected);
}

TEST(ReplicatedLogTest, FiveWayToleratesTwoDivergences) {
  CorePool pool(5, /*defective_index=*/0, /*rate=*/1.0);
  pool.owned[1]->AddDefect(AlwaysFire(ExecUnit::kIntMul, DefectEffect::kRandomWrong, 1.0));
  ReplicatedLog log(pool.ptrs, 3);
  const auto result = log.Apply(123);
  ASSERT_TRUE(result.ok()) << "3 healthy of 5 still form a majority";
  EXPECT_EQ(log.stats().divergences_detected, 2u);
}

TEST(ReplicatedLogTest, NoMajorityAbortsAndReportsEveryReplicaAsSuspect) {
  // Regression: two always-wrong replicas out of three produce three distinct digests — no
  // majority exists. Apply must return ABORTED (never a guessed state), and since there is no
  // trusted reference EVERY replica must be filed as suspect; the concentration stage is what
  // discounts the healthy one later, not the log.
  CorePool pool(3, /*defective_index=*/0, /*rate=*/1.0);
  pool.owned[1]->AddDefect(AlwaysFire(ExecUnit::kIntMul, DefectEffect::kRandomWrong, 1.0));
  ReplicatedLog log(pool.ptrs, 11);
  std::vector<std::pair<size_t, uint64_t>> reported;
  log.set_suspect_reporter(
      [&](size_t replica, uint64_t core_id) { reported.emplace_back(replica, core_id); });
  const auto result = log.Apply(456);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAborted);
  EXPECT_EQ(log.stats().unresolved, 1u);
  ASSERT_EQ(reported.size(), 3u) << "all replicas reported when no majority exists";
  for (size_t i = 0; i < reported.size(); ++i) {
    EXPECT_EQ(reported[i].first, i);
    EXPECT_EQ(reported[i].second, pool.ptrs[i]->id());
  }
  EXPECT_EQ(log.agreed_state(), 11u) << "the agreed state is not advanced without a quorum";
}

TEST(ReplicatedLogTest, MajorityRepairReportsOnlyTheDivergentReplica) {
  CorePool pool(3, /*defective_index=*/2, /*rate=*/1.0);
  ReplicatedLog log(pool.ptrs, 11);
  std::vector<std::pair<size_t, uint64_t>> reported;
  log.set_suspect_reporter(
      [&](size_t replica, uint64_t core_id) { reported.emplace_back(replica, core_id); });
  const auto result = log.Apply(456);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(reported.size(), 1u);
  EXPECT_EQ(reported[0].first, 2u);
  EXPECT_EQ(reported[0].second, pool.ptrs[2]->id());
}

// --- ABFT / checked algorithms ---------------------------------------------------------------------

Matrix RandomMatrix(Rng& rng, size_t n) {
  Matrix m(n, n);
  for (auto& v : m.data()) {
    v = rng.NextDouble() * 2.0 - 1.0;
  }
  return m;
}

TEST(AbftTest, HealthyMatmulNoDetection) {
  SimCore core(1, Rng(39));
  Rng rng(40);
  const Matrix a = RandomMatrix(rng, 8);
  const Matrix b = RandomMatrix(rng, 8);
  const AbftMatmulResult result = AbftMatmul(core, a, b);
  EXPECT_FALSE(result.corruption_detected);
  EXPECT_LT(result.product.MaxAbsDiff(Multiply(a, b)), 1e-9);
}

TEST(AbftTest, DetectsInjectedCorruption) {
  SimCore core(1, Rng(41));
  DefectSpec spec = AlwaysFire(ExecUnit::kFp, DefectEffect::kBitFlip, 0.005);
  spec.bit_index = 52;  // exponent-adjacent: large perturbation
  core.AddDefect(spec);
  Rng rng(42);
  int detected = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const Matrix a = RandomMatrix(rng, 8);
    const Matrix b = RandomMatrix(rng, 8);
    const AbftMatmulResult result = AbftMatmul(core, a, b);
    const bool wrong = result.product.MaxAbsDiff(Multiply(a, b)) > 1e-6;
    if (result.corruption_detected) {
      ++detected;
    } else {
      EXPECT_FALSE(wrong) << "undetected corruption in the returned product";
    }
  }
  EXPECT_GT(detected, 0);
}

TEST(AbftTest, CorrectsSingleCellCorruption) {
  // Inject exactly one wrong cell by hand to exercise the correction path deterministically.
  SimCore core(1, Rng(43));
  Rng rng(44);
  const Matrix a = RandomMatrix(rng, 6);
  const Matrix b = RandomMatrix(rng, 6);
  // Build the augmented product on a healthy core, then corrupt one interior cell by
  // re-running AbftMatmul against a defective core that fires exactly once... simpler: verify
  // via the public API that single-firing defects usually end up corrected.
  DefectSpec spec = AlwaysFire(ExecUnit::kFp, DefectEffect::kBitFlip, 0.0);  // armed manually
  spec.bit_index = 51;
  SimCore bad(2, Rng(45));
  spec.fvt.base_rate = 1.0;
  spec.trigger.mask = 0xff;  // fire on ~1/256 of op signatures: expect ~1-2 firings per matmul
  spec.trigger.value = 0x3d;
  bad.AddDefect(spec);
  int corrected = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const Matrix x = RandomMatrix(rng, 6);
    const Matrix y = RandomMatrix(rng, 6);
    const AbftMatmulResult result = AbftMatmul(bad, x, y);
    if (result.corrected) {
      ++corrected;
      EXPECT_LT(result.product.MaxAbsDiff(Multiply(x, y)), 1e-6)
          << "corrected product must match golden";
    }
  }
  EXPECT_GT(corrected, 0) << "single-cell corruptions must sometimes be repaired";
}

TEST(FreivaldsTest, AcceptsCorrectProduct) {
  Rng rng(46);
  const Matrix a = RandomMatrix(rng, 10);
  const Matrix b = RandomMatrix(rng, 10);
  EXPECT_TRUE(FreivaldsCheck(a, b, Multiply(a, b), 10, rng));
}

TEST(FreivaldsTest, RejectsCorruptedProduct) {
  Rng rng(47);
  const Matrix a = RandomMatrix(rng, 10);
  const Matrix b = RandomMatrix(rng, 10);
  Matrix c = Multiply(a, b);
  c.at(3, 7) += 0.5;
  EXPECT_FALSE(FreivaldsCheck(a, b, c, 10, rng));
}

TEST(CheckedSortTest, HealthySort) {
  CorePool pool(2);
  Rng rng(48);
  std::vector<uint64_t> keys(200);
  for (auto& k : keys) {
    k = rng.NextU64();
  }
  CheckedSortStats stats;
  const auto result = CheckedSort(keys, pool.ptrs, 3, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(std::is_sorted(result->begin(), result->end()));
  EXPECT_EQ(stats.check_failures, 0u);
}

TEST(CheckedSortTest, RetriesOntoHealthyCore) {
  CorePool pool(2);
  pool.owned[0]->AddDefect(AlwaysFire(ExecUnit::kStore, DefectEffect::kBitFlip, 0.01));
  Rng rng(49);
  std::vector<uint64_t> keys(256);
  for (auto& k : keys) {
    k = rng.NextU64();
  }
  std::vector<uint64_t> golden = keys;
  std::sort(golden.begin(), golden.end());
  CheckedSortStats stats;
  const auto result = CheckedSort(keys, pool.ptrs, 3, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, golden);
  // With a 1% store corruption over 256 elements the first attempt almost surely failed.
  EXPECT_GT(stats.check_failures, 0u);
}

TEST(CheckedSortTest, AbortsWhenAllCoresBad) {
  CorePool pool(1, /*defective_index=*/0, /*rate=*/0.05);
  // Defect on the store unit so every attempt corrupts.
  pool.owned[0]->AddDefect(AlwaysFire(ExecUnit::kStore, DefectEffect::kBitFlip, 0.05));
  Rng rng(50);
  std::vector<uint64_t> keys(256);
  for (auto& k : keys) {
    k = rng.NextU64();
  }
  const auto result = CheckedSort(keys, pool.ptrs, 2, nullptr);
  EXPECT_FALSE(result.ok());
}

TEST(CheckedLuTest, HealthyFactorization) {
  CorePool pool(2);
  Rng rng(51);
  Matrix a = RandomMatrix(rng, 8);
  for (size_t i = 0; i < 8; ++i) {
    a.at(i, i) += 4.0;
  }
  const auto factors = CheckedLuFactorize(a, pool.ptrs);
  ASSERT_TRUE(factors.ok());
  EXPECT_LT(LuReconstruct(*factors).MaxAbsDiff(PermuteRows(a, factors->pivots)), 1e-9);
}

TEST(CheckedLuTest, RetriesPastDefectiveCore) {
  CorePool pool(2);
  DefectSpec spec = AlwaysFire(ExecUnit::kFp, DefectEffect::kBitFlip, 0.02);
  spec.bit_index = 51;
  pool.owned[0]->AddDefect(spec);
  Rng rng(52);
  int successes = 0;
  for (int trial = 0; trial < 10; ++trial) {
    Matrix a = RandomMatrix(rng, 8);
    for (size_t i = 0; i < 8; ++i) {
      a.at(i, i) += 4.0;
    }
    const auto factors = CheckedLuFactorize(a, pool.ptrs, /*max_retries=*/3);
    if (factors.ok()) {
      ++successes;
      EXPECT_LT(LuReconstruct(*factors).MaxAbsDiff(PermuteRows(a, factors->pivots)), 1e-6);
    }
  }
  EXPECT_GT(successes, 7) << "the healthy pool core should rescue nearly every attempt";
}

TEST(CheckedLuTest, CoreLuMatchesSubstrateOnHealthyCore) {
  SimCore core(1, Rng(53));
  Rng rng(54);
  Matrix a = RandomMatrix(rng, 6);
  for (size_t i = 0; i < 6; ++i) {
    a.at(i, i) += 3.0;
  }
  const auto on_core = CoreLuFactorize(core, a);
  const auto golden = LuFactorize(a);
  ASSERT_TRUE(on_core.ok());
  ASSERT_TRUE(golden.ok());
  EXPECT_LT(on_core->lower.MaxAbsDiff(golden->lower), 1e-12);
  EXPECT_LT(on_core->upper.MaxAbsDiff(golden->upper), 1e-12);
  EXPECT_EQ(on_core->pivots, golden->pivots);
}

}  // namespace
}  // namespace mercurial
