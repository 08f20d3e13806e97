// Tests for src/mitigate/replay.h (deterministic-replay replication) and src/common/flags.h.

#include <memory>

#include <gtest/gtest.h>

#include "src/common/flags.h"
#include "src/common/rng.h"
#include "src/mitigate/replay.h"

namespace mercurial {
namespace {

DefectSpec MulDefect(double rate) {
  DefectSpec spec;
  spec.unit = ExecUnit::kIntMul;
  spec.effect = DefectEffect::kRandomWrong;
  spec.fvt.base_rate = rate;
  spec.machine_check_fraction = 0.0;
  return spec;
}

// A computation that consumes a VARIABLE number of non-deterministic inputs: the number of
// rounds itself depends on the first input. This is exactly what naive re-execution cannot
// replicate.
NonDeterministicComputation VariableComputation() {
  return [](SimCore& core,
            const std::function<StatusOr<uint64_t>()>& next_input) -> StatusOr<uint64_t> {
    const StatusOr<uint64_t> first = next_input();
    if (!first.ok()) {
      return first.status();
    }
    const uint64_t rounds = 4 + (*first % 5);
    uint64_t digest = *first;
    for (uint64_t r = 0; r < rounds; ++r) {
      const StatusOr<uint64_t> input = next_input();
      if (!input.ok()) {
        return input.status();
      }
      digest = core.Mul(digest | 1, *input | 1);
      digest = core.Alu(AluOp::kXor, digest, core.Alu(AluOp::kShr, digest, 31));
    }
    return digest;
  };
}

struct Pool {
  std::vector<std::unique_ptr<SimCore>> owned;
  std::vector<SimCore*> ptrs;

  explicit Pool(int n, int defective = -1, double rate = 1.0) {
    for (int i = 0; i < n; ++i) {
      owned.push_back(std::make_unique<SimCore>(i, Rng(800 + i)));
      if (i == defective) {
        owned.back()->AddDefect(MulDefect(rate));
      }
      ptrs.push_back(owned.back().get());
    }
  }
};

// --- ReplayLog -------------------------------------------------------------------------------

TEST(ReplayLogTest, RecordThenReplay) {
  ReplayLog log;
  Rng rng(1);
  std::vector<uint64_t> recorded;
  for (int i = 0; i < 5; ++i) {
    recorded.push_back(log.Record([&rng] { return rng.NextU64(); }));
  }
  log.Rewind();
  for (int i = 0; i < 5; ++i) {
    const auto value = log.Next();
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(*value, recorded[i]);
  }
  EXPECT_TRUE(log.Exhausted());
  EXPECT_FALSE(log.Next().ok()) << "over-consumption must fail";
}

TEST(ReplayLogTest, RewindResets) {
  ReplayLog log;
  log.Record([] { return 7ull; });
  log.Rewind();
  EXPECT_EQ(*log.Next(), 7ull);
  log.Rewind();
  EXPECT_EQ(*log.Next(), 7ull);
}

// --- ReplayingExecutor -------------------------------------------------------------------------

TEST(ReplayTest, NonDeterministicComputationCertifiedOnHealthyPool) {
  Pool pool(3);
  ReplayingExecutor executor(pool.ptrs);
  Rng source_rng(9);
  const auto result =
      executor.Run(VariableComputation(), [&source_rng] { return source_rng.NextU64(); });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(executor.stats().divergences, 0u);
  EXPECT_GT(executor.stats().recorded_inputs, 4u);
}

TEST(ReplayTest, TwoRunsDifferWithoutReplayButAgreeWithIt) {
  // Sanity: the computation really is non-deterministic (two recordings differ), yet replay
  // makes replicas agree.
  Pool pool(2);
  ReplayingExecutor executor(pool.ptrs);
  Rng source_rng(10);
  const auto source = [&source_rng] { return source_rng.NextU64(); };
  const auto a = executor.Run(VariableComputation(), source);
  const auto b = executor.Run(VariableComputation(), source);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b) << "fresh inputs each run: digests differ across runs";
  EXPECT_EQ(executor.stats().divergences, 0u) << "but replicas within a run agree";
}

TEST(ReplayTest, DefectiveReplicaOutvoted) {
  // Pool: (bad, good, good). Recording lands on the bad core in some runs, replay in others;
  // either way, two healthy replicas eventually agree on the replayed inputs.
  Pool pool(3, /*defective=*/0, /*rate=*/1.0);
  ReplayingExecutor executor(pool.ptrs);
  Rng source_rng(11);
  int success = 0;
  for (int i = 0; i < 20; ++i) {
    const auto result =
        executor.Run(VariableComputation(), [&source_rng] { return source_rng.NextU64(); });
    success += result.ok() ? 1 : 0;
  }
  EXPECT_EQ(success, 20);
  EXPECT_GT(executor.stats().divergences, 0u) << "the defective replica was seen disagreeing";
}

TEST(ReplayTest, AllBadPoolAborts) {
  Pool pool(2, /*defective=*/0, /*rate=*/1.0);
  pool.owned[1]->AddDefect(MulDefect(1.0));
  ReplayingExecutor executor(pool.ptrs);
  Rng source_rng(12);
  const auto result = executor.Run(VariableComputation(),
                                   [&source_rng] { return source_rng.NextU64(); },
                                   /*max_replays=*/3);
  // With every core randomly corrupting, agreement is (nearly) impossible.
  EXPECT_FALSE(result.ok());
}

// --- FlagSet -----------------------------------------------------------------------------------

TEST(FlagsTest, ParsesAllForms) {
  FlagSet flags;
  flags.DefineString("name", "default", "a string");
  flags.DefineInt("count", 5, "an int");
  flags.DefineDouble("rate", 0.5, "a double");
  flags.DefineBool("verbose", false, "a bool");

  const char* argv[] = {"prog", "--name=widget", "--count", "42", "--rate=2.5", "--verbose",
                        "positional"};
  ASSERT_TRUE(flags.Parse(7, argv).ok());
  EXPECT_EQ(flags.GetString("name"), "widget");
  EXPECT_EQ(flags.GetInt("count"), 42);
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate"), 2.5);
  EXPECT_TRUE(flags.GetBool("verbose"));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
}

TEST(FlagsTest, DefaultsApplyWhenUnset) {
  FlagSet flags;
  flags.DefineInt("count", 5, "an int");
  flags.DefineBool("verbose", true, "a bool");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.Parse(1, argv).ok());
  EXPECT_EQ(flags.GetInt("count"), 5);
  EXPECT_TRUE(flags.GetBool("verbose"));
}

TEST(FlagsTest, UnknownFlagRejected) {
  FlagSet flags;
  flags.DefineInt("count", 5, "an int");
  const char* argv[] = {"prog", "--typo=1"};
  const Status status = flags.Parse(2, argv);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(FlagsTest, BadValuesRejected) {
  FlagSet flags;
  flags.DefineInt("count", 5, "an int");
  flags.DefineDouble("rate", 0.5, "a double");
  flags.DefineBool("verbose", false, "a bool");
  {
    const char* argv[] = {"prog", "--count=abc"};
    EXPECT_FALSE(flags.Parse(2, argv).ok());
  }
  {
    const char* argv[] = {"prog", "--rate=xyz"};
    EXPECT_FALSE(flags.Parse(2, argv).ok());
  }
  {
    const char* argv[] = {"prog", "--verbose=maybe"};
    EXPECT_FALSE(flags.Parse(2, argv).ok());
  }
}

TEST(FlagsTest, MissingValueRejected) {
  FlagSet flags;
  flags.DefineInt("count", 5, "an int");
  const char* argv[] = {"prog", "--count"};
  EXPECT_FALSE(flags.Parse(2, argv).ok());
}

TEST(FlagsTest, BareBoolBeforeAnotherFlag) {
  FlagSet flags;
  flags.DefineBool("verbose", false, "a bool");
  flags.DefineInt("count", 5, "an int");
  const char* argv[] = {"prog", "--verbose", "--count=2"};
  ASSERT_TRUE(flags.Parse(3, argv).ok());
  EXPECT_TRUE(flags.GetBool("verbose"));
  EXPECT_EQ(flags.GetInt("count"), 2);
}

TEST(FlagsTest, UsageListsFlags) {
  FlagSet flags;
  flags.DefineInt("count", 5, "how many");
  const std::string usage = flags.Usage();
  EXPECT_NE(usage.find("--count"), std::string::npos);
  EXPECT_NE(usage.find("how many"), std::string::npos);
}

TEST(FlagsTest, ParseOrUsagePrintsTheErrorAndUsage) {
  FlagSet flags;
  flags.DefineInt("count", 5, "how many");
  const char* good[] = {"prog", "--count=2"};
  testing::internal::CaptureStderr();
  EXPECT_TRUE(flags.ParseOrUsage(2, good));
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(flags.GetInt("count"), 2);

  const char* bad[] = {"prog", "--typo=1"};
  testing::internal::CaptureStderr();
  EXPECT_FALSE(flags.ParseOrUsage(2, bad));
  const std::string printed = testing::internal::GetCapturedStderr();
  EXPECT_EQ(printed.rfind("INVALID_ARGUMENT", 0), 0u) << printed;
  EXPECT_NE(printed.find("\nflags:\n" + flags.Usage()), std::string::npos) << printed;
}

}  // namespace
}  // namespace mercurial
