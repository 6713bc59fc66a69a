/// \file flags_edge_test.cpp
/// Edge cases of the flag parser that the happy-path suite in
/// flags_test.cpp does not cover: explicitly empty values (`--rounds=`),
/// flags whose space-syntax value is a negative number, and malformed
/// `--shard` specs. Every typed parser rejects a bad value by printing a
/// diagnostic and exiting with status 2 (badValue), which death tests
/// observe from the parent process.

#include "util/flags.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

namespace vanet {
namespace {

Flags parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags{static_cast<int>(argv.size()), argv.data()};
}

using FlagsEdgeDeathTest = ::testing::Test;

TEST(FlagsEdgeDeathTest, EmptyValuesAreRejectedByEveryTypedParser) {
  // `--flag=` stores an empty string; each typed getter must take the
  // badValue exit path instead of silently falling back.
  EXPECT_EXIT(parse({"--rounds="}).getInt("rounds", 1),
              ::testing::ExitedWithCode(2), "cannot parse '' as int");
  EXPECT_EXIT(parse({"--speed="}).getDouble("speed", 1.0),
              ::testing::ExitedWithCode(2), "cannot parse '' as double");
  EXPECT_EXIT(parse({"--coop="}).getBool("coop", true),
              ::testing::ExitedWithCode(2), "cannot parse '' as bool");
  EXPECT_EXIT(parse({"--shard="}).getShard("shard"),
              ::testing::ExitedWithCode(2), "cannot parse '' as shard");
}

TEST(FlagsTest, EmptyValueStaysDistinctFromAbsentFlag) {
  // The empty value is rejected loudly -- it must NOT read as "flag
  // absent, use the fallback". Only strings may legitimately be empty.
  const Flags f = parse({"--partial-out="});
  EXPECT_TRUE(f.has("partial-out"));
  EXPECT_EQ(f.getString("partial-out", "dflt"), "");
  EXPECT_FALSE(f.has("missing"));
  EXPECT_EQ(f.getString("missing", "dflt"), "dflt");
}

TEST(FlagsTest, SpaceSyntaxConsumesNegativeNumbers) {
  // `--offset -3`: the next token starts with '-' but not "--", so it is
  // a value, not a flag.
  const Flags f = parse({"--offset", "-3", "--power", "-12.5"});
  EXPECT_EQ(f.getInt("offset", 0), -3);
  EXPECT_DOUBLE_EQ(f.getDouble("power", 0.0), -12.5);
}

TEST(FlagsEdgeDeathTest, MalformedShardSpecsAreRejected) {
  for (const char* spec :
       {"--shard=1", "--shard=1/", "--shard=/2", "--shard=a/2",
        "--shard=1/b", "--shard=1/2x", "--shard=2/2", "--shard=-1/3",
        "--shard=0/0", "--shard=1 / 2"}) {
    EXPECT_EXIT(parse({spec}).getShard("shard"),
                ::testing::ExitedWithCode(2), "shard spec")
        << "spec not rejected: " << spec;
  }
}

TEST(FlagsEdgeDeathTest, TrailingGarbageRejectedByNumericParsers) {
  EXPECT_EXIT(parse({"--rounds=3x"}).getInt("rounds", 0),
              ::testing::ExitedWithCode(2), "cannot parse '3x' as int");
  EXPECT_EXIT(parse({"--speed=1.5mps"}).getDouble("speed", 0.0),
              ::testing::ExitedWithCode(2), "as double");
}

TEST(FlagsEdgeDeathTest, AllowOnlyRejectsUnknownFlagsWithDidYouMean) {
  // A typo within editing distance of a legal flag names it in the hint.
  EXPECT_EXIT(parse({"--thread=4"}).allowOnly({"threads", "seed"}),
              ::testing::ExitedWithCode(2),
              "unknown flag --thread \\(did you mean --threads\\?\\)");
  // Nothing close: the bare rejection, no misleading hint.
  EXPECT_EXIT(parse({"--zzzzzzzz=1"}).allowOnly({"threads", "seed"}),
              ::testing::ExitedWithCode(2), "unknown flag --zzzzzzzz");
}

TEST(FlagsEdgeDeathTest, AdaptivePolicyIsNotAnEngineFlag) {
  // The adaptive replication policy belongs to the spec, not the CLI.
  EXPECT_EXIT(parse({"--target-ci=0.05"}).allowOnly(campaignFlagNames()),
              ::testing::ExitedWithCode(2), "unknown flag --target-ci");
}

TEST(FlagsEdgeDeathTest, SeedIsNotAnEngineFlag) {
  // So does the master seed: a campaign binary runs the spec's `seed`.
  EXPECT_EXIT(parse({"--seed=1"}).allowOnly(campaignFlagNames()),
              ::testing::ExitedWithCode(2), "unknown flag --seed");
}

TEST(FlagsTest, AllowOnlyAcceptsTheFullVocabulary) {
  // Every name in the shared campaign vocabulary passes its own check,
  // and positional arguments are never flagged.
  const Flags flags = parse({"--checkpoint=c", "--threads=2", "--streaming",
                             "--progress=true", "pos0", "pos1"});
  flags.allowOnly(campaignFlagNames());
  EXPECT_EQ(flags.positional().size(), 2u);
}

}  // namespace
}  // namespace vanet
