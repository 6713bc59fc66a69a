#include "util/flags.h"

#include <gtest/gtest.h>

namespace vanet {
namespace {

Flags parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags{static_cast<int>(argv.size()), argv.data()};
}

TEST(FlagsTest, EqualsSyntax) {
  const Flags f = parse({"--rounds=30", "--speed=5.5", "--name=urban"});
  EXPECT_EQ(f.getInt("rounds", 0), 30);
  EXPECT_DOUBLE_EQ(f.getDouble("speed", 0.0), 5.5);
  EXPECT_EQ(f.getString("name", ""), "urban");
}

TEST(FlagsTest, SpaceSyntax) {
  const Flags f = parse({"--rounds", "12", "--name", "x"});
  EXPECT_EQ(f.getInt("rounds", 0), 12);
  EXPECT_EQ(f.getString("name", ""), "x");
}

TEST(FlagsTest, BareBooleanFlag) {
  const Flags f = parse({"--coop", "--rounds=5"});
  EXPECT_TRUE(f.getBool("coop", false));
  EXPECT_EQ(f.getInt("rounds", 0), 5);
}

TEST(FlagsTest, BooleanValues) {
  const Flags f = parse({"--a=true", "--b=false", "--c=1", "--d=0",
                         "--e=yes", "--f=no"});
  EXPECT_TRUE(f.getBool("a", false));
  EXPECT_FALSE(f.getBool("b", true));
  EXPECT_TRUE(f.getBool("c", false));
  EXPECT_FALSE(f.getBool("d", true));
  EXPECT_TRUE(f.getBool("e", false));
  EXPECT_FALSE(f.getBool("f", true));
}

TEST(FlagsTest, FallbacksWhenAbsent) {
  const Flags f = parse({});
  EXPECT_EQ(f.getInt("missing", 7), 7);
  EXPECT_DOUBLE_EQ(f.getDouble("missing", 1.5), 1.5);
  EXPECT_EQ(f.getString("missing", "dflt"), "dflt");
  EXPECT_TRUE(f.getBool("missing", true));
  EXPECT_FALSE(f.has("missing"));
}

TEST(FlagsTest, LaterOccurrenceWins) {
  const Flags f = parse({"--x=1", "--x=2"});
  EXPECT_EQ(f.getInt("x", 0), 2);
}

TEST(FlagsTest, PositionalArguments) {
  const Flags f = parse({"input.txt", "--x=1", "other"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.txt");
  EXPECT_EQ(f.positional()[1], "other");
}

TEST(FlagsTest, BareFlagBeforeAnotherFlag) {
  const Flags f = parse({"--verbose", "--rounds=3"});
  EXPECT_TRUE(f.getBool("verbose", false));
  EXPECT_EQ(f.getInt("rounds", 0), 3);
}

TEST(FlagsTest, NegativeNumbers) {
  const Flags f = parse({"--power=-12.5", "--offset=-3"});
  EXPECT_DOUBLE_EQ(f.getDouble("power", 0.0), -12.5);
  EXPECT_EQ(f.getInt("offset", 0), -3);
}

TEST(FlagsTest, ShardSpecParses) {
  const Flags f = parse({"--shard=1/4"});
  const ShardSpec shard = f.getShard("shard");
  EXPECT_EQ(shard.index, 1);
  EXPECT_EQ(shard.count, 4);
}

TEST(FlagsTest, ShardSpecDefaultsWhenAbsentOrBare) {
  const ShardSpec absent = parse({}).getShard("shard");
  EXPECT_EQ(absent.index, 0);
  EXPECT_EQ(absent.count, 1);
  // A bare `--shard` is left for getBool-style mode switches.
  const ShardSpec bare = parse({"--shard"}).getShard("shard");
  EXPECT_EQ(bare.index, 0);
  EXPECT_EQ(bare.count, 1);
}

TEST(FlagsTest, CampaignRunFlagsReadSharedVocabulary) {
  const Flags f = parse({"--threads=3", "--shard=1/2",
                         "--partial-out=/tmp/p.json", "--streaming"});
  const CampaignRunFlags run = campaignRunFlags(f);
  EXPECT_EQ(run.threads, 3);
  EXPECT_EQ(run.shard.index, 1);
  EXPECT_EQ(run.shard.count, 2);
  EXPECT_EQ(run.partialOut, "/tmp/p.json");
  EXPECT_TRUE(run.streaming);
}

TEST(FlagsTest, CampaignRunFlagsDefaults) {
  const CampaignRunFlags run = campaignRunFlags(parse({}));
  EXPECT_EQ(run.threads, 0);
  EXPECT_EQ(run.shard.count, 1);
  EXPECT_TRUE(run.partialOut.empty());
  EXPECT_FALSE(run.streaming);
}

}  // namespace
}  // namespace vanet
