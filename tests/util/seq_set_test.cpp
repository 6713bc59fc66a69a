#include "util/seq_set.h"

#include <gtest/gtest.h>

#include <set>

#include "util/rng.h"

namespace vanet::util {
namespace {

TEST(SeqSetTest, EmptySet) {
  const SeqSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(set.max(), 0);
  EXPECT_FALSE(set.contains(0));
  EXPECT_FALSE(set.contains(1));
  EXPECT_FALSE(set.contains(-1));
  EXPECT_FALSE(set.contains(1'000'000));
}

TEST(SeqSetTest, InsertReportsNewness) {
  SeqSet set;
  EXPECT_TRUE(set.insert(5));
  EXPECT_FALSE(set.insert(5));
  EXPECT_TRUE(set.insert(3));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.max(), 5);  // max ignores insertion order
  EXPECT_TRUE(set.contains(3));
  EXPECT_FALSE(set.contains(4));
}

TEST(SeqSetTest, WordBoundaries) {
  SeqSet set;
  for (const SeqNo seq : {0, 63, 64, 127, 128}) EXPECT_TRUE(set.insert(seq));
  for (const SeqNo seq : {0, 63, 64, 127, 128}) EXPECT_TRUE(set.contains(seq));
  for (const SeqNo seq : {1, 62, 65, 126, 129}) EXPECT_FALSE(set.contains(seq));
  EXPECT_EQ(set.size(), 5u);
  EXPECT_EQ(set.max(), 128);
}

// Property: the bitmap agrees with std::set on random insert sequences.
class SeqSetProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeqSetProperty, MatchesStdSet) {
  Rng rng{GetParam()};
  SeqSet set;
  std::set<SeqNo> reference;
  for (int i = 0; i < 2000; ++i) {
    const auto seq = static_cast<SeqNo>(rng.uniformInt(0, 700));
    EXPECT_EQ(set.insert(seq), reference.insert(seq).second);
  }
  EXPECT_EQ(set.size(), reference.size());
  EXPECT_EQ(set.max(), *reference.rbegin());
  for (SeqNo seq = -2; seq <= 800; ++seq) {
    EXPECT_EQ(set.contains(seq), reference.count(seq) > 0) << seq;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeqSetProperty,
                         ::testing::Values(1ULL, 7ULL, 2008ULL));

}  // namespace
}  // namespace vanet::util
