#include "core/packet_store.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace vanet::carq {
namespace {

TEST(PacketStoreTest, EmptyStore) {
  PacketStore store;
  EXPECT_EQ(store.firstSeen(), 0);
  EXPECT_EQ(store.lastSeen(), 0);
  EXPECT_TRUE(store.missingInWindow().empty());
  EXPECT_FALSE(store.hasOwn(1));
  EXPECT_EQ(store.directCount(), 0u);
}

TEST(PacketStoreTest, DirectReceptionTracksWindow) {
  PacketStore store;
  store.noteDirect(5);
  store.noteDirect(9);
  store.noteDirect(7);
  EXPECT_EQ(store.firstSeen(), 5);
  EXPECT_EQ(store.lastSeen(), 9);
  EXPECT_TRUE(store.hasOwn(5));
  EXPECT_FALSE(store.hasOwn(6));
  EXPECT_EQ(store.directCount(), 3u);
}

TEST(PacketStoreTest, MissingInWindowIsPaperSemantics) {
  // The paper: recover packets from the first to the last received.
  PacketStore store;
  store.noteDirect(3);
  store.noteDirect(7);
  EXPECT_EQ(store.missingInWindow(), (std::vector<SeqNo>{4, 5, 6}));
  // Packets before 3 and after 7 are unknown to the car.
}

TEST(PacketStoreTest, RecoveryFillsHoles) {
  PacketStore store;
  store.noteDirect(1);
  store.noteDirect(4);
  store.noteRecovered(2);
  EXPECT_EQ(store.missingInWindow(), (std::vector<SeqNo>{3}));
  EXPECT_TRUE(store.hasOwn(2));
  EXPECT_EQ(store.recoveredCount(), 1u);
}

TEST(PacketStoreTest, RecoveryDoesNotExtendWindow) {
  PacketStore store;
  store.noteDirect(5);
  store.noteRecovered(10);  // spurious recovery outside window
  EXPECT_EQ(store.firstSeen(), 5);
  EXPECT_EQ(store.lastSeen(), 5);
}

TEST(PacketStoreTest, DuplicatesAreCounted) {
  PacketStore store;
  store.noteDirect(1);
  store.noteDirect(1);
  EXPECT_EQ(store.duplicateCount(), 1u);
  store.noteRecovered(1);  // already held directly
  EXPECT_EQ(store.duplicateCount(), 2u);
  store.noteRecovered(2);
  store.noteRecovered(2);
  EXPECT_EQ(store.duplicateCount(), 3u);
  EXPECT_EQ(store.directCount(), 1u);
  EXPECT_EQ(store.recoveredCount(), 1u);
}

TEST(PacketStoreTest, MissingInRangeForFileMode) {
  PacketStore store;
  store.noteDirect(2);
  store.noteRecovered(4);
  EXPECT_EQ(store.missingInRange(1, 5), (std::vector<SeqNo>{1, 3, 5}));
  EXPECT_TRUE(store.missingInRange(2, 2).empty());
}

TEST(PacketStoreTest, BufferingForOtherFlows) {
  PacketStore store;
  EXPECT_FALSE(store.hasBuffered(2, 1));
  store.buffer(2, 1, 1000);
  store.buffer(2, 5, 1000);
  store.buffer(3, 1, 500);
  EXPECT_TRUE(store.hasBuffered(2, 1));
  EXPECT_TRUE(store.hasBuffered(3, 1));
  EXPECT_FALSE(store.hasBuffered(2, 2));
  EXPECT_EQ(store.bufferedCount(), 3u);
  EXPECT_EQ(store.bufferedPayloadBytes(2), 1000);
  EXPECT_EQ(store.bufferedPayloadBytes(3), 500);
  EXPECT_EQ(store.bufferedPayloadBytes(9), 0);
}

TEST(PacketStoreTest, BufferingIsSeparateFromOwnFlow) {
  PacketStore store;
  store.buffer(2, 7, 1000);
  EXPECT_FALSE(store.hasOwn(7));
  EXPECT_TRUE(store.missingInWindow().empty());
}

TEST(PacketStoreTest, ContiguousWindowHasNoMissing) {
  PacketStore store;
  for (SeqNo s = 10; s <= 20; ++s) store.noteDirect(s);
  EXPECT_TRUE(store.missingInWindow().empty());
}

TEST(PacketStoreTest, RecoveredThenDirect) {
  // A packet recovered through cooperation can still arrive from an AP
  // later; that copy is a new direct reception, not a duplicate.
  PacketStore store;
  store.noteRecovered(4);
  store.noteDirect(4);
  EXPECT_EQ(store.duplicateCount(), 0u);
  EXPECT_EQ(store.directCount(), 1u);
  EXPECT_EQ(store.recoveredCount(), 1u);
  EXPECT_EQ(store.firstSeen(), 4);
  EXPECT_EQ(store.lastSeen(), 4);
  EXPECT_TRUE(store.hasOwn(4));
  // Every further copy, by either path, is a duplicate.
  store.noteDirect(4);
  store.noteRecovered(4);
  EXPECT_EQ(store.duplicateCount(), 2u);
  EXPECT_EQ(store.directCount(), 1u);
  EXPECT_EQ(store.recoveredCount(), 1u);
}

TEST(PacketStoreTest, DuplicateAccountingOverManyCopies) {
  PacketStore store;
  for (int pass = 0; pass < 3; ++pass) {
    for (SeqNo s = 1; s <= 100; ++s) store.noteDirect(s);
  }
  for (SeqNo s = 50; s <= 150; ++s) store.noteRecovered(s);
  EXPECT_EQ(store.directCount(), 100u);
  EXPECT_EQ(store.recoveredCount(), 50u);    // 101..150
  EXPECT_EQ(store.duplicateCount(), 251u);   // 2 x 100 + 51 (50..100)
  EXPECT_EQ(store.lastSeen(), 100);          // recovery never extends it
}

TEST(PacketStoreTest, BufferedMaxSeqsPerFlowInFlowOrder) {
  PacketStore store;
  EXPECT_TRUE(store.bufferedMaxSeqs().empty());
  store.buffer(7, 3, 1000);
  store.buffer(2, 90, 1000);
  store.buffer(7, 130, 1000);  // crosses a 64-seq word
  store.buffer(2, 12, 1000);   // lower than the max: max stays
  store.buffer(7, 130, 1000);  // re-buffering is idempotent
  EXPECT_EQ(store.bufferedMaxSeqs(),
            (std::vector<std::pair<FlowId, SeqNo>>{{2, 90}, {7, 130}}));
  EXPECT_EQ(store.bufferedCount(), 4u);
}

TEST(PacketStoreTest, FileCompletionWithGaps) {
  constexpr SeqNo kFile = 220;
  PacketStore store;
  EXPECT_FALSE(store.holdsAll(1, kFile));
  EXPECT_TRUE(store.holdsAll(5, 4));  // an empty range is complete
  // Every seq but 1, 64, 65 and 220, partly through recovery.
  for (SeqNo s = 2; s < kFile; ++s) {
    if (s == 64 || s == 65) continue;
    if (s % 3 == 0) {
      store.noteRecovered(s);
    } else {
      store.noteDirect(s);
    }
  }
  // Every recovered packet later also arrives directly: the two held
  // counts now sum past the file size, yet the gaps remain.
  for (SeqNo s = 3; s < kFile; s += 3) store.noteDirect(s);
  ASSERT_GT(store.directCount() + store.recoveredCount(),
            static_cast<std::size_t>(kFile));
  for (const SeqNo gap : {1, 64, 65, kFile}) {
    EXPECT_FALSE(store.holdsAll(1, kFile)) << "before filling " << gap;
    EXPECT_EQ(store.holdsAll(1, kFile), store.missingInRange(1, kFile).empty());
    store.noteRecovered(gap);
  }
  EXPECT_TRUE(store.holdsAll(1, kFile));
  EXPECT_TRUE(store.missingInRange(1, kFile).empty());
  EXPECT_TRUE(store.holdsAll(100, 120));
  EXPECT_FALSE(store.holdsAll(1, kFile + 1));
}

// Property: missing + held == full window, for random reception patterns.
class PacketStoreWindowProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PacketStoreWindowProperty, PartitionInvariant) {
  Rng rng{GetParam()};
  PacketStore store;
  for (SeqNo s = 1; s <= 200; ++s) {
    if (rng.bernoulli(0.7)) store.noteDirect(s);
  }
  if (store.firstSeen() == 0) return;  // nothing received: nothing to check
  const auto missing = store.missingInWindow();
  std::size_t held = 0;
  for (SeqNo s = store.firstSeen(); s <= store.lastSeen(); ++s) {
    if (store.hasOwn(s)) ++held;
  }
  const auto windowSize =
      static_cast<std::size_t>(store.lastSeen() - store.firstSeen() + 1);
  EXPECT_EQ(held + missing.size(), windowSize);
  for (const SeqNo s : missing) {
    EXPECT_FALSE(store.hasOwn(s));
    EXPECT_GE(s, store.firstSeen());
    EXPECT_LE(s, store.lastSeen());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PacketStoreWindowProperty,
                         ::testing::Values(1ULL, 7ULL, 13ULL, 101ULL));

}  // namespace
}  // namespace vanet::carq
