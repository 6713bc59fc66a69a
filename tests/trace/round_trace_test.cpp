#include "trace/round_trace.h"

#include <gtest/gtest.h>

namespace vanet::trace {
namespace {

using sim::SimTime;

RoundTrace threeCars() { return RoundTrace{{1, 2, 3}}; }

TEST(RoundTraceTest, TxLogKeepsFirstCopyOnly) {
  RoundTrace trace = threeCars();
  trace.recordApTx(1, 1, 0, SimTime::seconds(1.0));
  trace.recordApTx(1, 1, 1, SimTime::seconds(1.2));  // blind retransmission
  ASSERT_TRUE(trace.txTime(1, 1).has_value());
  EXPECT_EQ(*trace.txTime(1, 1), SimTime::seconds(1.0));
  EXPECT_EQ(trace.txCount(1), 1u);
}

TEST(RoundTraceTest, MaxSeqTransmitted) {
  RoundTrace trace = threeCars();
  EXPECT_EQ(trace.maxSeqTransmitted(1), 0);
  trace.recordApTx(1, 3, 0, SimTime::seconds(1.0));
  trace.recordApTx(1, 7, 0, SimTime::seconds(2.0));
  EXPECT_EQ(trace.maxSeqTransmitted(1), 7);
  EXPECT_EQ(trace.maxSeqTransmitted(2), 0);
}

TEST(RoundTraceTest, OverhearAndJoint) {
  RoundTrace trace = threeCars();
  trace.recordOverhear(2, 1, 5, SimTime::seconds(1.0));
  EXPECT_TRUE(trace.wasOverheard(2, 1, 5));
  EXPECT_FALSE(trace.wasOverheard(1, 1, 5));
  EXPECT_TRUE(trace.anyOverheard(1, 5));
  EXPECT_FALSE(trace.anyOverheard(1, 6));
  EXPECT_FALSE(trace.anyOverheard(2, 5));
}

TEST(RoundTraceTest, RecoveredBookkeeping) {
  RoundTrace trace = threeCars();
  trace.recordRecovered(1, 9, SimTime::seconds(30.0));
  EXPECT_TRUE(trace.wasRecovered(1, 9));
  EXPECT_FALSE(trace.wasRecovered(2, 9));
  EXPECT_FALSE(trace.wasRecovered(1, 8));
}

TEST(RoundTraceTest, AssociationWindowNeedsOwnFlow) {
  RoundTrace trace = threeCars();
  EXPECT_FALSE(trace.associationWindow(1).has_value());
  // Overhearing a foreign flow does not open the window...
  trace.recordOverhear(1, 2, 1, SimTime::seconds(1.0));
  EXPECT_FALSE(trace.associationWindow(1).has_value());
  // ...but an own-flow packet does.
  trace.recordOverhear(1, 1, 1, SimTime::seconds(2.0));
  const auto window = trace.associationWindow(1);
  ASSERT_TRUE(window.has_value());
  EXPECT_EQ(window->first, SimTime::seconds(2.0));
  EXPECT_EQ(window->second, SimTime::seconds(2.0));
}

TEST(RoundTraceTest, WindowEndIsLastAnyFlowReception) {
  RoundTrace trace = threeCars();
  trace.recordOverhear(1, 1, 1, SimTime::seconds(2.0));
  trace.recordOverhear(1, 3, 9, SimTime::seconds(8.0));  // foreign flow
  const auto window = trace.associationWindow(1);
  ASSERT_TRUE(window.has_value());
  EXPECT_EQ(window->first, SimTime::seconds(2.0));
  EXPECT_EQ(window->second, SimTime::seconds(8.0));
}

TEST(RoundTraceTest, OutOfOrderRecordingIsSupported) {
  // Traces may be assembled in any order (the aggregators rely on
  // min/max semantics, not insertion order).
  RoundTrace trace = threeCars();
  trace.recordOverhear(1, 1, 5, SimTime::seconds(9.0));
  trace.recordOverhear(1, 1, 1, SimTime::seconds(2.0));  // earlier, later
  trace.recordOverhear(1, 2, 9, SimTime::seconds(1.0));  // earliest overall
  const auto window = trace.associationWindow(1);
  ASSERT_TRUE(window.has_value());
  EXPECT_EQ(window->first, SimTime::seconds(2.0));
  EXPECT_EQ(window->second, SimTime::seconds(9.0));
  ASSERT_TRUE(trace.firstOverhearTime(1).has_value());
  EXPECT_EQ(*trace.firstOverhearTime(1), SimTime::seconds(1.0));
  const auto& times = trace.directRxTimes(1);
  ASSERT_EQ(times.size(), 2u);
  EXPECT_LT(times[0], times[1]);  // sorted despite reversed insertion
}

TEST(RoundTraceTest, SeqsTransmittedDuringFiltersByTime) {
  RoundTrace trace = threeCars();
  for (SeqNo seq = 1; seq <= 10; ++seq) {
    trace.recordApTx(1, seq, 0, SimTime::seconds(static_cast<double>(seq)));
  }
  const auto seqs =
      trace.seqsTransmittedDuring(1, SimTime::seconds(3.0), SimTime::seconds(6.0));
  EXPECT_EQ(seqs, (std::vector<SeqNo>{3, 4, 5, 6}));
}

TEST(RoundTraceTest, CyclingFileFlowKeepsFirstPass) {
  // File-download mode: the AP cycles seqs 1..N, so every seq is
  // first-transmitted (copy 0) again on each pass. The log keeps the
  // first pass only, like the seq-keyed map it mirrors.
  constexpr SeqNo kFile = 70;  // crosses a 64-seq word
  RoundTrace trace = threeCars();
  const auto at = [](int pass, SeqNo seq) {
    return SimTime::millis(1000.0 * pass + 10.0 * seq);
  };
  for (int pass = 0; pass < 3; ++pass) {
    for (SeqNo seq = 1; seq <= kFile; ++seq) {
      trace.recordApTx(2, seq, 0, at(pass, seq));
      trace.recordApTx(2, seq, 1, at(pass, seq) + SimTime::millis(1.0));
    }
  }
  EXPECT_EQ(trace.txCount(2), static_cast<std::size_t>(kFile));
  EXPECT_EQ(trace.maxSeqTransmitted(2), kFile);
  ASSERT_TRUE(trace.txTime(2, 65).has_value());
  EXPECT_EQ(*trace.txTime(2, 65), at(0, 65));
  EXPECT_FALSE(trace.txTime(2, 0).has_value());
  EXPECT_FALSE(trace.txTime(2, kFile + 1).has_value());
  EXPECT_FALSE(trace.txTime(1, 1).has_value());
  EXPECT_EQ(trace.txCount(1), 0u);

  // Windows select by first-pass time and list seqs ascending.
  EXPECT_EQ(trace.seqsTransmittedDuring(2, at(0, 62), at(0, 66)),
            (std::vector<SeqNo>{62, 63, 64, 65, 66}));
  EXPECT_TRUE(
      trace.seqsTransmittedDuring(2, at(1, 1), at(2, kFile)).empty());
  EXPECT_EQ(trace.seqsTransmittedDuring(2, SimTime::zero(), SimTime::max())
                .size(),
            static_cast<std::size_t>(kFile));
}

TEST(RoundTraceTest, SparseAndOutOfOrderTxLog) {
  RoundTrace trace = threeCars();
  trace.recordApTx(3, 200, 0, SimTime::seconds(5.0));
  trace.recordApTx(3, 4, 0, SimTime::seconds(1.0));
  trace.recordApTx(3, 9, 0, SimTime::seconds(9.0));
  EXPECT_EQ(trace.txCount(3), 3u);
  EXPECT_EQ(trace.maxSeqTransmitted(3), 200);
  EXPECT_FALSE(trace.txTime(3, 100).has_value());
  // Ascending by seq, not by time.
  EXPECT_EQ(trace.seqsTransmittedDuring(3, SimTime::zero(),
                                        SimTime::seconds(10.0)),
            (std::vector<SeqNo>{4, 9, 200}));
}

TEST(RoundTraceTest, FirstOverhearTime) {
  RoundTrace trace = threeCars();
  EXPECT_FALSE(trace.firstOverhearTime(1).has_value());
  trace.recordOverhear(1, 2, 4, SimTime::seconds(5.0));
  trace.recordOverhear(1, 1, 1, SimTime::seconds(7.0));
  ASSERT_TRUE(trace.firstOverhearTime(1).has_value());
  EXPECT_EQ(*trace.firstOverhearTime(1), SimTime::seconds(5.0));
}

TEST(RoundTraceTest, DirectRxTimesOwnFlowOnly) {
  RoundTrace trace = threeCars();
  trace.recordOverhear(1, 1, 1, SimTime::seconds(1.0));
  trace.recordOverhear(1, 2, 1, SimTime::seconds(2.0));
  trace.recordOverhear(1, 1, 2, SimTime::seconds(3.0));
  const auto& times = trace.directRxTimes(1);
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], SimTime::seconds(1.0));
  EXPECT_EQ(times[1], SimTime::seconds(3.0));
  EXPECT_TRUE(trace.directRxTimes(3).empty());
}

}  // namespace
}  // namespace vanet::trace
