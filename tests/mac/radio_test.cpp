/// \file radio_test.cpp
/// Radio::transmittedDuring walks back from the newest transmit span
/// instead of scanning the whole history. These tests pin it to the
/// brute-force answer (any span with first < end && start < second) on
/// seeded random histories and on the boundary cases of the half-open
/// spans.

#include "mac/radio.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "../testing/medium_fixture.h"
#include "util/rng.h"

namespace vanet::mac {
namespace {

using channel::PhyMode;
using sim::SimTime;
using vanet::testing::MediumHarness;
using Span = std::pair<SimTime, SimTime>;

bool bruteForce(const std::vector<Span>& spans, SimTime start, SimTime end) {
  return std::any_of(spans.begin(), spans.end(), [&](const Span& span) {
    return span.first < end && start < span.second;
  });
}

/// Transmits one frame at `at` and records its span.
void transmitAt(MediumHarness& h, SimTime at, int bytes,
                std::vector<Span>& spans) {
  h.sim().scheduleAt(at, [&h, bytes, &spans] {
    h.radio(0).transmit(MediumHarness::dataFrame(2, 1, bytes),
                        PhyMode::kDsss1Mbps);
    spans.emplace_back(h.sim().now(), h.radio(0).transmitUntil());
  });
}

TEST(RadioTest, NoHistoryMeansNoTransmission) {
  MediumHarness h;
  h.addRadio(1, {0.0, 0.0});
  EXPECT_FALSE(h.radio(0).transmittedDuring(SimTime::zero(),
                                            SimTime::seconds(5.0)));
}

TEST(RadioTest, HalfOpenSpanBoundaries) {
  MediumHarness h;
  h.addRadio(1, {0.0, 0.0});
  std::vector<Span> spans;
  transmitAt(h, SimTime::seconds(1.0), 500, spans);
  h.sim().run();
  // Back-to-back: the second frame starts exactly where the first ends.
  transmitAt(h, spans[0].second, 500, spans);
  h.sim().run();
  ASSERT_EQ(spans.size(), 2u);
  const Radio& radio = h.radio(0);
  const SimTime a = spans[0].first;
  const SimTime b = spans[0].second;
  const SimTime c = spans[1].second;
  ASSERT_EQ(spans[1].first, b);
  const SimTime ns = SimTime::nanos(1);

  // A query before any history, and one ending exactly where a span
  // starts, see nothing.
  EXPECT_FALSE(radio.transmittedDuring(SimTime::zero(), a - ns));
  EXPECT_FALSE(radio.transmittedDuring(SimTime::zero(), a));
  EXPECT_TRUE(radio.transmittedDuring(SimTime::zero(), a + ns));
  // Across the touching boundary, from either side.
  EXPECT_TRUE(radio.transmittedDuring(b - ns, b));
  EXPECT_TRUE(radio.transmittedDuring(b, b + ns));
  EXPECT_TRUE(radio.transmittedDuring(a, c));
  // A query starting exactly where the last span ends sees nothing.
  EXPECT_FALSE(radio.transmittedDuring(c, c + SimTime::seconds(1.0)));
  EXPECT_TRUE(radio.transmittedDuring(c - ns, c + SimTime::seconds(1.0)));
}

// Property: on random histories (gaps of zero, short and longer than
// the one-second pruning horizon), every query window that can still
// overlap an unpruned span gets the brute-force answer.
class TransmittedDuringProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TransmittedDuringProperty, MatchesBruteForce) {
  Rng rng{GetParam()};
  MediumHarness h;
  h.addRadio(1, {0.0, 0.0});
  std::vector<Span> spans;
  SimTime next = SimTime::millis(rng.uniform(0.0, 5.0));
  for (int frame = 0; frame < 300; ++frame) {
    transmitAt(h, next, rng.uniformInt(20, 1500), spans);
    h.sim().run();
    const SimTime now = spans.back().first;
    // The radio keeps spans that ended within one second of its latest
    // transmit start; queries starting after that horizon are exact.
    const SimTime horizon = now - SimTime::seconds(1.0);
    for (int q = 0; q < 20; ++q) {
      const SimTime start =
          std::max(SimTime::zero(),
                   horizon + SimTime::millis(rng.uniform(0.0, 1100.0)));
      const SimTime end = start + SimTime::millis(rng.uniform(0.0, 30.0));
      EXPECT_EQ(h.radio(0).transmittedDuring(start, end),
                bruteForce(spans, start, end))
          << "frame " << frame << " window [" << start << ", " << end << ")";
    }
    // Back-to-back, short gaps, or an idle spell across the horizon.
    const double pick = rng.uniform();
    SimTime gap = SimTime::zero();
    if (pick >= 0.9) {
      gap = SimTime::millis(rng.uniform(500.0, 1500.0));
    } else if (pick >= 0.2) {
      gap = SimTime::millis(rng.uniform(0.0, 20.0));
    }
    next = spans.back().second + gap;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransmittedDuringProperty,
                         ::testing::Values(1ULL, 42ULL, 2008ULL));

}  // namespace
}  // namespace vanet::mac
