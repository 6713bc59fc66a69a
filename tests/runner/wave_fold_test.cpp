#include "runner/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runner/plan.h"

namespace vanet::runner {
namespace {

/// Registers (once) a scenario that is never run: WaveFold only needs a
/// plan for its accumulator, the results are handed in by the test.
const std::string& idleScenario() {
  static const std::string name = [] {
    ScenarioRegistry::global().add(ScenarioInfo{
        "wave-fold-test-idle",
        "never run; results come from the test",
        {},
        [](const JobContext&) -> JobResult {
          throw std::logic_error("wave-fold-test-idle is not runnable");
        }});
    return std::string("wave-fold-test-idle");
  }();
  return name;
}

CampaignPlan idlePlan(int replications, int points) {
  CampaignConfig config;
  config.scenario = idleScenario();
  config.replications = replications;
  std::vector<double> xs;
  for (int p = 0; p < points; ++p) xs.push_back(static_cast<double>(p));
  config.grid.add("x", xs);
  return buildPlan(config);
}

/// A result that tells (slot, replication) apart in the folded mean.
JobResult resultOf(std::size_t slot, int replication) {
  JobResult result;
  result.metrics["v"] =
      0.1 * static_cast<double>(replication) + static_cast<double>(slot);
  result.rounds = 1;
  return result;
}

TEST(WaveFoldTest, PermutedCompletionsFoldPerPointInReplicationOrder) {
  // 3 points x 4 replications completed in shuffled orders: each point
  // must still fold 0, 1, 2, 3 (the accumulator throws on any other
  // order) and reach the in-order fold's exact state.
  const CampaignPlan plan = idlePlan(4, 3);
  CampaignAccumulator inOrder(plan);
  for (std::size_t slot = 0; slot < 3; ++slot) {
    for (int rep = 0; rep < 4; ++rep) {
      inOrder.fold(slot, rep, resultOf(slot, rep));
    }
  }
  const std::vector<GridPointSummary> expected = inOrder.take();

  for (const unsigned seed : {1u, 2u, 3u, 4u, 5u}) {
    CampaignAccumulator into(plan);
    WaveFold fold(into, {0, 1, 2}, 0, 4, /*parkCap=*/12);
    ASSERT_EQ(fold.jobCount(), 12u);
    std::vector<std::size_t> claimed;
    std::size_t job = 0;
    while (fold.claim(job)) claimed.push_back(job);
    ASSERT_EQ(claimed.size(), 12u);
    std::shuffle(claimed.begin(), claimed.end(), std::mt19937(seed));
    for (const std::size_t j : claimed) {
      ASSERT_NO_THROW(fold.complete(
          j, resultOf(fold.slotOf(j), fold.replicationOf(j))))
          << "seed " << seed << ", job " << j;
    }
    fold.rethrowIfFailed();
    EXPECT_LE(fold.peakParked(), 9u) << seed;  // a lane's first never parks
    const std::vector<GridPointSummary> folded = into.take();
    ASSERT_EQ(folded.size(), expected.size());
    for (std::size_t p = 0; p < folded.size(); ++p) {
      const RunningStats& got = folded[p].metrics.at("v");
      const RunningStats& want = expected[p].metrics.at("v");
      EXPECT_EQ(folded[p].replications, 4) << seed;
      EXPECT_EQ(got.count(), want.count()) << seed;
      EXPECT_EQ(got.mean(), want.mean()) << seed;  // bit-exact, not near
      EXPECT_EQ(got.variance(), want.variance()) << seed;
    }
  }
}

TEST(WaveFoldTest, LaterWaveMapsJobsPointMajorFromItsFirstReplication) {
  // The second wave of an adaptive run: lanes are the still-open shard
  // slots (here 0 and 2 of 3) and replications start at the covered
  // prefix, so job j is replication 2 + j % 2 of lane j / 2.
  const CampaignPlan plan = idlePlan(4, 3);
  CampaignAccumulator into(plan);
  for (const std::size_t slot : {0u, 2u}) {
    for (int rep = 0; rep < 2; ++rep) {
      into.fold(slot, rep, resultOf(slot, rep));
    }
  }
  WaveFold fold(into, {0, 2}, 2, 4, /*parkCap=*/4);
  ASSERT_EQ(fold.jobCount(), 4u);
  const std::vector<std::size_t> slots = {0, 0, 2, 2};
  const std::vector<int> reps = {2, 3, 2, 3};
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_EQ(fold.slotOf(j), slots[j]) << j;
    EXPECT_EQ(fold.replicationOf(j), reps[j]) << j;
  }
  std::size_t job = 0;
  for (std::size_t j = 0; j < 4; ++j) ASSERT_TRUE(fold.claim(job));
  // Replication 3 of each lane lands first and parks behind 2.
  fold.complete(3, resultOf(2, 3));
  fold.complete(1, resultOf(0, 3));
  EXPECT_EQ(into.pointReplications(0), 2);
  EXPECT_EQ(into.pointReplications(2), 2);
  fold.complete(0, resultOf(0, 2));  // drains lane 0: folds 2 then 3
  EXPECT_EQ(into.pointReplications(0), 4);
  EXPECT_EQ(into.pointReplications(2), 2);
  fold.complete(2, resultOf(2, 2));
  EXPECT_EQ(into.pointReplications(2), 4);
  EXPECT_EQ(into.pointReplications(1), 0);  // not a lane of this wave
  EXPECT_FALSE(fold.claim(job));
  fold.rethrowIfFailed();
  EXPECT_EQ(fold.peakParked(), 2u);
}

TEST(WaveFoldTest, ClaimWaitsWhileParkedAndRunningJobsFillTheCap) {
  // Cap 2: jobs 0 and 1 of one lane are claimed; a third claim must wait.
  // Job 1 finishing first parks (its predecessor has not folded), so the
  // cap stays full; only job 0's fold, which drains job 1, frees it.
  const CampaignPlan plan = idlePlan(4, 1);
  CampaignAccumulator into(plan);
  WaveFold fold(into, {0}, 0, 4, /*parkCap=*/2);
  std::size_t first = 0;
  std::size_t second = 0;
  ASSERT_TRUE(fold.claim(first));
  ASSERT_TRUE(fold.claim(second));
  ASSERT_EQ(first, 0u);
  ASSERT_EQ(second, 1u);

  std::atomic<bool> claimed{false};
  std::size_t third = 0;
  std::thread waiter([&] {
    if (fold.claim(third)) claimed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(claimed.load());  // 2 running
  fold.complete(1, resultOf(0, 1));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(claimed.load());  // 1 running + 1 parked
  EXPECT_EQ(into.pointReplications(0), 0);
  fold.complete(0, resultOf(0, 0));
  waiter.join();
  EXPECT_TRUE(claimed.load());
  EXPECT_EQ(third, 2u);
  EXPECT_EQ(into.pointReplications(0), 2);
  EXPECT_EQ(fold.peakParked(), 1u);
}

TEST(WaveFoldTest, FirstFailureStopsClaimsAndDropsLaterResults) {
  const CampaignPlan plan = idlePlan(4, 2);
  CampaignAccumulator into(plan);
  WaveFold fold(into, {0, 1}, 0, 4, /*parkCap=*/8);
  std::size_t job = 0;
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(fold.claim(job));  // jobs 0-2
  fold.complete(0, resultOf(0, 0));
  fold.complete(2, resultOf(0, 2));  // parks behind replication 1
  fold.fail(std::make_exception_ptr(std::runtime_error("first")));
  fold.fail(std::make_exception_ptr(std::runtime_error("second")));
  EXPECT_FALSE(fold.claim(job));  // no claim after a failure
  fold.complete(1, resultOf(0, 1));  // dropped: the fold stops short
  EXPECT_EQ(into.pointReplications(0), 1);
  EXPECT_FALSE(into.complete());
  try {
    fold.rethrowIfFailed();
    ADD_FAILURE() << "no exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "first");
  }
  EXPECT_THROW(into.take(), std::logic_error);
}

}  // namespace
}  // namespace vanet::runner
