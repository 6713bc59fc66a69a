#include "runner/executor.h"

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/counters.h"
#include "runner/campaign.h"
#include "runner/emit.h"

namespace vanet::runner {
namespace {

/// Registers (once) a cheap synthetic scenario whose result is a pure
/// function of the job seed -- fast enough to run hundreds of jobs, and
/// ordering-sensitive because each metric sample differs per job.
const std::string& cheapScenario() {
  static const std::string name = [] {
    ScenarioRegistry::global().add(ScenarioInfo{
        "executor-test-cheap",
        "seed-hash metric, no simulation",
        {},
        [](const JobContext& context) {
          JobResult result;
          result.metrics["hash"] =
              static_cast<double>(context.seed % 100003u);
          result.rounds = 1;
          return result;
        }});
    return std::string("executor-test-cheap");
  }();
  return name;
}

/// Registers (once) the cheap scenario with one slow job: job 0 (point
/// 0, replication 0) sleeps, so every later replication of point 0
/// finishes first and has to park until it lands.
const std::string& slowFirstScenario() {
  static const std::string name = [] {
    ScenarioRegistry::global().add(ScenarioInfo{
        "executor-test-slow-first",
        "seed-hash metric; job 0 sleeps 100 ms",
        {},
        [](const JobContext& context) {
          if (context.jobIndex == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
          }
          JobResult result;
          result.metrics["hash"] =
              static_cast<double>(context.seed % 100003u);
          result.rounds = 1;
          return result;
        }});
    return std::string("executor-test-slow-first");
  }();
  return name;
}

/// Registers (once) a scenario that fails on one specific job index.
const std::string& throwingScenario() {
  static const std::string name = [] {
    ScenarioRegistry::global().add(ScenarioInfo{
        "executor-test-throws",
        "throws on job 5",
        {},
        [](const JobContext& context) -> JobResult {
          if (context.jobIndex == 5) {
            throw std::runtime_error("job 5 failed");
          }
          JobResult result;
          result.rounds = 1;
          return result;
        }});
    return std::string("executor-test-throws");
  }();
  return name;
}

TEST(ExecutorTest, ParallelFoldMatchesSerialByteForByte) {
  // A real multi-threaded urban campaign: the per-point fold on the
  // workers must merge exactly what the serial run merges.
  CampaignConfig config;
  config.scenario = "urban";
  config.masterSeed = 2008;
  config.replications = 3;
  config.threads = 1;
  config.base.set("rounds", 1);
  config.base.set("cars", 2);
  config.grid.add("speed_kmh", {20.0, 30.0});
  const CampaignResult serial = runCampaign(config);
  config.threads = 4;
  const CampaignResult parallel = runCampaign(config);
  EXPECT_EQ(campaignPointsJson(serial), campaignPointsJson(parallel));
  EXPECT_EQ(campaignCsv(serial), campaignCsv(parallel));
  // Figures flow through the same fold.
  ASSERT_EQ(serial.points.size(), parallel.points.size());
  for (std::size_t p = 0; p < serial.points.size(); ++p) {
    for (const auto& [flow, figure] : serial.points[p].figures) {
      EXPECT_EQ(figureSeriesCsv(figure),
                figureSeriesCsv(parallel.points[p].figures.at(flow)));
    }
  }
}

TEST(ExecutorTest, SlowReplicationParksAtMostTwiceTheThreads) {
  // Point 0's first replication is slow, so its successors finish first
  // and park; the cap then stalls the claims. The bytes still equal the
  // serial run's, and the parked set never exceeds 2 x threads.
  CampaignConfig config;
  config.scenario = slowFirstScenario();
  config.replications = 24;
  config.grid.add("x", {0.0, 1.0});
  config.threads = 1;
  const CampaignResult serial = runCampaign(config);
  EXPECT_EQ(serial.peakBufferedResults, 0u);  // inline: nothing parks

  config.threads = 4;
  obs::resetAll();
  const CampaignResult parallel = runCampaign(config);
  EXPECT_EQ(campaignPointsJson(parallel), campaignPointsJson(serial));
  EXPECT_EQ(campaignCsv(parallel), campaignCsv(serial));
  EXPECT_GT(parallel.peakBufferedResults, 0u);
  EXPECT_LE(parallel.peakBufferedResults, 2u * 4u);
  EXPECT_GT(obs::takeSnapshot().counter("util.reorder.stalls"), 0u);
}

TEST(ExecutorTest, ManyJobsHoldOnlyThreadBoundedResults) {
  // 240 jobs, 4 workers: result memory is O(threads), never O(jobs).
  CampaignConfig config;
  config.scenario = cheapScenario();
  config.replications = 240;
  config.threads = 4;
  const CampaignResult parallel = runCampaign(config);
  EXPECT_EQ(parallel.jobCount, 240u);
  EXPECT_LE(parallel.peakBufferedResults, 2u * 4u);
  config.threads = 1;
  EXPECT_EQ(campaignPointsJson(runCampaign(config)),
            campaignPointsJson(parallel));
}

TEST(ExecutorTest, FailedJobIsRethrownWithItsCoordinates) {
  CampaignConfig config;
  config.scenario = throwingScenario();
  config.replications = 16;
  const CampaignPlan plan = buildPlan(config);
  for (const int threads : {1, 4}) {
    CampaignAccumulator accumulator(plan);
    try {
      executeCampaign(plan, threads, accumulator);
      ADD_FAILURE() << "no exception at threads=" << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()),
                "campaign job 5 failed (grid point 0, replication 5): "
                "job 5 failed")
          << threads;
    }
    // The fold stopped short of job 5: nothing truncated can surface.
    EXPECT_FALSE(accumulator.complete()) << threads;
    EXPECT_LE(accumulator.pointReplications(0), 5) << threads;
    EXPECT_THROW(accumulator.take(), std::logic_error) << threads;
  }
  // runCampaign rethrows before any result object exists.
  config.threads = 4;
  EXPECT_THROW(runCampaign(config), std::runtime_error);
}

TEST(ExecutorTest, IncompleteAccumulatorRefusesToSurfaceSummaries) {
  CampaignConfig config;
  config.scenario = cheapScenario();
  config.replications = 4;
  const CampaignPlan plan = buildPlan(config);
  CampaignAccumulator accumulator(plan);
  JobResult result;
  result.rounds = 1;
  accumulator.fold(0, 0, result);
  EXPECT_FALSE(accumulator.complete());
  EXPECT_THROW(accumulator.take(), std::logic_error);  // truncated fold
  // Replication gap within the point, and an out-of-range point slot.
  EXPECT_THROW(accumulator.fold(0, 2, result), std::logic_error);
  EXPECT_THROW(accumulator.fold(9, 0, result), std::logic_error);
}

}  // namespace
}  // namespace vanet::runner
