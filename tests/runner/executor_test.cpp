#include "runner/executor.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

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

TEST(ExecutorTest, StreamingMatchesBufferedByteForByte) {
  // A real multi-threaded urban campaign: the streaming reordering
  // window must release results in exactly the buffered fold order.
  CampaignConfig config;
  config.scenario = "urban";
  config.masterSeed = 2008;
  config.replications = 3;
  config.threads = 4;
  config.base.set("rounds", 1);
  config.base.set("cars", 2);
  config.grid.add("speed_kmh", {20.0, 30.0});
  const CampaignResult buffered = runCampaign(config);
  config.streaming = true;
  const CampaignResult streaming = runCampaign(config);
  EXPECT_FALSE(buffered.streaming);
  EXPECT_TRUE(streaming.streaming);
  EXPECT_EQ(campaignPointsJson(buffered), campaignPointsJson(streaming));
  EXPECT_EQ(campaignCsv(buffered), campaignCsv(streaming));
  // Figures flow through the same fold.
  ASSERT_EQ(buffered.points.size(), streaming.points.size());
  for (std::size_t p = 0; p < buffered.points.size(); ++p) {
    for (const auto& [flow, figure] : buffered.points[p].figures) {
      EXPECT_EQ(figureSeriesCsv(figure),
                figureSeriesCsv(streaming.points[p].figures.at(flow)));
    }
  }
}

TEST(ExecutorTest, StreamingHoldsBoundedResultWindow) {
  // 240 jobs, 4 workers: the buffered backend would park 240 results;
  // streaming must never hold more than the O(threads) window cap.
  CampaignConfig config;
  config.scenario = cheapScenario();
  config.replications = 240;
  config.threads = 4;
  config.streaming = true;
  const CampaignResult result = runCampaign(config);
  EXPECT_EQ(result.jobCount, 240u);
  EXPECT_LE(result.peakBufferedResults, streamingWindowCap(4));
  EXPECT_LT(result.peakBufferedResults, result.jobCount);
  // And the buffered run reports the O(jobCount) peak it actually held.
  config.streaming = false;
  EXPECT_EQ(runCampaign(config).peakBufferedResults, 240u);
  // The bound itself is O(threads), not O(jobs).
  EXPECT_EQ(streamingWindowCap(4), 8u);
  EXPECT_EQ(streamingWindowCap(0), 2u);
}

TEST(ExecutorTest, StreamingFoldMatchesBufferedOnManyJobs) {
  CampaignConfig config;
  config.scenario = cheapScenario();
  config.replications = 240;
  config.threads = 4;
  const CampaignResult buffered = runCampaign(config);
  config.streaming = true;
  const CampaignResult streaming = runCampaign(config);
  EXPECT_EQ(campaignPointsJson(buffered), campaignPointsJson(streaming));
}

TEST(ExecutorTest, StreamingWorkerExceptionDiscardsPartialFold) {
  CampaignConfig config;
  config.scenario = throwingScenario();
  config.replications = 16;
  config.threads = 4;
  config.streaming = true;
  // The error is rethrown before any result object exists: a failed
  // streaming run can never emit (or serialize) a truncated summary.
  EXPECT_THROW(runCampaign(config), std::runtime_error);
  config.threads = 1;
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
