/// \file progress_test.cpp
/// The --progress ticker end to end: a campaign run with
/// CampaignConfig::progress writes `progress: jobs ...` lines to stderr,
/// never to stdout, and leaves the result bytes untouched.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "runner/campaign.h"
#include "runner/emit.h"
#include "runner/registry.h"

namespace vanet::runner {
namespace {

/// A metric from the job seed, no simulation: the campaign is about the
/// engine, not the physics.
const std::string& seedScenario() {
  static const std::string name = [] {
    ScenarioRegistry::global().add(ScenarioInfo{
        "progress-test-seed",
        "metric derived from the job seed, no simulation",
        {{"x", 0.0, "swept only to make several grid points"}},
        [](const JobContext& context) {
          JobResult result;
          result.metrics["m"] = static_cast<double>(context.seed % 1000u);
          result.rounds = 1;
          return result;
        }});
    return std::string("progress-test-seed");
  }();
  return name;
}

CampaignConfig smallCampaign(bool progress) {
  CampaignConfig config;
  config.scenario = seedScenario();
  config.replications = 8;
  config.threads = 2;
  config.progress = progress;
  config.grid.add("x", {0.0, 1.0, 2.0});
  return config;
}

int linesStartingWith(const std::string& text, const std::string& prefix) {
  int count = 0;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(prefix, 0) == 0) ++count;
  }
  return count;
}

TEST(ProgressTest, TickerGoesToStderrOnlyAndLeavesTheBytesAlone) {
  const std::string quiet = campaignCsv(runCampaign(smallCampaign(false)));

  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  const CampaignResult result = runCampaign(smallCampaign(true));
  const std::string err = ::testing::internal::GetCapturedStderr();
  const std::string out = ::testing::internal::GetCapturedStdout();

  EXPECT_GE(linesStartingWith(err, "progress: jobs "), 1) << err;
  EXPECT_EQ(out.find("progress:"), std::string::npos) << out;
  EXPECT_EQ(campaignCsv(result), quiet);
}

}  // namespace
}  // namespace vanet::runner
