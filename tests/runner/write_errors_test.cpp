/// \file write_errors_test.cpp
/// Artefact writers must report I/O errors that only surface when the
/// file is flushed at close. A small artefact written through a symlink
/// to /dev/full fits the stdio buffer, so every write call succeeds and
/// only the close meets ENOSPC; a writer that checks its stream before
/// closing reports success for a file that holds nothing.

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>

#include "analysis/csv.h"
#include "runner/campaign.h"
#include "runner/emit.h"
#include "testing/partial_files.h"

namespace vanet::runner {
namespace {

namespace fs = std::filesystem;

/// A fresh symlink TempDir()/`name` -> /dev/full.
std::string fullDeviceLink(const std::string& name) {
  const std::string link = ::testing::TempDir() + "/" + name;
  fs::remove(link);
  fs::create_symlink("/dev/full", link);
  return link;
}

/// A metric spread by a seed hash, no simulation: its checkpoints stay a
/// few hundred bytes, well inside one stdio buffer.
const std::string& noiseScenario() {
  static const std::string name = [] {
    ScenarioRegistry::global().add(ScenarioInfo{
        "write-errors-test-noise",
        "seed-noisy metric, no simulation",
        {},
        [](const JobContext& context) {
          JobResult result;
          result.metrics["m"] = static_cast<double>(context.seed % 1000u);
          result.rounds = 1;
          return result;
        },
        "m"});
    return std::string("write-errors-test-noise");
  }();
  return name;
}

TEST(WriteErrorsTest, ArtefactWritersReportAFullDevice) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full on this host";
  // One urban round: every artefact fits a stdio buffer.
  CampaignConfig config;
  config.scenario = "urban";
  config.replications = 1;
  config.base.set("rounds", 1);
  config.base.set("cars", 2);
  const CampaignResult result = runCampaign(config);
  ASSERT_EQ(result.points.size(), 1u);
  const GridPointSummary& point = result.points[0];
  ASSERT_FALSE(point.figures.empty());

  const std::string link = fullDeviceLink("full_device.artefact");
  EXPECT_FALSE(writeCampaignCsv(link, result));
  EXPECT_FALSE(writeCampaignJson(link, result));
  EXPECT_FALSE(writeFigureCsv(link, point.figures.begin()->second));
  EXPECT_FALSE(analysis::writeTable1Csv(link, point.table1));
  EXPECT_FALSE(analysis::writeSeriesCsv(link, "i", {"a"}, {{1.0, 2.0}}));
  EXPECT_FALSE(writeCampaignPartial(link, campaignPartial(result)));
  fs::remove(link);
}

TEST(WriteErrorsTest, FailedCheckpointWriteKeepsTheLastGoodCheckpoint) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full on this host";
  // Adaptive to the cap (2, 4, 8 replications): three wave barriers.
  CampaignConfig config;
  config.scenario = noiseScenario();
  config.targetRelativeCi95 = 1e-9;
  config.minReplications = 2;
  config.maxReplications = 8;
  config.checkpointPath = ::testing::TempDir() + "/full_device.ckpt";
  config.haltAfterWaves = 1;
  ASSERT_TRUE(runCampaign(config).halted);
  const std::string good = vanet::testing::slurp(config.checkpointPath);

  // The next barrier's temporary file lands on the full device: the run
  // must fail naming it, and must not rename the torn file over the
  // last good checkpoint.
  const std::string tmp = fullDeviceLink("full_device.ckpt.tmp");
  config.haltAfterWaves = 2;
  try {
    runCampaign(config);
    FAIL() << "a checkpoint write to a full device must fail the run";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(tmp), std::string::npos)
        << error.what();
  }
  EXPECT_FALSE(fs::is_symlink(config.checkpointPath));
  EXPECT_EQ(vanet::testing::slurp(config.checkpointPath), good);
  fs::remove(tmp);
}

}  // namespace
}  // namespace vanet::runner
