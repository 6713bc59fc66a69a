/// \file checkpoint_test.cpp
/// Per-wave checkpoint/resume: a campaign killed at a wave barrier and
/// restarted from its checkpoint file must emit byte-identical final
/// artefacts -- across thread counts, streaming mode, and shard merges --
/// and a checkpoint must never be mistaken for a finished shard partial.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "runner/campaign.h"
#include "runner/emit.h"
#include "runner/partial_binary.h"
#include "testing/partial_files.h"

namespace vanet::runner {
namespace {

/// Same synthetic scenario the adaptive tests use: "noise" = 0 reports a
/// constant metric (converges at the floor), anything else spreads
/// samples by a seed hash (runs to the cap under a tight target).
const std::string& noiseScenario() {
  static const std::string name = [] {
    ScenarioRegistry::global().add(ScenarioInfo{
        "checkpoint-test-noise",
        "constant or seed-noisy metric, no simulation",
        {{"noise", 0.0, "0 = constant metric, else noise amplitude"}},
        [](const JobContext& context) {
          JobResult result;
          const double noise = context.params.get("noise", 0.0);
          result.metrics["m"] =
              10.0 + noise * static_cast<double>(context.seed % 1000u);
          result.rounds = 1;
          return result;
        }});
    return std::string("checkpoint-test-noise");
  }();
  return name;
}

/// An adaptive campaign with a mixed grid: one point stops at the floor,
/// the noisy ones double through every wave to the cap (4 barriers).
CampaignConfig mixedAdaptive() {
  CampaignConfig config;
  config.scenario = noiseScenario();
  config.masterSeed = 2008;
  config.targetRelativeCi95 = 1e-9;
  config.minReplications = 2;
  config.maxReplications = 16;
  config.targetMetric = "m";
  config.grid.add("noise", {0.0, 1.0, 2.0});
  return config;
}

using vanet::testing::slurp;

TEST(CheckpointTest, HaltAfterWaveWritesResumableCheckpoint) {
  const CampaignResult reference = runCampaign(mixedAdaptive());

  CampaignConfig config = mixedAdaptive();
  config.checkpointPath = ::testing::TempDir() + "/halt1.ckpt";
  config.haltAfterWaves = 1;
  const CampaignResult halted = runCampaign(config);
  EXPECT_TRUE(halted.halted);
  EXPECT_TRUE(halted.points.empty());  // fold state lives in the file

  // The checkpoint is a binary partial carrying the resume trailer,
  // marked incomplete.
  const CampaignPartial checkpoint =
      readCampaignPartial(config.checkpointPath);
  EXPECT_EQ(slurp(config.checkpointPath).substr(0, 8), "VNETPART");
  EXPECT_TRUE(checkpoint.hasCheckpoint);
  EXPECT_FALSE(checkpoint.checkpointComplete);
  EXPECT_EQ(checkpoint.checkpointCoveredReps, 2);  // wave 0 covers min=2

  // Restarting from it finishes the campaign byte-identically.
  config.haltAfterWaves = -1;
  config.resume = true;
  const CampaignResult resumed = runCampaign(config);
  EXPECT_FALSE(resumed.halted);
  EXPECT_EQ(campaignPointsJson(resumed), campaignPointsJson(reference));
  EXPECT_EQ(campaignCsv(resumed), campaignCsv(reference));
  // The final barrier rewrote the checkpoint as complete.
  EXPECT_TRUE(readCampaignPartial(config.checkpointPath).checkpointComplete);
}

TEST(CheckpointTest, EveryInterruptionPointResumesByteIdentical) {
  const CampaignResult reference = runCampaign(mixedAdaptive());
  const std::string refJson = campaignPointsJson(reference);
  // Kill after wave 1, 2, 3 in turn: each restart must converge to the
  // same bytes no matter where the first process died.
  for (int killAfter = 1; killAfter <= 3; ++killAfter) {
    CampaignConfig config = mixedAdaptive();
    config.checkpointPath = ::testing::TempDir() + "/kill" +
                            std::to_string(killAfter) + ".ckpt";
    config.haltAfterWaves = killAfter;
    ASSERT_TRUE(runCampaign(config).halted) << killAfter;
    config.haltAfterWaves = -1;
    config.resume = true;
    const CampaignResult resumed = runCampaign(config);
    EXPECT_EQ(campaignPointsJson(resumed), refJson) << killAfter;
  }
}

TEST(CheckpointTest, ResumeIsByteIdenticalAcrossThreadsAndStreaming) {
  CampaignConfig config = mixedAdaptive();
  config.threads = 1;
  const CampaignResult reference = runCampaign(config);

  // Die single-threaded, resume on 4 streaming workers: the fold state
  // in the checkpoint is execution-order independent.
  config.checkpointPath = ::testing::TempDir() + "/threads.ckpt";
  config.haltAfterWaves = 2;
  ASSERT_TRUE(runCampaign(config).halted);
  config.haltAfterWaves = -1;
  config.resume = true;
  config.threads = 4;
  config.streaming = true;
  const CampaignResult resumed = runCampaign(config);
  EXPECT_EQ(campaignPointsJson(resumed), campaignPointsJson(reference));
  EXPECT_EQ(campaignCsv(resumed), campaignCsv(reference));
}

TEST(CheckpointTest, ShardedResumesMergeByteIdentical) {
  CampaignConfig config = mixedAdaptive();
  config.grid.add("extra", {0.0, 1.0});  // 6 points over 2 shards
  const CampaignResult reference = runCampaign(config);

  // Each shard process dies at wave 1, resumes, and writes its binary
  // partial; the merged artefacts match the uninterrupted run.
  std::vector<std::string> partialPaths;
  for (int shard = 0; shard < 2; ++shard) {
    CampaignConfig sharded = config;
    sharded.shard = Shard{shard, 2};
    sharded.checkpointPath = ::testing::TempDir() + "/shard" +
                             std::to_string(shard) + ".ckpt";
    sharded.haltAfterWaves = 1;
    ASSERT_TRUE(runCampaign(sharded).halted) << shard;
    sharded.haltAfterWaves = -1;
    sharded.resume = true;
    const CampaignResult result = runCampaign(sharded);
    const std::string path = ::testing::TempDir() + "/shard" +
                             std::to_string(shard) + ".part";
    ASSERT_TRUE(writeCampaignPartial(path, campaignPartial(result)));
    partialPaths.push_back(path);
  }
  const CampaignResult merged = resultFromPartialFiles(partialPaths);
  EXPECT_EQ(campaignPointsJson(merged), campaignPointsJson(reference));
  EXPECT_EQ(campaignCsv(merged), campaignCsv(reference));
}

TEST(CheckpointTest, ResumeFromCompleteCheckpointReplaysNothing) {
  CampaignConfig config = mixedAdaptive();
  config.checkpointPath = ::testing::TempDir() + "/complete.ckpt";
  const CampaignResult reference = runCampaign(config);
  ASSERT_TRUE(readCampaignPartial(config.checkpointPath).checkpointComplete);
  // Resuming a finished campaign runs zero further jobs and reproduces
  // the same points.
  config.resume = true;
  const CampaignResult resumed = runCampaign(config);
  EXPECT_EQ(resumed.waves, 0);
  EXPECT_EQ(campaignPointsJson(resumed), campaignPointsJson(reference));
}

TEST(CheckpointTest, ResumeValidatesTheCheckpoint) {
  CampaignConfig config = mixedAdaptive();
  config.checkpointPath = ::testing::TempDir() + "/validate.ckpt";
  config.haltAfterWaves = 1;
  ASSERT_TRUE(runCampaign(config).halted);
  config.haltAfterWaves = -1;
  config.resume = true;

  // A checkpoint from a different campaign must be refused field by
  // field, not silently folded into the wrong run.
  CampaignConfig foreign = config;
  foreign.masterSeed = 9999;
  try {
    runCampaign(foreign);
    FAIL() << "foreign checkpoint must not resume";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("checkpoint describes a different campaign"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(config.checkpointPath), std::string::npos) << what;
  }

  // --resume without a checkpoint path is a usage error.
  CampaignConfig pathless = config;
  pathless.checkpointPath.clear();
  EXPECT_THROW(runCampaign(pathless), std::invalid_argument);

  // A missing checkpoint file fails loudly instead of starting over.
  CampaignConfig missing = config;
  missing.checkpointPath = ::testing::TempDir() + "/no_such.ckpt";
  EXPECT_THROW(runCampaign(missing), std::runtime_error);

  // A finished shard partial is not a checkpoint.
  CampaignConfig donor = mixedAdaptive();
  const std::string partialPath = ::testing::TempDir() + "/finished.part";
  ASSERT_TRUE(writeCampaignPartial(partialPath,
                                   campaignPartial(runCampaign(donor))));
  CampaignConfig wrongKind = config;
  wrongKind.checkpointPath = partialPath;
  try {
    runCampaign(wrongKind);
    FAIL() << "a shard partial must not pass as a checkpoint";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("not a checkpoint"),
              std::string::npos)
        << error.what();
  }
}

TEST(CheckpointTest, HaltWithoutCheckpointPathIsRejected) {
  // A halted run keeps its work only in the checkpoint: halting without
  // one would discard every finished wave and still report success.
  CampaignConfig config = mixedAdaptive();
  config.haltAfterWaves = 1;
  try {
    runCampaign(config);
    FAIL() << "halt-after-waves without a checkpoint path must not run";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("needs a checkpoint path"),
              std::string::npos)
        << error.what();
  }
}

TEST(CheckpointTest, UnfinishedCheckpointIsNotAMergeableShard) {
  CampaignConfig config = mixedAdaptive();
  config.checkpointPath = ::testing::TempDir() + "/notashard.ckpt";
  config.haltAfterWaves = 1;
  ASSERT_TRUE(runCampaign(config).halted);
  const CampaignPartial checkpoint =
      readCampaignPartial(config.checkpointPath);
  try {
    mergeCampaignPartials({checkpoint});
    FAIL() << "an unfinished checkpoint must not merge as a shard";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(
        std::string(error.what()).find("unfinished wave checkpoint"),
        std::string::npos)
        << error.what();
  }
}

TEST(CheckpointTest, CheckpointRoundTripsThroughTheBinaryFormat) {
  // The checkpoint trailer itself survives serialize -> read ->
  // serialize bit for bit (it rides the v3 CHECKPOINT section).
  CampaignConfig config = mixedAdaptive();
  config.checkpointPath = ::testing::TempDir() + "/roundtrip.ckpt";
  config.haltAfterWaves = 2;
  ASSERT_TRUE(runCampaign(config).halted);
  const std::string bytes = slurp(config.checkpointPath);
  const CampaignPartial parsed = readCampaignPartial(config.checkpointPath);
  EXPECT_TRUE(parsed.hasCheckpoint);
  EXPECT_EQ(parsed.checkpointCoveredReps, 4);  // waves 0+1 cover 2, 4
  EXPECT_EQ(campaignPartialBinary(parsed), bytes);
}

}  // namespace
}  // namespace vanet::runner
