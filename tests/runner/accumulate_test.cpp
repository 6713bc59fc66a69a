#include "runner/accumulate.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "runner/campaign.h"
#include "runner/emit.h"
#include "util/binio.h"

namespace vanet::runner {
namespace {

/// A small urban campaign that exercises every serialized payload:
/// Table 1 rows, per-flow figures, protocol totals and scalar metrics.
CampaignConfig urbanCampaign() {
  CampaignConfig config;
  config.scenario = "urban";
  config.masterSeed = 2008;
  config.replications = 2;
  config.threads = 2;
  config.base.set("rounds", 2);
  config.base.set("cars", 2);
  config.grid.add("speed_kmh", {20.0, 30.0}).add("coop", {0.0, 1.0});
  return config;
}

std::string allFigureCsvs(const CampaignResult& result) {
  std::string out;
  for (const GridPointSummary& point : result.points) {
    for (const auto& [flow, figure] : point.figures) {
      out += "# p" + std::to_string(point.gridIndex) + " f" +
             std::to_string(flow) + "\n";
      out += figureSeriesCsv(figure);
    }
  }
  return out;
}

TEST(AccumulateTest, PartialJsonRoundTripIsByteStable) {
  const CampaignResult result = runCampaign(urbanCampaign());
  const CampaignPartial partial = campaignPartial(result);
  const std::string text = campaignPartialJson(partial);
  const CampaignPartial parsed = parseCampaignPartial(text);
  // serialize -> parse -> serialize reproduces the bytes exactly: the
  // Welford merge-states survive the round trip bit for bit.
  EXPECT_EQ(campaignPartialJson(parsed), text);
  EXPECT_EQ(parsed.scenario, "urban");
  EXPECT_EQ(parsed.masterSeed, 2008u);
  EXPECT_EQ(parsed.replications, 2);
  EXPECT_EQ(parsed.totalPoints, 4u);
  EXPECT_EQ(parsed.totalJobs, 8u);
  ASSERT_EQ(parsed.points.size(), 4u);
  // The emitted artefacts of the round-tripped result match too.
  CampaignResult back = resultFromPartials({parsed});
  EXPECT_EQ(campaignPointsJson(back), campaignPointsJson(result));
  EXPECT_EQ(campaignCsv(back), campaignCsv(result));
  EXPECT_EQ(allFigureCsvs(back), allFigureCsvs(result));
}

TEST(AccumulateTest, TwoShardsMergeBitIdenticalToSingleProcess) {
  CampaignConfig config = urbanCampaign();
  config.threads = 1;
  const CampaignResult reference = runCampaign(config);

  config.threads = 2;
  std::vector<CampaignPartial> partials;
  for (int shard = 0; shard < 2; ++shard) {
    config.shard = Shard{shard, 2};
    const CampaignResult result = runCampaign(config);
    EXPECT_EQ(result.points.size(), 2u);  // 4 points round-robin over 2
    EXPECT_EQ(result.jobCount, 4u);
    EXPECT_EQ(result.totalJobs, 8u);
    // File round trip, exactly as two processes would exchange them.
    partials.push_back(
        parseCampaignPartial(campaignPartialJson(campaignPartial(result))));
  }
  const CampaignResult merged = resultFromPartials(std::move(partials));
  EXPECT_EQ(merged.points.size(), 4u);
  EXPECT_EQ(campaignPointsJson(merged), campaignPointsJson(reference));
  EXPECT_EQ(campaignCsv(merged), campaignCsv(reference));
  EXPECT_EQ(allFigureCsvs(merged), allFigureCsvs(reference));
}

TEST(AccumulateTest, ShardOrderGivenToMergeDoesNotMatter) {
  CampaignConfig config = urbanCampaign();
  std::vector<CampaignPartial> partials;
  for (int shard = 1; shard >= 0; --shard) {  // reversed on purpose
    config.shard = Shard{shard, 2};
    partials.push_back(campaignPartial(runCampaign(config)));
  }
  const CampaignResult merged = resultFromPartials(std::move(partials));
  config.shard = Shard{};
  EXPECT_EQ(campaignPointsJson(merged),
            campaignPointsJson(runCampaign(config)));
}

TEST(AccumulateTest, EmptyShardsRoundTripAndMerge) {
  // More shards than points: the surplus shard writes an empty (but
  // valid) partial, and the merge still reassembles the full grid.
  CampaignConfig config = urbanCampaign();
  std::vector<CampaignPartial> partials;
  for (int shard = 0; shard < 6; ++shard) {
    config.shard = Shard{shard, 6};
    partials.push_back(
        parseCampaignPartial(campaignPartialJson(campaignPartial(
            runCampaign(config)))));
  }
  EXPECT_TRUE(partials[4].points.empty());
  const CampaignResult merged = resultFromPartials(std::move(partials));
  config.shard = Shard{};
  config.threads = 1;
  EXPECT_EQ(campaignPointsJson(merged),
            campaignPointsJson(runCampaign(config)));
}

TEST(AccumulateTest, MergeValidatesShardSets) {
  CampaignConfig config = urbanCampaign();
  config.shard = Shard{0, 2};
  const CampaignPartial shard0 = campaignPartial(runCampaign(config));
  config.shard = Shard{1, 2};
  const CampaignPartial shard1 = campaignPartial(runCampaign(config));

  EXPECT_THROW(mergeCampaignPartials({}), std::runtime_error);
  // Missing shard 1.
  EXPECT_THROW(mergeCampaignPartials({shard0}), std::runtime_error);
  // Duplicate shard 0.
  EXPECT_THROW(mergeCampaignPartials({shard0, shard0}), std::runtime_error);
  // Shards from different campaigns.
  config.masterSeed = 2009;
  const CampaignPartial foreign = campaignPartial(runCampaign(config));
  EXPECT_THROW(mergeCampaignPartials({shard0, foreign}), std::runtime_error);
  // The healthy set still merges.
  EXPECT_EQ(mergeCampaignPartials({shard0, shard1}).size(), 4u);
}

TEST(AccumulateTest, MergeErrorsNameShardSpecAndSourceFile) {
  CampaignConfig config = urbanCampaign();
  config.shard = Shard{0, 2};
  const CampaignResult result = runCampaign(config);
  const std::string path = ::testing::TempDir() + "/culprit_shard0.json";
  ASSERT_TRUE(writeCampaignPartial(path, campaignPartial(result)));

  // A partial read back from disk remembers its file; merge failures
  // must point the operator at that file, not just an index.
  const CampaignPartial fromFile = readCampaignPartial(path);
  EXPECT_EQ(fromFile.sourcePath, path);
  try {
    mergeCampaignPartials({fromFile, fromFile});
    FAIL() << "duplicate shard set must not merge";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("shard 0/2"), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }

  // In-memory partials (no file) degrade to the bare shard spec.
  const CampaignPartial inMemory = campaignPartial(result);
  try {
    mergeCampaignPartials({inMemory});
    FAIL() << "incomplete shard set must not merge";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("shard 0/2"), std::string::npos) << what;
    EXPECT_EQ(what.find(" from '"), std::string::npos) << what;
  }
}

TEST(AccumulateTest, ReadErrorsNameTheFile) {
  const std::string path = ::testing::TempDir() + "/broken_partial.json";
  std::ofstream(path) << "{\"format\":\"other\",\"version\":1}";
  try {
    readCampaignPartial(path);
    FAIL() << "foreign document must not parse";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(path), std::string::npos)
        << error.what();
  }
}

TEST(AccumulateTest, BinaryReadErrorsNameFileAndByteOffset) {
  // The binary reader must match the JSON reader's error contract --
  // the failing file is always named -- and add the byte offset of the
  // damage, which text formats cannot give.
  CampaignConfig config = urbanCampaign();
  config.shard = Shard{0, 2};
  const std::string good = ::testing::TempDir() + "/bin_ok.part";
  ASSERT_TRUE(writeCampaignPartial(good,
                                   campaignPartial(runCampaign(config)),
                                   PartialFormat::kBinary));
  std::string bytes;
  {
    std::ifstream in(good, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  const std::string truncated = ::testing::TempDir() + "/bin_cut.part";
  std::ofstream(truncated, std::ios::binary)
      << bytes.substr(0, bytes.size() / 2);
  try {
    readCampaignPartial(truncated);
    FAIL() << "truncated binary partial must not parse";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(truncated), std::string::npos) << what;
    EXPECT_NE(what.find("byte offset"), std::string::npos) << what;
  }
}

TEST(AccumulateTest, MergeFilesReportsTheUnreadableFile) {
  CampaignConfig config = urbanCampaign();
  config.shard = Shard{0, 2};
  const std::string good = ::testing::TempDir() + "/merge_ok.part";
  ASSERT_TRUE(writeCampaignPartial(good,
                                   campaignPartial(runCampaign(config)),
                                   PartialFormat::kBinary));
  const std::string missing = ::testing::TempDir() + "/merge_gone.part";
  try {
    mergeCampaignPartialFiles({good, missing});
    FAIL() << "missing shard file must not merge";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(missing), std::string::npos)
        << error.what();
  }
}

/// Writes the two shards of urbanCampaign() as `<stem>_s{0,1}` partial
/// files in `format`, shard 0 claiming `shard0GridPoints` grid points.
std::vector<std::string> writeShardPair(const std::string& stem,
                                        PartialFormat format,
                                        std::uint64_t shard0GridPoints) {
  CampaignConfig config = urbanCampaign();
  std::vector<std::string> paths;
  for (int shard = 0; shard < 2; ++shard) {
    config.shard = Shard{shard, 2};
    CampaignPartial partial = campaignPartial(runCampaign(config));
    if (shard == 0) partial.totalPoints = shard0GridPoints;
    paths.push_back(::testing::TempDir() + "/" + stem + "_s" +
                    std::to_string(shard));
    EXPECT_TRUE(writeCampaignPartial(paths.back(), partial, format));
  }
  return paths;
}

TEST(AccumulateTest, MergeRejectsGridPointsTheShardsDoNotCarry) {
  // A header claiming 2^40 grid points must fail with the culprit file
  // named, before the merger sizes its grid from it (bad_alloc before).
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 40;
  for (const PartialFormat format :
       {PartialFormat::kJson, PartialFormat::kBinary}) {
    const bool binary = format == PartialFormat::kBinary;
    const std::vector<std::string> paths =
        writeShardPair(binary ? "huge_grid_bin" : "huge_grid_json", format,
                       kHuge);
    try {
      mergeCampaignPartialFiles(paths);
      FAIL() << "inflated grid_points must not merge";
    } catch (const std::runtime_error& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find(paths[0]), std::string::npos) << what;
      EXPECT_NE(what.find("grid_points " + std::to_string(kHuge)),
                std::string::npos)
          << what;
    }
    std::vector<CampaignPartial> partials;
    for (const std::string& path : paths) {
      partials.push_back(readCampaignPartial(path));
    }
    EXPECT_THROW(mergeCampaignPartials(std::move(partials)),
                 std::runtime_error);
  }
  // The honest pair still merges.
  EXPECT_EQ(mergeCampaignPartialFiles(
                writeShardPair("honest_grid", PartialFormat::kBinary, 4))
                .size(),
            4u);
}

TEST(AccumulateTest, BinaryPointCountIsBoundedByThePointsSection) {
  // grid_points and the header's point-record count inflated together
  // (checksum repaired) agree with each other, so only the streaming
  // reader's count-versus-section-bytes bound stands between them and
  // the merger's allocation.
  std::vector<std::string> paths =
      writeShardPair("huge_count", PartialFormat::kBinary, 4);
  std::string bytes;
  {
    std::ifstream in(paths[0], std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  // Section table entry 1 is the points section (no checkpoint); the
  // header ends with grid_points, job_count and the point count.
  util::BinReader table(bytes);
  for (int i = 0; i < 16 + 24 + 8; ++i) table.u8("skip");
  const std::size_t pointsOffset =
      static_cast<std::size_t>(table.u64("points offset"));
  const auto putU64 = [&bytes](std::size_t at, std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      bytes[at + static_cast<std::size_t>(i)] =
          static_cast<char>((value >> (8 * i)) & 0xff);
    }
  };
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 40;
  putU64(pointsOffset - 24, kHuge);  // grid_points
  putU64(pointsOffset - 8, kHuge);   // point-record count
  putU64(bytes.size() - 8, util::fnv1a64(bytes.data(), bytes.size() - 8));
  std::ofstream(paths[0], std::ios::binary | std::ios::trunc) << bytes;
  try {
    mergeCampaignPartialFiles(paths);
    FAIL() << "inflated point count must not merge";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(paths[0]), std::string::npos) << what;
    EXPECT_NE(what.find("cannot fit"), std::string::npos) << what;
  }
}

TEST(AccumulateTest, ParseRejectsWrongFormatAndVersion) {
  EXPECT_THROW(parseCampaignPartial("{}"), std::runtime_error);
  EXPECT_THROW(parseCampaignPartial("not json at all {"),
               std::runtime_error);
  EXPECT_THROW(
      parseCampaignPartial(
          R"({"format":"vanet-campaign-partial","version":999})"),
      std::runtime_error);
  EXPECT_THROW(parseCampaignPartial(R"({"format":"other","version":1})"),
               std::runtime_error);
}

TEST(AccumulateTest, PartialFileWriteReadRoundTrip) {
  CampaignConfig config = urbanCampaign();
  config.shard = Shard{0, 2};
  const CampaignResult result = runCampaign(config);
  const std::string path = ::testing::TempDir() + "/shard0.json";
  ASSERT_TRUE(writeCampaignPartial(path, campaignPartial(result)));
  const CampaignPartial back = readCampaignPartial(path);
  EXPECT_EQ(campaignPartialJson(back),
            campaignPartialJson(campaignPartial(result)));
  EXPECT_THROW(readCampaignPartial(path + ".missing"), std::runtime_error);
}

TEST(AccumulateTest, Int64RoundsSurviveSerialization) {
  // A summary with > 2^31 simulated rounds round-trips unclipped.
  GridPointSummary point;
  point.gridIndex = 0;
  point.replications = 1;
  point.rounds = 3000000000LL;
  CampaignPartial partial;
  partial.scenario = "synthetic";
  partial.shard = Shard{0, 1};
  partial.replications = 1;
  partial.totalPoints = 1;
  partial.totalJobs = 1;
  partial.points.push_back(std::move(point));
  const CampaignPartial back =
      parseCampaignPartial(campaignPartialJson(partial));
  ASSERT_EQ(back.points.size(), 1u);
  EXPECT_EQ(back.points[0].rounds, 3000000000LL);
}

}  // namespace
}  // namespace vanet::runner
