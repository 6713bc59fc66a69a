#include "runner/partial_binary.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "runner/campaign.h"
#include "runner/emit.h"
#include "testing/partial_files.h"

namespace vanet::runner {
namespace {

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

using vanet::testing::dump;
using vanet::testing::kPointsSection;
using vanet::testing::sectionOffset;
using vanet::testing::slurp;
using vanet::testing::throughFile;
using vanet::testing::withFixedChecksum;

/// Reads `path` through the one decoder and returns the error message
/// (empty when the file decodes). Every failure must name the file.
std::string readError(const std::string& path) {
  try {
    readCampaignPartial(path);
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_EQ(what.rfind(path + ": ", 0), 0u) << what;
    return what;
  }
  return "";
}

/// A minimal hand-built partial whose point-record byte layout is fully
/// known to the test (empty case name, no params/figures/metrics).
CampaignPartial syntheticPartial() {
  GridPointSummary point;
  point.gridIndex = 0;
  point.replications = 1;
  point.rounds = 5;
  CampaignPartial partial;
  partial.scenario = "s";
  partial.shard = Shard{0, 1};
  partial.replications = 1;
  partial.totalPoints = 1;
  partial.totalJobs = 1;
  partial.points.push_back(std::move(point));
  return partial;
}

TEST(PartialBinaryTest, RoundTripIsByteStableAndLossless) {
  const CampaignResult result = runCampaign(urbanCampaign());
  const CampaignPartial partial = campaignPartial(result);
  const std::string bytes = campaignPartialBinary(partial);
  EXPECT_EQ(bytes.substr(0, 8), "VNETPART");
  // serialize -> read -> serialize reproduces the bytes exactly, so the
  // format loses nothing the in-memory partial carries.
  const CampaignPartial parsed = throughFile(partial, "lossless.part");
  EXPECT_EQ(campaignPartialBinary(parsed), bytes);
  // The reassembled result emits the same artefacts.
  CampaignResult back = resultFromPartials({parsed});
  EXPECT_EQ(campaignPointsJson(back), campaignPointsJson(result));
  EXPECT_EQ(campaignCsv(back), campaignCsv(result));
}

TEST(PartialBinaryTest, EveryWrittenPartialIsV3AndKeepsItsSourcePath) {
  // Sharded or whole, writeCampaignPartial emits v3; the read-back
  // partial remembers the file it came from.
  CampaignConfig config = urbanCampaign();
  for (const Shard shard : {Shard{0, 2}, Shard{}}) {
    config.shard = shard;
    const CampaignPartial partial = campaignPartial(runCampaign(config));
    const std::string path = ::testing::TempDir() + "/written" +
                             std::to_string(shard.count) + ".part";
    ASSERT_TRUE(writeCampaignPartial(path, partial));
    EXPECT_EQ(slurp(path), campaignPartialBinary(partial));
    const CampaignPartial back = readCampaignPartial(path);
    EXPECT_EQ(back.sourcePath, path);
    EXPECT_EQ(campaignPartialBinary(back), campaignPartialBinary(partial));
  }
}

TEST(PartialBinaryTest, StreamingReaderYieldsTheWrittenPartial) {
  const CampaignResult result = runCampaign(urbanCampaign());
  const CampaignPartial partial = campaignPartial(result);
  const std::string path = ::testing::TempDir() + "/stream.bin";
  dump(path, campaignPartialBinary(partial));

  PartialBinaryFileReader reader(path);
  EXPECT_EQ(reader.header().scenario, partial.scenario);
  EXPECT_EQ(reader.header().masterSeed, partial.masterSeed);
  EXPECT_EQ(reader.header().sourcePath, path);
  EXPECT_EQ(reader.remainingPoints(), partial.points.size());

  CampaignPartial streamed = reader.header();
  GridPointSummary point;
  while (reader.nextPoint(point)) streamed.points.push_back(std::move(point));
  EXPECT_EQ(reader.remainingPoints(), 0u);
  EXPECT_EQ(campaignPartialBinary(streamed), campaignPartialBinary(partial));
}

TEST(PartialBinaryTest, ZeroPointShardStreamsCleanly) {
  CampaignConfig config = urbanCampaign();
  config.shard = Shard{5, 6};  // more shards than grid points
  const CampaignPartial partial = campaignPartial(runCampaign(config));
  ASSERT_TRUE(partial.points.empty());
  const std::string bytes = campaignPartialBinary(partial);
  EXPECT_EQ(campaignPartialBinary(throughFile(partial, "empty.bin")), bytes);
  const std::string path = ::testing::TempDir() + "/empty.bin";
  PartialBinaryFileReader reader(path);
  EXPECT_EQ(reader.remainingPoints(), 0u);
  GridPointSummary unused;
  EXPECT_FALSE(reader.nextPoint(unused));
}

TEST(PartialBinaryTest, RetiredJsonPartialFailsTheMergeNamingTheFile) {
  // JSON v1/v2 partials are no longer read: a shard set holding one
  // fails with the bad-magic error and the offending file's path.
  CampaignConfig config = urbanCampaign();
  const std::string binPath = ::testing::TempDir() + "/mixed0.bin";
  const std::string jsonPath = ::testing::TempDir() + "/mixed1.json";
  config.shard = Shard{0, 2};
  ASSERT_TRUE(
      writeCampaignPartial(binPath, campaignPartial(runCampaign(config))));
  dump(jsonPath,
       "{\n\"format\":\"vanet-campaign-partial\",\n\"version\":2,\n"
       "\"scenario\":\"urban\",\n\"master_seed\":2008,\n\"shard_index\":1,\n"
       "\"shard_count\":2,\n\"points\":[\n]\n}\n");
  try {
    resultFromPartialFiles({binPath, jsonPath});
    FAIL() << "a JSON partial must not merge";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(),
                 (jsonPath + ": not a binary campaign partial (bad magic)")
                     .c_str());
  }
}

TEST(PartialBinaryTest, RejectsBadMagicAndVersion) {
  const std::string path = ::testing::TempDir() + "/magic.bin";
  dump(path, "VNETPARX________");
  EXPECT_EQ(readError(path),
            path + ": not a binary campaign partial (bad magic)");
  std::string bytes = campaignPartialBinary(syntheticPartial());
  bytes[8] = 9;  // version u32 lives right after the magic
  dump(path, withFixedChecksum(bytes));
  EXPECT_EQ(readError(path),
            path + ": unsupported binary campaign partial version 9 "
                   "(supported: 3)");
}

TEST(PartialBinaryTest, ChecksumMismatchNamesStoredAndComputed) {
  std::string bytes = campaignPartialBinary(syntheticPartial());
  const std::size_t points = sectionOffset(bytes, kPointsSection);
  ASSERT_GT(points, 0u);
  // Flip one bit inside the rounds i64 of the first record (framing u64
  // + gridIndex u64 + empty case name u32 + replications i32 deep), so
  // the stream still *decodes* and only the checksum notices -- at the
  // end of the stream.
  bytes[points + 8 + 16 + 4] ^= 0x01;
  const std::string path = ::testing::TempDir() + "/corrupt.bin";
  dump(path, bytes);
  PartialBinaryFileReader reader(path);
  GridPointSummary point;
  EXPECT_TRUE(reader.nextPoint(point));
  try {
    reader.nextPoint(point);
    FAIL() << "bit rot must not stream";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_EQ(what.rfind(path + ": checksum mismatch", 0), 0u) << what;
    EXPECT_NE(what.find("stored "), std::string::npos) << what;
    EXPECT_NE(what.find("computed "), std::string::npos) << what;
  }
}

TEST(PartialBinaryTest, TruncationNamesByteOffset) {
  const std::string bytes = campaignPartialBinary(syntheticPartial());
  const std::string path = ::testing::TempDir() + "/truncated.bin";
  // The prologue itself is cut short.
  dump(path, bytes.substr(0, 10));
  EXPECT_NE(readError(path).find("truncated at byte offset 8"),
            std::string::npos);
  // The file ends inside the points section: the section table no
  // longer fits the file, and the error names the section's offset.
  dump(path, bytes.substr(0, sectionOffset(bytes, kPointsSection) + 4));
  const std::string what = readError(path);
  EXPECT_NE(what.find("at byte offset "), std::string::npos) << what;
  EXPECT_NE(what.find("overruns the file"), std::string::npos) << what;
}

TEST(PartialBinaryTest, CorruptRecordReportsRecordIndexAndOffset) {
  std::string bytes = campaignPartialBinary(syntheticPartial());
  const std::size_t points = sectionOffset(bytes, kPointsSection);
  ASSERT_GT(points, 0u);
  // Record layout with an empty case name: gridIndex u64 (8) + case-name
  // length u32 (4) + replications i32 (4) + rounds i64 (8) + ci95 f64 (8)
  // puts the param-count u32 32 bytes into the record; the record itself
  // starts after the u64 length framing.
  const std::size_t paramCount = points + 8 + 32;
  ASSERT_LT(paramCount + 4, bytes.size());
  bytes[paramCount] = static_cast<char>(0xff);  // claim 255 params
  const std::string path = ::testing::TempDir() + "/badrecord.bin";
  dump(path, withFixedChecksum(bytes));
  const std::string what = readError(path);
  EXPECT_NE(what.find("point record 1 of 1"), std::string::npos) << what;
  EXPECT_NE(what.find("truncated at byte offset"), std::string::npos)
      << what;
}

TEST(PartialBinaryTest, TrailingGarbageAfterChecksumFails) {
  const std::string bytes = campaignPartialBinary(syntheticPartial());
  const std::string path = ::testing::TempDir() + "/garbage.bin";
  dump(path, bytes + "extra");
  // The section table must tile the file up to its checksum exactly.
  EXPECT_NE(readError(path).find("section table covers"), std::string::npos);
}

TEST(PartialBinaryTest, MergeErrorsKeepShardContextForBinaryFiles) {
  CampaignConfig config = urbanCampaign();
  config.shard = Shard{0, 2};
  const std::string path = ::testing::TempDir() + "/ctx_shard0.bin";
  ASSERT_TRUE(
      writeCampaignPartial(path, campaignPartial(runCampaign(config))));
  // Merge failures name "shard i/N from 'file'".
  try {
    resultFromPartialFiles({path, path});
    FAIL() << "duplicate shard set must not merge";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("shard 0/2"), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }
}

TEST(PartialBinaryTest, HugeRecordLengthFailsWithContextNotBadAlloc) {
  CampaignConfig config = urbanCampaign();
  std::vector<std::string> paths;
  for (int s = 0; s < 2; ++s) {
    config.shard = Shard{s, 2};
    paths.push_back(::testing::TempDir() + "/huge_shard" + std::to_string(s) +
                    ".bin");
    ASSERT_TRUE(writeCampaignPartial(paths.back(),
                                     campaignPartial(runCampaign(config))));
  }
  std::string bytes = slurp(paths[0]);
  const std::size_t record = sectionOffset(bytes, kPointsSection);
  ASSERT_GT(record, 0u);
  vanet::testing::putU64(bytes, record, std::uint64_t{1} << 40);
  dump(paths[0], withFixedChecksum(bytes));

  const std::string offset = "byte offset " + std::to_string(record);
  try {
    resultFromPartialFiles(paths);
    FAIL() << "a 2^40-byte record length must not merge";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_EQ(what.rfind(paths[0] + ": ", 0), 0u) << what;
    EXPECT_NE(what.find("point record 1"), std::string::npos) << what;
    EXPECT_NE(what.find(offset), std::string::npos) << what;
  }
}

TEST(PartialBinaryTest, HugePointCountFailsBeforeReserving) {
  std::string bytes = campaignPartialBinary(syntheticPartial());
  // The header's point count is its last u64, right before the points.
  const std::size_t count = sectionOffset(bytes, kPointsSection) - 8;
  vanet::testing::putU64(bytes, count, std::uint64_t{1} << 40);
  const std::string path = ::testing::TempDir() + "/huge_count.bin";
  dump(path, withFixedChecksum(bytes));
  const std::string what = readError(path);
  EXPECT_NE(what.find("header point count 1099511627776"), std::string::npos)
      << what;
  EXPECT_NE(what.find("byte offset"), std::string::npos) << what;
}

}  // namespace
}  // namespace vanet::runner
