#include "runner/partial_binary.h"

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

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void dump(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Recomputes the trailing FNV-1a checksum after the test mutated the
/// payload, so corruption tests hit the *parser* error they target
/// instead of tripping the checksum first.
std::string withFixedChecksum(std::string bytes) {
  const std::uint64_t sum = util::fnv1a64(bytes.data(), bytes.size() - 8);
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<char>((sum >> (8 * i)) & 0xff);
  }
  return bytes;
}

/// Reads the section table of a v3 stream and returns the payload offset
/// of the section with `wantId` (0 when absent).
std::size_t sectionOffset(const std::string& bytes, std::uint32_t wantId) {
  util::BinReader in(bytes);
  for (int i = 0; i < 8; ++i) in.u8("magic");
  in.u32("version");
  const std::uint32_t sections = in.u32("section count");
  for (std::uint32_t s = 0; s < sections; ++s) {
    const std::uint32_t id = in.u32("id");
    in.u32("flags");
    const std::uint64_t offset = in.u64("offset");
    in.u64("length");
    if (id == wantId) return static_cast<std::size_t>(offset);
  }
  return 0;
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
  EXPECT_TRUE(looksLikeBinaryPartial(bytes));
  const CampaignPartial parsed = parseCampaignPartialBinary(bytes);
  // serialize -> parse -> serialize reproduces the bytes exactly; the
  // JSON rendering of both partials agrees field for field, so the
  // binary format loses nothing the text format carries.
  EXPECT_EQ(campaignPartialBinary(parsed), bytes);
  EXPECT_EQ(campaignPartialJson(parsed), campaignPartialJson(partial));
  // The reassembled result emits the same artefacts.
  CampaignResult back = resultFromPartials({parsed});
  EXPECT_EQ(campaignPointsJson(back), campaignPointsJson(result));
  EXPECT_EQ(campaignCsv(back), campaignCsv(result));
}

TEST(PartialBinaryTest, FileRoundTripAutoDetectsFormat) {
  CampaignConfig config = urbanCampaign();
  config.shard = Shard{0, 2};
  const CampaignResult result = runCampaign(config);
  const std::string path = ::testing::TempDir() + "/shard0.bin";
  ASSERT_TRUE(writeCampaignPartial(path, campaignPartial(result),
                                   PartialFormat::kBinary));
  EXPECT_TRUE(looksLikeBinaryPartial(slurp(path)));
  // readCampaignPartial never needs to be told the format: the magic
  // decides, and sourcePath still points back at the file.
  const CampaignPartial back = readCampaignPartial(path);
  EXPECT_EQ(back.sourcePath, path);
  EXPECT_EQ(campaignPartialJson(back),
            campaignPartialJson(campaignPartial(result)));
}

TEST(PartialBinaryTest, AutoFormatPicksBinaryForShardedRuns) {
  CampaignConfig config = urbanCampaign();
  config.shard = Shard{1, 2};
  const CampaignResult result = runCampaign(config);
  const std::string sharded = ::testing::TempDir() + "/auto_shard.part";
  const std::string whole = ::testing::TempDir() + "/auto_whole.part";
  ASSERT_TRUE(writeCampaignPartial(sharded, campaignPartial(result),
                                   PartialFormat::kAuto));
  EXPECT_TRUE(looksLikeBinaryPartial(slurp(sharded)));
  config.shard = Shard{};
  ASSERT_TRUE(writeCampaignPartial(whole,
                                   campaignPartial(runCampaign(config)),
                                   PartialFormat::kAuto));
  EXPECT_FALSE(looksLikeBinaryPartial(slurp(whole)));  // JSON for 1/1
}

TEST(PartialBinaryTest, StreamingReaderMatchesInMemoryParse) {
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
  streamed.sourcePath.clear();
  EXPECT_EQ(campaignPartialJson(streamed), campaignPartialJson(partial));
}

TEST(PartialBinaryTest, ZeroPointShardStreamsCleanly) {
  CampaignConfig config = urbanCampaign();
  config.shard = Shard{5, 6};  // more shards than grid points
  const CampaignPartial partial = campaignPartial(runCampaign(config));
  ASSERT_TRUE(partial.points.empty());
  const std::string bytes = campaignPartialBinary(partial);
  EXPECT_EQ(campaignPartialBinary(parseCampaignPartialBinary(bytes)), bytes);
  const std::string path = ::testing::TempDir() + "/empty.bin";
  dump(path, bytes);
  PartialBinaryFileReader reader(path);
  EXPECT_EQ(reader.remainingPoints(), 0u);
  GridPointSummary unused;
  EXPECT_FALSE(reader.nextPoint(unused));
}

TEST(PartialBinaryTest, MixedFormatShardsMergeByteIdentical) {
  CampaignConfig config = urbanCampaign();
  config.threads = 1;
  const CampaignResult reference = runCampaign(config);

  const std::string jsonPath = ::testing::TempDir() + "/mixed0.json";
  const std::string binPath = ::testing::TempDir() + "/mixed1.bin";
  config.threads = 2;
  config.shard = Shard{0, 2};
  ASSERT_TRUE(writeCampaignPartial(jsonPath,
                                   campaignPartial(runCampaign(config)),
                                   PartialFormat::kJson));
  config.shard = Shard{1, 2};
  ASSERT_TRUE(writeCampaignPartial(binPath,
                                   campaignPartial(runCampaign(config)),
                                   PartialFormat::kBinary));

  // One JSON shard, one binary shard, given in reverse order: the merge
  // must still be byte-identical to the single-process artefacts.
  const CampaignResult merged =
      resultFromPartialFiles({binPath, jsonPath});
  EXPECT_EQ(campaignPointsJson(merged), campaignPointsJson(reference));
  EXPECT_EQ(campaignCsv(merged), campaignCsv(reference));
}

TEST(PartialBinaryTest, RejectsBadMagicAndVersion) {
  EXPECT_FALSE(looksLikeBinaryPartial("VNETPARX"));
  EXPECT_FALSE(looksLikeBinaryPartial("VNE"));  // shorter than the magic
  try {
    parseCampaignPartialBinary("VNETPARX________");
    FAIL() << "bad magic must not parse";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "not a binary campaign partial (bad magic)");
  }
  std::string bytes = campaignPartialBinary(syntheticPartial());
  bytes[8] = 9;  // version u32 lives right after the magic
  try {
    parseCampaignPartialBinary(withFixedChecksum(bytes));
    FAIL() << "future version must not parse";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(),
                 "unsupported binary campaign partial version 9 "
                 "(supported: 3)");
  }
}

TEST(PartialBinaryTest, ChecksumMismatchNamesStoredAndComputed) {
  std::string bytes = campaignPartialBinary(syntheticPartial());
  const std::size_t points = sectionOffset(bytes, 2);
  ASSERT_GT(points, 0u);
  // Flip one bit inside the rounds i64 of the first record (framing u64
  // + gridIndex u64 + empty case name u32 + replications i32 deep), so
  // the stream still *decodes* and only the checksum notices.
  bytes[points + 8 + 16 + 4] ^= 0x01;
  try {
    parseCampaignPartialBinary(bytes);
    FAIL() << "bit rot must not parse";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("checksum mismatch"),
              std::string::npos)
        << error.what();
  }
  // The streaming reader catches the same corruption at end of stream.
  const std::string path = ::testing::TempDir() + "/corrupt.bin";
  dump(path, bytes);
  try {
    PartialBinaryFileReader reader(path);
    GridPointSummary point;
    while (reader.nextPoint(point)) {
    }
    FAIL() << "bit rot must not stream";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("checksum mismatch"), std::string::npos) << what;
  }
}

TEST(PartialBinaryTest, TruncationNamesByteOffset) {
  const std::string bytes = campaignPartialBinary(syntheticPartial());
  // In memory: the prologue itself is cut short.
  try {
    parseCampaignPartialBinary(bytes.substr(0, 10));
    FAIL() << "truncated prologue must not parse";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("byte offset"),
              std::string::npos)
        << error.what();
  }
  // On disk: the file ends inside the points section; the streaming
  // reader reports the path and the byte offset where data ran out.
  const std::string path = ::testing::TempDir() + "/truncated.bin";
  const std::size_t cut = sectionOffset(bytes, 2) + 4;
  dump(path, bytes.substr(0, cut));
  try {
    PartialBinaryFileReader reader(path);
    GridPointSummary point;
    while (reader.nextPoint(point)) {
    }
    FAIL() << "truncated file must not stream";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("truncated at byte offset"), std::string::npos)
        << what;
  }
}

TEST(PartialBinaryTest, CorruptRecordReportsRecordIndexAndOffset) {
  std::string bytes = campaignPartialBinary(syntheticPartial());
  const std::size_t points = sectionOffset(bytes, 2);
  ASSERT_GT(points, 0u);
  // Record layout with an empty case name: gridIndex u64 (8) + case-name
  // length u32 (4) + replications i32 (4) + rounds i64 (8) + ci95 f64 (8)
  // puts the param-count u32 32 bytes into the record; the record itself
  // starts after the u64 length framing.
  const std::size_t paramCount = points + 8 + 32;
  ASSERT_LT(paramCount + 4, bytes.size());
  bytes[paramCount] = static_cast<char>(0xff);  // claim 255 params
  bytes = withFixedChecksum(bytes);
  try {
    parseCampaignPartialBinary(bytes);
    FAIL() << "overlong param table must not parse";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("point record 1 of 1"), std::string::npos) << what;
    EXPECT_NE(what.find("truncated at byte offset"), std::string::npos)
        << what;
  }
  const std::string path = ::testing::TempDir() + "/badrecord.bin";
  dump(path, bytes);
  try {
    PartialBinaryFileReader reader(path);
    GridPointSummary point;
    while (reader.nextPoint(point)) {
    }
    FAIL() << "overlong param table must not stream";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("point record"), std::string::npos) << what;
  }
}

TEST(PartialBinaryTest, TrailingGarbageAfterChecksumFails) {
  const std::string bytes = campaignPartialBinary(syntheticPartial());
  const std::string path = ::testing::TempDir() + "/garbage.bin";
  dump(path, bytes + "extra");
  try {
    PartialBinaryFileReader reader(path);
    GridPointSummary point;
    while (reader.nextPoint(point)) {
    }
    FAIL() << "appended garbage must not stream";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what())
                  .find("trailing garbage after the checksum"),
              std::string::npos)
        << error.what();
  }
}

TEST(PartialBinaryTest, MergeErrorsKeepShardContextForBinaryFiles) {
  CampaignConfig config = urbanCampaign();
  config.shard = Shard{0, 2};
  const std::string path = ::testing::TempDir() + "/ctx_shard0.bin";
  ASSERT_TRUE(writeCampaignPartial(path,
                                   campaignPartial(runCampaign(config)),
                                   PartialFormat::kBinary));
  // Binary shard files keep the "shard i/N from 'file'" merge context
  // the JSON path established.
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
                                     campaignPartial(runCampaign(config)),
                                     PartialFormat::kBinary));
  }
  std::string bytes = slurp(paths[0]);
  const std::size_t record = sectionOffset(bytes, 2);
  ASSERT_GT(record, 0u);
  const std::uint64_t huge = std::uint64_t{1} << 40;
  for (int i = 0; i < 8; ++i) {
    bytes[record + static_cast<std::size_t>(i)] =
        static_cast<char>((huge >> (8 * i)) & 0xff);
  }
  bytes = withFixedChecksum(bytes);
  dump(paths[0], bytes);

  const std::string offset = "byte offset " + std::to_string(record);
  try {
    resultFromPartialFiles(paths);
    FAIL() << "a 2^40-byte record length must not merge";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(paths[0]), std::string::npos) << what;
    EXPECT_NE(what.find("point record 1"), std::string::npos) << what;
    EXPECT_NE(what.find(offset), std::string::npos) << what;
  }
  try {
    parseCampaignPartialBinary(bytes);
    FAIL() << "a 2^40-byte record length must not parse";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("point record 1"), std::string::npos) << what;
    EXPECT_NE(what.find("byte offset"), std::string::npos) << what;
  }
}

TEST(PartialBinaryTest, HugePointCountFailsBeforeReserving) {
  std::string bytes = campaignPartialBinary(syntheticPartial());
  // The header's point count is its last u64, right before the points.
  const std::size_t count = sectionOffset(bytes, 2) - 8;
  for (int i = 0; i < 8; ++i) {
    bytes[count + static_cast<std::size_t>(i)] =
        static_cast<char>(i == 5 ? 1 : 0);  // 2^40 points
  }
  try {
    parseCampaignPartialBinary(withFixedChecksum(bytes));
    FAIL() << "2^40 points must not parse";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("header point count 1099511627776"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("byte offset"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace vanet::runner
