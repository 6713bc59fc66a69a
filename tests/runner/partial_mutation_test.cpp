/// \file partial_mutation_test.cpp
/// Seeded mutation fuzzing of the one partial decoder
/// (PartialBinaryFileReader, reached through readCampaignPartial and
/// mergeCampaignPartialFiles). A real 2-shard v3 partial and a real wave
/// checkpoint are mutated with fixed-seed byte flips, truncations and
/// inflated length/count fields -- a few hundred mutants, the same on
/// every run. Every mutant must either decode or throw a
/// std::runtime_error whose message starts with the file path: no
/// crash, no abort, no std::bad_alloc or other exception type. Under the
/// sanitizer build the same test also proves no out-of-bounds access.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <exception>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <typeinfo>
#include <vector>

#include "runner/campaign.h"
#include "runner/partial_binary.h"
#include "testing/partial_files.h"

namespace vanet::runner {
namespace {

using vanet::testing::dump;
using vanet::testing::putU64;
using vanet::testing::slurp;
using vanet::testing::withFixedChecksum;

CampaignConfig urbanCampaign() {
  CampaignConfig config;
  config.scenario = "urban";
  config.masterSeed = 2008;
  config.replications = 2;
  config.base.set("rounds", 2);
  config.base.set("cars", 2);
  config.grid.add("speed_kmh", {20.0, 30.0}).add("coop", {0.0, 1.0});
  return config;
}

std::uint64_t getU64(const std::string& bytes, std::size_t at) {
  return util::BinReader(std::string_view(bytes).substr(at, 8)).u64("u64");
}

/// A u64 length or count field a decoder trusts. Structural fields (the
/// section table, the header's point count, the record framing) shape
/// the stream: any change to one must be rejected. grid_points and
/// job_count only matter to the merge.
struct LengthField {
  std::size_t at = 0;
  bool structural = true;
};

std::vector<LengthField> lengthFields(const std::string& bytes) {
  std::vector<LengthField> fields;
  const std::size_t sections = static_cast<unsigned char>(bytes[12]);
  for (std::size_t s = 0; s < sections; ++s) {
    fields.push_back({16 + s * 24 + 8});   // offset
    fields.push_back({16 + s * 24 + 16});  // length
  }
  // The header (table entry 0) ends with grid_points, job_count and the
  // point count.
  const std::size_t headerEnd = getU64(bytes, 24) + getU64(bytes, 32);
  fields.push_back({headerEnd - 24, false});  // grid_points
  fields.push_back({headerEnd - 16, false});  // job_count
  fields.push_back({headerEnd - 8});          // point count
  const std::size_t points =
      vanet::testing::sectionOffset(bytes, vanet::testing::kPointsSection);
  for (std::size_t at = points; at + 8 < bytes.size() - 8;
       at += 8 + getU64(bytes, at)) {
    fields.push_back({at});  // record length framing
  }
  return fields;
}

/// One fixed-seed mutant; `mustReject` marks damage the checksum or the
/// structure checks have to catch (decoding it would be a silent
/// corruption).
struct Mutant {
  std::string name;
  std::string bytes;
  bool mustReject = false;
};

std::vector<Mutant> mutantsOf(const std::string& bytes, std::uint64_t seed) {
  std::mt19937_64 rng(seed);  // the engine's output is fixed by the standard
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  std::vector<Mutant> mutants;
  // Byte flips; every other one repairs the checksum so the flip reaches
  // the field decoders instead of failing at the end of the stream.
  for (int i = 0; i < 120; ++i) {
    std::string mutated = bytes;
    const std::size_t at = below(bytes.size());
    mutated[at] = static_cast<char>(mutated[at] ^ (1 + below(255)));
    const bool repaired = i % 2 == 1;
    if (repaired) mutated = withFixedChecksum(mutated);
    mutants.push_back(
        {"flip@" + std::to_string(at), std::move(mutated), !repaired});
  }
  // Truncations anywhere, the empty file included.
  for (int i = 0; i < 40; ++i) {
    const std::size_t keep = i == 0 ? 0 : below(bytes.size());
    mutants.push_back(
        {"truncate@" + std::to_string(keep), bytes.substr(0, keep), true});
  }
  // Inflated u64 lengths and counts, checksum repaired.
  for (const LengthField& field : lengthFields(bytes)) {
    const std::uint64_t original = getU64(bytes, field.at);
    for (const std::uint64_t value :
         {original + 1, original + 8, std::uint64_t{1} << 32,
          std::uint64_t{1} << 40, std::uint64_t{1} << 63, ~std::uint64_t{0}}) {
      std::string mutated = bytes;
      putU64(mutated, field.at, value);
      mutants.push_back(
          {"u64@" + std::to_string(field.at) + "=" + std::to_string(value),
           withFixedChecksum(mutated), field.structural});
    }
  }
  // Inflated u32 counts (param, figure, row, cell and string lengths
  // live at record-dependent offsets): saturate random 4-byte windows.
  for (int i = 0; i < 60; ++i) {
    std::string mutated = bytes;
    const std::size_t at = below(bytes.size() - 12);
    const std::uint32_t value = i % 2 == 0 ? 0xffffffffu : 0x7fffffffu;
    for (int b = 0; b < 4; ++b) {
      mutated[at + static_cast<std::size_t>(b)] =
          static_cast<char>((value >> (8 * b)) & 0xff);
    }
    mutants.push_back(
        {"u32@" + std::to_string(at), withFixedChecksum(mutated)});
  }
  return mutants;
}

struct Tally {
  int decoded = 0;
  int rejected = 0;
};

/// Decodes every mutant of `bytes` through readCampaignPartial; a
/// decoded shard mutant is also merged with `sibling` (when given),
/// which may succeed or throw std::runtime_error, nothing else.
Tally fuzz(const std::string& bytes, std::uint64_t seed,
           const std::string& stem, const std::string& sibling = "") {
  Tally tally;
  const std::string path = ::testing::TempDir() + "/" + stem + ".mutant";
  for (const Mutant& mutant : mutantsOf(bytes, seed)) {
    dump(path, mutant.bytes);
    try {
      readCampaignPartial(path);
      ++tally.decoded;
      EXPECT_FALSE(mutant.mustReject) << mutant.name << " decoded";
    } catch (const std::runtime_error& error) {
      const std::string what = error.what();
      EXPECT_EQ(what.rfind(path + ": ", 0), 0u) << mutant.name << ": " << what;
      ++tally.rejected;
      continue;
    } catch (const std::exception& error) {
      ADD_FAILURE() << mutant.name << ": " << typeid(error).name() << ": "
                    << error.what();
      continue;
    }
    if (sibling.empty()) continue;
    try {
      mergeCampaignPartialFiles({path, sibling});
    } catch (const std::runtime_error&) {
      // A decodable but inconsistent shard set: rejected, as it must be.
    } catch (const std::exception& error) {
      ADD_FAILURE() << mutant.name << " (merge): " << typeid(error).name()
                    << ": " << error.what();
    }
  }
  return tally;
}

TEST(PartialMutationTest, ShardPartialMutantsDecodeOrNameTheFile) {
  CampaignConfig config = urbanCampaign();
  std::vector<std::string> paths;
  for (int shard = 0; shard < 2; ++shard) {
    config.shard = Shard{shard, 2};
    paths.push_back(::testing::TempDir() + "/fuzz_shard" +
                    std::to_string(shard) + ".part");
    ASSERT_TRUE(writeCampaignPartial(paths.back(),
                                     campaignPartial(runCampaign(config))));
  }
  const Tally tally = fuzz(slurp(paths[0]), 2008, "fuzz_shard", paths[1]);
  EXPECT_GT(tally.rejected, 100);
  EXPECT_GT(tally.decoded, 0);  // repaired flips in payload doubles decode
  // The pristine pair still merges.
  EXPECT_EQ(mergeCampaignPartialFiles(paths).size(), 4u);
}

TEST(PartialMutationTest, CheckpointMutantsDecodeOrNameTheFile) {
  CampaignConfig config = urbanCampaign();
  config.targetRelativeCi95 = 1e-9;  // run every point to the cap
  config.minReplications = 2;
  config.maxReplications = 8;
  config.checkpointPath = ::testing::TempDir() + "/fuzz_wave.ckpt";
  config.haltAfterWaves = 1;
  ASSERT_TRUE(runCampaign(config).halted);
  const std::string bytes = slurp(config.checkpointPath);
  ASSERT_TRUE(readCampaignPartial(config.checkpointPath).hasCheckpoint);
  const Tally tally = fuzz(bytes, 2009, "fuzz_wave");
  EXPECT_GT(tally.rejected, 100);
  EXPECT_GT(tally.decoded, 0);
}

}  // namespace
}  // namespace vanet::runner
