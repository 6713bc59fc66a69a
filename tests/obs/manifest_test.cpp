#include "obs/manifest.h"

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>

namespace vanet::obs {
namespace {

RunManifest fullManifest() {
  RunManifest manifest;
  manifest.artifact = "out/campaign.json";
  manifest.tool = "vanet_campaign";
  manifest.args = {"--seed=2008", "--threads=2", "--out=out"};
  manifest.gitRev = "abc1234";
  manifest.buildFlags = "Release sanitize=OFF";
  manifest.scenario = "highway";
  manifest.masterSeed = 2008;
  manifest.threads = 2;
  manifest.shardIndex = 1;
  manifest.shardCount = 3;
  manifest.streaming = true;
  manifest.targetCi = 0.05;
  manifest.targetMetric = "pct_lost_after";
  manifest.wallSeconds = 1.25;
  manifest.jobsPerSecond = 12.5;
  manifest.specPath = "specs/table1.json";
  manifest.specDigest = 0xdeadbeefcafef00dULL;
  manifest.points = {{0, 4, 0.031}, {1, 8, 0.049}};
  return manifest;
}

TEST(ObsManifestTest, RoundTripsEveryField) {
  const RunManifest original = fullManifest();
  const RunManifest parsed = manifestFromJson(manifestJson(original));
  EXPECT_EQ(parsed.artifact, original.artifact);
  EXPECT_EQ(parsed.tool, original.tool);
  EXPECT_EQ(parsed.args, original.args);
  EXPECT_EQ(parsed.gitRev, original.gitRev);
  EXPECT_EQ(parsed.buildFlags, original.buildFlags);
  EXPECT_EQ(parsed.scenario, original.scenario);
  EXPECT_EQ(parsed.masterSeed, original.masterSeed);
  EXPECT_EQ(parsed.threads, original.threads);
  EXPECT_EQ(parsed.shardIndex, original.shardIndex);
  EXPECT_EQ(parsed.shardCount, original.shardCount);
  EXPECT_EQ(parsed.streaming, original.streaming);
  EXPECT_DOUBLE_EQ(parsed.targetCi, original.targetCi);
  EXPECT_EQ(parsed.targetMetric, original.targetMetric);
  EXPECT_DOUBLE_EQ(parsed.wallSeconds, original.wallSeconds);
  EXPECT_DOUBLE_EQ(parsed.jobsPerSecond, original.jobsPerSecond);
  EXPECT_EQ(parsed.specPath, original.specPath);
  EXPECT_EQ(parsed.specDigest, original.specDigest);
  ASSERT_EQ(parsed.points.size(), 2u);
  EXPECT_EQ(parsed.points[1].gridIndex, 1u);
  EXPECT_EQ(parsed.points[1].replications, 8);
  EXPECT_DOUBLE_EQ(parsed.points[1].achievedCi95, 0.049);
}

TEST(ObsManifestTest, RenderParseRenderIsByteExact) {
  // json::num round-trips doubles exactly, so render -> parse -> render
  // is the identity on bytes; archived sidecars can be re-canonicalised.
  const std::string text = manifestJson(fullManifest());
  EXPECT_EQ(manifestJson(manifestFromJson(text)), text);

  const std::string empty = manifestJson(RunManifest{});
  EXPECT_EQ(manifestJson(manifestFromJson(empty)), empty);
}

TEST(ObsManifestTest, ParsesSidecarsThatStillCarryRoundThreads) {
  // Sidecars written before the round-worker axis was removed record a
  // "round_threads" key. Fields are read by name, so the stale key is
  // ignored and every other field still parses.
  const std::string older =
      "{\n\"format\":\"vanet-run-manifest\",\n\"version\":1,\n"
      "\"artifact\":\"out/campaign.json\",\n"
      "\"tool\":\"vanet_campaign\",\n"
      "\"args\":[\"--threads=2\"],\n\"git_rev\":\"abc1234\",\n"
      "\"build_flags\":\"Release sanitize=OFF\",\n"
      "\"scenario\":\"highway\",\n\"master_seed\":2008,\n"
      "\"threads\":2,\n\"round_threads\":1,\n\"shard_index\":0,\n"
      "\"shard_count\":1,\n\"streaming\":false,\n\"target_ci\":0,\n"
      "\"target_metric\":\"\",\n\"wall_seconds\":1.25,\n"
      "\"jobs_per_second\":12.5,\n\"spec_path\":\"\",\n"
      "\"spec_digest\":\"0000000000000000\",\n"
      "\"points\":[\n {\"grid_index\":0,\"replications\":8,"
      "\"achieved_ci95\":0.031}\n]\n}\n";
  const RunManifest parsed = manifestFromJson(older);
  EXPECT_EQ(parsed.tool, "vanet_campaign");
  EXPECT_EQ(parsed.threads, 2);
  EXPECT_EQ(parsed.shardCount, 1);
  EXPECT_DOUBLE_EQ(parsed.jobsPerSecond, 12.5);
  ASSERT_EQ(parsed.points.size(), 1u);
  EXPECT_EQ(parsed.points[0].replications, 8);
  EXPECT_EQ(manifestJson(parsed).find("round_threads"), std::string::npos);
}

TEST(ObsManifestTest, RejectsForeignDocuments) {
  EXPECT_THROW(manifestFromJson("{\"format\":\"vanet-bench\",\"version\":1}"),
               std::runtime_error);
  EXPECT_THROW(manifestFromJson("not json at all"), std::runtime_error);
}

TEST(ObsManifestTest, OutOfRangeIntegersAreRejectedNotWrapped) {
  // 4294967297 = 2^32 + 1 would wrap to 1 through a plain int cast.
  const std::string text = manifestJson(fullManifest());
  for (const std::string field :
       {"threads", "shard_index", "shard_count", "replications"}) {
    const std::string needle = "\"" + field + "\":";
    const std::size_t at = text.find(needle);
    ASSERT_NE(at, std::string::npos) << field;
    const std::size_t valueEnd = text.find_first_of(",\n", at);
    for (const std::string value : {"4294967297", "-2147483649"}) {
      std::string mutated = text;
      mutated.replace(at + needle.size(), valueEnd - at - needle.size(),
                      value);
      try {
        manifestFromJson(mutated);
        ADD_FAILURE() << field << "=" << value << " parsed";
      } catch (const std::runtime_error& error) {
        EXPECT_NE(std::string(error.what()).find(field), std::string::npos)
            << error.what();
      }
    }
  }
}

TEST(ObsManifestTest, SidecarPathAppendsSuffix) {
  EXPECT_EQ(manifestPathFor("out/campaign.csv"),
            "out/campaign.csv.manifest.json");
}

TEST(ObsManifestTest, SetRunIdentityCapturesToolBasenameAndArgs) {
  const char* argv[] = {"/usr/local/bin/my_tool", "--seed=1", "--progress"};
  setRunIdentity(3, argv);
  EXPECT_EQ(runTool(), "my_tool");
  ASSERT_EQ(runArgs().size(), 2u);
  EXPECT_EQ(runArgs()[0], "--seed=1");
  EXPECT_EQ(runArgs()[1], "--progress");

  RunManifest manifest = manifestForArtifact("a.json");
  EXPECT_EQ(manifest.artifact, "a.json");
  EXPECT_EQ(manifest.tool, "my_tool");
  EXPECT_EQ(manifest.args.size(), 2u);
  EXPECT_FALSE(manifest.gitRev.empty());
  EXPECT_FALSE(manifest.buildFlags.empty());
}

TEST(ObsManifestTest, WriteSidecarLandsNextToArtifactAndParses) {
  const std::string artifact = ::testing::TempDir() + "/manifest_probe.json";
  RunManifest manifest = fullManifest();
  manifest.artifact = artifact;
  ASSERT_TRUE(writeManifestSidecar(manifest));

  std::ifstream in(manifestPathFor(artifact));
  ASSERT_TRUE(in.good());
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const RunManifest parsed = manifestFromJson(text);
  EXPECT_EQ(parsed.artifact, artifact);
  EXPECT_EQ(parsed.scenario, "highway");

  // Unwritable sidecar directory: warn-and-false, never throw -- the
  // artefact write must not fail because its provenance could not land.
  manifest.artifact = ::testing::TempDir() + "/no_such_dir/x.json";
  EXPECT_FALSE(writeManifestSidecar(manifest));
}

TEST(ObsManifestTest, SetRunSpecFlowsIntoEveryManifest) {
  setRunSpec("specs/ablation_speed.json", 0x0123456789abcdefULL);
  EXPECT_EQ(runSpecPath(), "specs/ablation_speed.json");
  EXPECT_EQ(runSpecDigest(), 0x0123456789abcdefULL);

  const RunManifest manifest = manifestForArtifact("b.csv");
  EXPECT_EQ(manifest.specPath, "specs/ablation_speed.json");
  EXPECT_EQ(manifest.specDigest, 0x0123456789abcdefULL);

  // The digest renders as a 16-hex-digit string (not a JSON number:
  // 64-bit values do not survive double rounding) and parses back.
  const std::string text = manifestJson(manifest);
  EXPECT_NE(text.find("\"spec_path\":\"specs/ablation_speed.json\""),
            std::string::npos);
  EXPECT_NE(text.find("\"spec_digest\":\"0123456789abcdef\""),
            std::string::npos);
  const RunManifest parsed = manifestFromJson(text);
  EXPECT_EQ(parsed.specDigest, 0x0123456789abcdefULL);

  setRunSpec("", 0);  // reset for the other tests in this binary
}

TEST(ObsManifestTest, ManifestsWithoutSpecKeysStillParse) {
  // Sidecars written before the spec layer carry no spec_path or
  // spec_digest; they parse with the flag-assembled defaults.
  RunManifest old = fullManifest();
  old.specPath.clear();
  old.specDigest = 0;
  std::string text = manifestJson(old);
  // The normalized form always renders the keys; simulate an archived
  // pre-spec sidecar by removing them line by line.
  std::string pruned;
  for (std::size_t start = 0; start < text.size();) {
    const std::size_t end = text.find('\n', start);
    const std::string line = text.substr(start, end - start + 1);
    if (line.find("\"spec_path\"") == std::string::npos &&
        line.find("\"spec_digest\"") == std::string::npos) {
      pruned += line;
    }
    start = end + 1;
  }
  const RunManifest parsed = manifestFromJson(pruned);
  EXPECT_EQ(parsed.specPath, "");
  EXPECT_EQ(parsed.specDigest, 0u);
  EXPECT_EQ(parsed.scenario, old.scenario);
}

TEST(ObsManifestTest, MalformedSpecDigestIsRejected) {
  RunManifest manifest = fullManifest();
  std::string text = manifestJson(manifest);
  const std::string needle = "\"spec_digest\":\"";
  const std::size_t at = text.find(needle);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, needle.size() + 16, needle + "not-hexadecimal!");
  EXPECT_THROW(manifestFromJson(text), std::runtime_error);
}

}  // namespace
}  // namespace vanet::obs
