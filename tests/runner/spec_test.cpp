/// \file spec_test.cpp
/// The declarative campaign-spec layer: normalized render <-> parse round
/// trips (byte-exact), every validation error path naming the offending
/// key, the committed specs under specs/ being fixed points of the
/// normalized form, and spec-derived CampaignConfigs planning the same
/// points and seeds as hand-assembled ones.

#include "runner/spec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/plan.h"
#include "runner/registry.h"

namespace vanet::runner {
namespace {

CampaignSpec richSpec() {
  CampaignSpec spec;
  spec.name = "rich";
  spec.title = "a rich spec";
  spec.paperRef = "ICDCS'08 W";
  spec.scenario = "urban";
  spec.seed = 77;
  spec.replications = 4;
  spec.base.set("cars", 3);
  spec.base.set("rounds", 10);
  spec.cases = {{"plain", {}}, {"c-arq", {}}};
  spec.cases[0].overrides.set("coop", 0.0);
  spec.cases[1].overrides.set("coop", 1.0);
  spec.grid.add("speed_kmh", {20.0, 40.0});
  spec.targetCi = 0.05;
  spec.minReplications = 2;
  spec.maxReplications = 32;
  spec.targetMetric = "pdr";
  spec.emits = {{"campaign_csv", "rich"}, {"figures", "rich_figs"}};
  return spec;
}

/// Asserts that parsing `text` throws and the message contains every
/// fragment (so errors keep naming the offending key and expectation).
void expectParseError(const std::string& text,
                      const std::vector<std::string>& fragments) {
  try {
    parseCampaignSpec(text);
    FAIL() << "expected parse failure for: " << text;
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("campaign spec: "), std::string::npos) << what;
    for (const std::string& fragment : fragments) {
      EXPECT_NE(what.find(fragment), std::string::npos)
          << "missing \"" << fragment << "\" in: " << what;
    }
  }
}

/// A minimal valid document with `extra` members spliced in before the
/// closing brace (pass ",\n  \"key\": value" strings).
std::string minimalSpec(const std::string& extra = "") {
  return "{\n"
         "  \"format\": \"vanet-campaign-spec\",\n"
         "  \"version\": 1,\n"
         "  \"name\": \"mini\",\n"
         "  \"scenario\": \"urban\"" +
         extra +
         "\n}\n";
}

TEST(CampaignSpecTest, ParseRenderRoundTripIsByteExact) {
  const CampaignSpec spec = richSpec();
  const std::string rendered = renderCampaignSpec(spec);
  const CampaignSpec reparsed = parseCampaignSpec(rendered);
  EXPECT_EQ(renderCampaignSpec(reparsed), rendered);
  EXPECT_EQ(campaignSpecDigest(reparsed), campaignSpecDigest(spec));
}

TEST(CampaignSpecTest, RenderOfParseIsAFixedPoint) {
  const std::string once = renderCampaignSpec(parseCampaignSpec(minimalSpec()));
  const std::string twice = renderCampaignSpec(parseCampaignSpec(once));
  EXPECT_EQ(once, twice);
}

TEST(CampaignSpecTest, MinimalSpecMaterializesDefaults) {
  const CampaignSpec spec = parseCampaignSpec(minimalSpec());
  EXPECT_EQ(spec.name, "mini");
  EXPECT_EQ(spec.scenario, "urban");
  EXPECT_EQ(spec.title, "");
  EXPECT_EQ(spec.paperRef, "");
  EXPECT_EQ(spec.seed, 2008u);
  EXPECT_EQ(spec.replications, 1);
  EXPECT_EQ(spec.base.size(), 0u);
  EXPECT_TRUE(spec.cases.empty());
  EXPECT_EQ(spec.grid.axisCount(), 0u);
  EXPECT_LE(spec.targetCi, 0.0);
  EXPECT_TRUE(spec.emits.empty());
}

TEST(CampaignSpecTest, EmitNamesDefaultToTheSpecName) {
  const CampaignSpec spec = parseCampaignSpec(
      minimalSpec(",\n  \"emit\": [{\"kind\": \"campaign_csv\"}]"));
  ASSERT_EQ(spec.emits.size(), 1u);
  EXPECT_EQ(spec.emits[0].kind, "campaign_csv");
  EXPECT_EQ(spec.emits[0].name, "mini");
}

TEST(CampaignSpecTest, AdaptiveBlockRoundTrips) {
  const CampaignSpec spec = parseCampaignSpec(minimalSpec(
      ",\n  \"adaptive\": {\"target_ci\": 0.1, \"min_replications\": 3,"
      " \"max_replications\": 12, \"metric\": \"pdr\"}"));
  EXPECT_DOUBLE_EQ(spec.targetCi, 0.1);
  EXPECT_EQ(spec.minReplications, 3);
  EXPECT_EQ(spec.maxReplications, 12);
  EXPECT_EQ(spec.targetMetric, "pdr");
  const CampaignSpec reparsed =
      parseCampaignSpec(renderCampaignSpec(spec));
  EXPECT_EQ(renderCampaignSpec(reparsed), renderCampaignSpec(spec));
}

TEST(CampaignSpecTest, AdaptiveNullMeansFixedReplications) {
  const CampaignSpec spec =
      parseCampaignSpec(minimalSpec(",\n  \"adaptive\": null"));
  EXPECT_LE(spec.targetCi, 0.0);
  const CampaignConfig config = campaignConfigFromSpec(spec);
  EXPECT_LE(config.targetRelativeCi95, 0.0);
}

TEST(CampaignSpecTest, MalformedJsonIsRejected) {
  expectParseError("{ not json", {"malformed JSON"});
  expectParseError("[1, 2]", {"expected a JSON object at the top level"});
}

TEST(CampaignSpecTest, UnknownTopLevelKeyGetsDidYouMean) {
  expectParseError(minimalSpec(",\n  \"scenarios\": \"urban\""),
                   {"unknown key \"scenarios\"", "did you mean",
                    "\"scenario\""});
}

TEST(CampaignSpecTest, DuplicateKeysAreRejected) {
  expectParseError(minimalSpec(",\n  \"name\": \"again\""),
                   {"duplicate key \"name\""});
}

TEST(CampaignSpecTest, FormatAndVersionAreValidated) {
  expectParseError("{\"version\": 1, \"name\": \"x\", \"scenario\": \"u\"}",
                   {"missing required key \"format\""});
  expectParseError(
      "{\"format\": \"other\", \"version\": 1, \"name\": \"x\","
      " \"scenario\": \"u\"}",
      {"key \"format\"", "vanet-campaign-spec"});
  expectParseError(
      "{\"format\": \"vanet-campaign-spec\", \"name\": \"x\","
      " \"scenario\": \"u\"}",
      {"missing required key \"version\""});
  expectParseError(
      "{\"format\": \"vanet-campaign-spec\", \"version\": 2,"
      " \"name\": \"x\", \"scenario\": \"u\"}",
      {"key \"version\"", "expected 1"});
  expectParseError(
      "{\"format\": \"vanet-campaign-spec\", \"version\": 1.5,"
      " \"name\": \"x\", \"scenario\": \"u\"}",
      {"key \"version\"", "an integer"});
}

TEST(CampaignSpecTest, NameAndScenarioMustBeNonEmptyStrings) {
  expectParseError(
      "{\"format\": \"vanet-campaign-spec\", \"version\": 1,"
      " \"scenario\": \"u\"}",
      {"missing required key \"name\""});
  expectParseError(
      "{\"format\": \"vanet-campaign-spec\", \"version\": 1,"
      " \"name\": \"\", \"scenario\": \"u\"}",
      {"key \"name\"", "non-empty string"});
  expectParseError(
      "{\"format\": \"vanet-campaign-spec\", \"version\": 1,"
      " \"name\": 3, \"scenario\": \"u\"}",
      {"key \"name\"", "non-empty string", "got a number"});
  expectParseError(
      "{\"format\": \"vanet-campaign-spec\", \"version\": 1,"
      " \"name\": \"x\"}",
      {"missing required key \"scenario\""});
}

TEST(CampaignSpecTest, SeedAndReplicationsAreValidated) {
  expectParseError(minimalSpec(",\n  \"seed\": \"abc\""),
                   {"key \"seed\"", "unsigned integer", "got a string"});
  expectParseError(minimalSpec(",\n  \"seed\": -1"),
                   {"key \"seed\"", "unsigned integer"});
  expectParseError(minimalSpec(",\n  \"replications\": 0"),
                   {"key \"replications\"", ">= 1"});
  expectParseError(minimalSpec(",\n  \"replications\": 2.5"),
                   {"key \"replications\"", "an integer"});
  // Out of int range is rejected, not wrapped (2^32 + 1 would become 1).
  expectParseError(minimalSpec(",\n  \"replications\": 4294967297"),
                   {"key \"replications\"", "32-bit integer"});
}

TEST(CampaignSpecTest, BaseParamsAreValidated) {
  expectParseError(minimalSpec(",\n  \"base\": [1]"),
                   {"key \"base\"", "an object of {param: number}"});
  expectParseError(minimalSpec(",\n  \"base\": {\"cars\": \"three\"}"),
                   {"key \"base.cars\"", "a number", "got a string"});
  expectParseError(minimalSpec(",\n  \"base\": {\"cars\": 3, \"cars\": 4}"),
                   {"key \"base\"", "duplicate parameter \"cars\""});
}

TEST(CampaignSpecTest, CasesAreValidated) {
  expectParseError(minimalSpec(",\n  \"cases\": {}"),
                   {"key \"cases\"", "an array"});
  expectParseError(minimalSpec(",\n  \"cases\": [3]"),
                   {"key \"cases[0]\"", "an object {name, overrides}"});
  expectParseError(minimalSpec(",\n  \"cases\": [{\"overrides\": {}}]"),
                   {"key \"cases[0]\"", "missing required key \"name\""});
  expectParseError(
      minimalSpec(",\n  \"cases\": [{\"name\": \"a\"}, {\"name\": \"a\"}]"),
      {"key \"cases[1].name\"", "duplicate case name \"a\""});
  expectParseError(
      minimalSpec(",\n  \"cases\": [{\"name\": \"a\", \"override\": {}}]"),
      {"unknown key \"override\"", "cases[0]", "did you mean",
       "\"overrides\""});
}

TEST(CampaignSpecTest, GridIsValidated) {
  expectParseError(minimalSpec(",\n  \"grid\": {}"),
                   {"key \"grid\"", "an array"});
  expectParseError(minimalSpec(",\n  \"grid\": [{\"values\": [1]}]"),
                   {"key \"grid[0]\"", "missing required key \"axis\""});
  expectParseError(
      minimalSpec(",\n  \"grid\": [{\"axis\": \"x\", \"values\": []}]"),
      {"key \"grid[0].values\"", "non-empty array of numbers"});
  expectParseError(
      minimalSpec(",\n  \"grid\": [{\"axis\": \"x\", \"values\": [\"y\"]}]"),
      {"key \"grid[0].values[0]\"", "a number", "got a string"});
  expectParseError(
      minimalSpec(",\n  \"grid\": [{\"axis\": \"x\", \"values\": [1]},"
                  " {\"axis\": \"x\", \"values\": [2]}]"),
      {"key \"grid[1].axis\"", "duplicate axis \"x\""});
}

TEST(CampaignSpecTest, AdaptiveIsValidated) {
  expectParseError(minimalSpec(",\n  \"adaptive\": 3"),
                   {"key \"adaptive\"", "null or an object"});
  expectParseError(minimalSpec(",\n  \"adaptive\": {}"),
                   {"key \"adaptive\"", "missing required key \"target_ci\""});
  expectParseError(minimalSpec(",\n  \"adaptive\": {\"target_ci\": 0}"),
                   {"key \"adaptive.target_ci\"", "a finite number > 0"});
  for (const char* bad : {"nan", "inf"}) {
    expectParseError(minimalSpec(std::string(",\n  \"adaptive\": "
                                             "{\"target_ci\": ") +
                                 bad + "}"),
                     {"key \"adaptive.target_ci\"", "a finite number > 0"});
  }
  expectParseError(
      minimalSpec(",\n  \"adaptive\": {\"target_ci\": 0.1,"
                  " \"max_replications\": 4294967300}"),
      {"key \"adaptive.max_replications\"", "32-bit integer"});
  expectParseError(
      minimalSpec(",\n  \"adaptive\": {\"target_ci\": 0.1,"
                  " \"min_replications\": 0}"),
      {"key \"adaptive\"", "1 <= min_replications <= max_replications"});
  expectParseError(
      minimalSpec(",\n  \"adaptive\": {\"target_ci\": 0.1,"
                  " \"min_replications\": 8, \"max_replications\": 4}"),
      {"key \"adaptive\"", "1 <= min_replications <= max_replications"});
  expectParseError(
      minimalSpec(",\n  \"adaptive\": {\"target_ci\": 0.1,"
                  " \"metrics\": \"pdr\"}"),
      {"unknown key \"metrics\"", "adaptive", "did you mean", "\"metric\""});
}

TEST(CampaignSpecTest, EmitsAreValidated) {
  expectParseError(minimalSpec(",\n  \"emit\": {}"),
                   {"key \"emit\"", "an array"});
  expectParseError(minimalSpec(",\n  \"emit\": [{\"name\": \"x\"}]"),
                   {"key \"emit[0]\"", "missing required key \"kind\""});
  expectParseError(
      minimalSpec(",\n  \"emit\": [{\"kind\": \"campaign_cvs\"}]"),
      {"key \"emit[0].kind\"", "unknown emit kind \"campaign_cvs\"",
       "did you mean", "\"campaign_csv\""});
  expectParseError(
      minimalSpec(
          ",\n  \"emit\": [{\"kind\": \"campaign_csv\", \"name\": \"\"}]"),
      {"key \"emit[0].name\"", "non-empty string"});
}

TEST(CampaignSpecTest, LoadPrefixesErrorsWithThePath) {
  try {
    loadCampaignSpec("/nonexistent/spec.json");
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("/nonexistent/spec.json"),
              std::string::npos);
  }
}

TEST(CampaignSpecTest, CommittedSpecsAreFixedPointsOfTheNormalizedForm) {
  // Every committed spec and test fixture, found by scanning the
  // directories, so a new file cannot be skipped.
  namespace fs = std::filesystem;
  const fs::path specDir = VANET_SPEC_DIR;
  std::vector<fs::path> paths;
  for (const fs::path& dir :
       {specDir, specDir.parent_path() / "tests" / "data"}) {
    for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
      if (entry.path().extension() == ".json") paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  ASSERT_GE(paths.size(), 12u);  // the 10 specs and the 2 fixtures
  for (const fs::path& path : paths) {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << path;
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const CampaignSpec spec = parseCampaignSpec(text);
    // Committed specs are stored in the normalized form, so the digest
    // recorded in manifests is also the digest of the file bytes; print
    // is then idempotent on its own output too.
    EXPECT_EQ(renderCampaignSpec(spec), text) << path;
    EXPECT_EQ(spec.name, path.stem().string()) << path;
    EXPECT_EQ(spec.seed, 2008u) << path;
    EXPECT_FALSE(spec.title.empty()) << path;
    EXPECT_FALSE(spec.paperRef.empty()) << path;
    // Every committed spec plans against a registered scenario.
    const CampaignConfig config = campaignConfigFromSpec(spec);
    const CampaignPlan plan = buildPlan(config);
    EXPECT_GE(plan.totalJobCount(), 1u) << path;
    EXPECT_FALSE(resolvedEmits(spec).empty()) << path;
  }
}

TEST(CampaignSpecTest, SpecConfigPlansLikeAHandAssembledConfig) {
  // The paper's Table 1 / Figures 3-8 campaign, rebuilt by hand: 3 cars
  // on the urban loop, 3 x 10 rounds, seed 2008. The retired Table 1
  // bench and the six retired figure benches each assembled exactly this
  // config from flags, so table1.json emits the figure series too.
  CampaignConfig byHand;
  byHand.scenario = "urban";
  byHand.masterSeed = 2008;
  byHand.replications = 3;
  byHand.base.set("rounds", 10);
  byHand.base.set("cars", 3);

  const CampaignSpec spec =
      loadCampaignSpec(std::string(VANET_SPEC_DIR "/table1.json"));
  const CampaignConfig fromSpec = campaignConfigFromSpec(spec);
  const std::vector<SpecEmit> emits = resolvedEmits(spec);
  for (const SpecEmit& want :
       {SpecEmit{"table1_csv", "table1"}, SpecEmit{"figures", "fig"}}) {
    EXPECT_NE(std::find(emits.begin(), emits.end(), want), emits.end())
        << want.kind;
  }

  const CampaignPlan planA = buildPlan(byHand);
  const CampaignPlan planB = buildPlan(fromSpec);
  ASSERT_EQ(planA.totalJobCount(), planB.totalJobCount());
  ASSERT_EQ(planA.points().size(), planB.points().size());
  for (std::size_t p = 0; p < planA.points().size(); ++p) {
    EXPECT_EQ(planA.points()[p].params.values(),
              planB.points()[p].params.values());
    EXPECT_EQ(planA.points()[p].caseName, planB.points()[p].caseName);
  }
  for (std::size_t i = 0; i < planA.shardJobCount(); ++i) {
    EXPECT_EQ(planA.shardJob(i).seed, planB.shardJob(i).seed) << i;
  }
}

TEST(CampaignSpecTest, ApplyEngineFlagsLeavesTheExperimentAlone) {
  CampaignRunFlags run;
  run.threads = 7;
  run.shard.index = 1;
  run.shard.count = 3;
  run.streaming = true;
  run.progress = true;
  run.checkpoint = "ck.bin";
  run.resume = true;
  run.haltAfterWaves = 5;

  CampaignConfig config = campaignConfigFromSpec(richSpec());
  applyEngineFlags(run, config);
  EXPECT_EQ(config.threads, 7);
  EXPECT_EQ(config.shard.index, 1);
  EXPECT_EQ(config.shard.count, 3);
  EXPECT_TRUE(config.streaming);
  EXPECT_TRUE(config.progress);
  EXPECT_EQ(config.checkpointPath, "ck.bin");
  EXPECT_TRUE(config.resume);
  EXPECT_EQ(config.haltAfterWaves, 5);
  EXPECT_EQ(config.masterSeed, 77u);
  EXPECT_EQ(config.scenario, "urban");
}

TEST(CampaignSpecTest, ResolvedEmitsFallBackToTheScenarioDefaults) {
  CampaignSpec spec;
  spec.name = "fallback";
  spec.scenario = "urban";
  const std::vector<SpecEmit> emits = resolvedEmits(spec);
  ASSERT_FALSE(emits.empty());
  for (const SpecEmit& emit : emits) {
    EXPECT_EQ(emit.name, "fallback");
  }
  spec.scenario = "no-such-scenario";
  EXPECT_THROW(resolvedEmits(spec), std::invalid_argument);
}

TEST(CampaignSpecTest, DigestDependsOnTheContent) {
  CampaignSpec a = richSpec();
  CampaignSpec b = richSpec();
  EXPECT_EQ(campaignSpecDigest(a), campaignSpecDigest(b));
  b.seed = a.seed + 1;
  EXPECT_NE(campaignSpecDigest(a), campaignSpecDigest(b));
}

}  // namespace
}  // namespace vanet::runner
