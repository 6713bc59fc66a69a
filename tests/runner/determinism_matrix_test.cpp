/// \file determinism_matrix_test.cpp
/// The engine's determinism claim, checked on every committed study: a
/// campaign's artefacts are a pure function of (spec, seed). Each
/// specs/*.json and tests/data/*.json runs unmodified, in process,
/// through runCampaign + writeSpecArtifacts. A threads=1 run is the
/// reference; each variant writes into its own temp directory and must
/// reproduce it:
///
///   threads4   4 workers, each point folding as its replications finish
///   shards     2 shards written as binary v3 partials, folded back with
///              resultFromPartialFiles (what campaign_merge does)
///   resume     halted at the first wave barrier with a checkpoint, then
///              resumed from it
///   simd_off   vmath scalar bodies (vmath::setSimdEnabled(false))
///
/// Every CSV must be byte-identical. The campaign JSON must be identical
/// apart from the header lines that describe this process's execution
/// (threads, wall_seconds, jobs_per_second; for the resume variant also
/// job_count and waves, which count only what the resumed process ran).
/// Manifest sidecars are provenance and are skipped. The console views
/// (renderEmitViews) must be identical too.
///
/// Each (spec, variant) pair is one ctest test running the reference and
/// the variant, so `ctest -j` spreads the matrix and the per-test timeout
/// bounds two campaign runs, not five -- which is what keeps the slower
/// specs inside it under ASan/UBSan:
///   ctest --test-dir build -R determinism_matrix
///
/// FoldBoundTest runs each spec once more, at 2 workers (the tightest
/// parked-result cap a parallel run has), and checks the executor's
/// memory bound on real studies: never more than 2 x threads results
/// parked, and every job that ran folded into its point.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "runner/campaign.h"
#include "runner/emit.h"
#include "runner/spec.h"
#include "testing/partial_files.h"
#include "util/vmath.h"

namespace vanet::runner {
namespace {

namespace fs = std::filesystem;

/// specs/*.json and tests/data/*.json, sorted by path.
std::vector<fs::path> committedSpecPaths() {
  const fs::path specDir = VANET_SPEC_DIR;
  std::vector<fs::path> paths;
  for (const fs::path& dir :
       {specDir, specDir.parent_path() / "tests" / "data"}) {
    for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
      if (entry.path().extension() == ".json") paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

/// Everything one run shows a user: artefact bytes by file name
/// (manifest sidecars excluded) and the console views.
struct RunOutput {
  std::map<std::string, std::string> files;
  std::string views;
};

/// `json` without the header lines `"<key>":...` for each key in `keys`.
std::string withoutKeys(const std::string& json,
                        const std::vector<std::string>& keys) {
  std::string out;
  std::size_t start = 0;
  while (start < json.size()) {
    std::size_t end = json.find('\n', start);
    end = end == std::string::npos ? json.size() : end + 1;
    const std::string line = json.substr(start, end - start);
    const bool dropped =
        std::any_of(keys.begin(), keys.end(), [&line](const std::string& key) {
          return line.starts_with("\"" + key + "\":");
        });
    if (!dropped) out += line;
    start = end;
  }
  return out;
}

/// Offset of the first differing byte (the shorter size when one is a
/// prefix of the other); a full diff of a multi-kilobyte CSV says less.
std::size_t firstDifference(const std::string& a, const std::string& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return i;
  }
  return n;
}

/// Restores the vmath dispatch on scope exit, so a failed assertion in
/// the scalar variant cannot leak into the rest of the test.
class ScalarVmath {
 public:
  ScalarVmath() { vmath::setSimdEnabled(false); }
  ~ScalarVmath() { vmath::setSimdEnabled(true); }
  ScalarVmath(const ScalarVmath&) = delete;
  ScalarVmath& operator=(const ScalarVmath&) = delete;
};

const std::vector<std::string> kVariants = {"threads4", "shards", "resume",
                                            "simd_off"};

class DeterminismMatrixTest
    : public ::testing::TestWithParam<std::tuple<fs::path, std::string>> {
 protected:
  void SetUp() override {
    const auto& [specPath, variant] = GetParam();
    spec_ = loadCampaignSpec(specPath.string());
    root_ = fs::path(::testing::TempDir()) /
            ("determinism_matrix." + specPath.stem().string() + "." +
             variant + "." + std::to_string(::getpid()));
    fs::remove_all(root_);
    fs::create_directories(root_);
    vmath::setSimdEnabled(true);  // the reference runs the SIMD bodies
  }

  void TearDown() override { fs::remove_all(root_); }

  CampaignConfig config(int threads) const {
    CampaignConfig config = campaignConfigFromSpec(spec_);
    config.threads = threads;
    return config;
  }

  std::string path(const std::string& name) const {
    return (root_ / name).string();
  }

  /// Writes the spec's artefacts for `result` into root/`variant` and
  /// reads them back.
  RunOutput emit(const CampaignResult& result, const std::string& variant) {
    const fs::path dir = root_ / variant;
    fs::create_directories(dir);
    std::vector<std::string> written;
    EXPECT_TRUE(writeSpecArtifacts(spec_, result, dir.string(), written))
        << variant;
    RunOutput output;
    for (const std::string& file : written) {
      output.files[fs::path(file).filename().string()] =
          vanet::testing::slurp(file);
    }
    EXPECT_FALSE(output.files.empty()) << variant;
    output.views = renderEmitViews(spec_, result);
    return output;
  }

  /// `variant` must reproduce `reference`; `volatileKeys` are the
  /// campaign JSON header lines allowed to differ.
  static void expectSameOutput(const RunOutput& reference,
                               const RunOutput& variant,
                               const std::vector<std::string>& volatileKeys) {
    const auto names = [](const RunOutput& run) {
      std::vector<std::string> out;
      for (const auto& [name, bytes] : run.files) out.push_back(name);
      return out;
    };
    ASSERT_EQ(names(variant), names(reference));
    for (const auto& [name, referenceBytes] : reference.files) {
      std::string expected = referenceBytes;
      std::string actual = variant.files.at(name);
      if (name.ends_with("_campaign.json")) {
        expected = withoutKeys(expected, volatileKeys);
        actual = withoutKeys(actual, volatileKeys);
        // Only header lines may go: the points section stays compared.
        EXPECT_NE(expected.find("\"points\":"), std::string::npos) << name;
      }
      EXPECT_TRUE(actual == expected)
          << name << " differs at byte " << firstDifference(expected, actual)
          << " (" << expected.size() << " bytes expected, " << actual.size()
          << " written)";
    }
    EXPECT_TRUE(variant.views == reference.views)
        << "console views differ at byte "
        << firstDifference(reference.views, variant.views);
  }

  /// The campaign `variant` produces; appends to `volatileKeys` the
  /// campaign JSON lines it may change beyond the execution ones.
  CampaignResult runVariant(const std::string& variant,
                            std::vector<std::string>& volatileKeys) {
    if (variant == "threads4") return runCampaign(config(4));
    if (variant == "shards") {
      std::vector<std::string> partials;
      for (int shard = 0; shard < 2; ++shard) {
        CampaignConfig sharded = config(4);
        sharded.shard = Shard{shard, 2};
        partials.push_back(path("shard" + std::to_string(shard) + ".vpart"));
        EXPECT_TRUE(writeCampaignPartial(
            partials.back(), campaignPartial(runCampaign(sharded))));
        EXPECT_EQ(vanet::testing::slurp(partials.back()).substr(0, 8),
                  "VNETPART");
      }
      return resultFromPartialFiles(partials);
    }
    if (variant == "resume") {
      CampaignConfig halted = config(4);
      halted.checkpointPath = path("run.ckpt");
      halted.haltAfterWaves = 1;
      runCampaign(halted);
      EXPECT_TRUE(fs::exists(halted.checkpointPath));
      CampaignConfig resumed = halted;
      resumed.haltAfterWaves = -1;
      resumed.resume = true;
      volatileKeys.insert(volatileKeys.end(), {"job_count", "waves"});
      return runCampaign(resumed);
    }
    if (variant == "simd_off") {
      const ScalarVmath scalar;
      return runCampaign(config(4));
    }
    ADD_FAILURE() << "unknown variant " << variant;
    return {};
  }

  CampaignSpec spec_;
  fs::path root_;
};

TEST_P(DeterminismMatrixTest, MatchesTheSerialRun) {
  const RunOutput reference = emit(runCampaign(config(1)), "reference");
  if (spec_.name == "table1") {
    // One campaign carries the paper's Table 1 and Figures 3-8.
    const std::string& views = reference.views;
    EXPECT_NE(views.find("\nTable 1. Average values"), std::string::npos);
    for (int car = 1; car <= 3; ++car) {
      const std::string n = std::to_string(car);
      EXPECT_NE(views.find("\nProbability of reception in packets addressed "
                           "to car " + n + "\n"),
                std::string::npos)
          << car;
      EXPECT_NE(views.find("\nProbability of reception with C-ARQ in car " +
                           n + "\n"),
                std::string::npos)
          << car;
    }
  }

  const std::string& variant = std::get<1>(GetParam());
  std::vector<std::string> volatileKeys = {"threads", "wall_seconds",
                                           "jobs_per_second"};
  const CampaignResult result = runVariant(variant, volatileKeys);
  expectSameOutput(reference, emit(result, variant), volatileKeys);
}

INSTANTIATE_TEST_SUITE_P(
    Specs, DeterminismMatrixTest,
    ::testing::Combine(::testing::ValuesIn(committedSpecPaths()),
                       ::testing::ValuesIn(kVariants)),
    [](const ::testing::TestParamInfo<DeterminismMatrixTest::ParamType>&
           info) {
      return std::get<0>(info.param).stem().string() + "_" +
             std::get<1>(info.param);
    });

class FoldBoundTest : public ::testing::TestWithParam<fs::path> {};

TEST_P(FoldBoundTest, ParkedResultsStayWithinTwiceTheThreads) {
  CampaignConfig config =
      campaignConfigFromSpec(loadCampaignSpec(GetParam().string()));
  config.threads = 2;
  const CampaignResult result = runCampaign(config);
  ASSERT_EQ(result.threads, 2);
  EXPECT_LE(result.peakBufferedResults, 2u * 2u);
  ASSERT_EQ(result.points.size(), result.totalPoints);
  std::size_t folded = 0;
  for (const GridPointSummary& point : result.points) {
    folded += static_cast<std::size_t>(point.replications);
  }
  EXPECT_EQ(folded, result.jobCount);
}

INSTANTIATE_TEST_SUITE_P(
    Specs, FoldBoundTest, ::testing::ValuesIn(committedSpecPaths()),
    [](const ::testing::TestParamInfo<FoldBoundTest::ParamType>& info) {
      return info.param.stem().string() + "_threads2";
    });

TEST(DeterminismMatrixCoverageTest, EveryCommittedSpecIsInTheMatrix) {
  EXPECT_GE(committedSpecPaths().size(), 12u);  // 10 specs, 2 fixtures
}

}  // namespace
}  // namespace vanet::runner
