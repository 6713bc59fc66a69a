/// \file selftest.cpp
/// Self-tests of the benchmark harness:
///
///   1. the generated sharded_adaptive spec passes parseCampaignSpec
///      validation and plans 120 adaptive points;
///   2. the self-time arithmetic is right on a synthetic span tree,
///      including overlapping (parallel) children;
///   3. for every workload, a traced iteration produces the same artefact
///      bytes, per-point results and core/medium totals as an untraced
///      one -- tracing stays out of band.
///
///   perfbench_selftest [--root DIR] [--work DIR]
///
/// Exits 0 when every check passes, 1 otherwise.

#include <filesystem>
#include <iostream>
#include <string>

#include "digest.h"
#include "runner/spec.h"
#include "spans.h"
#include "workloads.h"

namespace {

int gFailures = 0;

void check(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++gFailures;
}

void testGeneratedSpec() {
  const vanet::runner::CampaignSpec spec =
      vanet::runner::parseCampaignSpec(perfbench::shardedAdaptiveSpecText());
  check(spec.scenario == "urban", "generated spec: scenario urban");
  check(spec.cases.size() == 2, "generated spec: two cases");
  check(spec.targetCi == 0.02 && spec.minReplications == 2 &&
            spec.maxReplications == 16 && spec.targetMetric == "pdr",
        "generated spec: adaptive pdr, target_ci 0.02, 2..16 replications");
  const vanet::runner::CampaignConfig config =
      vanet::runner::campaignConfigFromSpec(spec);
  check(config.grid.pointCount() * config.cases.size() == 120,
        "generated spec: 120 points");
  check(vanet::runner::parseCampaignSpec(
            vanet::runner::renderCampaignSpec(spec))
                .name == "sharded_adaptive",
        "generated spec: normalized rendering parses back");
}

void testSelfTime() {
  using perfbench::Span;
  // root [0,100) with children a [10,40) and b [30,60) (overlapping, as
  // parallel jobs are) and c [90,120) (runs past the root); a has child
  // a1 [15,20).
  std::vector<Span> spans(5);
  spans[0] = {"root", 0, 100, 0, -1};
  spans[1] = {"a", 10, 40, 1, 0};
  spans[2] = {"b", 30, 60, 2, 0};
  spans[3] = {"c", 90, 120, 3, 0};
  spans[4] = {"a1", 15, 20, 4, 1};
  const std::vector<std::int64_t> self = perfbench::selfTimesNs(spans);
  check(self[0] == 100 - 50 - 10, "self time: union of overlapping children");
  check(self[1] == 30 - 5, "self time: nested child");
  check(self[2] == 30 && self[3] == 30 && self[4] == 5,
        "self time: leaves keep their duration");
  check(perfbench::coveredNs({}, 0, 10) == 0, "covered: no intervals");
  check(perfbench::coveredNs({{0, 5}, {0, 5}, {2, 8}}, 1, 7) == 6,
        "covered: duplicates and clipping");
}

void testTracingOutOfBand(const std::string& root, const std::string& work) {
  for (const std::string& workload : perfbench::workloadNames()) {
    perfbench::SpanLog log;
    perfbench::ArtifactDigest digests[2];
    perfbench::ResultSummary summaries[2];
    for (int traced = 0; traced < 2; ++traced) {
      const std::string dir = work + "/selftest/" + workload;
      std::filesystem::remove_all(dir);
      std::filesystem::create_directories(dir);
      const perfbench::IterationOutput output = perfbench::runIteration(
          workload, root, perfbench::kDefaultSeed, 2, dir,
          [&](const vanet::runner::CampaignResult& result) {
            perfbench::addResult(summaries[traced], result);
          },
          {traced ? &log : nullptr, -1});
      digests[traced] = perfbench::digestArtifacts(dir, output.written);
      std::filesystem::remove_all(dir);
    }
    std::size_t jobs = 0;
    for (const perfbench::Span& span : log.spans()) jobs += span.name == "job";
    check(jobs > 0, workload + ": traced run records job spans");
    check(digests[0].fnv1a64 == digests[1].fnv1a64 && digests[0].files > 0,
          workload + ": traced artefact bytes equal untraced");
    check(summaries[0].pointsDigest == summaries[1].pointsDigest,
          workload + ": traced per-point results equal untraced");
    check(summaries[0].counts == summaries[1].counts &&
              summaries[0].rounds > 0,
          workload + ": traced core/medium totals equal untraced");
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string work = ".bench_build";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key == "--root") root = argv[i + 1];
    if (key == "--work") work = argv[i + 1];
  }
  try {
    testGeneratedSpec();
    testSelfTime();
    testTracingOutOfBand(root, work);
  } catch (const std::exception& error) {
    std::cout << "FAIL " << error.what() << "\n";
    ++gFailures;
  }
  std::cout << (gFailures == 0 ? "all passed" : "FAILED") << "\n";
  return gFailures == 0 ? 0 : 1;
}
