/// \file bench_runner_scaling.cpp
/// Parallel-scaling study of the campaign engine itself: one fixed
/// campaign executed with 1, 2 and N worker threads. Reports wall-clock,
/// jobs/s and speedup per thread count, and verifies that the merged
/// campaign is bit-identical across thread counts (the engine's core
/// guarantee: results depend on (config, master seed) only, never on
/// scheduling).
///
/// Five modes:
///   default     highway speed x coop grid; compares campaignPointsJson()
///   --figures   urban campaign carrying FlowFigure series; compares the
///               emitted figure CSVs (exercises FlowFigure::merge, the
///               path the figure benches rely on)
///   --batched   streaming (bounded-memory) execution at each thread
///               count against the buffered serial reference; also
///               reports the reordering-window high-water mark
///   --shard     splits the campaign into 2 and 3 shards, writes each
///               shard's partial file, merges the files the way
///               campaign_merge does, and compares against the unsharded
///               single-thread run
///   --adaptive  CI95-targeted replication (target 0.1, 2..8
///               replications per point): the wave schedule must be a
///               pure function of the fold state, so the adaptive
///               campaign is byte-compared at 1/2/N threads, under
///               streaming, and reassembled from 2 shard processes; also
///               reports the per-point replications used and achieved
///               CI95
/// Every mode exits non-zero if any variant changes the bytes. The
/// campaign takes the shared engine flags plus --repl (default 4) and
/// --rounds (default 3).

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "runner/campaign.h"
#include "runner/emit.h"
#include "runner/spec.h"
#include "util/flags.h"

namespace {

/// The studied campaign: the highway speed x coop grid, or with
/// --figures an urban gossip sweep that carries FlowFigure series.
vanet::runner::CampaignConfig studyCampaign(const vanet::Flags& flags,
                                            bool figures) {
  namespace runner = vanet::runner;
  const vanet::CampaignRunFlags run = vanet::campaignRunFlags(flags);
  runner::CampaignConfig campaign;
  campaign.scenario = figures ? "urban" : "highway";
  campaign.masterSeed = run.seed;
  campaign.replications = flags.getInt("repl", 4);
  runner::applyEngineFlags(run, campaign);
  campaign.base.set("rounds", flags.getInt("rounds", 3));
  campaign.base.set("cars", 3);
  if (figures) {
    campaign.grid.add("gossip", {0.0, 1.0});
  } else {
    campaign.base.set("aps", 1);
    campaign.base.set("road_length", 2400.0);
    campaign.base.set("first_ap_arc", 1200.0);
    campaign.grid.add("speed_kmh", {40.0, 60.0, 80.0, 100.0})
        .add("coop", {0.0, 1.0});
  }
  return campaign;
}

/// Every figure CSV of the campaign, concatenated in point/flow order:
/// byte equality of this string is bit-identity of every merged series.
std::string allFigureCsvs(const vanet::runner::CampaignResult& result) {
  std::string out;
  for (const vanet::runner::GridPointSummary& point : result.points) {
    for (const auto& [flow, figure] : point.figures) {
      out += "# point " + std::to_string(point.gridIndex) + " flow " +
             std::to_string(flow) + "\n";
      out += vanet::runner::figureSeriesCsv(figure);
    }
  }
  return out;
}

/// Runs the campaign once per shard, writes each shard's partial file
/// and folds the files back with resultFromPartialFiles -- the same
/// round trip two processes and campaign_merge perform.
vanet::runner::CampaignResult runSharded(vanet::runner::CampaignConfig config,
                                         int shardCount) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("bench_runner_scaling." + std::to_string(::getpid()));
  fs::create_directories(dir);
  std::vector<std::string> paths;
  for (int shard = 0; shard < shardCount; ++shard) {
    config.shard = vanet::runner::Shard{shard, shardCount};
    paths.push_back((dir / ("shard" + std::to_string(shard) + ".vpart"))
                        .string());
    if (!vanet::runner::writeCampaignPartial(
            paths.back(), vanet::runner::campaignPartial(
                              vanet::runner::runCampaign(config)))) {
      throw std::runtime_error("cannot write " + paths.back());
    }
  }
  vanet::runner::CampaignResult merged =
      vanet::runner::resultFromPartialFiles(paths);
  fs::remove_all(dir);
  return merged;
}

int runShardMode(vanet::runner::CampaignConfig campaign) {
  campaign.threads = 1;
  campaign.shard = vanet::runner::Shard{};
  const vanet::runner::CampaignResult reference =
      vanet::runner::runCampaign(campaign);
  const std::string referenceJson =
      vanet::runner::campaignPointsJson(reference);
  const std::string referenceCsv = vanet::runner::campaignCsv(reference);

  std::cout << std::left << std::setw(10) << "shards" << std::right
            << std::setw(16) << "identical" << "\n";
  bool allIdentical = true;
  campaign.threads = 2;
  for (const int shards : {2, 3}) {
    const vanet::runner::CampaignResult merged = runSharded(campaign, shards);
    const bool identical =
        vanet::runner::campaignPointsJson(merged) == referenceJson &&
        vanet::runner::campaignCsv(merged) == referenceCsv;
    allIdentical = allIdentical && identical;
    std::cout << std::left << std::setw(10) << shards << std::right
              << std::setw(16) << (identical ? "yes" : "NO") << "\n";
  }
  std::cout << "\nsharded + merged output bit-identical to the 1-process"
               " run: "
            << (allIdentical ? "yes" : "NO") << "\n";
  std::cout << "expected shape: a shard owns whole grid points (round-robin"
               " by index), seeds\nstay derived from the global job index,"
               " and the partial-file round trip is\nexact -- so merging"
               " shard files reproduces the monolithic bytes\n";
  return allIdentical ? 0 : 1;
}

/// --adaptive: the campaign stops each grid point at its CI95 target, so
/// the interesting claim is that the *stop decisions* -- not just the
/// merged stats -- are identical however the jobs are scheduled. Runs
/// the same adaptive campaign at 1, 2 and N threads (buffered), N
/// threads streaming, and as 2 shard processes folded through the
/// partial-file round trip; byte-compares points JSON + campaign CSV of
/// every variant against the serial reference.
int runAdaptiveMode(vanet::runner::CampaignConfig campaign) {
  namespace runner = vanet::runner;
  campaign.threads = 1;
  campaign.streaming = false;
  campaign.shard = runner::Shard{};
  const runner::CampaignResult reference = runner::runCampaign(campaign);
  const std::string referenceJson = runner::campaignPointsJson(reference);
  const std::string referenceCsv = runner::campaignCsv(reference);

  std::cout << "target ci95/|mean| <= " << campaign.targetRelativeCi95
            << " on \"" << reference.targetMetric << "\", "
            << campaign.minReplications << ".." << campaign.maxReplications
            << " replications/point\n\n";
  std::cout << std::left << std::setw(8) << "point" << std::right
            << std::setw(12) << "reps used" << std::setw(14) << "ci95"
            << "\n";
  for (const runner::GridPointSummary& point : reference.points) {
    std::cout << std::left << std::setw(8) << point.gridIndex << std::right
              << std::setw(12) << point.replications << std::setw(14)
              << point.achievedCi95 << "\n";
  }
  std::cout << "\n"
            << reference.jobCount << " of " << reference.totalJobs
            << " budgeted jobs in " << reference.waves << " wave(s)\n\n";

  const int hardware =
      std::max(4, static_cast<int>(std::thread::hardware_concurrency()));
  std::cout << std::left << std::setw(24) << "variant" << std::right
            << std::setw(16) << "identical" << "\n";
  bool allIdentical = true;
  const auto check = [&](const std::string& label,
                         const runner::CampaignResult& result) {
    const bool identical = runner::campaignPointsJson(result) == referenceJson &&
                           runner::campaignCsv(result) == referenceCsv;
    allIdentical = allIdentical && identical;
    std::cout << std::left << std::setw(24) << label << std::right
              << std::setw(16) << (identical ? "yes" : "NO") << "\n";
  };
  for (const int threads : {2, hardware}) {
    campaign.threads = threads;
    check("threads=" + std::to_string(threads), runner::runCampaign(campaign));
  }
  campaign.streaming = true;
  check("streaming", runner::runCampaign(campaign));
  campaign.streaming = false;
  campaign.threads = 2;
  check("2 shards + merge", runSharded(campaign, 2));

  std::cout << "\nadaptive campaign bit-identical across threads, streaming"
               " and shards: "
            << (allIdentical ? "yes" : "NO") << "\n";
  std::cout << "expected shape: reps used varies per point (noisy points"
               " replicate further);\nthe identical column must read yes"
               " everywhere -- convergence is evaluated only\nat wave"
               " barriers on fold state that is itself scheduling-invariant\n";
  return allIdentical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vanet;
  const Flags flags(argc, argv);
  {
    std::vector<std::string> names = campaignFlagNames();
    names.insert(names.end(), {"repl", "rounds", "figures", "batched",
                               "adaptive", "max-threads"});
    flags.allowOnly(names);
  }
  const bool figures = flags.getBool("figures", false);
  const bool batched = flags.getBool("batched", false);
  const bool adaptive = flags.getBool("adaptive", false);
  const bool shardMode = flags.getString("shard", "") == "true";
  std::cout << (figures    ? "Campaign engine: figure-series merge determinism"
                : batched  ? "Campaign engine: streaming (bounded-memory) "
                             "determinism"
                : adaptive ? "Campaign engine: adaptive (CI95-targeted) "
                             "replication determinism"
                : shardMode
                    ? "Campaign engine: shard + merge determinism"
                    : "Campaign engine: parallel scaling and determinism")
            << "\n\n";

  runner::CampaignConfig campaign = studyCampaign(flags, figures);
  if (adaptive) {
    // Tuned so a short smoke run converges some points early and drives
    // others to the cap.
    campaign.targetRelativeCi95 = 0.1;
    campaign.minReplications = 2;
    campaign.maxReplications = 8;
    return runAdaptiveMode(std::move(campaign));
  }

  if (shardMode) return runShardMode(std::move(campaign));

  const int hardware =
      static_cast<int>(std::thread::hardware_concurrency());
  std::vector<int> threadCounts{1, 2};
  if (hardware > 2) threadCounts.push_back(hardware);
  const int maxThreads = flags.getInt("max-threads", 0);
  if (maxThreads > 2 && maxThreads != hardware) {
    threadCounts.push_back(maxThreads);
  }

  std::cout << campaign.grid.pointCount() << " grid points x "
            << campaign.replications << " replications = "
            << campaign.grid.pointCount() *
                   static_cast<std::size_t>(campaign.replications)
            << " jobs (hardware concurrency: " << hardware << ")\n\n";
  std::cout << std::left << std::setw(10) << "threads" << std::right
            << std::setw(12) << "wall s" << std::setw(12) << "jobs/s"
            << std::setw(12) << "speedup" << std::setw(16) << "identical";
  if (batched) std::cout << std::setw(14) << "peak buffered";
  std::cout << "\n";

  // The reference is always the buffered serial run; --batched then pits
  // the streaming backend against it at every thread count.
  campaign.streaming = false;
  std::string reference;
  double serialWall = 0.0;
  bool allIdentical = true;
  bool first = true;
  for (const int threads : threadCounts) {
    campaign.threads = threads;
    campaign.streaming = batched && !first;
    const runner::CampaignResult result = runner::runCampaign(campaign);
    const std::string merged = figures ? allFigureCsvs(result)
                                       : runner::campaignPointsJson(result);
    if (first) {
      reference = merged;
      serialWall = result.wallSeconds;
    }
    first = false;
    const bool identical = merged == reference;
    allIdentical = allIdentical && identical;
    std::cout << std::left << std::setw(10) << threads << std::right
              << std::fixed << std::setprecision(2) << std::setw(12)
              << result.wallSeconds << std::setw(12) << result.jobsPerSecond
              << std::setw(11) << serialWall / result.wallSeconds << "x"
              << std::setw(16) << (identical ? "yes" : "NO");
    if (batched) {
      std::cout << std::setw(10) << result.peakBufferedResults
                << (result.streaming ? " (cap " +
                        std::to_string(runner::streamingWindowCap(threads)) +
                        ")"
                                     : " (all)");
    }
    std::cout << "\n";
  }
  std::cout << "\n"
            << (figures ? "figure CSVs" : "merged output")
            << " bit-identical across "
            << (batched ? "backends and thread counts" : "thread counts")
            << ": " << (allIdentical ? "yes" : "NO") << "\n";
  if (batched) {
    std::cout << "expected shape: streaming folds through a reordering"
                 " window of at most\nstreamingWindowCap(threads) parked"
                 " results (O(threads), not O(jobs)) and still\nmatches the"
                 " buffered reference byte for byte\n";
  } else {
    std::cout << "expected shape: jobs/s scales with threads up to the core"
                 " count; the identical\ncolumn must read yes everywhere --"
                 " the merge is in job order and every job owns\na private"
                 " RNG stream hashed from (master seed, job index)\n";
  }
  return allIdentical ? 0 : 1;
}
