#include "runner/campaign.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <utility>

#include "obs/counters.h"
#include "obs/progress.h"
#include "runner/partial_binary.h"
#include "util/file.h"

namespace vanet::runner {
namespace {

/// The partial header a checkpoint of this campaign must carry -- also
/// what a loaded checkpoint is validated against before its fold state
/// is trusted.
CampaignPartial partialHeaderForPlan(const CampaignConfig& config,
                                     const CampaignPlan& plan) {
  CampaignPartial header;
  header.scenario = config.scenario;
  header.masterSeed = plan.masterSeed();
  header.shard = plan.shard();
  header.replications = plan.replications();
  if (plan.adaptive()) {
    header.targetRelativeCi95 = plan.targetRelativeCi95();
    header.minReplications = plan.minReplications();
    header.maxReplications = plan.maxReplications();
    header.targetMetric = plan.targetMetric();
  }
  header.totalPoints = plan.points().size();
  header.totalJobs = plan.totalJobCount();
  return header;
}

/// Loads + validates the checkpoint at `path` against this campaign.
CampaignPartial loadCheckpoint(const std::string& path,
                               const CampaignPartial& expected) {
  CampaignPartial checkpoint = readCampaignPartial(path);
  if (!checkpoint.hasCheckpoint) {
    throw std::runtime_error(path +
                             ": not a checkpoint (no resume state; this is a "
                             "finished shard partial)");
  }
  const auto mismatch = [&path](const std::string& field) {
    throw std::runtime_error(path +
                             ": checkpoint describes a different campaign (" +
                             field + " disagrees)");
  };
  if (checkpoint.scenario != expected.scenario) mismatch("scenario");
  if (checkpoint.masterSeed != expected.masterSeed) mismatch("master seed");
  if (checkpoint.shard.index != expected.shard.index ||
      checkpoint.shard.count != expected.shard.count) {
    mismatch("shard");
  }
  if (checkpoint.replications != expected.replications) {
    mismatch("replication cap");
  }
  if (checkpoint.targetRelativeCi95 != expected.targetRelativeCi95 ||
      checkpoint.minReplications != expected.minReplications ||
      checkpoint.maxReplications != expected.maxReplications ||
      checkpoint.targetMetric != expected.targetMetric) {
    mismatch("adaptive stop rule");
  }
  if (checkpoint.totalPoints != expected.totalPoints ||
      checkpoint.totalJobs != expected.totalJobs) {
    mismatch("grid totals");
  }
  return checkpoint;
}

/// Atomic checkpoint write: the complete file lands under a temporary
/// name first, then rename() swaps it in -- a kill mid-write leaves the
/// previous checkpoint intact, never a torn file.
void writeCheckpointAtomically(const std::string& path,
                               const CampaignPartial& checkpoint) {
  const std::string tmp = path + ".tmp";
  // A write that fails -- even only at close -- must never reach the
  // rename: that would replace the last good checkpoint with a torn one.
  if (!util::writeFile(tmp, campaignPartialBinary(checkpoint))) {
    throw std::runtime_error("failed writing the campaign checkpoint to " +
                             tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("cannot move the campaign checkpoint into " +
                             path);
  }
}

}  // namespace

CampaignResult runCampaign(const CampaignConfig& config) {
  std::unique_ptr<const CampaignPlan> plan;
  {
    OBS_SCOPED_TIMER("campaign.plan");
    plan = std::make_unique<const CampaignPlan>(buildPlan(config));
  }
  CampaignAccumulator accumulator(*plan);

  // A halted run keeps its work only in the checkpoint file.
  if (config.haltAfterWaves >= 0 && config.checkpointPath.empty()) {
    throw std::invalid_argument(
        "campaign halt-after-waves needs a checkpoint path");
  }
  WaveHooks hooks;
  hooks.haltAfterWaves = config.haltAfterWaves;
  if (config.resume) {
    if (config.checkpointPath.empty()) {
      throw std::invalid_argument("campaign resume needs a checkpoint path");
    }
    CampaignPartial checkpoint = loadCheckpoint(
        config.checkpointPath, partialHeaderForPlan(config, *plan));
    hooks.resumeCoveredReps = checkpoint.checkpointCoveredReps;
    accumulator.restore(std::move(checkpoint.points));
  }
  if (!config.checkpointPath.empty()) {
    hooks.onWaveBarrier = [&config, &plan, &accumulator](
                              int wave, int coveredReps, bool complete) {
      (void)wave;
      CampaignPartial checkpoint = partialHeaderForPlan(config, *plan);
      checkpoint.hasCheckpoint = true;
      checkpoint.checkpointCoveredReps = coveredReps;
      checkpoint.checkpointComplete = complete;
      checkpoint.points = accumulator.foldedPoints();  // barrier: race-free
      writeCheckpointAtomically(config.checkpointPath, checkpoint);
    };
  }

  std::unique_ptr<obs::ProgressReporter> progress;
  if (config.progress) {
    progress = std::make_unique<obs::ProgressReporter>(plan->shardJobCount());
  }
  const ExecutionStats stats =
      executeCampaign(*plan, config.threads, config.streaming, accumulator,
                      progress.get(), hooks);

  OBS_SCOPED_TIMER("campaign.accumulate");
  CampaignResult merged;
  merged.scenario = config.scenario;
  merged.masterSeed = config.masterSeed;
  merged.replications = plan->replications();
  if (plan->adaptive()) {
    merged.targetRelativeCi95 = plan->targetRelativeCi95();
    merged.minReplications = plan->minReplications();
    merged.maxReplications = plan->maxReplications();
    merged.targetMetric = plan->targetMetric();
  }
  merged.waves = stats.waves;
  merged.shard = config.shard;
  merged.threads = stats.threads;
  merged.streaming = stats.streaming;
  merged.jobCount = stats.jobsRun;
  merged.totalPoints = plan->points().size();
  merged.totalJobs = plan->totalJobCount();
  merged.peakBufferedResults = stats.peakBufferedResults;
  merged.wallSeconds = stats.wallSeconds;
  merged.jobsPerSecond = stats.wallSeconds > 0.0
                             ? static_cast<double>(merged.jobCount) /
                                   stats.wallSeconds
                             : 0.0;
  merged.halted = stats.halted;
  // A halted run surfaces no summaries: its fold state lives in the
  // checkpoint file, and take() would (correctly) refuse an incomplete
  // fold.
  if (!stats.halted) {
    merged.points = accumulator.take();
  }
  return merged;
}

CampaignPartial campaignPartial(const CampaignResult& result) {
  CampaignPartial partial;
  partial.scenario = result.scenario;
  partial.masterSeed = result.masterSeed;
  partial.shard = result.shard;
  partial.replications = result.replications;
  partial.targetRelativeCi95 = result.targetRelativeCi95;
  partial.minReplications = result.minReplications;
  partial.maxReplications = result.maxReplications;
  partial.targetMetric = result.targetMetric;
  partial.totalPoints = result.totalPoints;
  partial.totalJobs = result.totalJobs;
  partial.points = result.points;
  return partial;
}

namespace {

/// Rebuilds the full-grid CampaignResult around already-merged points;
/// `header` carries the campaign identity of the partial set.
CampaignResult resultFromMerged(const CampaignPartial& header,
                                std::vector<GridPointSummary> points) {
  CampaignResult merged;
  merged.scenario = header.scenario;
  merged.masterSeed = header.masterSeed;
  merged.replications = header.replications;
  merged.targetRelativeCi95 = header.targetRelativeCi95;
  merged.minReplications = header.minReplications;
  merged.maxReplications = header.maxReplications;
  merged.targetMetric = header.targetMetric;
  merged.shard = Shard{0, 1};  // the merge covers the full grid
  merged.totalPoints = header.totalPoints;
  merged.totalJobs = header.totalJobs;
  merged.points = std::move(points);
  // Jobs actually run across every shard: adaptive points record their
  // stop point, so the sum is exact in both modes. The executed wave
  // count is equally reconstructible -- it is the deepest per-point
  // wave trajectory, and each point's replications pin where it stopped.
  merged.jobCount = 0;
  merged.waves = merged.points.empty() ? 0 : 1;
  for (const GridPointSummary& point : merged.points) {
    merged.jobCount += static_cast<std::size_t>(point.replications);
    if (merged.targetRelativeCi95 > 0.0) {
      // Walk the shared schedule until it covers the point's stop point;
      // the cap bound keeps this finite even for a partial whose point
      // claims more replications than the header's cap.
      int waves = 1;
      for (;;) {
        const int end = waveEndFor(merged.minReplications,
                                   merged.maxReplications, waves - 1);
        if (end >= point.replications || end >= merged.maxReplications) break;
        ++waves;
      }
      merged.waves = std::max(merged.waves, waves);
    }
  }
  return merged;
}

}  // namespace

CampaignResult resultFromPartials(std::vector<CampaignPartial> partials) {
  if (partials.empty()) {
    throw std::runtime_error("no campaign partials to merge");
  }
  CampaignPartial header = partials.front();
  header.points.clear();
  return resultFromMerged(header, mergeCampaignPartials(std::move(partials)));
}

CampaignResult resultFromPartialFiles(const std::vector<std::string>& paths) {
  CampaignPartial header;
  std::vector<GridPointSummary> points =
      mergeCampaignPartialFiles(paths, &header);
  return resultFromMerged(header, std::move(points));
}

}  // namespace vanet::runner
