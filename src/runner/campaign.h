#pragma once

/// \file campaign.h
/// The top of the campaign pipeline: runCampaign() composes the three
/// layers -- plan (plan.h: case x grid expansion, job layout, per-job
/// seed derivation), execute (executor.h: thread-pool backends, buffered
/// or streaming), accumulate (accumulate.h: job-order fold plus shard
/// partial serialization) -- into the one-call API every driver and
/// example uses. Per-job determinism comes from
/// Rng::deriveStreamSeed(masterSeed, jobIndex): each job owns a private
/// RNG stream that is a pure function of the master seed and its index,
/// and results are folded strictly in job order, so the merged output is
/// bit-identical no matter how many threads -- or shard processes -- ran.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "runner/accumulate.h"
#include "runner/executor.h"
#include "runner/plan.h"

namespace vanet::runner {

/// The merged campaign outcome plus throughput accounting. For sharded
/// configs, `points` holds only this shard's grid points (each tagged
/// with its full-grid index) and `jobCount` the jobs this process ran;
/// `totalPoints` / `totalJobs` describe the full plan.
struct CampaignResult {
  std::string scenario;
  std::uint64_t masterSeed = 0;
  /// Per-point replication cap: the configured fixed count, or
  /// maxReplications for adaptive campaigns (each GridPointSummary
  /// reports the replications it actually used).
  int replications = 0;
  /// Adaptive-replication stop rule of the run (see CampaignConfig);
  /// targetRelativeCi95 == 0 means a fixed count. `targetMetric` is the
  /// resolved name (config override or scenario default).
  double targetRelativeCi95 = 0.0;
  int minReplications = 0;
  int maxReplications = 0;
  std::string targetMetric;
  int waves = 0;         ///< replication waves executed (1 when fixed)
  Shard shard{};         ///< which slice this process ran
  int threads = 0;           ///< workers actually used
  bool streaming = false;    ///< executor backend used
  std::size_t jobCount = 0;  ///< jobs run by this process
  std::size_t totalPoints = 0;  ///< full-grid point count
  /// Full job-index space of the plan (upper bound when adaptive).
  std::size_t totalJobs = 0;
  /// High-water mark of completed-but-unfolded JobResults (streaming
  /// mode is bounded by streamingWindowCap(threads)).
  std::size_t peakBufferedResults = 0;
  double wallSeconds = 0.0;
  double jobsPerSecond = 0.0;
  /// True when CampaignConfig::haltAfterWaves stopped the run at a wave
  /// barrier: the checkpoint file holds the fold state, `points` is empty
  /// (a halted run has no complete summary to surface).
  bool halted = false;
  std::vector<GridPointSummary> points;  ///< in grid order
};

/// Expands, executes and merges `config`.
///
/// Throws std::invalid_argument when the scenario is unknown, the
/// replication count is < 1 or the shard is malformed. Worker exceptions
/// are rethrown on the calling thread after the pool drains; no partial
/// summaries survive a failed run.
///
/// With config.checkpointPath set, a binary checkpoint partial is written
/// atomically at every wave barrier; with config.resume also set, the
/// fold state restores from that file (std::runtime_error when it
/// describes a different campaign) and execution continues at the first
/// uncovered wave -- byte-identical to the uninterrupted run.
CampaignResult runCampaign(const CampaignConfig& config);

/// This result's shard contribution, ready for writeCampaignPartial().
CampaignPartial campaignPartial(const CampaignResult& result);

/// Reassembles a full CampaignResult from every shard's partial (see
/// mergeCampaignPartials for validation). Emitted CSV/JSON/figure bytes
/// of the returned result match the single-process run exactly;
/// throughput fields (threads, wall-clock) are zeroed -- they are not
/// meaningful for a merge.
CampaignResult resultFromPartials(std::vector<CampaignPartial> partials);

/// resultFromPartials over files: the streaming fast path of
/// campaign_merge. Binary v3 shard files fold point-by-point through
/// buffered reads (peak memory one point record). Same validation -- and
/// the same merged bytes -- as reading every file and calling
/// resultFromPartials.
CampaignResult resultFromPartialFiles(const std::vector<std::string>& paths);

}  // namespace vanet::runner
