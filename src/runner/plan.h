#pragma once

/// \file plan.h
/// The *plan* layer of the campaign pipeline. A campaign runs in three
/// composable stages:
///
///   plan (this file)      case x grid expansion, job layout, per-job
///                         seed derivation -- pure and backend-agnostic
///   execute (executor.h)  runs the planned jobs on a thread pool,
///                         buffered or streaming
///   accumulate            folds job results into grid-point summaries
///   (accumulate.h)        and (de)serializes shard partials
///
/// The plan is a pure function of the CampaignConfig: every backend
/// (in-process thread pool, shard processes) expands the same job list
/// with the same per-job RNG stream seeds, which is what makes sharded
/// and multi-threaded runs bit-identical to the serial run.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "runner/registry.h"
#include "runner/sweep.h"

namespace vanet::runner {

/// A named parameter combination that a study compares side by side
/// ("plain" / "c-arq" / "c-arq+fc", or selection policies with their
/// caps). Cases express *correlated* parameters a cartesian grid cannot:
/// each case overrides several parameters at once.
struct CampaignCase {
  std::string name;
  ParamSet overrides;
};

/// One shard of a campaign: shard `index` of `count` runs the grid
/// points p with p % count == index (whole points, never split jobs).
/// Each point's replications fold inside exactly one shard in the same
/// job order as an unsharded run, so merging the shard partials in shard
/// order reproduces the single-process result bit for bit. Seeds are
/// still derived from the *global* job index -- sharding never re-seeds.
struct Shard {
  int index = 0;
  int count = 1;
};

/// What to run. Parameters resolve, least specific first, as
///   scenario defaults <- base <- case overrides <- grid axis values,
/// and the expanded point list is cases (slowest) x grid points. An empty
/// `cases` vector behaves like one unnamed case with no overrides.
struct CampaignConfig {
  std::string scenario;
  ParamSet base;
  std::vector<CampaignCase> cases;
  SweepGrid grid;
  /// Replications per grid point when running a fixed count
  /// (targetRelativeCi95 <= 0); ignored in adaptive mode.
  int replications = 1;
  /// Adaptive replication (CLI: --target-ci): when > 0, every grid point
  /// runs replications in deterministic *waves* -- wave k covers the
  /// replication indices [0, minReplications * 2^k), capped at
  /// maxReplications -- and a point stops replicating once the 95 %
  /// confidence half-width of its target metric, divided by |mean|,
  /// drops to this value (never before minReplications, never past
  /// maxReplications). The stop decision is a pure function of the
  /// wave-boundary fold state, so adaptive campaigns stay byte-identical
  /// at any thread count, under streaming, and across shard processes.
  double targetRelativeCi95 = 0.0;
  int minReplications = 2;   ///< wave-0 size; also the convergence floor
  int maxReplications = 64;  ///< hard cap (and the per-point seed stride)
  /// Metric whose CI drives the stop rule; empty picks the scenario's
  /// defaultTargetMetric ("pdr" for the built-in urban/highway
  /// scenarios, "completed_fraction" for highway_file).
  std::string targetMetric;
  std::uint64_t masterSeed = 2008;
  /// Worker threads; 0 picks std::thread::hardware_concurrency().
  int threads = 0;
  /// Which slice of the grid this process runs; {0, 1} = everything.
  Shard shard{};
  /// Stream job results through a bounded reordering window instead of
  /// buffering all of them: peak memory O(grid points + threads)
  /// JobResult-sized buffers instead of O(job count). Bit-identical to
  /// the buffered mode.
  bool streaming = false;
  /// Live progress lines on stderr (CLI: --progress). Observability only:
  /// result bytes are identical with it on or off.
  bool progress = false;
  /// Per-wave checkpoint file (CLI: --checkpoint). Non-empty makes
  /// runCampaign write a binary-v3 checkpoint partial (atomically:
  /// tmp + rename) at every wave barrier; with `resume` also set, a
  /// matching checkpoint at this path restores the fold state and the
  /// run continues at the first uncovered wave -- final artifacts are
  /// byte-identical to the uninterrupted run (same seeds, same fold
  /// order). Checkpointing is observability-grade: result bytes are
  /// identical with it on or off.
  std::string checkpointPath;
  /// Resume from `checkpointPath` (CLI: --resume). The checkpoint must
  /// describe this exact campaign (scenario, master seed, shard,
  /// replication cap, adaptive stop rule, grid totals) or runCampaign
  /// throws. A missing checkpoint file is an error; a *complete*
  /// checkpoint just re-emits the finished result.
  bool resume = false;
  /// Stop after this many wave barriers (< 0: run to completion); the
  /// result comes back with halted = true and no points. Simulates a
  /// kill between waves for the checkpoint and determinism-matrix tests.
  /// Needs `checkpointPath`, which alone keeps the halted run's work
  /// (runCampaign throws std::invalid_argument otherwise).
  int haltAfterWaves = -1;
};

/// One fully resolved grid point of the expanded campaign.
struct PlannedPoint {
  std::size_t gridIndex = 0;  ///< index in the full (unsharded) grid
  std::string caseName;       ///< owning case; empty without cases
  ParamSet params;            ///< defaults + base + case + axis values
};

/// One schedulable job: replication `replication` of grid point
/// `pointIndex`, with its private RNG stream seed.
struct JobSpec {
  std::size_t globalIndex = 0;  ///< index in the full campaign work-list
  std::size_t pointIndex = 0;   ///< full-grid index of the owning point
  int replication = 0;
  std::uint64_t seed = 0;  ///< Rng::deriveStreamSeed(masterSeed, globalIndex)
};

/// The expanded campaign: the full grid, the shard's slice of it, and
/// the job layout. Immutable after buildPlan().
class CampaignPlan {
 public:
  const ScenarioInfo& scenario() const noexcept { return *scenario_; }
  std::uint64_t masterSeed() const noexcept { return masterSeed_; }
  /// Per-point replication *cap*: the fixed count, or maxReplications in
  /// adaptive mode. This is the job-layout stride -- seeds derive from
  /// pointIndex * replications() + replication whether or not a point
  /// ends up running all of them.
  int replications() const noexcept { return replications_; }
  Shard shard() const noexcept { return shard_; }

  /// Adaptive-replication vocabulary (see CampaignConfig). adaptive()
  /// false means one fixed-count wave.
  bool adaptive() const noexcept { return targetRelativeCi95_ > 0.0; }
  double targetRelativeCi95() const noexcept { return targetRelativeCi95_; }
  int minReplications() const noexcept { return minReplications_; }
  int maxReplications() const noexcept { return replications_; }
  /// The stop metric, resolved against the scenario default. Non-empty
  /// whenever adaptive() (buildPlan rejects unresolvable configs).
  const std::string& targetMetric() const noexcept { return targetMetric_; }

  /// One past the last replication index wave `wave` covers:
  /// min(minReplications * 2^wave, replications()). Fixed-count plans
  /// have exactly one wave covering everything.
  int waveEndReplication(int wave) const noexcept;

  /// Every grid point of the campaign, shard-independent, in grid order.
  const std::vector<PlannedPoint>& points() const noexcept { return points_; }

  /// Full-grid indices of the points this shard owns, ascending.
  const std::vector<std::size_t>& shardPointIndices() const noexcept {
    return shardPoints_;
  }

  /// The job-index space of the full campaign: points x replications().
  /// In adaptive mode this is the upper bound -- converged points leave
  /// their tail indices unrun (the seeds simply go unused).
  std::size_t totalJobCount() const noexcept {
    return points_.size() * static_cast<std::size_t>(replications_);
  }

  /// The shard's slice of the job-index space (upper bound when
  /// adaptive).
  std::size_t shardJobCount() const noexcept {
    return shardPoints_.size() * static_cast<std::size_t>(replications_);
  }

  /// Replication `replication` of full-grid point `pointIndex`, with its
  /// seed derived from the *global* job index -- the one derivation every
  /// backend (threads, waves, shards) shares.
  JobSpec pointJob(std::size_t pointIndex, int replication) const;

  /// The shard's `localIndex`-th job (0 <= localIndex < shardJobCount()).
  /// Local job order within each point equals global job order, so a
  /// fold over local jobs reproduces the unsharded per-point fold.
  JobSpec shardJob(std::size_t localIndex) const;

  /// The resolved parameters of `job`.
  const ParamSet& jobParams(const JobSpec& job) const {
    return points_[job.pointIndex].params;
  }

 private:
  friend CampaignPlan buildPlan(const CampaignConfig& config);

  const ScenarioInfo* scenario_ = nullptr;
  std::uint64_t masterSeed_ = 0;
  int replications_ = 1;  ///< the cap: fixed count, or max when adaptive
  double targetRelativeCi95_ = 0.0;
  int minReplications_ = 1;
  std::string targetMetric_;
  Shard shard_{};
  std::vector<PlannedPoint> points_;
  std::vector<std::size_t> shardPoints_;
};

/// One past the last replication index wave `wave` covers under the
/// doubling schedule: min(minReplications * 2^wave, cap). The single
/// definition of the wave schedule -- the executor's wave loop (via
/// CampaignPlan::waveEndReplication) and the shard-merge reconstruction
/// of the executed wave count both call it, so they cannot drift apart.
int waveEndFor(int minReplications, int cap, int wave) noexcept;

/// Expands `config` into a plan. Throws std::invalid_argument when the
/// scenario is unknown, replications < 1 (fixed mode), the adaptive
/// bounds are malformed (minReplications < 1 or maxReplications <
/// minReplications), the adaptive target metric cannot be resolved
/// (config and scenario default both empty), or the shard is malformed
/// (count < 1 or index outside [0, count)).
CampaignPlan buildPlan(const CampaignConfig& config);

}  // namespace vanet::runner
