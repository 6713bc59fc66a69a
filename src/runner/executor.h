#pragma once

/// \file executor.h
/// The *execute* layer of the campaign pipeline: runs a CampaignPlan's
/// shard jobs on a thread pool, in replication *waves*, and feeds the
/// results, strictly in wave-job order, into a CampaignAccumulator.
///
/// Fixed-count campaigns run one wave covering every replication.
/// Adaptive campaigns (CampaignConfig::targetRelativeCi95 > 0) run wave
/// k over the replication indices [waveEnd(k-1), waveEnd(k)) of every
/// still-open point; at each wave barrier the accumulator's stop rule
/// (a pure function of the folded state) drops converged points from
/// the next wave. Seeds derive from the global (point, replication)
/// index either way, so the adaptive schedule is byte-identical at any
/// thread count, under streaming, and across shard processes.
///
/// Two backends share the same fold (and therefore the same bytes):
///
///  - buffered: every JobResult of the wave is kept in a vector sized
///    to the wave and folded after the pool drains (the original
///    runCampaign behaviour). Peak memory O(wave job count).
///  - streaming: each worker hands its result to a bounded job-order
///    reordering window; results are folded the moment they become the
///    lowest outstanding job index, and a worker may only claim a new
///    job while the window has room. Peak memory O(grid points +
///    threads) JobResult-sized buffers, independent of job count.
///
/// Error path: if any job throws, the pool drains, every buffered /
/// windowed result is discarded with the executor's state, and the first
/// exception is rethrown on the calling thread *before* anything can be
/// emitted -- the accumulator is left incomplete, and
/// CampaignAccumulator::take() refuses to surface a truncated summary.

#include <cstddef>
#include <functional>

#include "runner/accumulate.h"
#include "runner/plan.h"

namespace vanet::obs {
class ProgressReporter;
}  // namespace vanet::obs

namespace vanet::runner {

/// What the executor measured while running the plan.
struct ExecutionStats {
  int threads = 0;          ///< workers actually used
  double wallSeconds = 0.0;
  bool streaming = false;
  /// Jobs actually executed: the full planned count for fixed campaigns,
  /// possibly fewer for adaptive ones (converged points stop early).
  std::size_t jobsRun = 0;
  /// Replication waves executed (1 for fixed-count campaigns, 0 for an
  /// empty shard).
  int waves = 0;
  /// High-water mark of completed-but-unfolded JobResults held at once.
  /// Buffered mode reports the largest wave's job count; streaming mode
  /// is bounded by streamingWindowCap(threads).
  std::size_t peakBufferedResults = 0;
  /// True when WaveHooks::haltAfterWaves stopped the run at a barrier
  /// before the campaign completed. The accumulator then holds a valid
  /// wave-boundary fold state but take() would (correctly) refuse.
  bool halted = false;
};

/// Checkpoint/resume instrumentation of the executor's wave loop. All
/// hooks run at wave *barriers* -- no worker is executing -- so reading
/// the accumulator from onWaveBarrier is race-free.
struct WaveHooks {
  /// Replication prefix every still-open point had folded when a resumed
  /// checkpoint was written; 0 starts from scratch. The wave loop skips
  /// the waves that prefix already covers and continues the schedule
  /// exactly where the checkpointed run stopped (the accumulator must
  /// have been restore()d to the matching fold state first).
  int resumeCoveredReps = 0;
  /// Stop after this many wave barriers *this process* (< 0: run to
  /// completion). Simulates a kill at a barrier for checkpoint tests and
  /// the determinism matrix; the executor returns with stats.halted = true.
  int haltAfterWaves = -1;
  /// Called after each wave barrier's fold + stop-rule pruning, with the
  /// wave index, the covered replication prefix, and whether the campaign
  /// is now complete. This is where runCampaign snapshots the accumulator
  /// into a checkpoint file. Exceptions propagate to the caller.
  std::function<void(int wave, int coveredReps, bool complete)> onWaveBarrier;
};

/// The reordering-window capacity for `threads` workers: the most
/// completed-but-unfolded results streaming mode ever holds. O(threads),
/// never O(job count).
std::size_t streamingWindowCap(int threads) noexcept;

/// Runs every shard job of `plan` and folds the results into `into` in
/// ascending local job order. `requestedThreads` <= 0 picks the hardware
/// concurrency; the count is clamped to the job count. Rethrows the
/// first worker exception after the pool drains -- wrapped with the
/// failing job's global index, grid point and replication -- and `into`
/// is then incomplete and must be discarded. `progress`, when non-null,
/// receives a wave notification at each barrier and a (thread-safe)
/// tick per completed job; it observes only, never schedules.
ExecutionStats executeCampaign(const CampaignPlan& plan, int requestedThreads,
                               bool streaming, CampaignAccumulator& into,
                               obs::ProgressReporter* progress = nullptr,
                               const WaveHooks& hooks = {});

}  // namespace vanet::runner
