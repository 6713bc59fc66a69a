#pragma once

/// \file executor.h
/// The *execute* layer of the campaign pipeline: runs a CampaignPlan's
/// shard jobs on a thread pool, in replication *waves*, and folds every
/// point's results into a CampaignAccumulator in ascending replication
/// order.
///
/// Fixed-count campaigns run one wave covering every replication.
/// Adaptive campaigns (CampaignConfig::targetRelativeCi95 > 0) run wave
/// k over the replication indices [waveEnd(k-1), waveEnd(k)) of every
/// still-open point; at each wave barrier the accumulator's stop rule
/// (a pure function of the folded state) drops converged points from
/// the next wave. Seeds derive from the global (point, replication)
/// index either way, so the adaptive schedule is byte-identical at any
/// thread count and across shard processes.
///
/// Within a wave the workers fold as they go (WaveFold): a finished job
/// folds at once when its point's previous replication has folded, and
/// otherwise parks in that point's lane until the missing replication
/// lands. The accumulator merges only within one point, so folds of
/// different points may interleave freely without changing a byte. At
/// most 2 x threads results are ever parked: a worker waits to claim a
/// job only while that bound is reached.
///
/// Error path: the first failure (a job or a fold) stops claims, the
/// workers drain, parked results are discarded, and the error is
/// rethrown on the calling thread *before* anything can be emitted --
/// the accumulator is left incomplete, and CampaignAccumulator::take()
/// refuses to surface a truncated summary.

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <vector>

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
  /// Jobs actually executed: the full planned count for fixed campaigns,
  /// possibly fewer for adaptive ones (converged points stop early).
  std::size_t jobsRun = 0;
  /// Replication waves executed (1 for fixed-count campaigns, 0 for an
  /// empty shard).
  int waves = 0;
  /// High-water mark of parked (completed-but-unfolded) JobResults held
  /// at once; never more than 2 x threads.
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

/// One wave's per-point ordered fold. The wave's jobs are replications
/// [fromRep, toRep) of each lane's shard slot, point-major: job j is
/// replication fromRep + j % width of lane j / width. Thread-safe; the
/// executor's workers loop claim() -> run -> complete(), and any
/// exception goes to fail().
class WaveFold {
 public:
  /// `lanes` holds the shard slots of the wave's points; `parkCap` (>= 1)
  /// bounds parked plus running jobs.
  WaveFold(CampaignAccumulator& into, std::vector<std::size_t> lanes,
           int fromRep, int toRep, std::size_t parkCap);

  /// The job a claim() index stands for.
  std::size_t jobCount() const noexcept { return lanes_.size() * width_; }
  std::size_t slotOf(std::size_t job) const noexcept {
    return lanes_[job / width_].slot;
  }
  int replicationOf(std::size_t job) const noexcept {
    return fromRep_ + static_cast<int>(job % width_);
  }

  /// Claims the next job in wave order. Blocks while parked plus running
  /// jobs fill the cap; false once the wave is fully claimed or failed.
  bool claim(std::size_t& job);

  /// Hands in claimed `job`'s result: folds it (and every parked
  /// successor of its lane) now if the lane's previous replication has
  /// folded, else parks it. Dropped after a failure. May throw (the
  /// fold validates its order); route the exception to fail().
  void complete(std::size_t job, JobResult result);

  /// Stops claims with the first error; later errors are ignored.
  void fail(std::exception_ptr error) noexcept;

  /// Rethrows the failure, if any. Call after every worker joined.
  void rethrowIfFailed() const;

  /// High-water mark of parked results.
  std::size_t peakParked() const;

 private:
  struct Lane {
    std::size_t slot = 0;
    int next = 0;          ///< next replication to fold
    bool folding = false;  ///< a worker is draining this lane
  };
  struct Parked {
    std::size_t lane = 0;
    int replication = 0;
    JobResult result;
  };

  CampaignAccumulator& into_;
  std::vector<Lane> lanes_;
  const int fromRep_;
  const std::size_t width_;
  const std::size_t cap_;

  mutable std::mutex mutex_;
  std::condition_variable claimable_;
  std::vector<Parked> parked_;
  std::size_t nextJob_ = 0;
  std::size_t running_ = 0;
  std::size_t peakParked_ = 0;
  bool failed_ = false;
  std::exception_ptr error_;
};

/// Runs every shard job of `plan` and folds each point's results into
/// `into` in ascending replication order. `requestedThreads` <= 0 picks
/// the hardware concurrency; the count is clamped to the job count.
/// Rethrows the first worker exception after the pool drains -- wrapped
/// with the failing job's global index, grid point and replication --
/// and `into` is then incomplete and must be discarded. `progress`, when
/// non-null, receives a wave notification at each barrier and a
/// (thread-safe) tick per completed job; it observes only, never
/// schedules.
ExecutionStats executeCampaign(const CampaignPlan& plan, int requestedThreads,
                               CampaignAccumulator& into,
                               obs::ProgressReporter* progress = nullptr,
                               const WaveHooks& hooks = {});

}  // namespace vanet::runner
