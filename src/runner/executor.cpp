#include "runner/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/counters.h"
#include "obs/progress.h"
#include "util/reorder.h"
#include "util/thread_pool.h"

namespace vanet::runner {
namespace {

int resolveThreadCount(int requested, std::size_t jobCount) {
  int threads = requested;
  if (threads <= 0) {
    threads = util::hardwareThreads();
  }
  if (static_cast<std::size_t>(threads) > jobCount) {
    threads = static_cast<int>(jobCount);
  }
  return threads > 0 ? threads : 1;
}

/// One wave entry: which shard point slot it folds into, and the fully
/// derived job.
struct WaveJob {
  std::size_t shardSlot = 0;
  JobSpec spec;
};

/// The wave's job list: replications [fromRep, toRep) of every open
/// point, point-major -- the global job order restricted to the wave,
/// and therefore (per point) ascending replications without gaps.
std::vector<WaveJob> buildWave(const CampaignPlan& plan,
                               const std::vector<std::size_t>& openSlots,
                               int fromRep, int toRep) {
  std::vector<WaveJob> jobs;
  jobs.reserve(openSlots.size() * static_cast<std::size_t>(toRep - fromRep));
  for (const std::size_t slot : openSlots) {
    const std::size_t pointIndex = plan.shardPointIndices()[slot];
    for (int rep = fromRep; rep < toRep; ++rep) {
      jobs.push_back(WaveJob{slot, plan.pointJob(pointIndex, rep)});
    }
  }
  return jobs;
}

JobResult runJob(const CampaignPlan& plan, const JobSpec& spec) {
  JobContext context;
  context.params = plan.jobParams(spec);
  context.seed = spec.seed;
  context.replication = spec.replication;
  context.jobIndex = spec.globalIndex;
  try {
    JobResult result = plan.scenario().run(context);
    OBS_COUNT("campaign.jobs_run");
    return result;
  } catch (const std::exception& e) {
    // Name the failing job precisely: the global index pins the seed
    // stream, the (point, replication) pair pins the grid coordinates --
    // enough to re-run exactly this job in isolation.
    throw std::runtime_error(
        "campaign job " + std::to_string(spec.globalIndex) +
        " failed (grid point " + std::to_string(spec.pointIndex) +
        ", replication " + std::to_string(spec.replication) +
        "): " + e.what());
  }
}

/// Buffered backend: collect the wave, then fold once the pool drains.
std::size_t executeWaveBuffered(const CampaignPlan& plan,
                                const std::vector<WaveJob>& jobs, int threads,
                                CampaignAccumulator& into,
                                obs::ProgressReporter* progress) {
  std::vector<JobResult> results(jobs.size());
  std::atomic<std::size_t> nextJob{0};
  std::mutex errorMutex;
  std::exception_ptr firstError;

  const auto worker = [&] {
    for (;;) {
      const std::size_t i = nextJob.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) return;
      try {
        results[i] = runJob(plan, jobs[i].spec);
        if (progress != nullptr) progress->jobDone();
      } catch (...) {
        const std::lock_guard<std::mutex> lock(errorMutex);
        if (!firstError) firstError = std::current_exception();
        nextJob.store(jobs.size(), std::memory_order_relaxed);  // drain
        return;
      }
    }
  };
  util::runWorkers(threads, worker);
  if (firstError) std::rethrow_exception(firstError);

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    into.fold(jobs[i].shardSlot, jobs[i].spec.replication, results[i]);
  }
  return jobs.size();  // the peak: every wave result was buffered at once
}

/// Streaming backend: the bounded job-order reordering window of
/// util/reorder.h.
std::size_t executeWaveStreaming(const CampaignPlan& plan,
                                 const std::vector<WaveJob>& jobs, int threads,
                                 CampaignAccumulator& into,
                                 obs::ProgressReporter* progress) {
  return util::foldOrdered<JobResult>(
      jobs.size(), threads, streamingWindowCap(threads),
      [&plan, &jobs, progress](std::size_t i) {
        JobResult result = runJob(plan, jobs[i].spec);
        if (progress != nullptr) progress->jobDone();
        return result;
      },
      [&into, &jobs](std::size_t i, JobResult& result) {
        into.fold(jobs[i].shardSlot, jobs[i].spec.replication, result);
      });
}

}  // namespace

std::size_t streamingWindowCap(int threads) noexcept {
  return util::reorderWindowCap(threads);
}

ExecutionStats executeCampaign(const CampaignPlan& plan, int requestedThreads,
                               bool streaming, CampaignAccumulator& into,
                               obs::ProgressReporter* progress,
                               const WaveHooks& hooks) {
  OBS_SCOPED_TIMER("campaign.execute");
  const std::size_t jobCount = plan.shardJobCount();
  ExecutionStats stats;
  stats.threads = resolveThreadCount(requestedThreads, jobCount);
  stats.streaming = streaming;

  const auto started = std::chrono::steady_clock::now();

  // Wave loop. Fixed-count plans have one wave covering [0, replications);
  // adaptive plans double the covered prefix each wave and, at each wave
  // barrier, drop the points whose stop rule fired. The open set and the
  // wave bounds are pure functions of the folded state, so the schedule
  // -- and therefore the bytes -- never depend on thread count. A resumed
  // run seeds both from the restored accumulator: the open set filters on
  // the (pure) stop rule, and the wave counter skips the prefix the
  // checkpoint already covered, so the continuation replays the exact
  // schedule tail of the uninterrupted run.
  std::vector<std::size_t> open;
  open.reserve(plan.shardPointIndices().size());
  for (std::size_t slot = 0; slot < plan.shardPointIndices().size(); ++slot) {
    if (!into.pointDone(slot)) open.push_back(slot);
  }
  int coveredReps = hooks.resumeCoveredReps;
  int wave = 0;
  if (coveredReps > 0 && coveredReps < plan.replications()) {
    while (plan.waveEndReplication(wave) <= coveredReps) ++wave;
  }
  for (; !open.empty(); ++wave) {
    const int waveEnd = plan.waveEndReplication(wave);
    const std::vector<WaveJob> jobs =
        buildWave(plan, open, coveredReps, waveEnd);
    OBS_COUNT("campaign.waves");
    if (progress != nullptr) {
      progress->beginWave(wave, jobs.size(), open.size(),
                          plan.shardPointIndices().size());
    }
    const std::size_t peak =
        streaming
            ? executeWaveStreaming(plan, jobs, stats.threads, into, progress)
            : executeWaveBuffered(plan, jobs, stats.threads, into, progress);
    stats.peakBufferedResults = std::max(stats.peakBufferedResults, peak);
    stats.jobsRun += jobs.size();
    stats.waves += 1;
    coveredReps = waveEnd;
    if (coveredReps >= plan.replications()) {
      open.clear();  // cap reached: every point is done
    } else {
      open.erase(
          std::remove_if(
              open.begin(), open.end(),
              [&into](std::size_t slot) { return into.pointDone(slot); }),
          open.end());
    }
    if (hooks.onWaveBarrier) {
      hooks.onWaveBarrier(wave, coveredReps, open.empty());
    }
    if (open.empty()) break;
    if (hooks.haltAfterWaves >= 0 && stats.waves >= hooks.haltAfterWaves) {
      stats.halted = true;
      break;
    }
  }

  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - started;
  stats.wallSeconds = elapsed.count();
  if (progress != nullptr) progress->finish();
  return stats;
}

}  // namespace vanet::runner
