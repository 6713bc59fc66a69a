#include "runner/executor.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/counters.h"
#include "obs/progress.h"
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

}  // namespace

WaveFold::WaveFold(CampaignAccumulator& into, std::vector<std::size_t> lanes,
                   int fromRep, int toRep, std::size_t parkCap)
    : into_(into),
      fromRep_(fromRep),
      width_(static_cast<std::size_t>(std::max(0, toRep - fromRep))),
      cap_(std::max<std::size_t>(1, parkCap)) {
  lanes_.reserve(lanes.size());
  for (const std::size_t slot : lanes) {
    lanes_.push_back(Lane{slot, fromRep, false});
  }
  parked_.reserve(cap_);
}

bool WaveFold::claim(std::size_t& job) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto claimable = [this] {
    return failed_ || nextJob_ >= jobCount() ||
           parked_.size() + running_ < cap_;
  };
  // A stall = the parked set is full and this worker must sleep until a
  // lane drains. Scheduling-dependent, so observability only -- never
  // part of the determinism contract. The counter keeps the name of the
  // job-order window it replaced, which perfbench's work counts exclude.
  if (!claimable()) OBS_COUNT("util.reorder.stalls");
  claimable_.wait(lock, claimable);
  if (failed_ || nextJob_ >= jobCount()) return false;
  job = nextJob_++;
  ++running_;
  return true;
}

void WaveFold::complete(std::size_t job, JobResult result) {
  const std::size_t laneIndex = job / width_;
  int replication = replicationOf(job);
  std::unique_lock<std::mutex> lock(mutex_);
  --running_;
  claimable_.notify_all();
  if (failed_) return;
  Lane& lane = lanes_[laneIndex];
  if (lane.folding || replication != lane.next) {
    parked_.push_back(Parked{laneIndex, replication, std::move(result)});
    peakParked_ = std::max(peakParked_, parked_.size());
    return;
  }
  // This worker owns the lane until no parked successor is left; the
  // fold itself runs unlocked, concurrently with other lanes' folds.
  lane.folding = true;
  for (;;) {
    lock.unlock();
    into_.fold(lane.slot, replication, result);
    lock.lock();
    lane.next = replication + 1;
    const auto successor =
        std::find_if(parked_.begin(), parked_.end(), [&](const Parked& p) {
          return p.lane == laneIndex && p.replication == lane.next;
        });
    if (successor == parked_.end()) break;
    replication = successor->replication;
    result = std::move(successor->result);
    parked_.erase(successor);
    claimable_.notify_all();
  }
  lane.folding = false;
}

void WaveFold::fail(std::exception_ptr error) noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!error_) error_ = error;
  failed_ = true;
  claimable_.notify_all();
}

void WaveFold::rethrowIfFailed() const {
  if (error_) std::rethrow_exception(error_);
}

std::size_t WaveFold::peakParked() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return peakParked_;
}

ExecutionStats executeCampaign(const CampaignPlan& plan, int requestedThreads,
                               CampaignAccumulator& into,
                               obs::ProgressReporter* progress,
                               const WaveHooks& hooks) {
  OBS_SCOPED_TIMER("campaign.execute");
  const std::size_t jobCount = plan.shardJobCount();
  ExecutionStats stats;
  stats.threads = resolveThreadCount(requestedThreads, jobCount);
  // Every worker can have one job running and one result parked before
  // a lane's missing replication lands.
  const std::size_t parkCap = 2 * static_cast<std::size_t>(stats.threads);

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
    WaveFold fold(into, open, coveredReps, waveEnd, parkCap);
    OBS_COUNT("campaign.waves");
    if (progress != nullptr) {
      progress->beginWave(wave, fold.jobCount(), open.size(),
                          plan.shardPointIndices().size());
    }
    util::runWorkers(stats.threads, [&] {
      std::size_t job = 0;
      while (fold.claim(job)) {
        try {
          const JobSpec spec = plan.pointJob(
              plan.shardPointIndices()[fold.slotOf(job)],
              fold.replicationOf(job));
          JobResult result = runJob(plan, spec);
          if (progress != nullptr) progress->jobDone();
          fold.complete(job, std::move(result));
        } catch (...) {
          fold.fail(std::current_exception());
          return;
        }
      }
    });
    fold.rethrowIfFailed();
    stats.peakBufferedResults =
        std::max(stats.peakBufferedResults, fold.peakParked());
    stats.jobsRun += fold.jobCount();
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
