#include "runner/plan.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/rng.h"

namespace vanet::runner {

JobSpec CampaignPlan::pointJob(std::size_t pointIndex,
                               int replication) const {
  JobSpec job;
  job.pointIndex = pointIndex;
  job.replication = replication;
  // Grid-major layout over the *full* campaign: job seeds depend only on
  // (masterSeed, global index), so a shard runs exactly the streams the
  // unsharded run would -- and an adaptive point that stops early ran
  // exactly the stream prefix the fixed-count run would have.
  job.globalIndex = pointIndex * static_cast<std::size_t>(replications_) +
                    static_cast<std::size_t>(replication);
  job.seed = Rng::deriveStreamSeed(masterSeed_, job.globalIndex);
  return job;
}

JobSpec CampaignPlan::shardJob(std::size_t localIndex) const {
  const auto replications = static_cast<std::size_t>(replications_);
  return pointJob(shardPoints_[localIndex / replications],
                  static_cast<int>(localIndex % replications));
}

int waveEndFor(int minReplications, int cap, int wave) noexcept {
  // min * 2^wave without overflow: doubling past the cap saturates.
  long long end = minReplications;
  for (int k = 0; k < wave && end < cap; ++k) end *= 2;
  return static_cast<int>(std::min<long long>(end, cap));
}

int CampaignPlan::waveEndReplication(int wave) const noexcept {
  if (!adaptive()) return replications_;
  return waveEndFor(minReplications_, replications_, wave);
}

CampaignPlan buildPlan(const CampaignConfig& config) {
  const ScenarioInfo* scenario =
      ScenarioRegistry::global().find(config.scenario);
  if (scenario == nullptr) {
    throw std::invalid_argument("unknown scenario: \"" + config.scenario +
                                "\" (registered: " + registeredScenarioList() +
                                ")");
  }
  const bool adaptive = config.targetRelativeCi95 > 0.0;
  if (adaptive) {
    if (config.minReplications < 1 ||
        config.maxReplications < config.minReplications) {
      throw std::invalid_argument(
          "adaptive campaign needs 1 <= minReplications <= maxReplications "
          "(got " +
          std::to_string(config.minReplications) + ".." +
          std::to_string(config.maxReplications) + ")");
    }
  } else if (config.replications < 1) {
    throw std::invalid_argument("campaign needs replications >= 1");
  }
  if (config.shard.count < 1 || config.shard.index < 0 ||
      config.shard.index >= config.shard.count) {
    throw std::invalid_argument(
        "campaign shard must satisfy 0 <= index < count (got " +
        std::to_string(config.shard.index) + "/" +
        std::to_string(config.shard.count) + ")");
  }

  CampaignPlan plan;
  plan.scenario_ = scenario;
  plan.masterSeed_ = config.masterSeed;
  plan.replications_ = adaptive ? config.maxReplications : config.replications;
  plan.targetRelativeCi95_ = adaptive ? config.targetRelativeCi95 : 0.0;
  plan.minReplications_ = adaptive ? config.minReplications : 1;
  if (adaptive) {
    plan.targetMetric_ = config.targetMetric.empty()
                             ? scenario->defaultTargetMetric
                             : config.targetMetric;
    if (plan.targetMetric_.empty()) {
      throw std::invalid_argument(
          "adaptive campaign needs a target metric: scenario \"" +
          config.scenario +
          "\" declares no default, set CampaignConfig::targetMetric");
    }
  }
  plan.shard_ = config.shard;

  // Resolve every grid point up front: scenario defaults, then the
  // campaign base, then the case overrides, then the axis values of the
  // point. Cases vary slowest, so the point list reads case-major.
  ParamSet base = ScenarioRegistry::global().defaults(config.scenario);
  base.apply(config.base);
  if (config.cases.empty()) {
    for (ParamSet& point : config.grid.expand(base)) {
      PlannedPoint planned;
      planned.gridIndex = plan.points_.size();
      planned.params = std::move(point);
      plan.points_.push_back(std::move(planned));
    }
  } else {
    for (const CampaignCase& campaignCase : config.cases) {
      ParamSet caseBase = base;
      caseBase.apply(campaignCase.overrides);
      for (ParamSet& point : config.grid.expand(caseBase)) {
        PlannedPoint planned;
        planned.gridIndex = plan.points_.size();
        planned.caseName = campaignCase.name;
        planned.params = std::move(point);
        plan.points_.push_back(std::move(planned));
      }
    }
  }

  // Round-robin point partition: shard s owns points {p : p % count == s}.
  // Whole points, so every point's job-order fold happens inside one
  // shard; round-robin keeps shards balanced when cost varies along an
  // axis (e.g. a speed sweep where slow speeds simulate longest).
  for (std::size_t p = static_cast<std::size_t>(plan.shard_.index);
       p < plan.points_.size();
       p += static_cast<std::size_t>(plan.shard_.count)) {
    plan.shardPoints_.push_back(p);
  }
  return plan;
}

}  // namespace vanet::runner
