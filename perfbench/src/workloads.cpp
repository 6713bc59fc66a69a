#include "workloads.h"

#include <atomic>
#include <filesystem>
#include <stdexcept>

#include "runner/campaign.h"
#include "runner/partial_binary.h"
#include "runner/registry.h"
#include "util/binio.h"

namespace perfbench {

namespace runner = vanet::runner;

namespace {

const std::vector<std::string> kDriveThruSpecs = {
    "ablation_speed",
    "ablation_infostation_density",
};

constexpr int kShards = 4;

// Where job spans of the running campaign go: set by the benchmark thread
// before runCampaign, read by the campaign's worker threads.
std::atomic<SpanLog*> gJobLog{nullptr};
std::atomic<int> gJobParent{-1};
std::atomic<int> gJobCap{1};

std::string tracedName(const std::string& scenario) {
  return "perfbench_traced_" + scenario;
}

// Registers (once) a scenario that forwards to `scenario` and records a
// span around every job it runs. Everything but the name and the run
// function is copied, so the plan, seeds and adaptive metric are those of
// the built-in scenario.
void ensureTracedScenario(const std::string& scenario) {
  runner::ScenarioRegistry& registry = runner::ScenarioRegistry::global();
  if (registry.find(tracedName(scenario)) != nullptr) return;
  const runner::ScenarioInfo* base = registry.find(scenario);
  if (base == nullptr) {
    throw std::invalid_argument("unknown scenario \"" + scenario + "\"");
  }
  runner::ScenarioInfo info = *base;
  info.name = tracedName(scenario);
  info.run = [run = base->run](const runner::JobContext& ctx) {
    const auto cap = static_cast<std::size_t>(gJobCap.load());
    const std::size_t point = (ctx.jobIndex - ctx.replication) / cap;
    const ScopedSpan span(gJobLog.load(), "job", gJobParent.load(),
                          static_cast<std::int64_t>(ctx.jobIndex),
                          static_cast<std::int64_t>(point));
    return run(ctx);
  };
  const runner::ScenarioRegistrar registrar(std::move(info));
}

runner::CampaignResult traceCampaign(const runner::CampaignConfig& config,
                                     Trace trace) {
  const ScopedSpan span(trace.log, "run_campaign", trace.parent);
  if (trace.log == nullptr) return runner::runCampaign(config);
  runner::CampaignConfig traced = config;
  traced.scenario = tracedName(config.scenario);
  gJobLog.store(trace.log);
  gJobParent.store(span.id());
  gJobCap.store(config.targetRelativeCi95 > 0.0 ? config.maxReplications
                                                : config.replications);
  runner::CampaignResult result = runner::runCampaign(traced);
  gJobLog.store(nullptr);
  // The forwarding scenario is an observation device; the result belongs
  // to the built-in scenario, so it is emitted under that name.
  result.scenario = config.scenario;
  return result;
}

void emit(const Study& study, const runner::CampaignResult& result,
          const std::string& outDir, const ResultSink& sink, Trace trace,
          IterationOutput& out) {
  std::vector<std::string> written;
  {
    const ScopedSpan span(trace.log, "emit", trace.parent);
    if (!runner::writeSpecArtifacts(study.spec, result, outDir, written)) {
      throw std::runtime_error("emit of \"" + study.spec.name + "\" failed");
    }
  }
  for (const std::string& path : written) {
    out.written.push_back(
        std::filesystem::path(path).lexically_relative(outDir).string());
  }
  sink(result);
}

}  // namespace

void addResult(ResultSummary& summary, const runner::CampaignResult& result) {
  std::map<std::string, std::uint64_t>& c = summary.counts;
  const auto sum = [](const vanet::RunningStats& stats) {
    return static_cast<std::uint64_t>(stats.state().sum);
  };
  for (const runner::GridPointSummary& point : result.points) {
    summary.rounds += point.rounds;
    const vanet::analysis::ProtocolTotals& t = point.totals;
    c["core.requests"] += sum(t.requestsPerRound);
    c["core.request_seqs"] += sum(t.requestSeqsPerRound);
    c["core.coop_data"] += sum(t.coopDataPerRound);
    c["core.suppressed"] += sum(t.suppressedPerRound);
    c["core.hellos"] += sum(t.hellosPerRound);
    c["core.buffered"] += sum(t.bufferedPerRound);
    const vanet::mac::MediumStats& m = t.medium;
    c["medium.transmitted"] += m.framesTransmitted;
    c["medium.delivered"] += m.framesDelivered;
    c["medium.sensitivity"] += m.framesBelowSensitivity;
    c["medium.collision"] += m.framesCollided;
    c["medium.channel_error"] += m.framesChannelError;
    c["medium.burst"] += m.framesBurstLost;
    c["medium.half_duplex"] += m.framesHalfDuplexMissed;
    // One point per encoding keeps the check's memory at one point record
    // (the campaign identity is covered by the artefact digest).
    runner::CampaignPartial one;
    one.points.push_back(point);
    const std::string bytes = runner::campaignPartialBinary(one);
    summary.pointsDigest =
        vanet::util::fnv1a64(bytes.data(), bytes.size(), summary.pointsDigest);
  }
  c["runner.rounds"] = static_cast<std::uint64_t>(summary.rounds);
}

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {"drive_thru",
                                                 "sharded_adaptive"};
  return names;
}

std::string shardedAdaptiveSpecText() {
  return R"({
  "format": "vanet-campaign-spec",
  "version": 1,
  "name": "sharded_adaptive",
  "title": "Benchmark: sharded adaptive urban sweep",
  "scenario": "urban",
  "seed": 2008,
  "base": {"rounds": 1},
  "cases": [
    {"name": "plain", "overrides": {"coop": 0}},
    {"name": "c-arq", "overrides": {"coop": 1}}
  ],
  "grid": [
    {"axis": "cars", "values": [1, 2, 3, 4]},
    {"axis": "speed_kmh", "values": [10, 20, 30, 40, 50]},
    {"axis": "c2c_exponent", "values": [2.0, 2.4, 2.8]}
  ],
  "adaptive": {"target_ci": 0.02, "min_replications": 2,
               "max_replications": 16, "metric": "pdr"},
  "emit": [
    {"kind": "campaign_csv", "name": "sharded_adaptive"},
    {"kind": "campaign_json", "name": "sharded_adaptive"},
    {"kind": "figures", "name": "sharded_adaptive"}
  ]
}
)";
}

std::vector<Study> loadStudies(const std::string& workload,
                               const std::string& root, std::uint64_t seed,
                               int threads, Trace trace) {
  std::vector<runner::CampaignSpec> specs;
  if (workload == "sharded_adaptive") {
    const ScopedSpan span(trace.log, "spec_load", trace.parent);
    specs.push_back(runner::parseCampaignSpec(shardedAdaptiveSpecText()));
  } else if (workload == "drive_thru") {
    for (const std::string& name : kDriveThruSpecs) {
      const ScopedSpan span(trace.log, "spec_load", trace.parent);
      specs.push_back(
          runner::loadCampaignSpec(root + "/specs/" + name + ".json"));
    }
  } else {
    throw std::invalid_argument("unknown workload \"" + workload + "\"");
  }
  std::vector<Study> studies;
  for (runner::CampaignSpec& spec : specs) {
    spec.seed = seed;
    Study study;
    study.config = runner::campaignConfigFromSpec(spec);
    study.config.threads = threads;
    study.spec = std::move(spec);
    study.shards = workload == "sharded_adaptive" ? kShards : 1;
    studies.push_back(std::move(study));
  }
  return studies;
}

IterationOutput runIteration(const std::string& workload,
                             const std::string& root, std::uint64_t seed,
                             int threads, const std::string& outDir,
                             const ResultSink& sink, Trace trace) {
  IterationOutput out;
  const std::vector<Study> studies =
      loadStudies(workload, root, seed, threads, trace);
  for (const Study& study : studies) {
    if (trace.log != nullptr) ensureTracedScenario(study.config.scenario);
    if (study.shards == 1) {
      emit(study, traceCampaign(study.config, trace), outDir, sink,
           trace, out);
      continue;
    }
    std::vector<std::string> partials;
    for (int shard = 0; shard < study.shards; ++shard) {
      runner::CampaignConfig config = study.config;
      config.shard = {shard, study.shards};
      const runner::CampaignResult result = traceCampaign(config, trace);
      const std::string path = outDir + "/" + study.spec.name + ".shard" +
                               std::to_string(shard) + ".vpart";
      {
        const ScopedSpan span(trace.log, "partial_write", trace.parent);
        if (!runner::writeCampaignPartial(path,
                                          runner::campaignPartial(result),
                                          runner::PartialFormat::kBinary)) {
          throw std::runtime_error("partial write to " + path + " failed");
        }
      }
      out.partialBytes += std::filesystem::file_size(path);
      partials.push_back(path);
    }
    runner::CampaignResult merged;
    {
      const ScopedSpan span(trace.log, "partial_merge", trace.parent);
      merged = runner::resultFromPartialFiles(partials);
    }
    emit(study, merged, outDir, sink, trace, out);
  }
  return out;
}

}  // namespace perfbench
