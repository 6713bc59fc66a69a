/// \file bench_perf_kernel.cpp
/// Microbenchmarks for the simulation substrate: event-queue throughput,
/// cancellation-heavy scheduling (the eager queue-compaction path),
/// channel sampling, airtime computation, and the complete urban and
/// highway rounds. These guard the "30 rounds in under a second"
/// property the experiment harnesses rely on.
///
/// Every timed section reports mean +- CI95 wall time via RunningStats
/// (no external benchmark framework). Flags are the shared campaign CLI
/// (--seed, --threads; see util/flags.h) plus:
///   --iters=N   timing repetitions per section (default 10)
///   --json=PATH machine-readable result document ("vanet-bench" schema,
///               see docs/observability.md); bare --json auto-names it
///               BENCH_<git-rev>.json in the working directory. This is
///               the perf-trajectory artefact CI compares against the
///               committed baseline with example_bench_compare.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/round.h"
#include "channel/link_batch.h"
#include "channel/link_model.h"
#include "mac/airtime.h"
#include "obs/counters.h"
#include "obs/manifest.h"
#include "runner/accumulate.h"
#include "runner/campaign.h"
#include "runner/partial_binary.h"
#include "sim/simulator.h"
#include "trace/aggregate.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "util/vmath.h"

namespace {

using namespace vanet;

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One timed section, collected for the report lines and the --json
/// document.
struct KernelResult {
  std::string name;      ///< schema key, stable across revisions
  RunningStats wall;     ///< seconds per repetition
  double itemsPerRun;    ///< items one repetition processes (0 = whole run)
};

/// One "mean +- ci95  (per-item rate)" report line.
void report(const char* name, const RunningStats& wall, double itemsPerRun,
            const char* item) {
  std::printf("%-28s %9.3f ms +- %6.3f", name, wall.mean() * 1e3,
              wall.confidence95() * 1e3);
  if (itemsPerRun > 0.0 && wall.mean() > 0.0) {
    std::printf("   (%11.0f %s/s)", itemsPerRun / wall.mean(), item);
  }
  std::printf("\n");
}

/// Keeps computed values observable so the loops cannot be elided.
std::uint64_t gSink = 0;

RunningStats timeEventQueue(int iters, int events) {
  RunningStats wall;
  Rng rng{42};
  for (int it = 0; it < iters; ++it) {
    sim::Simulator sim;
    const auto start = Clock::now();
    for (int i = 0; i < events; ++i) {
      sim.scheduleAt(sim::SimTime::micros(rng.uniform(0.0, 1e6)),
                     [] { ++gSink; });
    }
    sim.run();
    wall.add(secondsSince(start));
  }
  return wall;
}

RunningStats timeCancelHeavy(int iters, int events) {
  // 90% of the scheduled timers are cancelled -- the C-ARQ churn pattern
  // that used to leave dead entries in the queue until their timestamp
  // popped; now exercises the eager compaction.
  RunningStats wall;
  for (int it = 0; it < iters; ++it) {
    sim::Simulator sim;
    std::vector<sim::EventId> ids;
    ids.reserve(static_cast<std::size_t>(events));
    const auto start = Clock::now();
    for (int i = 0; i < events; ++i) {
      ids.push_back(
          sim.scheduleAt(sim::SimTime::micros(i), [] { ++gSink; }));
    }
    for (int i = 0; i < events; ++i) {
      if (i % 10 != 0) sim.cancel(ids[static_cast<std::size_t>(i)]);
    }
    sim.run();
    wall.add(secondsSince(start));
    gSink += sim.queueDepth();
  }
  return wall;
}

RunningStats timeLinkSampling(int iters, int samples) {
  // Times link evaluation the way RadioEnvironment::deliver pays for it
  // since the struct-of-arrays rewiring: one planBatch (distance, path
  // loss, shadowing, mean power, fading) plus one successProbabilityBatch
  // per transmission's receiver set, 16 receivers per batch (the 9plus
  // occupancy bucket of a highway platoon). The scalar per-receiver calls
  // this loop used to make remain as the bit-identical behavioural
  // reference (LinkModel::planBatch base implementation).
  const geom::Polyline road{{{0.0, 0.0}, {500.0, 0.0}}};
  analysis::ChannelConfig config;
  auto model = analysis::buildLinkModel(road, config, Rng{7});
  Rng rng{9};
  RunningStats wall;
  constexpr int kRxPerBatch = 16;
  channel::LinkBatch batch;
  std::vector<double> probs(kRxPerBatch);
  double x = 0.0;
  for (int it = 0; it < iters; ++it) {
    const auto start = Clock::now();
    for (int i = 0; i < samples; i += kRxPerBatch) {
      batch.clear();
      for (int r = 0; r < kRxPerBatch; ++r) {
        x += 1.0;
        if (x > 400.0) x = 0.0;
        batch.add(static_cast<NodeId>(r + 1), {x, 0.0});
      }
      batch.prepare();
      model->planBatch(kFirstApId, {250.0, -8.0}, 18.0, batch, rng);
      const double* faded = batch.fadedDbm();
      double* sinr = batch.meanDbm();  // reuse plan scratch for SINR
      for (int r = 0; r < kRxPerBatch; ++r) {
        sinr[r] = faded[r] + 94.0;
      }
      model->successProbabilityBatch(channel::PhyMode::kDsss1Mbps, sinr, 8224,
                                     probs.data(), kRxPerBatch);
      for (int r = 0; r < kRxPerBatch; ++r) {
        gSink += probs[r] > 0.5;
      }
    }
    wall.add(secondsSince(start));
  }
  return wall;
}

/// ns/op for one batched vmath kernel over a hot-cache input vector --
/// the per-element cost the link/error-model stages pay after the rewiring.
template <class Fn>
RunningStats timeVmathKernel(int iters, int n, double lo, double hi, Fn&& fn) {
  Rng rng{31};
  std::vector<double> x(static_cast<std::size_t>(n));
  std::vector<double> out(x.size());
  for (double& v : x) v = rng.uniform(lo, hi);
  RunningStats wall;
  for (int it = 0; it < iters; ++it) {
    const auto start = Clock::now();
    for (int rep = 0; rep < 64; ++rep) {
      fn(x.data(), out.data(), x.size());
      gSink += static_cast<std::uint64_t>(out[0] != 0.0);
    }
    wall.add(secondsSince(start) / 64.0);
  }
  return wall;
}

RunningStats timeVmathNormal(int iters, int n) {
  Rng rng{33};
  std::vector<double> u1(static_cast<std::size_t>(n));
  std::vector<double> u2(u1.size());
  std::vector<double> z0(u1.size());
  std::vector<double> z1(u1.size());
  for (std::size_t i = 0; i < u1.size(); ++i) {
    u1[i] = 1.0 - rng.uniform();
    u2[i] = rng.uniform();
  }
  RunningStats wall;
  for (int it = 0; it < iters; ++it) {
    const auto start = Clock::now();
    for (int rep = 0; rep < 64; ++rep) {
      vmath::vnormalpair(u1.data(), u2.data(), z0.data(), z1.data(), u1.size());
      gSink += static_cast<std::uint64_t>(z0[0] != 0.0);
    }
    wall.add(secondsSince(start) / 64.0);
  }
  return wall;
}

RunningStats timeFrameAirtime(int iters, int frames) {
  RunningStats wall;
  int bytes = 0;
  for (int it = 0; it < iters; ++it) {
    const auto start = Clock::now();
    for (int i = 0; i < frames; ++i) {
      bytes = (bytes + 17) % 1500;
      gSink += static_cast<std::uint64_t>(
          mac::frameAirtime(channel::PhyMode::kDsss1Mbps, bytes).toSeconds() +
          mac::frameAirtime(channel::PhyMode::kErpOfdm54Mbps, bytes)
              .toSeconds());
    }
    wall.add(secondsSince(start));
  }
  return wall;
}

/// Per-round wall time of the full urban kernel: one sample per distinct
/// round index (each round builds its own world, like production runs).
RunningStats timeUrbanRound(int iters, std::uint64_t seed) {
  analysis::UrbanExperimentConfig config;
  config.rounds = iters;
  config.seed = seed;
  const analysis::UrbanExperiment experiment(config);
  RunningStats wall;
  for (int round = 0; round < iters; ++round) {
    const auto start = Clock::now();
    const analysis::UrbanRoundOutcome outcome = experiment.runRound(round);
    wall.add(secondsSince(start));
    gSink += outcome.trace.txCount(1);
  }
  return wall;
}

/// Same for the highway kernel, so the perf trajectory covers both
/// scenario families (their hot paths differ: multi-AP handover vs the
/// urban single-AP loop).
RunningStats timeHighwayRound(int iters, std::uint64_t seed) {
  analysis::HighwayExperimentConfig config;
  config.rounds = iters;
  config.seed = seed;
  const analysis::HighwayExperiment experiment(config);
  RunningStats wall;
  for (int round = 0; round < iters; ++round) {
    const auto start = Clock::now();
    const analysis::HighwayRoundOutcome outcome = experiment.runRound(round);
    wall.add(secondsSince(start));
    gSink += outcome.trace.txCount(1);
  }
  return wall;
}

/// One synthetic shard partial for the serialization kernels: every
/// point carries a realistic payload (Table-1 rows, two figure flows,
/// protocol totals, metrics), so the write/merge timings reflect the
/// production record shape rather than a toy. Shard s owns the grid
/// indices s, s+count, s+2*count, ... -- together the shards tile the
/// full grid, so the merge kernels exercise the real validation path.
runner::CampaignPartial syntheticPartial(int shardIndex, int shardCount,
                                         int pointsPerShard,
                                         std::uint64_t seed) {
  Rng rng{seed + static_cast<std::uint64_t>(shardIndex)};
  const auto stats = [&rng](int samples) {
    RunningStats s;
    for (int i = 0; i < samples; ++i) s.add(rng.uniform(0.0, 100.0));
    return s;
  };
  runner::CampaignPartial partial;
  partial.scenario = "urban";
  partial.masterSeed = seed;
  partial.shard = runner::Shard{shardIndex, shardCount};
  partial.replications = 4;
  partial.totalPoints =
      static_cast<std::size_t>(pointsPerShard) * shardCount;
  partial.totalJobs = partial.totalPoints * 4;
  partial.points.reserve(static_cast<std::size_t>(pointsPerShard));
  for (int p = 0; p < pointsPerShard; ++p) {
    runner::GridPointSummary point;
    point.gridIndex = static_cast<std::size_t>(shardIndex) +
                      static_cast<std::size_t>(p) * shardCount;
    point.caseName = "case" + std::to_string(p % 3);
    point.replications = 4;
    point.rounds = 40;
    point.achievedCi95 = rng.uniform(0.0, 0.1);
    point.params.set("speed_kmh", 20.0 + p);
    point.params.set("cars", 3.0);
    for (NodeId car = 1; car <= 3; ++car) {
      trace::Table1Row row;
      row.car = car;
      row.txByAp = stats(8);
      row.lostBefore = stats(8);
      row.lostAfter = stats(8);
      row.lostJoint = stats(8);
      row.pctLostBefore = stats(8);
      row.pctLostAfter = stats(8);
      row.pctLostJoint = stats(8);
      point.table1.rows.push_back(row);
    }
    point.table1.rounds = 40;
    for (FlowId flow = 1; flow <= 2; ++flow) {
      trace::FlowFigure figure;
      figure.flow = flow;
      for (NodeId car = 1; car <= 3; ++car) {
        SeriesAccumulator& series = figure.rxByCar[car];
        for (std::size_t k = 0; k < 64; ++k) {
          series.add(k, rng.uniform(0.0, 1.0));
        }
      }
      for (std::size_t k = 0; k < 64; ++k) {
        figure.afterCoop.add(k, rng.uniform(0.0, 1.0));
        figure.joint.add(k, rng.uniform(0.0, 1.0));
      }
      figure.regionBoundary12 = stats(4);
      figure.regionBoundary23 = stats(4);
      point.figures[flow] = std::move(figure);
    }
    point.totals.requestsPerRound = stats(8);
    point.totals.requestSeqsPerRound = stats(8);
    point.totals.coopDataPerRound = stats(8);
    point.totals.suppressedPerRound = stats(8);
    point.totals.hellosPerRound = stats(8);
    point.totals.bufferedPerRound = stats(8);
    point.totals.medium.framesTransmitted = 100000 + static_cast<std::uint64_t>(p);
    point.totals.medium.framesDelivered = 90000;
    point.totals.medium.framesCollided = 700;
    point.totals.medium.framesChannelError = 1200;
    point.metrics["pdr"] = stats(4);
    point.metrics["losses_after_pct"] = stats(4);
    partial.points.push_back(std::move(point));
  }
  return partial;
}

/// Serializes every shard once per repetition (in memory, both formats --
/// no disk noise in the timing).
RunningStats timePartialWrite(
    const std::vector<runner::CampaignPartial>& shards, int iters,
    bool binary) {
  RunningStats wall;
  for (int it = 0; it < iters; ++it) {
    const auto start = Clock::now();
    for (const runner::CampaignPartial& shard : shards) {
      const std::string bytes = binary
                                    ? runner::campaignPartialBinary(shard)
                                    : runner::campaignPartialJson(shard);
      gSink += bytes.size();
    }
    wall.add(secondsSince(start));
  }
  return wall;
}

/// Parses every serialized shard and folds them back into the full grid
/// once per repetition -- the campaign_merge hot path, both formats.
RunningStats timePartialMerge(const std::vector<std::string>& shardBytes,
                              int iters, bool binary) {
  RunningStats wall;
  for (int it = 0; it < iters; ++it) {
    const auto start = Clock::now();
    std::vector<runner::CampaignPartial> partials;
    partials.reserve(shardBytes.size());
    for (const std::string& bytes : shardBytes) {
      partials.push_back(binary ? runner::parseCampaignPartialBinary(bytes)
                                : runner::parseCampaignPartial(bytes));
    }
    const std::vector<runner::GridPointSummary> merged =
        runner::mergeCampaignPartials(std::move(partials));
    gSink += merged.size();
    wall.add(secondsSince(start));
  }
  return wall;
}

/// A small fixed campaign through the full plan/execute/accumulate
/// pipeline, to put an end-to-end jobs/sec figure next to the kernel
/// numbers.
runner::CampaignResult runProbeCampaign(std::uint64_t seed, int threads) {
  runner::CampaignConfig config;
  config.scenario = "urban";
  config.masterSeed = seed;
  config.replications = 4;
  config.threads = threads;
  config.base.set("rounds", 2);
  config.base.set("cars", 3);
  return runner::runCampaign(config);
}

/// The "vanet-bench" JSON document (schema in docs/observability.md).
/// Deterministic key order; json::num full-precision numbers.
std::string benchJson(const std::vector<KernelResult>& kernels,
                      const runner::CampaignResult& campaign,
                      std::uint64_t seed, int iters) {
  using json::num;
  using json::quote;
  std::string out = "{\n";
  out += "\"format\":\"vanet-bench\",\n";
  out += "\"version\":1,\n";
  out += "\"git_rev\":" + quote(obs::buildGitRevision()) + ",\n";
  out += "\"build_flags\":" + quote(obs::buildFlagsString()) + ",\n";
  out += "\"seed\":" + std::to_string(seed) + ",\n";
  out += "\"iters\":" + std::to_string(iters) + ",\n";
  out += "\"kernels\":[";
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    const KernelResult& kernel = kernels[k];
    if (k > 0) out += ",";
    const double itemsPerRun =
        kernel.itemsPerRun > 0.0 ? kernel.itemsPerRun : 1.0;
    out += "\n {\"name\":" + quote(kernel.name);
    out += ",\"mean_seconds\":" + num(kernel.wall.mean());
    out += ",\"ci95_seconds\":" + num(kernel.wall.confidence95());
    out += ",\"items_per_run\":" + num(itemsPerRun);
    out += ",\"ns_per_item\":" + num(kernel.wall.mean() * 1e9 / itemsPerRun);
    out += "}";
  }
  out += "\n],\n";
  out += "\"campaign\":{\"scenario\":" + quote(campaign.scenario);
  out += ",\"jobs\":" + std::to_string(campaign.jobCount);
  out += ",\"wall_seconds\":" + num(campaign.wallSeconds);
  out += ",\"jobs_per_second\":" + num(campaign.jobsPerSecond);
  out += "},\n";
  out += "\"obs\":" + obs::snapshotJson(obs::takeSnapshot()) + "\n";
  out += "}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  vanet::obs::setRunIdentity(argc, argv);
  const Flags flags(argc, argv);
  {
    std::vector<std::string> names = campaignFlagNames();
    names.insert(names.end(), {"iters", "json"});
    flags.allowOnly(names);
  }
  const CampaignRunFlags run = campaignRunFlags(flags, /*defaultSeed=*/11);
  const int iters = flags.getInt("iters", 10);

  std::vector<KernelResult> kernels;
  const auto timeKernel = [&](const char* schemaName, const char* label,
                              RunningStats wall, double itemsPerRun,
                              const char* item) {
    report(label, wall, itemsPerRun, item);
    kernels.push_back(KernelResult{schemaName, wall, itemsPerRun});
    return wall;
  };

  std::printf("simulation-substrate kernels, %d repetitions each "
              "(mean +- CI95)\n\n", iters);
  timeKernel("event_queue", "event queue (100k events)",
             timeEventQueue(iters, 100000), 100000, "events");
  timeKernel("cancel_heavy", "cancel-heavy (10k, 90%)",
             timeCancelHeavy(iters, 10000), 10000, "timers");
  timeKernel("link_sampling", "link-model sampling (10k)",
             timeLinkSampling(iters, 10000), 10000, "samples");
  timeKernel("frame_airtime", "frame airtime (20k)",
             timeFrameAirtime(iters, 10000), 20000, "frames");
  // The vmath kernels behind the batched radio pipeline (simdIsa() says
  // which body runs; VANET_SIMD=off forces the scalar one).
  const int kVmathN = 4096;
  timeKernel("vmath_exp", "vmath exp (4k batch)",
             timeVmathKernel(iters, kVmathN, -700.0, 700.0,
                             [](const double* x, double* o, std::size_t n) {
                               vmath::vexp(x, o, n);
                             }),
             kVmathN, "elems");
  timeKernel("vmath_log10", "vmath log10 (4k batch)",
             timeVmathKernel(iters, kVmathN, 1e-15, 1e9,
                             [](const double* x, double* o, std::size_t n) {
                               vmath::vlog10(x, o, n);
                             }),
             kVmathN, "elems");
  timeKernel("vmath_erfc", "vmath erfc (4k batch)",
             timeVmathKernel(iters, kVmathN, -3.0, 20.0,
                             [](const double* x, double* o, std::size_t n) {
                               vmath::verfc(x, o, n);
                             }),
             kVmathN, "elems");
  timeKernel("vmath_normal", "vmath normal pairs (4k batch)",
             timeVmathNormal(iters, kVmathN), kVmathN, "pairs");
  const RunningStats roundWall = timeKernel(
      "urban_round", "full urban round", timeUrbanRound(iters, run.seed), 0,
      "");
  timeKernel("highway_round", "full highway round",
             timeHighwayRound(iters, run.seed), 0, "");

  // Campaign-partial serialization: a synthetic 4-shard, 256-point
  // campaign with production-shaped records, written and merged in both
  // formats. The bin/json ratios are the Table-1 numbers behind making
  // binary the --shard default.
  const int kShardCount = 4;
  const int kPointsPerShard = 64;
  std::vector<runner::CampaignPartial> shards;
  std::vector<std::string> jsonShards;
  std::vector<std::string> binShards;
  for (int s = 0; s < kShardCount; ++s) {
    shards.push_back(
        syntheticPartial(s, kShardCount, kPointsPerShard, run.seed));
    jsonShards.push_back(runner::campaignPartialJson(shards.back()));
    binShards.push_back(runner::campaignPartialBinary(shards.back()));
  }
  const double partialPoints =
      static_cast<double>(kShardCount) * kPointsPerShard;
  timeKernel("partial_write_json", "partial write json (256 pts)",
             timePartialWrite(shards, iters, /*binary=*/false), partialPoints,
             "points");
  timeKernel("partial_write_bin", "partial write bin (256 pts)",
             timePartialWrite(shards, iters, /*binary=*/true), partialPoints,
             "points");
  timeKernel("partial_merge_json", "partial merge json (4 shards)",
             timePartialMerge(jsonShards, iters, /*binary=*/false),
             partialPoints, "points");
  timeKernel("partial_merge_bin", "partial merge bin (4 shards)",
             timePartialMerge(binShards, iters, /*binary=*/true),
             partialPoints, "points");

  // End-to-end campaign throughput for the trajectory document.
  const runner::CampaignResult campaign =
      runProbeCampaign(run.seed, run.threads);
  std::printf("\nprobe campaign: %zu jobs, %.2f jobs/s\n", campaign.jobCount,
              campaign.jobsPerSecond);

  std::printf("\nper-round budget: %.1f ms mean -> %.1f rounds/s "
              "(paper campaign = 30 rounds)\n",
              roundWall.mean() * 1e3,
              roundWall.mean() > 0.0 ? 1.0 / roundWall.mean() : 0.0);
  std::printf("(checksum %llu)\n",
              static_cast<unsigned long long>(gSink % 997));

  if (flags.has("json")) {
    // Bare --json auto-names the artefact after the built revision --
    // the naming convention the committed baselines and the CI compare
    // step share.
    std::string path = flags.getString("json", "");
    if (path.empty() || path == "true") {
      path = "BENCH_" + obs::buildGitRevision() + ".json";
    }
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
      return 1;
    }
    out << benchJson(kernels, campaign, run.seed, iters);
    if (!out) {
      std::fprintf(stderr, "short write on %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
    obs::writeManifestSidecar(obs::manifestForArtifact(path));
  }
  return 0;
}
