#pragma once

/// Shared plumbing for the bench harnesses. Every bench runs on the
/// campaign engine: the helpers here translate the shared CLI flags into
/// a CampaignConfig, print throughput footers and write the emitted
/// artefacts.
///
/// Common flags (all benches):
///   --rounds=N       rounds per replication
///   --seed=S         master seed (default 2008)
///   --cars=N         platoon size (default 3)
///   --repl=N         independent replications per grid point
///   --threads=N      campaign job workers (0 = hardware concurrency)
///   --csv=DIR        also write CSV/JSON outputs into DIR
///   --shard=i/N      run only shard i of N (whole grid points)
///   --partial-out=F  write this shard's partial result to F
///   --partial-format=bin|json  partial encoding (default: binary for
///                    --shard runs, JSON otherwise)
///   --checkpoint=F   write a binary checkpoint partial at every wave
///                    barrier (atomically; resume point after a kill)
///   --resume         restore from --checkpoint=F and continue; final
///                    artifacts byte-match the uninterrupted run
///   --halt-after-waves=K  stop after K wave barriers (kill simulation)
///   --streaming      bounded-memory streaming accumulation
///   --target-ci=X    adaptive replication: per grid point, keep
///                    replicating in doubling waves until the 95 % CI
///                    half-width of the target metric / |mean| <= X
///   --min-reps=N     adaptive floor (default: the --repl count)
///   --max-reps=N     adaptive cap (default 64)
///   --target-metric=M  stop-rule metric (default: scenario's, e.g. pdr)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/csv.h"
#include "analysis/experiment.h"
#include "analysis/figures.h"
#include "analysis/table1.h"
#include "obs/manifest.h"
#include "runner/campaign.h"
#include "runner/emit.h"
#include "runner/spec.h"
#include "util/flags.h"

namespace vanet::bench {

/// Common campaign skeleton from the shared flags. `defaultRounds` are
/// rounds *per replication*: a bench that used to run 30 serial rounds now
/// runs e.g. 3 replications x 10 rounds, which merge to the same sample
/// count but parallelise.
inline runner::CampaignConfig campaignFromFlags(const Flags& flags,
                                                std::string scenario,
                                                int defaultRounds,
                                                int defaultReplications) {
  const CampaignRunFlags run = campaignRunFlags(flags);
  runner::CampaignConfig config;
  config.scenario = std::move(scenario);
  config.masterSeed = run.seed;
  config.replications = flags.getInt("repl", defaultReplications);
  config.threads = run.threads;
  config.shard = runner::Shard{run.shard.index, run.shard.count};
  config.streaming = run.streaming;
  config.progress = run.progress;
  config.checkpointPath = run.checkpoint;
  config.resume = run.resume;
  config.haltAfterWaves = run.haltAfterWaves;
  // Bad adaptive bounds die with the same exit(2) diagnostic style as
  // the flag parsers -- an explicit --min-reps=0, a --max-reps below the
  // floor, or a degenerate --repl floor must never silently read as
  // "unset" or escape as an uncaught buildPlan exception.
  const auto usage = [](const char* message) {
    std::fprintf(stderr, "%s\n", message);
    std::exit(2);
  };
  if (flags.has("target-ci") && run.targetCi <= 0.0) {
    usage("flag --target-ci: must be > 0 (a relative CI95 half-width)");
  }
  if (run.targetCi > 0.0) {
    // Adaptive replication: the --repl count (or --min-reps) becomes the
    // wave-0 floor, and points replicate on until their CI95 target or
    // the cap. Fixed-count semantics are untouched without --target-ci.
    if (flags.has("min-reps") && run.minReps < 1) {
      usage("flag --min-reps: must be >= 1");
    }
    if (flags.has("max-reps") && run.maxReps < 1) {
      usage("flag --max-reps: must be >= 1");
    }
    config.targetRelativeCi95 = run.targetCi;
    config.minReplications =
        run.minReps > 0 ? run.minReps : config.replications;
    if (config.minReplications < 1) {
      usage("flag --repl: the adaptive floor must be >= 1 (or pass "
            "--min-reps)");
    }
    config.maxReplications =
        run.maxReps > 0 ? run.maxReps
                        : std::max(config.maxReplications,
                                   config.minReplications);
    if (config.maxReplications < config.minReplications) {
      usage("flags --min-reps/--max-reps (or --repl as the floor): need "
            "min <= max replications");
    }
    config.targetMetric = run.targetMetric;
  } else if (flags.has("min-reps") || flags.has("max-reps") ||
             flags.has("target-metric")) {
    // Never drop an adaptive knob silently: without the target the stop
    // rule cannot run, so the bounds would be dead flags.
    usage("flags --min-reps/--max-reps/--target-metric need "
          "--target-ci=X to enable adaptive replication");
  }
  config.base.set("rounds", flags.getInt("rounds", defaultRounds));
  config.base.set("cars", flags.getInt("cars", 3));
  return config;
}

/// Urban-scenario overrides from the optional tuning flags.
inline void applyUrbanFlags(const Flags& flags, runner::ParamSet& base) {
  if (flags.has("speed-kmh")) {
    base.set("speed_kmh", flags.getDouble("speed-kmh", 20.0));
  }
  if (flags.getBool("no-coop", false)) base.set("coop", 0);
  if (flags.getBool("batched", false)) base.set("batched", 1);
  if (flags.getBool("gossip", false)) base.set("gossip", 1);
  if (flags.getBool("fc", false)) base.set("fc", 1);
  if (flags.has("repeat")) base.set("repeat", flags.getInt("repeat", 1));
  if (flags.has("phy")) base.set("phy", flags.getInt("phy", 0));
  if (flags.has("nakagami")) {
    base.set("nakagami", flags.getDouble("nakagami", 0.0));
  }
}

/// Writes the shard's partial-result file when --partial-out is given
/// (--partial-format selects the encoding; the default is binary v3 for
/// --shard runs and JSON otherwise). Only reached on a successful run: a
/// failed campaign throws out of runCampaign before any summary exists,
/// so a shard file is never truncated. A failed *write* exits non-zero --
/// a shard pipeline must never see success next to a missing or stale
/// partial file. Halted runs (--halt-after-waves) skip the write: their
/// state lives in the checkpoint file.
inline void maybeWritePartial(const Flags& flags,
                              const runner::CampaignResult& result) {
  const std::string path = flags.getString("partial-out", "");
  if (path.empty() || result.halted) return;
  const std::string formatName = flags.getString("partial-format", "");
  const runner::PartialFormat format =
      formatName == "bin"    ? runner::PartialFormat::kBinary
      : formatName == "json" ? runner::PartialFormat::kJson
                             : runner::PartialFormat::kAuto;
  if (!runner::writeCampaignPartial(path, runner::campaignPartial(result),
                                    format)) {
    std::exit(1);
  }
  std::cout << "wrote " << path << "\n";
}

/// Writes the campaign CSV + JSON summaries when --csv is given, and the
/// shard partial when --partial-out is given.
inline void maybeWriteCampaign(const Flags& flags, const std::string& name,
                               const runner::CampaignResult& result) {
  maybeWritePartial(flags, result);
  const std::string dir = flags.getString("csv", "");
  if (dir.empty() || result.halted) return;
  const std::string csvPath = dir + "/" + name + "_campaign.csv";
  if (runner::writeCampaignCsv(csvPath, result)) {
    std::cout << "wrote " << csvPath << "\n";
  }
  const std::string jsonPath = dir + "/" + name + "_campaign.json";
  if (runner::writeCampaignJson(jsonPath, result)) {
    std::cout << "wrote " << jsonPath << "\n";
  }
}

/// Writes one figure-series CSV per (grid point, flow) when --csv is
/// given (see runner::writeCampaignFigureCsvs for the naming).
inline void maybeWriteFigures(const Flags& flags, const std::string& name,
                              const runner::CampaignResult& result) {
  const std::string dir = flags.getString("csv", "");
  if (dir.empty()) return;
  const std::size_t written =
      runner::writeCampaignFigureCsvs(dir, name, result);
  if (written > 0) {
    std::cout << "wrote " << written << " figure CSV(s) under " << dir
              << "/" << name << "*\n";
  }
}

/// The per-bench throughput footer.
inline void printThroughput(const runner::CampaignResult& result) {
  char footer[160];
  if (result.halted) {
    std::snprintf(footer, sizeof footer,
                  "\nhalted at a wave barrier after %d wave(s), %zu jobs; "
                  "the checkpoint file holds the fold state\n",
                  result.waves, result.jobCount);
    std::cout << footer;
    return;
  }
  std::snprintf(footer, sizeof footer,
                "\n%zu jobs in %.2f s (%.2f jobs/s, %d threads)\n",
                result.jobCount, result.wallSeconds, result.jobsPerSecond,
                result.threads);
  std::cout << footer;
  if (result.targetRelativeCi95 > 0.0) {
    std::snprintf(footer, sizeof footer,
                  "adaptive: %zu of %zu budgeted jobs in %d wave(s), "
                  "target ci95/|mean| <= %g on %s\n",
                  result.jobCount, result.totalJobs, result.waves,
                  result.targetRelativeCi95, result.targetMetric.c_str());
    std::cout << footer;
  }
}

inline void printHeader(const std::string& title, const std::string& paperRef) {
  std::cout << "==============================================================="
               "=========\n";
  std::cout << title << "\n";
  std::cout << "reproduces: " << paperRef << "\n";
  std::cout << "==============================================================="
               "=========\n";
}

/// The full flag vocabulary of a spec-backed bench: the shared engine
/// flags, the experiment overrides every bench keeps (--rounds / --cars /
/// --repl), --csv / --spec, plus `extra` bench-specific names. Pass the
/// result to Flags::allowOnly() right after parsing.
inline std::vector<std::string> benchFlagNames(
    std::vector<std::string> extra = {}, std::vector<std::string> more = {}) {
  std::vector<std::string> names = campaignFlagNames();
  names.insert(names.end(), {"rounds", "cars", "repl", "csv", "spec"});
  names.insert(names.end(), extra.begin(), extra.end());
  names.insert(names.end(), more.begin(), more.end());
  return names;
}

/// The applyUrbanFlags() vocabulary, for benches on the urban scenario.
inline std::vector<std::string> urbanFlagNames() {
  return {"speed-kmh", "no-coop", "batched", "gossip",
          "fc",        "repeat",  "phy",     "nakagami"};
}

/// Loads the bench's committed campaign spec -- specs/<name>.json under
/// the source tree (VANET_SPEC_DIR), overridable per run with
/// --spec=PATH -- records the spec identity for every manifest sidecar,
/// and prints the spec's title / paper-reference header. A ported bench
/// main is then a thin wrapper: spec -> config -> flag overrides ->
/// runCampaign -> its custom console table.
inline runner::CampaignSpec loadBenchSpec(const Flags& flags,
                                          const std::string& name) {
  const std::string path = flags.getString(
      "spec", std::string(VANET_SPEC_DIR "/") + name + ".json");
  runner::CampaignSpec spec;
  try {
    spec = runner::loadCampaignSpec(path);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s\n", error.what());
    std::exit(1);
  }
  obs::setRunSpec(path, runner::campaignSpecDigest(spec));
  printHeader(spec.title, spec.paperRef);
  return spec;
}

/// CampaignConfig from a bench spec plus the traditional flag overrides.
/// The committed spec is the source of truth for the experiment
/// definition; --seed / --repl / --rounds / --cars and the adaptive knobs
/// still tweak it for one-off runs (same validation and semantics as the
/// flag-first campaignFromFlags), and the engine flags apply unchanged.
inline runner::CampaignConfig campaignFromSpec(const Flags& flags,
                                               const runner::CampaignSpec& spec) {
  const CampaignRunFlags run = campaignRunFlags(flags, spec.seed);
  runner::CampaignConfig config = runner::campaignConfigFromSpec(spec);
  runner::applyEngineFlags(run, config);
  config.masterSeed = run.seed;  // defaults to the spec's seed
  if (flags.has("repl")) {
    config.replications = flags.getInt("repl", config.replications);
  }
  if (flags.has("rounds")) {
    config.base.set("rounds", flags.getInt("rounds", 0));
  }
  if (flags.has("cars")) config.base.set("cars", flags.getInt("cars", 0));

  const auto usage = [](const char* message) {
    std::fprintf(stderr, "%s\n", message);
    std::exit(2);
  };
  if (flags.has("target-ci") && run.targetCi <= 0.0) {
    usage("flag --target-ci: must be > 0 (a relative CI95 half-width)");
  }
  if (flags.has("target-ci")) {
    config.targetRelativeCi95 = run.targetCi;
    config.targetMetric = run.targetMetric;
    if (spec.targetCi <= 0.0) {
      // Flags switched adaptive mode on: historical defaults -- the
      // replication count is the wave-0 floor, the cap at least 64.
      config.minReplications = config.replications;
      config.maxReplications = std::max(64, config.minReplications);
    }
  }
  if (config.targetRelativeCi95 > 0.0) {
    if (flags.has("min-reps")) {
      if (run.minReps < 1) usage("flag --min-reps: must be >= 1");
      config.minReplications = run.minReps;
    }
    if (flags.has("max-reps")) {
      if (run.maxReps < 1) usage("flag --max-reps: must be >= 1");
      config.maxReplications = run.maxReps;
    }
    if (flags.has("target-metric")) config.targetMetric = run.targetMetric;
    if (config.minReplications < 1) {
      usage("flag --repl: the adaptive floor must be >= 1 (or pass "
            "--min-reps)");
    }
    if (config.maxReplications < config.minReplications) {
      usage("flags --min-reps/--max-reps (or --repl as the floor): need "
            "min <= max replications");
    }
  } else if (flags.has("min-reps") || flags.has("max-reps") ||
             flags.has("target-metric")) {
    usage("flags --min-reps/--max-reps/--target-metric need "
          "--target-ci=X to enable adaptive replication");
  }
  return config;
}

/// Writes the spec's emit list into --csv=DIR (when given) and the shard
/// partial when --partial-out is given. Halted runs skip both: their
/// state lives in the checkpoint file. A failed artefact write exits
/// non-zero, same contract as maybeWritePartial.
inline void maybeWriteSpecArtifacts(const Flags& flags,
                                    const runner::CampaignSpec& spec,
                                    const runner::CampaignResult& result) {
  maybeWritePartial(flags, result);
  const std::string dir = flags.getString("csv", "");
  if (dir.empty() || result.halted) return;
  std::vector<std::string> written;
  const bool ok = runner::writeSpecArtifacts(spec, result, dir, written);
  for (const std::string& path : written) {
    std::cout << "wrote " << path << "\n";
  }
  if (!ok) std::exit(1);
}

}  // namespace vanet::bench
