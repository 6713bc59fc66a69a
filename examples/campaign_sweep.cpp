/// \file campaign_sweep.cpp
/// Campaign-engine walkthrough: declare a sweep grid over the highway
/// drive-thru scenario (speed x cooperation), run it on all cores, and
/// emit the merged results as console summary, CSV and JSON.
///
///   $ ./example_campaign_sweep [--repl=4] [--threads=0] [--seed=2008]
///       [--out=DIR] (write DIR/campaign.csv and DIR/campaign.json)
///       [--shard=i/N] [--partial-out=FILE] [--streaming]
///
/// With --shard/--partial-out this runs one slice of the grid and writes
/// a partial-result file for example_campaign_merge -- the two-process
/// merged output is byte-identical to the single-process run.
///
/// Scenarios are looked up by name in the global registry; run with
/// --list to see every registered scenario and its parameters.

#include <iostream>

#include "obs/manifest.h"
#include "runner/campaign.h"
#include "runner/emit.h"
#include "runner/registry.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace vanet;
  obs::setRunIdentity(argc, argv);
  const Flags flags(argc, argv);
  {
    std::vector<std::string> names = campaignFlagNames();
    names.insert(names.end(), {"list", "scenario", "repl", "rounds", "out"});
    flags.allowOnly(names);
  }

  if (flags.getBool("list", false)) {
    std::cout << runner::renderScenarioList();
    return 0;
  }

  const CampaignRunFlags run = campaignRunFlags(flags);
  runner::CampaignConfig campaign;
  campaign.scenario = flags.getString("scenario", "highway");
  campaign.masterSeed = run.seed;
  campaign.replications = flags.getInt("repl", 4);
  campaign.threads = run.threads;
  campaign.shard = runner::Shard{run.shard.index, run.shard.count};
  campaign.streaming = run.streaming;
  campaign.progress = run.progress;
  campaign.checkpointPath = run.checkpoint;
  campaign.resume = run.resume;
  campaign.haltAfterWaves = run.haltAfterWaves;
  campaign.base.set("rounds", flags.getInt("rounds", 3));
  campaign.base.set("aps", 1);
  campaign.base.set("road_length", 2400.0);
  campaign.base.set("first_ap_arc", 1200.0);
  campaign.grid.add("speed_kmh", {40.0, 60.0, 80.0, 100.0})
      .add("coop", {0.0, 1.0});

  std::cout << "sweeping " << campaign.scenario << " over "
            << campaign.grid.pointCount() << " grid points x "
            << campaign.replications << " replications...\n\n";
  runner::CampaignResult result;
  try {
    result = runner::runCampaign(campaign);
  } catch (const std::invalid_argument& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  if (result.halted) {
    std::cout << "halted at a wave barrier after " << result.waves
              << " wave(s); the checkpoint file holds the fold state\n";
    return 0;
  }
  std::cout << runner::renderCampaignSummary(result, campaign.grid);

  if (!run.partialOut.empty()) {
    const runner::PartialFormat format =
        run.partialFormat == "bin"    ? runner::PartialFormat::kBinary
        : run.partialFormat == "json" ? runner::PartialFormat::kJson
                                      : runner::PartialFormat::kAuto;
    // A failed partial write must fail the process: the merge step would
    // otherwise happily pick up a stale file from an earlier run.
    if (!runner::writeCampaignPartial(run.partialOut,
                                      runner::campaignPartial(result),
                                      format)) {
      return 1;
    }
    std::cout << "wrote " << run.partialOut << "\n";
  }

  const std::string dir = flags.getString("out", "");
  if (!dir.empty()) {
    const std::string csvPath = dir + "/campaign.csv";
    const std::string jsonPath = dir + "/campaign.json";
    if (runner::writeCampaignCsv(csvPath, result)) {
      std::cout << "wrote " << csvPath << "\n";
    }
    if (runner::writeCampaignJson(jsonPath, result)) {
      std::cout << "wrote " << jsonPath << "\n";
    }
  }
  return 0;
}
