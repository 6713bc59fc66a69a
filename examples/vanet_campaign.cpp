/// \file vanet_campaign.cpp
/// The spec-driven campaign CLI: one binary runs any study described by
/// a `vanet-campaign-spec` v1 file (see runner/spec.h), so shipping an
/// experiment to N machines means shipping one JSON document -- not a
/// bespoke binary with a flag matrix.
///
///   vanet_campaign run spec.json [--csv=DIR] [engine flags]
///       Runs the spec. The experiment definition (scenario, cases,
///       grid, seed, replication policy, emit list) lives entirely in
///       the spec; the flags steer only the engine:
///         --threads=N --shard=i/N
///         --checkpoint=F --resume --halt-after-waves=K
///         --partial-out=F
///         --progress --log-level=L
///       With --csv=DIR the spec's emit list is written into DIR
///       (created with its parents before the campaign starts), every
///       artefact with a manifest sidecar recording the spec path and
///       the digest of its normalized rendering. After the campaign
///       summary, the console shows the views the emit kinds name:
///       Table 1 and its loss summary per grid point for `table1_csv`,
///       the reception and C-ARQ figures per (point, flow) for
///       `figures` -- so `run specs/table1.json` prints Table 1 and
///       Figures 3-8 from one campaign.
///
///   vanet_campaign print spec.json
///       Parses, validates and re-renders the spec in normalized form
///       on stdout. print is a fixed point: printing a printed spec is
///       byte-identical.
///
///   vanet_campaign list
///       Every registered scenario with its parameters, defaults, and
///       default emit kinds.

#include <cstdio>
#include <iostream>

#include "obs/manifest.h"
#include "runner/campaign.h"
#include "runner/emit.h"
#include "runner/registry.h"
#include "runner/spec.h"
#include "util/file.h"
#include "util/flags.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: vanet_campaign run <spec.json> [--csv=DIR] "
               "[engine flags]\n"
               "       vanet_campaign print <spec.json>\n"
               "       vanet_campaign list\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vanet;
  obs::setRunIdentity(argc, argv);
  const Flags flags(argc, argv);
  if (flags.positional().empty()) return usage();
  const std::string& verb = flags.positional()[0];

  if (verb == "list") {
    flags.allowOnly({"log-level"});
    std::cout << runner::renderScenarioList();
    return 0;
  }

  if (flags.positional().size() != 2) return usage();
  const std::string& specPath = flags.positional()[1];

  if (verb == "print") {
    flags.allowOnly({"log-level"});
    try {
      std::cout << runner::renderCampaignSpec(
          runner::loadCampaignSpec(specPath));
    } catch (const std::exception& error) {
      std::cerr << "error: " << error.what() << "\n";
      return 1;
    }
    return 0;
  }

  if (verb != "run") return usage();
  // Engine knobs only: the experiment definition is the spec's. No
  // --seed / --rounds / --target-ci here by design -- edit the spec.
  std::vector<std::string> known = campaignFlagNames();
  known.push_back("csv");
  flags.allowOnly(known);

  runner::CampaignSpec spec;
  try {
    spec = runner::loadCampaignSpec(specPath);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  obs::setRunSpec(specPath, runner::campaignSpecDigest(spec));

  // Create the artefact directory up front: a bad --csv must fail before
  // the campaign spends its time, not after.
  std::string csvDir = flags.getString("csv", "");
  if (!csvDir.empty()) {
    try {
      csvDir = util::prepareOutputDir(csvDir);
    } catch (const std::exception& error) {
      std::cerr << "error: " << error.what() << "\n";
      return 1;
    }
  }

  const CampaignRunFlags run = campaignRunFlags(flags);
  runner::CampaignConfig config = runner::campaignConfigFromSpec(spec);
  runner::applyEngineFlags(run, config);

  if (!spec.title.empty()) {
    std::cout << spec.title << "\n";
    if (!spec.paperRef.empty()) std::cout << spec.paperRef << "\n";
    std::cout << "\n";
  }

  runner::CampaignResult result;
  try {
    result = runner::runCampaign(config);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  if (result.halted) {
    std::cout << "halted at a wave barrier after " << result.waves
              << " wave(s); the checkpoint file holds the fold state\n";
    return 0;
  }
  std::cout << runner::renderCampaignSummary(result, config.grid);
  std::cout << runner::renderEmitViews(spec, result);

  if (!run.partialOut.empty()) {
    if (!runner::writeCampaignPartial(run.partialOut,
                                      runner::campaignPartial(result))) {
      return 1;
    }
    std::cout << "wrote " << run.partialOut << "\n";
  }

  if (!csvDir.empty()) {
    std::vector<std::string> written;
    bool ok = false;
    try {
      ok = runner::writeSpecArtifacts(spec, result, csvDir, written);
    } catch (const std::exception& error) {
      std::cerr << "error: " << error.what() << "\n";
      return 1;
    }
    for (const std::string& path : written) {
      std::cout << "wrote " << path << "\n";
    }
    if (!ok) return 1;
  }
  return 0;
}
