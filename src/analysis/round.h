#pragma once

/// \file round.h
/// The *build* and *kernel* layers of the experiment pipeline (the fold
/// layer lives in experiment.h):
///
///   build   UrbanRoundWorld / HighwayRoundWorld assemble one round's
///           entire world -- mobility round, channel, simulator, radio
///           environment, infostation(s), car nodes, C-ARQ agents and
///           the trace they record into -- as a pure function of
///           (config, scenario, roundIndex). A world owns every object
///           it wires; nothing reaches outside it, so concurrent worlds
///           never share mutable state.
///   kernel  runUrbanRound / runHighwayRound build a world, simulate it
///           to the round end, and return the outcome value
///           (experiment.h's *RoundOutcome). Pure: same arguments, same
///           bytes, whichever thread runs them.
///
/// The per-round RNG tree is rooted at
/// Rng{config.seed}.child("<scenario>-run").child(roundIndex), so a
/// round's stream does not depend on which rounds ran before it.

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "analysis/experiment.h"
#include "net/infostation.h"
#include "net/node.h"

namespace vanet::analysis {

/// Builds the composite link model for a given road and channel config.
/// `obstruction` (optional) is applied to infra links.
std::unique_ptr<channel::CompositeLinkModel> buildLinkModel(
    const geom::Polyline& road, const ChannelConfig& config, Rng rng,
    std::function<double(geom::Vec2)> obstruction = nullptr);

// ----------------------------------------------------------------- urban

/// One fully-assembled urban round. Non-movable: nodes, agents and hooks
/// hold pointers into the world. `scenario` must outlive the world;
/// `config` is copied.
class UrbanRoundWorld {
 public:
  UrbanRoundWorld(const UrbanExperimentConfig& config,
                  const mobility::UrbanLoopScenario& scenario, int roundIndex);
  UrbanRoundWorld(const UrbanRoundWorld&) = delete;
  UrbanRoundWorld& operator=(const UrbanRoundWorld&) = delete;

  /// Starts the AP flows and the agents, then simulates to the round end.
  void simulate();

  /// Collects the round's trace and counter deltas. Call once, after
  /// simulate(); the trace is moved out.
  UrbanRoundOutcome takeOutcome();

  sim::Simulator& simulator() noexcept { return sim_; }

 private:
  UrbanExperimentConfig config_;
  Rng roundRng_;
  mobility::UrbanRound round_;
  std::unique_ptr<channel::CompositeLinkModel> link_;
  sim::Simulator sim_;
  mac::RadioEnvironment environment_;
  mobility::StaticMobility apMobility_;
  net::Node apNode_;
  std::vector<NodeId> carIds_;
  trace::RoundTrace trace_;
  std::unique_ptr<net::InfostationServer> infostation_;
  std::vector<std::unique_ptr<net::Node>> carNodes_;
  std::vector<std::unique_ptr<carq::CarqAgent>> agents_;
};

/// The urban round kernel: (config, scenario, roundIndex) -> outcome.
UrbanRoundOutcome runUrbanRound(const UrbanExperimentConfig& config,
                                const mobility::UrbanLoopScenario& scenario,
                                int roundIndex);

// --------------------------------------------------------------- highway

/// One fully-assembled highway round (multiple infostations along the
/// road, per-car file-download progress tracking). Non-movable; see
/// UrbanRoundWorld.
class HighwayRoundWorld {
 public:
  HighwayRoundWorld(const HighwayExperimentConfig& config,
                    const mobility::HighwayScenario& scenario, int roundIndex);
  HighwayRoundWorld(const HighwayRoundWorld&) = delete;
  HighwayRoundWorld& operator=(const HighwayRoundWorld&) = delete;

  void simulate();
  HighwayRoundOutcome takeOutcome();

  sim::Simulator& simulator() noexcept { return sim_; }

 private:
  /// A car's within-round download progress, filled in by agent hooks.
  struct CarProgress {
    std::set<NodeId> apsContacted;
    int visitsAtComplete = -1;
    sim::SimTime completeAt{};
  };

  HighwayExperimentConfig config_;
  Rng roundRng_;
  mobility::HighwayRound round_;
  std::unique_ptr<channel::CompositeLinkModel> link_;
  sim::Simulator sim_;
  mac::RadioEnvironment environment_;
  std::vector<NodeId> carIds_;
  trace::RoundTrace trace_;
  std::vector<std::unique_ptr<mobility::StaticMobility>> apMobilities_;
  std::vector<std::unique_ptr<net::Node>> apNodes_;
  std::vector<std::unique_ptr<net::InfostationServer>> infostations_;
  std::map<NodeId, CarProgress> progress_;
  std::vector<std::unique_ptr<net::Node>> carNodes_;
  std::vector<std::unique_ptr<carq::CarqAgent>> agents_;
};

/// The highway round kernel: (config, scenario, roundIndex) -> outcome.
HighwayRoundOutcome runHighwayRound(const HighwayExperimentConfig& config,
                                    const mobility::HighwayScenario& scenario,
                                    int roundIndex);

}  // namespace vanet::analysis
