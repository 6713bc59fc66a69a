#include "analysis/experiment.h"

#include "analysis/round.h"
#include "obs/counters.h"

namespace vanet::analysis {

// ----------------------------------------------------------------- urban

UrbanExperiment::UrbanExperiment(UrbanExperimentConfig config)
    : config_(config), scenario_(config.scenario, config.seed) {}

UrbanRoundOutcome UrbanExperiment::runRound(int roundIndex) const {
  return runUrbanRound(config_, scenario_, roundIndex);
}

UrbanExperimentResult UrbanExperiment::run() {
  UrbanExperimentResult result;
  trace::Table1Accumulator table1;
  trace::FigureAccumulator figures;
  for (int round = 0; round < config_.rounds; ++round) {
    const UrbanRoundOutcome outcome = runRound(round);
    OBS_SCOPED_TIMER("round.fold");
    table1.addRound(outcome.trace);
    figures.addRound(outcome.trace);
    result.totals.merge(outcome.totals);
  }
  result.table1 = table1.data();
  result.figures = figures.flows();
  result.rounds = config_.rounds;
  return result;
}

// --------------------------------------------------------------- highway

ChannelConfig highwayChannelDefaults() {
  ChannelConfig config;
  config.infraReferenceLossDb = 52.0;  // mast + cabling, no wall
  config.infraPathLossExponent = 2.6;  // ground clutter
  config.obstructionDbPerMetre = 0.0;  // open road
  return config;
}

HighwayExperiment::HighwayExperiment(HighwayExperimentConfig config)
    : config_(config), scenario_(config.scenario, config.seed) {}

HighwayRoundOutcome HighwayExperiment::runRound(int roundIndex) const {
  return runHighwayRound(config_, scenario_, roundIndex);
}

HighwayExperimentResult HighwayExperiment::run() {
  HighwayExperimentResult result;
  trace::Table1Accumulator table1;
  for (int round = 0; round < config_.rounds; ++round) {
    const HighwayRoundOutcome outcome = runRound(round);
    OBS_SCOPED_TIMER("round.fold");
    table1.addRound(outcome.trace);
    for (const HighwayCarRound& record : outcome.cars) {
      HighwayCarResult& carResult = result.cars[record.car];
      carResult.car = record.car;
      if (record.visitsAtComplete >= 0) {
        ++carResult.completedRounds;
        carResult.apVisitsToComplete.add(record.visitsAtComplete);
        carResult.timeToCompleteSeconds.add(record.completeAtSeconds);
      }
    }
    result.totals.merge(outcome.totals);
  }
  result.table1 = table1.data();
  result.rounds = config_.rounds;
  return result;
}

}  // namespace vanet::analysis
