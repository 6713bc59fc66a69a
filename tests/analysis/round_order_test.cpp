/// \file round_order_test.cpp
/// Round-order contract of the experiment fold layer: run() must be
/// byte-identical to the explicit round-by-round serial reference built
/// from the pure round kernel, for the urban and the highway experiment.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "analysis/experiment.h"
#include "analysis/serialize.h"
#include "trace/serialize.h"

namespace vanet::analysis {
namespace {

/// Serial reference: the exact fold run() performs, round by round.
struct UrbanReference {
  trace::Table1Data table1;
  std::map<FlowId, trace::FlowFigure> figures;
  ProtocolTotals totals;
};

UrbanReference urbanSerialReference(const UrbanExperiment& experiment,
                                    int rounds) {
  trace::Table1Accumulator table1;
  trace::FigureAccumulator figures;
  UrbanReference reference;
  for (int round = 0; round < rounds; ++round) {
    UrbanRoundOutcome outcome = experiment.runRound(round);
    table1.addRound(outcome.trace);
    figures.addRound(outcome.trace);
    reference.totals.merge(outcome.totals);
  }
  reference.table1 = table1.data();
  reference.figures = figures.flows();
  return reference;
}

struct HighwayReference {
  trace::Table1Data table1;
  std::map<NodeId, HighwayCarResult> cars;
  ProtocolTotals totals;
};

HighwayReference highwaySerialReference(const HighwayExperiment& experiment,
                                        int rounds) {
  trace::Table1Accumulator table1;
  HighwayReference reference;
  for (int round = 0; round < rounds; ++round) {
    HighwayRoundOutcome outcome = experiment.runRound(round);
    table1.addRound(outcome.trace);
    for (const HighwayCarRound& record : outcome.cars) {
      HighwayCarResult& car = reference.cars[record.car];
      car.car = record.car;
      if (record.visitsAtComplete >= 0) {
        ++car.completedRounds;
        car.apVisitsToComplete.add(record.visitsAtComplete);
        car.timeToCompleteSeconds.add(record.completeAtSeconds);
      }
    }
    reference.totals.merge(outcome.totals);
  }
  reference.table1 = table1.data();
  return reference;
}

std::string figuresJson(const std::map<FlowId, trace::FlowFigure>& figures) {
  std::string out;
  for (const auto& [flow, figure] : figures) {
    out += trace::flowFigureToJson(figure);
    out += "\n";
  }
  return out;
}

TEST(RoundOrderTest, UrbanRunMatchesSerialReference) {
  UrbanExperimentConfig config;
  config.rounds = 4;
  config.seed = 7;
  UrbanExperiment experiment(config);
  const UrbanReference reference =
      urbanSerialReference(experiment, config.rounds);
  const UrbanExperimentResult result = experiment.run();

  EXPECT_EQ(result.rounds, config.rounds);
  EXPECT_EQ(trace::table1ToJson(result.table1),
            trace::table1ToJson(reference.table1));
  EXPECT_EQ(figuresJson(result.figures), figuresJson(reference.figures));
  EXPECT_EQ(protocolTotalsToJson(result.totals),
            protocolTotalsToJson(reference.totals));
}

TEST(RoundOrderTest, HighwayRunMatchesSerialReference) {
  HighwayExperimentConfig config;
  config.scenario.apCount = 2;
  config.scenario.roadLengthMetres = 2000.0;
  config.scenario.firstApArc = 600.0;
  config.carq.fileSizeSeqs = 60;
  config.rounds = 3;
  config.seed = 5;
  HighwayExperiment experiment(config);
  const HighwayReference reference =
      highwaySerialReference(experiment, config.rounds);
  const HighwayExperimentResult result = experiment.run();

  EXPECT_EQ(result.rounds, config.rounds);
  EXPECT_EQ(trace::table1ToJson(result.table1),
            trace::table1ToJson(reference.table1));
  EXPECT_EQ(protocolTotalsToJson(result.totals),
            protocolTotalsToJson(reference.totals));
  ASSERT_EQ(result.cars.size(), reference.cars.size());
  for (const auto& [car, expected] : reference.cars) {
    const HighwayCarResult& actual = result.cars.at(car);
    EXPECT_EQ(actual.car, expected.car);
    EXPECT_EQ(actual.completedRounds, expected.completedRounds);
    EXPECT_EQ(trace::runningStatsToJson(actual.apVisitsToComplete),
              trace::runningStatsToJson(expected.apVisitsToComplete));
    EXPECT_EQ(trace::runningStatsToJson(actual.timeToCompleteSeconds),
              trace::runningStatsToJson(expected.timeToCompleteSeconds));
  }
}

}  // namespace
}  // namespace vanet::analysis
