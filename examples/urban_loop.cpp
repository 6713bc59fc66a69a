/// \file urban_loop.cpp
/// The full paper experiment as a configurable application: Table 1, the
/// per-flow reception figures, protocol activity counters, and optional
/// CSV export for external plotting.
///
///   $ ./urban_loop --rounds=30 --seed=2008 --cars=3
///       [--speed-kmh=20] [--no-coop] [--batched] [--csv=outdir]
///       [--figures] (print Figures 3-8 as well)

#include <iostream>

#include "analysis/csv.h"
#include "analysis/experiment.h"
#include "analysis/figures.h"
#include "analysis/table1.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace vanet;
  const Flags flags(argc, argv);
  flags.allowOnly({"rounds", "seed", "cars", "speed-kmh", "gap", "no-coop",
                   "batched", "figures", "csv", "log-level"});

  analysis::UrbanExperimentConfig config;
  config.rounds = flags.getInt("rounds", 30);
  config.seed = static_cast<std::uint64_t>(flags.getInt("seed", 2008));
  config.scenario.carCount = flags.getInt("cars", 3);
  config.scenario.baseSpeedMps = flags.getDouble("speed-kmh", 20.0) / 3.6;
  config.scenario.gapSeconds = flags.getDouble("gap", 4.0);
  config.carq.cooperationEnabled = !flags.getBool("no-coop", false);
  if (flags.getBool("batched", false)) {
    config.carq.requestMode = carq::RequestMode::kBatched;
  }

  std::cout << "urban loop: " << config.scenario.carCount << " cars, "
            << config.rounds << " rounds, "
            << config.scenario.baseSpeedMps * 3.6 << " km/h, cooperation "
            << (config.carq.cooperationEnabled ? "on" : "off") << "\n\n";

  analysis::UrbanExperiment experiment(config);
  const analysis::UrbanExperimentResult result = experiment.run();

  std::cout << analysis::renderTable1(result.table1) << "\n";
  std::cout << analysis::renderLossSummary(result.table1) << "\n";

  std::cout << "protocol activity per car-round (mean): "
            << result.totals.hellosPerRound.mean() << " HELLOs, "
            << result.totals.requestsPerRound.mean() << " REQUESTs, "
            << result.totals.coopDataPerRound.mean() << " CoopData ("
            << result.totals.suppressedPerRound.mean()
            << " suppressed), " << result.totals.bufferedPerRound.mean()
            << " packets buffered for others\n";
  const auto& medium = result.totals.medium;
  std::cout << "medium: " << medium.framesTransmitted << " frames tx, "
            << medium.framesDelivered << " delivered, "
            << medium.framesChannelError << " channel errors, "
            << medium.framesBelowSensitivity << " below sensitivity, "
            << medium.framesCollided << " collisions, "
            << medium.framesHalfDuplexMissed << " half-duplex misses\n";

  if (flags.getBool("figures", false)) {
    for (const auto& [flow, figure] : result.figures) {
      std::cout << "\n" << analysis::renderReceptionFigure(figure);
      std::cout << "\n" << analysis::renderCoopFigure(figure);
    }
  }

  const std::string dir = flags.getString("csv", "");
  if (!dir.empty()) {
    analysis::writeTable1Csv(dir + "/urban_table1.csv", result.table1);
    for (const auto& [flow, figure] : result.figures) {
      std::vector<std::string> headers;
      std::vector<std::vector<double>> columns;
      for (const auto& [car, acc] : figure.rxByCar) {
        headers.push_back("rx_car_" + std::to_string(car));
        columns.push_back(acc.means());
      }
      headers.push_back("after_coop");
      columns.push_back(figure.afterCoop.means());
      headers.push_back("joint");
      columns.push_back(figure.joint.means());
      analysis::writeSeriesCsv(
          dir + "/urban_flow" + std::to_string(flow) + ".csv", "packet",
          headers, columns);
    }
    std::cout << "\nCSV written to " << dir << "/\n";
  }
  return 0;
}
