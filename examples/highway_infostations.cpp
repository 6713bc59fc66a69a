/// \file highway_infostations.cpp
/// Delay-tolerant file download on a highway dotted with Infostations
/// (the paper's deployment model, §1/§2): each car in the platoon must
/// collect an F-packet file that every AP cycles continuously. Between
/// APs the platoon repairs its gaps with Cooperative ARQ. The app prints
/// per-car progress and the with/without-cooperation comparison the
/// paper's §6 asks about (AP visits needed to finish a download).
///
///   $ ./highway_infostations [--file=220] [--aps=8] [--spacing=700]
///       [--speed-kmh=50] [--cars=3] [--rounds=5] [--seed=7]

#include <iomanip>
#include <iostream>

#include "analysis/experiment.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace vanet;
  const Flags flags(argc, argv);
  flags.allowOnly({"file", "rounds", "aps", "spacing", "cars", "speed-kmh",
                   "seed", "log-level"});

  const SeqNo fileSize = static_cast<SeqNo>(flags.getInt("file", 220));
  const int rounds = flags.getInt("rounds", 5);

  std::cout << "Infostation highway: " << flags.getInt("aps", 8)
            << " APs every " << flags.getDouble("spacing", 700.0)
            << " m, file of " << fileSize << " packets per car, "
            << flags.getInt("cars", 3) << "-car platoon at "
            << flags.getDouble("speed-kmh", 50.0) << " km/h\n\n";

  for (const bool coop : {true, false}) {
    analysis::HighwayExperimentConfig config;
    config.rounds = rounds;
    config.seed = static_cast<std::uint64_t>(flags.getInt("seed", 7));
    config.scenario.carCount = flags.getInt("cars", 3);
    config.scenario.apCount = flags.getInt("aps", 8);
    config.scenario.apSpacing = flags.getDouble("spacing", 700.0);
    config.scenario.roadLengthMetres =
        config.scenario.firstApArc +
        config.scenario.apSpacing * (config.scenario.apCount - 1) + 500.0;
    config.scenario.speedMps = flags.getDouble("speed-kmh", 50.0) / 3.6;
    config.carq.fileSizeSeqs = fileSize;
    config.carq.cooperationEnabled = coop;

    analysis::HighwayExperiment experiment(config);
    const analysis::HighwayExperimentResult result = experiment.run();

    std::cout << "--- cooperation " << (coop ? "ON" : "OFF") << " ---\n";
    std::cout << std::left << std::setw(8) << "car" << std::right
              << std::setw(14) << "completed" << std::setw(14) << "AP visits"
              << std::setw(16) << "time (s)" << "\n";
    for (const auto& [car, carResult] : result.cars) {
      std::cout << std::left << std::setw(8) << car << std::right
                << std::fixed << std::setprecision(1) << std::setw(10)
                << carResult.completedRounds << "/" << std::left
                << std::setw(3) << rounds << std::right << std::setw(14)
                << (carResult.completedRounds > 0
                        ? carResult.apVisitsToComplete.mean()
                        : 0.0)
                << std::setw(16)
                << (carResult.completedRounds > 0
                        ? carResult.timeToCompleteSeconds.mean()
                        : 0.0)
                << "\n";
    }
    std::cout << "\n";
  }
  std::cout << "Cooperation lets the platoon leave each AP with the union of"
               " everyone's\nreceptions, so downloads finish visits earlier"
               " than radio luck alone allows.\n";
  return 0;
}
