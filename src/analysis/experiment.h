#pragma once

/// \file experiment.h
/// Experiment drivers, layered like the campaign pipeline in src/runner/:
///
///   build   round.h          pure per-round world construction
///                            (makeRound, channel/link assembly, nodes)
///   kernel  round.h          runUrbanRound / runHighwayRound: pure
///                            (config, scenario, roundIndex) -> outcome
///   fold    this file        UrbanExperiment / HighwayExperiment run
///                            the rounds serially and feed the outcomes,
///                            in round order, into the Table-1 / figure
///                            accumulators and protocol totals
///
/// Rounds are independent given the per-round Rng children; parallelism
/// lives one level up, in the campaign executor's (point, replication)
/// jobs (src/runner/executor.h).
///
/// UrbanExperiment reproduces the paper's testbed (30 laps of the
/// Figure-2 loop); HighwayExperiment runs the drive-thru / Infostation
/// studies (speed sweep, file download across multiple APs). Both are
/// deterministic in (config, seed).

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "channel/gilbert_elliott.h"
#include "channel/link_model.h"
#include "channel/shadowing.h"
#include "core/carq_agent.h"
#include "mac/radio_environment.h"
#include "mobility/highway.h"
#include "mobility/urban_loop.h"
#include "trace/aggregate.h"
#include "trace/round_trace.h"
#include "util/stats.h"

namespace vanet::analysis {

/// Channel composition shared by all experiments. Infra = AP->car links.
struct ChannelConfig {
  // Path loss. Infra reference loss includes the window/wall penetration
  // of the testbed's office-mounted AP.
  double infraPathLossExponent = 2.2;
  double infraReferenceLossDb = 71.8;
  double c2cPathLossExponent = 2.4;
  double c2cReferenceLossDb = 40.0;

  channel::ShadowingParams shadowing{
      /*infraSigmaDb=*/7.0, /*decorrelationMetres=*/28.0,
      /*gridStepMetres=*/3.0, /*c2cSigmaDb=*/2.0};

  /// Urban corner blocking: extra loss per metre off the covered street
  /// (see ObstructedShadowing); 0 disables. Applied by UrbanExperiment.
  double obstructionDbPerMetre = 1.4;
  double obstructionCapDb = 60.0;
  double streetHalfWidthMetres = 3.0;

  /// Rician K-factor for small-scale fading; 0 selects Rayleigh, negative
  /// disables fading entirely.
  double ricianK = 0.0;

  /// > 0 selects Nakagami-m fading instead (overrides ricianK); m = 1 is
  /// Rayleigh, m > 1 milder, 0.5 <= m < 1 harsher.
  double nakagamiM = 0.0;

  channel::LinkBudget budget{};

  /// Optional Gilbert-Elliott burst overlay on every link.
  std::optional<channel::GilbertElliottParams> burst;
};

/// Totals over protocol counters, averaged per car per round.
struct ProtocolTotals {
  RunningStats requestsPerRound;
  RunningStats requestSeqsPerRound;  ///< missing seqs enumerated in REQUESTs
  RunningStats coopDataPerRound;
  RunningStats suppressedPerRound;
  RunningStats hellosPerRound;
  RunningStats bufferedPerRound;
  mac::MediumStats medium;  ///< summed over rounds

  /// Merges totals of another run (parallel-combining form).
  void merge(const ProtocolTotals& other) noexcept {
    requestsPerRound.merge(other.requestsPerRound);
    requestSeqsPerRound.merge(other.requestSeqsPerRound);
    coopDataPerRound.merge(other.coopDataPerRound);
    suppressedPerRound.merge(other.suppressedPerRound);
    hellosPerRound.merge(other.hellosPerRound);
    bufferedPerRound.merge(other.bufferedPerRound);
    medium.merge(other.medium);
  }
};

// --------------------------------------------------------------- urban

/// Full configuration of the paper's experiment.
struct UrbanExperimentConfig {
  mobility::UrbanLoopConfig scenario{};
  carq::CarqConfig carq{};
  ChannelConfig channel{};
  double apTxPowerDbm = 18.0;
  double carTxPowerDbm = 18.0;
  double packetsPerSecondPerFlow = 5.0;  ///< paper: 5 x 1000 B per car
  int payloadBytes = 1000;
  int repeatCount = 1;  ///< AP blind retransmissions (ablation)
  int rounds = 30;      ///< paper: 30
  std::uint64_t seed = 42;
};

/// What one round kernel produces: the trace plus this round's protocol
/// deltas. A pure value: run() merges outcomes in round order. Not
/// default-constructible: a trace always belongs to a concrete platoon.
struct UrbanRoundOutcome {
  trace::RoundTrace trace;
  ProtocolTotals totals;  ///< this round's counter samples only
};

/// Aggregated outcome of an urban experiment.
struct UrbanExperimentResult {
  trace::Table1Data table1;
  std::map<FlowId, trace::FlowFigure> figures;
  ProtocolTotals totals;
  int rounds = 0;
};

/// Drives `rounds` laps and aggregates the paper's outputs (fold layer).
class UrbanExperiment {
 public:
  explicit UrbanExperiment(UrbanExperimentConfig config);

  /// Runs every round in order and aggregates. Deterministic in
  /// (config, seed).
  UrbanExperimentResult run();

  /// The round kernel: runs one round and returns its outcome. Pure in
  /// (config, roundIndex) -- owns no experiment-wide mutable state.
  UrbanRoundOutcome runRound(int roundIndex) const;

  const mobility::UrbanLoopScenario& scenario() const noexcept {
    return scenario_;
  }

 private:
  UrbanExperimentConfig config_;
  mobility::UrbanLoopScenario scenario_;
};

// -------------------------------------------------------------- highway

/// Channel defaults for roadside infostation masts: no building
/// penetration (the urban default's ~72 dB reference loss models the
/// testbed's window-mounted indoor AP), a higher exponent from ground
/// clutter, and no street-corner obstruction.
ChannelConfig highwayChannelDefaults();

/// Configuration for drive-thru / Infostation experiments.
struct HighwayExperimentConfig {
  mobility::HighwayConfig scenario{};
  carq::CarqConfig carq{};  ///< set carq.fileSizeSeqs for download studies
  ChannelConfig channel = highwayChannelDefaults();
  double apTxPowerDbm = 18.0;
  double carTxPowerDbm = 18.0;
  double packetsPerSecondPerFlow = 5.0;
  int payloadBytes = 1000;
  int rounds = 10;
  std::uint64_t seed = 42;
};

/// Per-car outcome of the highway studies.
struct HighwayCarResult {
  NodeId car = 0;
  RunningStats apVisitsToComplete;  ///< file mode; counts only completions
  RunningStats timeToCompleteSeconds;
  int completedRounds = 0;
};

/// One car's raw file-download record of a single highway round.
struct HighwayCarRound {
  NodeId car = 0;
  int visitsAtComplete = -1;  ///< -1: the file did not complete this round
  double completeAtSeconds = 0.0;
};

/// What one highway round kernel produces.
struct HighwayRoundOutcome {
  trace::RoundTrace trace;
  ProtocolTotals totals;  ///< this round's counter samples only
  std::vector<HighwayCarRound> cars;  ///< ascending car id
};

struct HighwayExperimentResult {
  trace::Table1Data table1;  ///< per-pass loss stats (single-AP sweeps)
  std::map<NodeId, HighwayCarResult> cars;
  ProtocolTotals totals;
  int rounds = 0;
};

/// Drives the highway scenario `rounds` times (fold layer).
class HighwayExperiment {
 public:
  explicit HighwayExperiment(HighwayExperimentConfig config);

  /// Runs every round in order; deterministic in (config, seed).
  HighwayExperimentResult run();

  /// The round kernel: pure in (config, roundIndex).
  HighwayRoundOutcome runRound(int roundIndex) const;

  const mobility::HighwayScenario& scenario() const noexcept {
    return scenario_;
  }

 private:
  HighwayExperimentConfig config_;
  mobility::HighwayScenario scenario_;
};

}  // namespace vanet::analysis
