#pragma once

/// \file registry.h
/// Scenario registry of the campaign engine. An experiment family
/// (urban loop, highway drive-thru, infostation file download, ...)
/// registers itself under a name together with the parameters it
/// understands; campaigns then refer to scenarios purely by name, and
/// every spec shares one parameter vocabulary per scenario.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "runner/params.h"
#include "trace/aggregate.h"

namespace vanet::runner {

/// One tunable a scenario accepts, with its default.
struct ParamSpec {
  std::string name;
  double defaultValue = 0.0;
  std::string help;
};

/// Everything one job needs: resolved parameters and a private seed.
struct JobContext {
  ParamSet params;
  std::uint64_t seed = 0;    ///< per-job stream; see Rng::deriveStreamSeed
  int replication = 0;       ///< 0-based replication index at this point
  std::size_t jobIndex = 0;  ///< global index in the campaign work-list
};

/// What one job returns. `table1`, `figures` and `totals` merge across
/// replications with the library's parallel-combining merges; `metrics`
/// are scalar outcomes (lexicographically ordered by name) that aggregate
/// into one RunningStats per metric at each grid point.
struct JobResult {
  trace::Table1Data table1;
  /// Per-flow Figure 3-8 series (empty for scenarios without figure
  /// traces); merged per grid point via FlowFigure::merge.
  std::map<FlowId, trace::FlowFigure> figures;
  analysis::ProtocolTotals totals;
  std::map<std::string, double> metrics;
  /// Simulated rounds in this job; 64-bit so the per-point sum cannot
  /// overflow on million-replication campaigns.
  std::int64_t rounds = 0;
};

using ScenarioFn = std::function<JobResult(const JobContext&)>;

/// Maps the shared "phy" parameter value (0=DSSS-1M 1=DSSS-2M 2=CCK-5.5M
/// 3=CCK-11M) to its PhyMode. The one place that defines the index
/// vocabulary — benches rendering mode names must use it too. Throws
/// std::invalid_argument when out of range.
channel::PhyMode phyModeFromParam(int index);

/// A registered scenario: name, documentation, accepted parameters, and
/// the factory that runs one job.
struct ScenarioInfo {
  std::string name;
  std::string description;
  std::vector<ParamSpec> params;
  ScenarioFn run;
  /// Metric an adaptive campaign targets when CampaignConfig leaves
  /// targetMetric empty ("pdr" for the built-in urban/highway scenarios,
  /// "completed_fraction" for highway_file). Empty means adaptive
  /// campaigns must name their metric explicitly.
  std::string defaultTargetMetric = {};
  /// Emit kinds (see runner/spec.h specEmitKinds()) a spec-driven run
  /// produces when its spec declares no `emit` list. The initializer is
  /// the sensible plug-in default -- summary CSV + JSON; scenarios with
  /// richer artefacts (per-point Table 1 CSVs, figure series) override.
  std::vector<std::string> defaultEmit = {"campaign_csv", "campaign_json"};
};

/// Name -> scenario map. The built-in scenarios ("urban", "highway",
/// "highway_file") are registered on first access of global(); user code
/// adds its own via ScenarioRegistrar or add().
class ScenarioRegistry {
 public:
  /// The process-wide registry, built-ins included.
  static ScenarioRegistry& global();

  /// Registers `info`; the name must be new and `info.run` non-null.
  void add(ScenarioInfo info);

  /// Looks `name` up; nullptr when unknown.
  const ScenarioInfo* find(const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> names() const;

  /// The defaults of `name` as a ParamSet. Throws std::invalid_argument
  /// naming the sorted registered scenarios when `name` is unknown -- a
  /// silent empty set here used to let a typo'd scenario plan a 0-param
  /// grid and run garbage.
  ParamSet defaults(const std::string& name) const;

 private:
  std::map<std::string, ScenarioInfo> scenarios_;
};

/// "urban, highway, ..." -- the sorted registered names of the global
/// registry as one comma-separated list, for unknown-scenario error
/// messages (buildPlan, ScenarioRegistry::defaults, resolvedEmits all
/// quote the same list).
std::string registeredScenarioList();

/// Human rendering of every registered scenario: name, description,
/// default target metric, default emit kinds, and each ParamSpec as
///   name = default  help
/// -- what `vanet_campaign list` prints.
std::string renderScenarioList();

/// Registers a scenario at static-initialisation time -- the plug-in
/// path: a new experiment family is one self-contained translation unit
///
///   #include "runner/registry.h"
///   namespace {
///   vanet::runner::JobResult runMine(const vanet::runner::JobContext& ctx) {
///     ...  // ctx.params, ctx.seed, ctx.replication
///   }
///   vanet::runner::ScenarioRegistrar registerMine{{
///       "mine",
///       "one-line description",
///       {{"rounds", 10, "simulated rounds"}, ...},  // ParamSpecs
///       runMine,
///       "pdr",                                // defaultTargetMetric
///       {"campaign_csv", "campaign_json"},    // defaultEmit
///   }};
///   }  // namespace
///
/// linked into the binary; campaigns and spec files then refer to it
/// purely by name. Note: inside a static library, self-registration only
/// fires when the translation unit is linked in (or force-linked); the
/// built-ins are therefore pulled in explicitly by
/// ScenarioRegistry::global().
struct ScenarioRegistrar {
  explicit ScenarioRegistrar(ScenarioInfo info);
};

namespace detail {
/// Defined in scenarios.cpp; called once by global().
void registerBuiltinScenarios(ScenarioRegistry& registry);
}  // namespace detail

}  // namespace vanet::runner
