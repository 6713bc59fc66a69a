#pragma once

/// \file spec.h
/// Declarative campaign specs: the `vanet-campaign-spec` v1 JSON document
/// that captures everything a study *is* — scenario, base parameters,
/// named cases, sweep grid, replication policy (fixed count or adaptive
/// CI95-targeted), master seed, and the artefacts to emit — so an
/// experiment ships as one diffable file instead of a bespoke binary
/// with a flag matrix. Engine knobs (threads, sharding, streaming,
/// checkpoints) deliberately stay command-line flags: the spec defines
/// *what* to run, the invocation decides *how*.
///
/// The document round-trips byte-exactly: renderCampaignSpec() is the
/// one normalized rendering (fixed key order, json::num numbers, every
/// optional field materialized), parseCampaignSpec() validates field by
/// field naming the offending key and the expected type, and
/// parse(render(spec)) == spec, render(parse(text)) is a fixed point.
/// The FNV-1a-64 digest of the normalized rendering is the spec's
/// identity; every artefact manifest records it (obs::setRunSpec).
///
/// Schema (top-level keys, all materialized by the normalized form):
///   format        "vanet-campaign-spec" (required)
///   version       1 (required)
///   name          artefact base name (required, non-empty)
///   title         console headline (optional, default "")
///   paper_ref     provenance line printed under the title (optional)
///   scenario      registered scenario name (required, non-empty; the
///                 registry is consulted at plan time, not parse time,
///                 so specs for plug-in scenarios parse everywhere)
///   seed          master seed, unsigned 64-bit (optional, default 2008)
///   replications  fixed replications per grid point (optional, >= 1,
///                 default 1; the adaptive floor/cap win when `adaptive`
///                 is set)
///   base          {param: number, ...} applied over scenario defaults
///   cases         [{"name": ..., "overrides": {param: number}}, ...]
///   grid          [{"axis": ..., "values": [numbers]}, ...] cartesian
///   adaptive      null, or {"target_ci": > 0, "min_replications",
///                 "max_replications", "metric"} (metric "" = scenario
///                 default)
///   emit          [{"kind": ..., "name": ...}, ...]; empty list = the
///                 scenario's ScenarioInfo::defaultEmit kinds named
///                 after the spec

#include <cstdint>
#include <string>
#include <vector>

#include "runner/campaign.h"
#include "runner/plan.h"
#include "util/flags.h"

namespace vanet::runner {

inline constexpr int kCampaignSpecVersion = 1;
inline constexpr const char* kCampaignSpecFormat = "vanet-campaign-spec";

/// One artefact of the spec's emit list. Kinds:
///   campaign_csv   <dir>/<name>_campaign.csv   (runner::writeCampaignCsv)
///   campaign_json  <dir>/<name>_campaign.json  (runner::writeCampaignJson)
///   table1_csv     <dir>/<name>.csv per grid point (_p<G> suffix when
///                  the campaign has more than one point)
///   figures        one CSV per (grid point, flow)
///                  (runner::writeCampaignFigureCsvs under <name>)
struct SpecEmit {
  std::string kind;
  std::string name;

  friend bool operator==(const SpecEmit& a, const SpecEmit& b) {
    return a.kind == b.kind && a.name == b.name;
  }
};

/// The emit kinds parseCampaignSpec accepts, sorted.
const std::vector<std::string>& specEmitKinds();

/// A parsed `vanet-campaign-spec` document. Optional fields hold their
/// defaults after parsing, so rendering is a pure function of this
/// struct and the normalized form is unique.
struct CampaignSpec {
  std::string name;
  std::string title;
  std::string paperRef;
  std::string scenario;
  std::uint64_t seed = 2008;
  int replications = 1;
  ParamSet base;
  std::vector<CampaignCase> cases;
  SweepGrid grid;
  /// Adaptive replication policy; targetCi <= 0 means a fixed count and
  /// the other three fields are ignored (and render as null).
  double targetCi = 0.0;
  int minReplications = 2;
  int maxReplications = 64;
  std::string targetMetric;
  /// Emit list; empty = the scenario's defaultEmit kinds named `name`.
  std::vector<SpecEmit> emits;
};

/// Parses and validates one spec document. Throws std::runtime_error
/// whose message names the offending key and the expected type
/// ('campaign spec: key "seed": expected an unsigned integer, got
/// string'); unknown keys are rejected with a nearest-name hint.
CampaignSpec parseCampaignSpec(const std::string& text);

/// parseCampaignSpec over a file; errors are prefixed with `path`.
CampaignSpec loadCampaignSpec(const std::string& path);

/// The unique normalized rendering (see the schema above). Byte-exact
/// round trip: parse(render(s)) == s and render(parse(t)) is a fixed
/// point of render ∘ parse.
std::string renderCampaignSpec(const CampaignSpec& spec);

/// FNV-1a-64 of renderCampaignSpec(spec) — the spec's identity, recorded
/// as `spec_digest` in every artefact manifest of a spec-driven run.
std::uint64_t campaignSpecDigest(const CampaignSpec& spec);

/// The experiment half of a CampaignConfig: scenario, seed, replication
/// policy, base params, cases and grid. Engine knobs (threads, shard,
/// streaming, checkpoint, progress) keep their defaults — apply them
/// from flags with applyEngineFlags().
CampaignConfig campaignConfigFromSpec(const CampaignSpec& spec);

/// The engine half: copies the shared run flags (threads, shard,
/// streaming, progress, checkpoint/resume, halt-after-waves) onto
/// `config` without touching the experiment definition. Seed and the
/// adaptive policy are deliberately *not* applied — they belong to the
/// spec.
void applyEngineFlags(const CampaignRunFlags& run, CampaignConfig& config);

/// The spec's emit list, or — when the spec declares none — the
/// scenario's ScenarioInfo::defaultEmit kinds named after the spec.
/// Throws std::invalid_argument when the list is empty *and* the
/// scenario is unknown to the registry.
std::vector<SpecEmit> resolvedEmits(const CampaignSpec& spec);

/// Executes the resolved emit list into `dir` (no trailing slash).
/// Every path successfully written is appended to `written`; returns
/// false as soon as one artefact fails to write (the failure is logged
/// by the emitter).
bool writeSpecArtifacts(const CampaignSpec& spec, const CampaignResult& result,
                        const std::string& dir,
                        std::vector<std::string>& written);

}  // namespace vanet::runner
