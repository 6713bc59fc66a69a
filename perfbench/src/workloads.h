#pragma once

/// \file workloads.h
/// The benchmark's workloads, driven only through libvanet's public
/// campaign API:
///
///   drive_thru        the two committed highway specs
///   sharded_adaptive  a generated 120-point adaptive urban sweep, run as
///                     four shards that write binary partials, merged
///                     with resultFromPartialFiles and emitted
///
/// One iteration of a workload goes from spec load to the last artefact
/// written. The workload seed replaces every spec's `seed`; nothing else
/// about the specs changes.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "runner/spec.h"
#include "util/binio.h"
#include "spans.h"

namespace perfbench {

/// The seed the committed specs carry, and the one expected.json's
/// digests and counts are recorded for.
inline constexpr std::uint64_t kDefaultSeed = 2008;

const std::vector<std::string>& workloadNames();

/// One campaign of a workload: its spec (seed replaced), the config
/// built from it, and how many shard processes it is split into.
struct Study {
  vanet::runner::CampaignSpec spec;
  vanet::runner::CampaignConfig config;
  int shards = 1;
};

/// The generated `sharded_adaptive` spec document: cases coop 0/1 x
/// cars {1..4} x speed_kmh {10..50} x c2c_exponent {2.0, 2.4, 2.8},
/// rounds = 1, adaptive on pdr (target_ci 0.02, 2..16 replications).
std::string shardedAdaptiveSpecText();

/// Where a traced iteration records its spans; a null log means an
/// untraced iteration (built-in scenarios, no spans).
struct Trace {
  SpanLog* log = nullptr;
  int parent = -1;
};

/// Loads or generates and parses every spec of `workload` (committed
/// specs are read from `<root>/specs`), puts `seed` in place of each
/// spec's seed and builds each config with `threads` workers. This is
/// all the set-up a workload needs before its first runCampaign.
/// Throws std::invalid_argument for an unknown workload and whatever
/// loadCampaignSpec / parseCampaignSpec throw for a bad spec.
std::vector<Study> loadStudies(const std::string& workload,
                               const std::string& root, std::uint64_t seed,
                               int threads, Trace trace = {});

/// What one iteration emitted.
struct IterationOutput {
  /// Emitted artefacts, relative to the output directory, in emit order
  /// (manifest sidecars are not in the list).
  std::vector<std::string> written;
  std::uint64_t partialBytes = 0;
};

/// The deterministic content of the results an iteration emitted.
struct ResultSummary {
  std::int64_t rounds = 0;
  /// FNV-1a-64 over every point summary in its binary partial encoding:
  /// equal digests mean equal per-point results.
  std::uint64_t pointsDigest = vanet::util::fnv1a64(nullptr, 0);
  /// Work counts: core protocol totals and MediumStats fields, by name.
  std::map<std::string, std::uint64_t> counts;
};

/// Folds one emitted result into `summary`, one point at a time.
void addResult(ResultSummary& summary,
               const vanet::runner::CampaignResult& result);

/// Receives each campaign result right after its artefacts are written,
/// before the result is released.
using ResultSink = std::function<void(const vanet::runner::CampaignResult&)>;

/// Runs one iteration of `workload` into `outDir` (which must exist and
/// be empty), handing every emitted result to `sink`. With trace.log set,
/// every job runs through a forwarding scenario that records a "job"
/// span, and spans are taken around every public call. Throws on any
/// library failure or a failed emit.
IterationOutput runIteration(const std::string& workload,
                             const std::string& root, std::uint64_t seed,
                             int threads, const std::string& outDir,
                             const ResultSink& sink, Trace trace = {});

}  // namespace perfbench
