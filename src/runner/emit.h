#pragma once

/// \file emit.h
/// Campaign emitters: a per-grid-point CSV table (via analysis/csv), a
/// machine-readable JSON summary, and a human console rendering with
/// wall-clock / jobs-per-second throughput.
///
/// campaignPointsJson(), campaignCsv() and figureSeriesCsv() render only
/// deterministic fields with full-precision (%.17g) numbers: two
/// campaigns whose merged results are bit-identical render byte-identical
/// text, which is exactly what the determinism tests compare -- every
/// committed spec under threads, streaming, shards, resume and SIMD off
/// in tests/runner/determinism_matrix_test.cpp
/// (`ctest --test-dir build -R determinism_matrix`).

#include <string>

#include "runner/campaign.h"

namespace vanet::runner {

struct CampaignSpec;

/// One CSV row per grid point: grid index (plus the case name when the
/// campaign declared cases), every swept axis value, replications
/// (actually used -- the adaptive stop point when --target-ci ran),
/// rounds, then mean/stddev/ci95 of every metric (sorted union of metric
/// names over the campaign; ci95 is the achieved 95 % half-width).
/// Deterministic.
std::string campaignCsv(const CampaignResult& result);

/// Writes campaignCsv() to `path`; false (and logs) on I/O failure.
bool writeCampaignCsv(const std::string& path, const CampaignResult& result);

/// The "points" JSON array: fully resolved params, merged Table 1 rows,
/// and metric aggregates per grid point. Deterministic.
std::string campaignPointsJson(const CampaignResult& result);

/// The full JSON document: campaign header (scenario, seed, threads,
/// wall-clock, jobs/sec) plus campaignPointsJson().
std::string campaignJson(const CampaignResult& result);

/// Writes campaignJson() to `path`; false (and logs) on I/O failure.
bool writeCampaignJson(const std::string& path, const CampaignResult& result);

/// Human summary: one line per grid point (case name, axis values and
/// headline metrics) plus the throughput footer.
std::string renderCampaignSummary(const CampaignResult& result,
                                  const SweepGrid& grid);

/// One figure series as CSV: a `packet` index column, then mean and
/// 95 % CI half-width per per-car reception series, for the after-coop
/// series and for the joint (any-car) series, plus the per-packet sample
/// count of the joint series. Full-precision numbers: byte-comparing two
/// renderings is a bit-identity check on the merged figure.
std::string figureSeriesCsv(const trace::FlowFigure& figure);

/// Writes figureSeriesCsv() to `path`; false (and logs) on I/O failure.
bool writeFigureCsv(const std::string& path, const trace::FlowFigure& figure);

/// Writes one CSV per (grid point, flow) of `result` into `dir`:
///   dir/<base>_flow<F>.csv            for single-point campaigns,
///   dir/<base>_p<G>_flow<F>.csv       otherwise.
/// Returns the number of files written; stops and logs on I/O failure.
/// When `writtenPaths` is non-null, every path successfully written is
/// appended to it (spec-driven runs report their artefact list).
std::size_t writeCampaignFigureCsvs(const std::string& dir,
                                    const std::string& base,
                                    const CampaignResult& result,
                                    std::vector<std::string>* writtenPaths =
                                        nullptr);

/// Drops the provenance sidecar (obs::writeManifestSidecar) next to an
/// artefact of `result` at `path`. The CSV/JSON writers above call it
/// themselves; exposed for emitters outside this file (per-point Table 1
/// CSVs of spec-driven runs). Best effort: a failed sidecar write warns
/// without failing the artefact, and the artefact bytes are untouched.
void writeCampaignArtifactManifest(const std::string& path,
                                   const CampaignResult& result);

/// The console views of the spec's resolved emit kinds: Table 1 and its
/// loss summary per grid point for `table1_csv`, the reception and C-ARQ
/// figures per (point, flow) for `figures`; grid points are labelled when
/// there is more than one. Empty when the spec emits neither kind.
/// Deterministic, so `run specs/table1.json` prints the same Table 1 and
/// Figures 3-8 however the campaign was executed.
std::string renderEmitViews(const CampaignSpec& spec,
                            const CampaignResult& result);

}  // namespace vanet::runner
