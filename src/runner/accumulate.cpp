#include "runner/accumulate.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "analysis/serialize.h"
#include "obs/manifest.h"
#include "runner/partial_binary.h"
#include "trace/serialize.h"
#include "util/json.h"
#include "util/log.h"

namespace vanet::runner {

CampaignAccumulator::CampaignAccumulator(const CampaignPlan& plan)
    : adaptive_(plan.adaptive()),
      targetRelativeCi95_(plan.targetRelativeCi95()),
      minReplications_(plan.minReplications()),
      maxReplications_(plan.replications()),
      targetMetric_(plan.targetMetric()),
      expectedJobs_(plan.shardJobCount()) {
  points_.reserve(plan.shardPointIndices().size());
  for (const std::size_t p : plan.shardPointIndices()) {
    const PlannedPoint& planned = plan.points()[p];
    GridPointSummary summary;
    summary.gridIndex = planned.gridIndex;
    summary.caseName = planned.caseName;
    summary.params = planned.params;
    points_.push_back(std::move(summary));
  }
}

void CampaignAccumulator::fold(std::size_t shardSlot, int replication,
                               const JobResult& result) {
  if (shardSlot >= points_.size()) {
    throw std::logic_error("campaign fold: shard slot " +
                           std::to_string(shardSlot) + " out of range (" +
                           std::to_string(points_.size()) + " points)");
  }
  GridPointSummary& point = points_[shardSlot];
  // Per-point ascending replications without gaps: merges only combine
  // state within one point, so this ordering (which every backend's
  // wave + window discipline guarantees) is exactly what makes the
  // merged bytes a pure function of the plan.
  if (replication != point.replications) {
    throw std::logic_error(
        "campaign fold out of order: point slot " + std::to_string(shardSlot) +
        " got replication " + std::to_string(replication) + ", expected " +
        std::to_string(point.replications));
  }
  point.table1.merge(result.table1);
  for (const auto& [flow, figure] : result.figures) {
    point.figures[flow].merge(figure);
  }
  point.totals.merge(result.totals);
  for (const auto& [name, value] : result.metrics) {
    point.metrics[name].add(value);
  }
  point.replications += 1;
  point.rounds += result.rounds;
  if (!targetMetric_.empty()) {
    const auto it = point.metrics.find(targetMetric_);
    point.achievedCi95 =
        it != point.metrics.end() ? it->second.confidence95() : 0.0;
  }
  ++folded_;
}

int CampaignAccumulator::pointReplications(std::size_t shardSlot) const {
  return points_.at(shardSlot).replications;
}

bool CampaignAccumulator::converged(const GridPointSummary& point) const {
  const auto it = point.metrics.find(targetMetric_);
  if (it == point.metrics.end()) return false;  // unevaluable: run to cap
  // One sample has no confidence interval -- confidence95() returns 0
  // below two, which must not read as "target met" (minReplications=1
  // would otherwise stop every point after a single replication).
  if (it->second.count() < 2) return false;
  const double ci = it->second.confidence95();
  const double mean = std::abs(it->second.mean());
  // A zero-mean point has no defined relative width: only a degenerate
  // (zero-CI) sample set counts as converged; anything else runs to the
  // cap rather than stopping on an arbitrary scale.
  if (mean == 0.0) return ci == 0.0;
  return ci / mean <= targetRelativeCi95_;
}

bool CampaignAccumulator::pointDone(std::size_t shardSlot) const {
  const GridPointSummary& point = points_.at(shardSlot);
  if (!adaptive_) {
    return point.replications >= maxReplications_;
  }
  if (point.replications < minReplications_) return false;
  return point.replications >= maxReplications_ || converged(point);
}

bool CampaignAccumulator::complete() const noexcept {
  if (!adaptive_) return folded_ == expectedJobs_;
  for (std::size_t slot = 0; slot < points_.size(); ++slot) {
    if (!pointDone(slot)) return false;
  }
  return true;
}

std::vector<GridPointSummary> CampaignAccumulator::take() {
  if (!complete()) {
    throw std::logic_error("campaign fold incomplete: " +
                           std::to_string(folded_) + " of " +
                           std::to_string(expectedJobs_) +
                           " planned jobs folded");
  }
  return std::move(points_);
}

void CampaignAccumulator::restore(std::vector<GridPointSummary> points) {
  if (points.size() != points_.size()) {
    throw std::runtime_error(
        "checkpoint restore: " + std::to_string(points.size()) +
        " points, but the plan's shard has " + std::to_string(points_.size()));
  }
  std::size_t folded = 0;
  for (std::size_t slot = 0; slot < points.size(); ++slot) {
    if (points[slot].gridIndex != points_[slot].gridIndex) {
      throw std::runtime_error(
          "checkpoint restore: slot " + std::to_string(slot) +
          " carries grid index " + std::to_string(points[slot].gridIndex) +
          ", plan expects " + std::to_string(points_[slot].gridIndex));
    }
    folded += static_cast<std::size_t>(points[slot].replications);
  }
  points_ = std::move(points);
  folded_ = folded;
}

namespace {

std::string pointJson(const GridPointSummary& point) {
  std::string out = "{\"grid_index\":" + std::to_string(point.gridIndex);
  out += ",\"case\":" + json::quote(point.caseName);
  out += ",\"replications\":" + std::to_string(point.replications);
  out += ",\"rounds\":" + std::to_string(point.rounds);
  out += ",\"achieved_ci95\":" + json::num(point.achievedCi95);
  out += ",\"params\":{";
  bool first = true;
  for (const auto& [name, value] : point.params.values()) {
    if (!first) out += ",";
    first = false;
    out += json::quote(name) + ":" + json::num(value);
  }
  out += "},\"table1\":" + trace::table1ToJson(point.table1);
  out += ",\"figures\":[";
  first = true;
  for (const auto& [flow, figure] : point.figures) {
    (void)flow;  // the figure serializes its own flow id
    if (!first) out += ",";
    first = false;
    out += trace::flowFigureToJson(figure);
  }
  out += "],\"totals\":" + analysis::protocolTotalsToJson(point.totals);
  out += ",\"metrics\":{";
  first = true;
  for (const auto& [name, stats] : point.metrics) {
    if (!first) out += ",";
    first = false;
    out += json::quote(name) + ":" + trace::runningStatsToJson(stats);
  }
  out += "}}";
  return out;
}

GridPointSummary pointFromJson(const json::Value& value) {
  GridPointSummary point;
  point.gridIndex =
      static_cast<std::size_t>(value.at("grid_index").asUInt64());
  point.caseName = value.at("case").asString();
  point.replications = static_cast<int>(value.at("replications").asInt64());
  point.rounds = value.at("rounds").asInt64();
  // Absent in v1 partials (which predate adaptive replication).
  if (const json::Value* ci = value.find("achieved_ci95")) {
    point.achievedCi95 = ci->asDouble();
  }
  for (const auto& [name, param] : value.at("params").asObject()) {
    point.params.set(name, param.asDouble());
  }
  point.table1 = trace::table1FromJson(value.at("table1"));
  for (const json::Value& figure : value.at("figures").asArray()) {
    trace::FlowFigure parsed = trace::flowFigureFromJson(figure);
    const FlowId flow = parsed.flow;
    point.figures[flow] = std::move(parsed);
  }
  point.totals = analysis::protocolTotalsFromJson(value.at("totals"));
  for (const auto& [name, stats] : value.at("metrics").asObject()) {
    point.metrics[name] = trace::runningStatsFromJson(stats);
  }
  return point;
}

}  // namespace

std::string campaignPartialJson(const CampaignPartial& partial) {
  std::string out = "{\n\"format\":\"vanet-campaign-partial\",\n";
  out += "\"version\":" + std::to_string(CampaignPartial::kVersion) + ",\n";
  out += "\"scenario\":" + json::quote(partial.scenario) + ",\n";
  out += "\"master_seed\":" + std::to_string(partial.masterSeed) + ",\n";
  out += "\"shard_index\":" + std::to_string(partial.shard.index) + ",\n";
  out += "\"shard_count\":" + std::to_string(partial.shard.count) + ",\n";
  out += "\"replications\":" + std::to_string(partial.replications) + ",\n";
  out += "\"target_ci\":" + json::num(partial.targetRelativeCi95) + ",\n";
  out += "\"min_replications\":" + std::to_string(partial.minReplications) +
         ",\n";
  out += "\"max_replications\":" + std::to_string(partial.maxReplications) +
         ",\n";
  out += "\"target_metric\":" + json::quote(partial.targetMetric) + ",\n";
  out += "\"grid_points\":" + std::to_string(partial.totalPoints) + ",\n";
  out += "\"job_count\":" + std::to_string(partial.totalJobs) + ",\n";
  out += "\"points\":[";
  bool first = true;
  for (const GridPointSummary& point : partial.points) {
    if (!first) out += ",";
    first = false;
    out += "\n " + pointJson(point);
  }
  out += "\n]\n}\n";
  return out;
}

CampaignPartial parseCampaignPartial(const std::string& text) {
  const json::Value doc = json::parse(text);
  if (doc.at("format").asString() != "vanet-campaign-partial") {
    throw std::runtime_error("not a vanet campaign partial file");
  }
  const auto version = static_cast<int>(doc.at("version").asInt64());
  if (version < CampaignPartial::kMinVersion ||
      version > CampaignPartial::kVersion) {
    throw std::runtime_error(
        "unsupported campaign partial version " + std::to_string(version) +
        " (supported: " + std::to_string(CampaignPartial::kMinVersion) +
        ".." + std::to_string(CampaignPartial::kVersion) + ")");
  }
  CampaignPartial partial;
  partial.scenario = doc.at("scenario").asString();
  partial.masterSeed = doc.at("master_seed").asUInt64();
  partial.shard.index = static_cast<int>(doc.at("shard_index").asInt64());
  partial.shard.count = static_cast<int>(doc.at("shard_count").asInt64());
  partial.replications = static_cast<int>(doc.at("replications").asInt64());
  if (version >= 2) {
    partial.targetRelativeCi95 = doc.at("target_ci").asDouble();
    partial.minReplications =
        static_cast<int>(doc.at("min_replications").asInt64());
    partial.maxReplications =
        static_cast<int>(doc.at("max_replications").asInt64());
    partial.targetMetric = doc.at("target_metric").asString();
    // The same bounds buildPlan enforces: a corrupt or hand-edited
    // adaptive header must fail loudly here, not feed degenerate wave
    // arithmetic to downstream consumers.
    if (partial.targetRelativeCi95 > 0.0 &&
        (partial.minReplications < 1 ||
         partial.maxReplications < partial.minReplications)) {
      throw std::runtime_error(
          "malformed adaptive header: needs 1 <= min_replications <= "
          "max_replications (got " +
          std::to_string(partial.minReplications) + ".." +
          std::to_string(partial.maxReplications) + ")");
    }
  }
  partial.totalPoints =
      static_cast<std::size_t>(doc.at("grid_points").asUInt64());
  partial.totalJobs = static_cast<std::size_t>(doc.at("job_count").asUInt64());
  for (const json::Value& point : doc.at("points").asArray()) {
    partial.points.push_back(pointFromJson(point));
  }
  return partial;
}

bool writeCampaignPartial(const std::string& path,
                          const CampaignPartial& partial,
                          PartialFormat format) {
  const bool binary =
      format == PartialFormat::kBinary ||
      (format == PartialFormat::kAuto && partial.shard.count > 1);
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    LOG_ERROR("cannot open " << path << " for writing");
    return false;
  }
  out << (binary ? campaignPartialBinary(partial)
                 : campaignPartialJson(partial));
  if (!out) return false;
  // Provenance sidecar (best effort; never fails the partial write).
  obs::RunManifest manifest = obs::manifestForArtifact(path);
  manifest.scenario = partial.scenario;
  manifest.masterSeed = partial.masterSeed;
  manifest.shardIndex = partial.shard.index;
  manifest.shardCount = partial.shard.count;
  manifest.targetCi = partial.targetRelativeCi95;
  manifest.targetMetric = partial.targetMetric;
  manifest.points.reserve(partial.points.size());
  for (const GridPointSummary& point : partial.points) {
    manifest.points.push_back(obs::ManifestPoint{
        point.gridIndex, point.replications, point.achievedCi95});
  }
  obs::writeManifestSidecar(manifest);
  return true;
}

bool writeCampaignPartial(const std::string& path,
                          const CampaignPartial& partial) {
  return writeCampaignPartial(path, partial, PartialFormat::kJson);
}

CampaignPartial readCampaignPartial(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open " + path + " for reading");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  try {
    CampaignPartial partial = looksLikeBinaryPartial(text)
                                  ? parseCampaignPartialBinary(text)
                                  : parseCampaignPartial(text);
    partial.sourcePath = path;
    return partial;
  } catch (const std::runtime_error& error) {
    throw std::runtime_error(path + ": " + error.what());
  }
}

namespace {

/// Merge errors must name the culprit: "shard i/N from 'file'" pins
/// exactly which partial (and which file on disk) broke the set.
std::string describePartial(const CampaignPartial& partial) {
  std::string text = "shard " + std::to_string(partial.shard.index) + "/" +
                     std::to_string(partial.shard.count);
  if (!partial.sourcePath.empty()) {
    text += " from '" + partial.sourcePath + "'";
  }
  return text;
}

/// The campaign-identity fields of a partial, points left behind (so a
/// merger can keep them without copying point payloads).
CampaignPartial identityOf(const CampaignPartial& partial) {
  CampaignPartial header;
  header.scenario = partial.scenario;
  header.masterSeed = partial.masterSeed;
  header.shard = partial.shard;
  header.replications = partial.replications;
  header.targetRelativeCi95 = partial.targetRelativeCi95;
  header.minReplications = partial.minReplications;
  header.maxReplications = partial.maxReplications;
  header.targetMetric = partial.targetMetric;
  header.totalPoints = partial.totalPoints;
  header.totalJobs = partial.totalJobs;
  header.hasCheckpoint = partial.hasCheckpoint;
  header.checkpointCoveredReps = partial.checkpointCoveredReps;
  header.checkpointComplete = partial.checkpointComplete;
  header.sourcePath = partial.sourcePath;
  return header;
}

/// Incremental shard merge shared by the in-memory and streaming entry
/// points: shards announce themselves in ascending index order via
/// beginShard(), then feed points one at a time -- so a binary shard file
/// never needs to materialize its whole point set. `carriedPoints` is the
/// number of point records the whole shard set holds; the first header's
/// grid_points must equal it before it sizes the merged grid.
class PartialMerger {
 public:
  PartialMerger(std::size_t partialCount, std::size_t carriedPoints)
      : total_(partialCount), carried_(carriedPoints) {}

  void beginShard(const CampaignPartial& header) {
    // A checkpoint mid-campaign is resume state, not a shard result:
    // folding it in would silently drop every replication past its wave.
    if (header.hasCheckpoint && !header.checkpointComplete) {
      throw std::runtime_error(describePartial(header) +
                               " is an unfinished wave checkpoint (resume "
                               "state), not a finished shard partial");
    }
    if (begun_ == 0) {
      first_ = identityOf(header);
      if (total_ != static_cast<std::size_t>(first_.shard.count)) {
        throw std::runtime_error(
            "expected " + std::to_string(first_.shard.count) +
            " shard partials, got " + std::to_string(total_) +
            " (first: " + describePartial(first_) + ")");
      }
      if (first_.totalPoints != carried_) {
        throw std::runtime_error(
            describePartial(first_) + ": header grid_points " +
            std::to_string(first_.totalPoints) + " does not match the " +
            std::to_string(carried_) + " point record(s) the " +
            std::to_string(total_) + " shard partial(s) carry");
      }
      merged_.resize(first_.totalPoints);
      filled_.assign(first_.totalPoints, false);
    } else if (header.scenario != first_.scenario ||
               header.masterSeed != first_.masterSeed ||
               header.replications != first_.replications ||
               header.targetRelativeCi95 != first_.targetRelativeCi95 ||
               header.minReplications != first_.minReplications ||
               header.maxReplications != first_.maxReplications ||
               header.targetMetric != first_.targetMetric ||
               header.totalPoints != first_.totalPoints ||
               header.totalJobs != first_.totalJobs ||
               header.shard.count != first_.shard.count) {
      throw std::runtime_error("shard partials describe different campaigns (" +
                               describePartial(header) + " disagrees)");
    }
    if (header.shard.index != static_cast<int>(begun_)) {
      throw std::runtime_error(
          "missing or duplicate shard " + std::to_string(begun_) +
          " in partial set (got " + describePartial(header) + ")");
    }
    current_ = identityOf(header);
    ++begun_;
  }

  void addPoint(GridPointSummary point) {
    if (point.gridIndex >= merged_.size()) {
      throw std::runtime_error(
          "partial grid index " + std::to_string(point.gridIndex) +
          " out of range (" + describePartial(current_) + ")");
    }
    if (filled_[point.gridIndex]) {
      throw std::runtime_error(
          "grid point " + std::to_string(point.gridIndex) +
          " appears in more than one shard (" + describePartial(current_) +
          ")");
    }
    filled_[point.gridIndex] = true;
    merged_[point.gridIndex] = std::move(point);
  }

  std::vector<GridPointSummary> finish() {
    for (std::size_t p = 0; p < filled_.size(); ++p) {
      if (!filled_[p]) {
        throw std::runtime_error("grid point " + std::to_string(p) +
                                 " is missing from every shard");
      }
    }
    return std::move(merged_);
  }

  /// Identity of the merged set (the first shard's header, points empty).
  const CampaignPartial& first() const noexcept { return first_; }

 private:
  std::size_t total_;
  std::size_t carried_;
  std::size_t begun_ = 0;
  CampaignPartial first_;
  CampaignPartial current_;
  std::vector<GridPointSummary> merged_;
  std::vector<bool> filled_;
};

bool fileStartsWithBinaryMagic(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open " + path + " for reading");
  }
  char prefix[sizeof kPartialBinaryMagic] = {};
  in.read(prefix, sizeof prefix);
  return looksLikeBinaryPartial(
      std::string_view(prefix, static_cast<std::size_t>(in.gcount())));
}

}  // namespace

std::vector<GridPointSummary> mergeCampaignPartials(
    std::vector<CampaignPartial> partials) {
  if (partials.empty()) {
    throw std::runtime_error("no campaign partials to merge");
  }
  std::sort(partials.begin(), partials.end(),
            [](const CampaignPartial& a, const CampaignPartial& b) {
              return a.shard.index < b.shard.index;
            });
  std::size_t carried = 0;
  for (const CampaignPartial& partial : partials) {
    carried += partial.points.size();
  }
  PartialMerger merger(partials.size(), carried);
  for (CampaignPartial& partial : partials) {
    merger.beginShard(partial);
    for (GridPointSummary& point : partial.points) {
      merger.addPoint(std::move(point));
    }
    partial.points.clear();
  }
  return merger.finish();
}

std::vector<GridPointSummary> mergeCampaignPartialFiles(
    const std::vector<std::string>& paths, CampaignPartial* headerOut) {
  if (paths.empty()) {
    throw std::runtime_error("no campaign partials to merge");
  }
  // Binary files open as streaming readers (header parsed, points left on
  // disk); JSON files fall back to the DOM reader.
  struct Source {
    std::unique_ptr<PartialBinaryFileReader> bin;  // non-null => binary
    CampaignPartial json;                          // parsed JSON otherwise
  };
  const auto headerOf = [](const Source& source) -> const CampaignPartial& {
    return source.bin ? source.bin->header() : source.json;
  };
  std::vector<Source> sources(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (fileStartsWithBinaryMagic(paths[i])) {
      sources[i].bin = std::make_unique<PartialBinaryFileReader>(paths[i]);
    } else {
      sources[i].json = readCampaignPartial(paths[i]);
    }
  }
  std::sort(sources.begin(), sources.end(),
            [&headerOf](const Source& a, const Source& b) {
              return headerOf(a).shard.index < headerOf(b).shard.index;
            });
  std::size_t carried = 0;
  for (const Source& source : sources) {
    carried += source.bin ? source.bin->remainingPoints()
                          : source.json.points.size();
  }
  PartialMerger merger(sources.size(), carried);
  for (Source& source : sources) {
    merger.beginShard(headerOf(source));
    if (source.bin) {
      GridPointSummary point;
      while (source.bin->nextPoint(point)) {
        merger.addPoint(std::move(point));
      }
    } else {
      for (GridPointSummary& point : source.json.points) {
        merger.addPoint(std::move(point));
      }
      source.json.points.clear();
    }
  }
  if (headerOut != nullptr) {
    *headerOut = merger.first();
  }
  return merger.finish();
}

}  // namespace vanet::runner
