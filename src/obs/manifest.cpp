#include "obs/manifest.h"

#include <fstream>
#include <iterator>
#include <limits>
#include <stdexcept>

#include "util/file.h"
#include "util/json.h"

#if __has_include("vanet_build_info.h")
#include "vanet_build_info.h"
#endif
#ifndef VANET_GIT_REV
#define VANET_GIT_REV "unknown"
#endif
#ifndef VANET_BUILD_FLAGS
#define VANET_BUILD_FLAGS "unknown"
#endif

namespace vanet::obs {
namespace {

struct RunIdentity {
  std::string tool;
  std::vector<std::string> args;
};

/// Fallback capture for binaries that never call setRunIdentity(): on
/// Linux the kernel keeps the original argv in /proc/self/cmdline
/// (NUL-separated). Elsewhere the identity simply stays empty.
RunIdentity captureFromProc() {
  RunIdentity id;
#if defined(__linux__)
  std::ifstream in("/proc/self/cmdline", std::ios::binary);
  if (!in) return id;
  std::string raw((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  std::size_t begin = 0;
  bool first = true;
  while (begin < raw.size()) {
    std::size_t end = raw.find('\0', begin);
    if (end == std::string::npos) end = raw.size();
    std::string token = raw.substr(begin, end - begin);
    if (first) {
      const auto slash = token.find_last_of('/');
      id.tool = slash == std::string::npos ? token : token.substr(slash + 1);
      first = false;
    } else {
      id.args.push_back(std::move(token));
    }
    begin = end + 1;
  }
#endif
  return id;
}

RunIdentity& identity() {
  static RunIdentity id = captureFromProc();
  return id;
}

struct RunSpecIdentity {
  std::string path;
  std::uint64_t digest = 0;
};

RunSpecIdentity& specIdentity() {
  static RunSpecIdentity spec;
  return spec;
}

/// `digest` as exactly 16 lowercase hex digits -- the sidecar encoding
/// of the spec digest (a JSON number would round through a double).
std::string hexDigest(std::uint64_t digest) {
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[digest & 0xf];
    digest >>= 4;
  }
  return out;
}

std::uint64_t parseHexDigest(const std::string& text) {
  if (text.empty() || text.size() > 16) {
    throw std::runtime_error("manifest: malformed spec_digest \"" + text +
                             "\"");
  }
  std::uint64_t digest = 0;
  for (const char c : text) {
    digest <<= 4;
    if (c >= '0' && c <= '9') {
      digest |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digest |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      throw std::runtime_error("manifest: malformed spec_digest \"" + text +
                               "\"");
    }
  }
  return digest;
}

/// `value` narrowed to int; out-of-range values are rejected rather
/// than wrapped (a "threads" of 4294967297 must not parse as 1).
int intField(const json::Value& value, const std::string& field) {
  const std::int64_t v = value.asInt64();
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    throw std::runtime_error("manifest: " + field +
                             ": expected a 32-bit integer, got " +
                             std::to_string(v));
  }
  return static_cast<int>(v);
}

}  // namespace

void setRunIdentity(int argc, const char* const* argv) {
  RunIdentity& id = identity();
  id.tool.clear();
  id.args.clear();
  if (argc > 0) {
    std::string tool = argv[0];
    const auto slash = tool.find_last_of('/');
    id.tool = slash == std::string::npos ? tool : tool.substr(slash + 1);
  }
  for (int i = 1; i < argc; ++i) {
    id.args.emplace_back(argv[i]);
  }
}

const std::string& runTool() { return identity().tool; }

const std::vector<std::string>& runArgs() { return identity().args; }

void setRunSpec(const std::string& specPath, std::uint64_t specDigest) {
  specIdentity().path = specPath;
  specIdentity().digest = specDigest;
}

const std::string& runSpecPath() { return specIdentity().path; }

std::uint64_t runSpecDigest() { return specIdentity().digest; }

std::string buildGitRevision() { return VANET_GIT_REV; }

std::string buildFlagsString() { return VANET_BUILD_FLAGS; }

RunManifest manifestForArtifact(const std::string& artifactPath) {
  RunManifest manifest;
  manifest.artifact = artifactPath;
  manifest.tool = runTool();
  manifest.args = runArgs();
  manifest.gitRev = buildGitRevision();
  manifest.buildFlags = buildFlagsString();
  manifest.specPath = runSpecPath();
  manifest.specDigest = runSpecDigest();
  return manifest;
}

std::string manifestJson(const RunManifest& manifest) {
  using json::num;
  using json::quote;
  std::string out = "{\n";
  out += "\"format\":\"vanet-run-manifest\",\n";
  out += "\"version\":1,\n";
  out += "\"artifact\":" + quote(manifest.artifact) + ",\n";
  out += "\"tool\":" + quote(manifest.tool) + ",\n";
  out += "\"args\":[";
  bool first = true;
  for (const std::string& arg : manifest.args) {
    if (!first) out += ",";
    first = false;
    out += quote(arg);
  }
  out += "],\n";
  out += "\"git_rev\":" + quote(manifest.gitRev) + ",\n";
  out += "\"build_flags\":" + quote(manifest.buildFlags) + ",\n";
  out += "\"scenario\":" + quote(manifest.scenario) + ",\n";
  out += "\"master_seed\":" + std::to_string(manifest.masterSeed) + ",\n";
  out += "\"threads\":" + std::to_string(manifest.threads) + ",\n";
  out += "\"shard_index\":" + std::to_string(manifest.shardIndex) + ",\n";
  out += "\"shard_count\":" + std::to_string(manifest.shardCount) + ",\n";
  out += std::string("\"streaming\":") +
         (manifest.streaming ? "true" : "false") + ",\n";
  out += "\"target_ci\":" + num(manifest.targetCi) + ",\n";
  out += "\"target_metric\":" + quote(manifest.targetMetric) + ",\n";
  out += "\"wall_seconds\":" + num(manifest.wallSeconds) + ",\n";
  out += "\"jobs_per_second\":" + num(manifest.jobsPerSecond) + ",\n";
  out += "\"spec_path\":" + quote(manifest.specPath) + ",\n";
  out += "\"spec_digest\":" + quote(hexDigest(manifest.specDigest)) + ",\n";
  out += "\"points\":[";
  first = true;
  for (const ManifestPoint& point : manifest.points) {
    if (!first) out += ",";
    first = false;
    out += "\n {\"grid_index\":" + std::to_string(point.gridIndex) +
           ",\"replications\":" + std::to_string(point.replications) +
           ",\"achieved_ci95\":" + num(point.achievedCi95) + "}";
  }
  out += manifest.points.empty() ? "]\n" : "\n]\n";
  out += "}\n";
  return out;
}

RunManifest manifestFromJson(const std::string& text) {
  const json::Value doc = json::parse(text);
  if (doc.at("format").asString() != "vanet-run-manifest") {
    throw std::runtime_error("not a vanet run-manifest file");
  }
  RunManifest manifest;
  manifest.artifact = doc.at("artifact").asString();
  manifest.tool = doc.at("tool").asString();
  for (const json::Value& arg : doc.at("args").asArray()) {
    manifest.args.push_back(arg.asString());
  }
  manifest.gitRev = doc.at("git_rev").asString();
  manifest.buildFlags = doc.at("build_flags").asString();
  manifest.scenario = doc.at("scenario").asString();
  manifest.masterSeed = doc.at("master_seed").asUInt64();
  manifest.threads = intField(doc.at("threads"), "threads");
  manifest.shardIndex = intField(doc.at("shard_index"), "shard_index");
  manifest.shardCount = intField(doc.at("shard_count"), "shard_count");
  manifest.streaming = doc.at("streaming").asBool();
  manifest.targetCi = doc.at("target_ci").asDouble();
  manifest.targetMetric = doc.at("target_metric").asString();
  manifest.wallSeconds = doc.at("wall_seconds").asDouble();
  manifest.jobsPerSecond = doc.at("jobs_per_second").asDouble();
  // Spec identity arrived with format v1 sidecars of spec-driven runs;
  // find() keeps older sidecars (no such keys) parseable.
  if (const json::Value* specPath = doc.find("spec_path")) {
    manifest.specPath = specPath->asString();
  }
  if (const json::Value* specDigest = doc.find("spec_digest")) {
    manifest.specDigest = parseHexDigest(specDigest->asString());
  }
  for (const json::Value& point : doc.at("points").asArray()) {
    ManifestPoint row;
    row.gridIndex =
        static_cast<std::size_t>(point.at("grid_index").asUInt64());
    row.replications =
        intField(point.at("replications"), "points[].replications");
    row.achievedCi95 = point.at("achieved_ci95").asDouble();
    manifest.points.push_back(row);
  }
  return manifest;
}

std::string manifestPathFor(const std::string& artifactPath) {
  return artifactPath + ".manifest.json";
}

bool writeManifestSidecar(const RunManifest& manifest) {
  // Best effort: a sidecar failure warns, the artefact write stands.
  return util::writeFile(manifestPathFor(manifest.artifact),
                         manifestJson(manifest), LogLevel::kWarn);
}

}  // namespace vanet::obs
