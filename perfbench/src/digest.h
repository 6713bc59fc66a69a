#pragma once

/// \file digest.h
/// The benchmark's output check: one FNV-1a-64 digest over a workload's
/// emitted artefacts (names and bytes, in emit order). Manifest sidecars
/// are never hashed, and neither are the three lines of a campaign JSON
/// that record how the run went rather than what it computed
/// ("threads", "wall_seconds", "jobs_per_second"): like the manifests,
/// they carry the host and the time.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct ArtifactDigest {
  std::uint64_t fnv1a64 = 0;
  std::uint64_t bytes = 0;
  std::uint64_t files = 0;
};

/// Hashes every file of `names` (paths relative to `dir`): each name, a
/// NUL byte, then the file's bytes less the run-dependent lines above.
/// `bytes` counts the hashed file bytes, so it is deterministic too. Throws std::runtime_error naming the
/// file when one is missing or unreadable.
ArtifactDigest digestArtifacts(const std::string& dir,
                               const std::vector<std::string>& names);

/// "%016x" rendering used in expected.json and the run report.
std::string hex64(std::uint64_t value);

}  // namespace perfbench
