#pragma once

/// \file flags.h
/// Tiny command-line flag parser for the examples and bench harnesses.
/// Accepts `--name=value`, `--name value` and bare boolean `--name`.
/// Unknown positional arguments are collected in positional().

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace vanet {

/// One shard of a partitioned run, as written on the command line:
/// `--shard=i/N` selects shard i of N.
struct ShardSpec {
  int index = 0;
  int count = 1;
};

/// Parsed command line. Lookup is by flag name without the leading dashes.
class Flags {
 public:
  Flags() = default;

  /// Parses argv; later occurrences of a flag override earlier ones.
  Flags(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  /// Typed getters return `fallback` when the flag is absent; they abort
  /// with a clear message when the value does not parse.
  int getInt(const std::string& name, int fallback) const;
  std::uint64_t getUInt64(const std::string& name,
                          std::uint64_t fallback) const;
  double getDouble(const std::string& name, double fallback) const;
  std::string getString(const std::string& name, std::string fallback) const;

  /// A bare `--name` or `--name=true|1|yes` is true; `=false|0|no` is false.
  bool getBool(const std::string& name, bool fallback) const;

  /// Parses `--name=i/N` with 0 <= i < N; `fallback` when absent or when
  /// the flag was given bare (so a bool `--shard` mode flag can coexist),
  /// abort on a malformed spec.
  ShardSpec getShard(const std::string& name, ShardSpec fallback = {}) const;

  const std::vector<std::string>& positional() const noexcept { return positional_; }

  /// Rejects (exit 2) any parsed flag whose name is not in `known`, with
  /// a did-you-mean nearest-name hint -- a typo'd `--thread=4`
  /// must not silently run a study with the default. Every binary calls
  /// this once, right after parsing, with its full flag vocabulary
  /// (typically campaignFlagNames() plus its own additions).
  void allowOnly(const std::vector<std::string>& known) const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// The names campaignRunFlags() reads -- the shared engine vocabulary
/// every campaign binary accepts. Append binary-specific names to a copy
/// and pass the result to Flags::allowOnly().
std::vector<std::string> campaignFlagNames();

/// The campaign engine vocabulary shared by every campaign binary (one
/// parser instead of per-binary copies):
///   --seed=S           master seed
///   --threads=N        campaign job workers (0 = hardware concurrency)
///   --shard=i/N        run shard i of N (whole grid points)
///   --partial-out=F    write this shard's partial result to F
///   --partial-format=X partial encoding: "bin" (compact binary v3) or
///                      "json"; omit for the default (binary for --shard
///                      runs, JSON otherwise)
///   --checkpoint=F     write a binary checkpoint partial to F at every
///                      replication-wave barrier (atomically)
///   --resume           restore the fold state from --checkpoint=F and
///                      continue at the first uncovered wave; the final
///                      artifacts are byte-identical to an uninterrupted
///                      run
///   --halt-after-waves=K  stop after K wave barriers (kill simulation
///                      for checkpoint tests; default: run to completion)
///   --streaming        fold results through the bounded reordering
///                      window (O(points+threads) memory)
///   --progress         live progress lines on stderr (rate-limited,
///                      `progress: `-prefixed; results are unchanged)
///   --log-level=L      error|warn|info|debug|trace; overrides the
///                      VANET_LOG environment variable (default warn)
struct CampaignRunFlags {
  std::uint64_t seed = 2008;
  int threads = 0;
  ShardSpec shard{};
  std::string partialOut;
  /// Partial-file encoding: "bin", "json", or empty for the format-auto
  /// default (binary when sharded, JSON otherwise).
  std::string partialFormat;
  std::string checkpoint;     ///< per-wave checkpoint file; empty = off
  bool resume = false;        ///< restore from `checkpoint` first
  int haltAfterWaves = -1;    ///< stop after K barriers (< 0: run all)
  bool streaming = false;
  bool progress = false;
};

/// Reads the shared campaign flags from `flags`. Also *applies* the
/// logging flags as a side effect: `--log-level=L` (validated; abort on
/// an unknown name) wins over the VANET_LOG environment default.
CampaignRunFlags campaignRunFlags(const Flags& flags,
                                  std::uint64_t defaultSeed = 2008);

}  // namespace vanet
