#pragma once

/// \file flags.h
/// Tiny command-line flag parser for the example and tool binaries.
/// Accepts `--name=value`, `--name value` and bare boolean `--name`.
/// Unknown positional arguments are collected in positional().

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
///   --threads=N        campaign job workers (0 = hardware concurrency)
///   --shard=i/N        run shard i of N (whole grid points)
///   --partial-out=F    write this shard's partial result (binary v3) to F
///   --checkpoint=F     write a binary checkpoint partial to F at every
///                      replication-wave barrier (atomically)
///   --resume           restore the fold state from --checkpoint=F and
///                      continue at the first uncovered wave; the final
///                      artifacts are byte-identical to an uninterrupted
///                      run
///   --halt-after-waves=K  stop after K wave barriers (kill simulation
///                      for checkpoint tests; needs --checkpoint;
///                      default: run to completion)
///   --streaming        fold results through the bounded reordering
///                      window (O(points+threads) memory)
///   --progress         live progress lines on stderr (rate-limited,
///                      `progress: `-prefixed; results are unchanged)
///   --log-level=L      error|warn|info|debug|trace; overrides the
///                      VANET_LOG environment variable (default warn)
struct CampaignRunFlags {
  int threads = 0;
  ShardSpec shard{};
  std::string partialOut;
  std::string checkpoint;     ///< per-wave checkpoint file; empty = off
  bool resume = false;        ///< restore from `checkpoint` first
  int haltAfterWaves = -1;    ///< stop after K barriers (< 0: run all)
  bool streaming = false;
  bool progress = false;
};

/// Reads the shared campaign flags from `flags`. Also *applies* the
/// logging flags as a side effect: `--log-level=L` (validated; abort on
/// an unknown name) wins over the VANET_LOG environment default.
CampaignRunFlags campaignRunFlags(const Flags& flags);

}  // namespace vanet
