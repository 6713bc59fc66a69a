/// \file manifest_mutation_test.cpp
/// Seeded mutation fuzzing of the manifest reader. Sidecars rendered by
/// manifestJson() -- a full one, an empty one and one per shard layout --
/// are mutated with fixed-seed byte flips, truncations, splices of
/// another sidecar's bytes and hostile values over a field, the same
/// mutants on every run. Each mutant must either parse, and then render
/// to a fixed point of manifestJson(manifestFromJson(.)), or throw a
/// std::runtime_error: no crash, no abort, no std::bad_alloc or other
/// exception type. Under the sanitizer build the same test also proves
/// no out-of-bounds access.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <random>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include "obs/manifest.h"

namespace vanet::obs {
namespace {

std::vector<std::string> sidecars() {
  RunManifest full;
  full.artifact = "out/table1_campaign.json";
  full.tool = "vanet_campaign";
  full.args = {"run", "specs/table1.json", "--threads=4", "--csv=out"};
  full.gitRev = "8b515da";
  full.buildFlags = "Release  sanitize=OFF";
  full.scenario = "urban";
  full.masterSeed = 2008;
  full.threads = 4;
  full.targetCi = 0.05;
  full.targetMetric = "pdr";
  full.wallSeconds = 0.4375;
  full.jobsPerSecond = 91.25;
  full.specPath = "specs/table1.json";
  full.specDigest = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = 0; i < 6; ++i) {
    full.points.push_back(
        {i, static_cast<int>(4 << (i % 3)), 0.01 * static_cast<double>(i)});
  }
  std::vector<std::string> texts = {manifestJson(full),
                                    manifestJson(RunManifest{})};
  for (int shard = 0; shard < 3; ++shard) {
    RunManifest part = full;
    part.shardIndex = shard;
    part.shardCount = 3;
    part.points.resize(2);
    texts.push_back(manifestJson(part));
  }
  return texts;
}

/// Values a hand-edited or corrupted sidecar could plausibly carry:
/// out of int range, out of 64-bit range, non-finite, wrong types,
/// control characters and nesting past the parser's depth limit.
const std::vector<std::string>& hostileValues() {
  static const std::vector<std::string> values = {
      "4294967297", "-2147483649", "9223372036854775808", "-1",
      "18446744073709551616", "1e999", "-1e999", "nan", "inf", "1.5",
      "null", "true", "{}", "[]", "\"\"", "\"\\u0000\"", "\"\\ud800\"",
      std::string(600, '['), std::string("\0", 1)};
  return values;
}

std::vector<std::string> mutantsOf(const std::vector<std::string>& texts,
                                   std::size_t index) {
  const std::string& text = texts[index];
  std::mt19937_64 rng(2008 + index);  // output fixed by the standard
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  std::vector<std::string> mutants;
  for (int i = 0; i < 60; ++i) {
    std::string mutated = text;
    const std::size_t at = below(text.size());
    mutated[at] = static_cast<char>(mutated[at] ^ (1 + below(255)));
    mutants.push_back(std::move(mutated));
  }
  for (int i = 0; i < 20; ++i) {
    mutants.push_back(text.substr(0, i == 0 ? 0 : below(text.size())));
  }
  // Splices: a range of this sidecar replaced by a range of another.
  for (int i = 0; i < 30; ++i) {
    const std::string& donor = texts[below(texts.size())];
    const std::size_t from = below(donor.size());
    const std::size_t take =
        below(std::min<std::size_t>(donor.size() - from, 120)) + 1;
    const std::size_t at = below(text.size());
    const std::size_t drop =
        below(std::min<std::size_t>(text.size() - at, 120)) + 1;
    std::string mutated = text;
    mutated.replace(at, drop, donor, from, take);
    mutants.push_back(std::move(mutated));
  }
  // Hostile values over a field: the text after a ':' up to the next
  // ',', '}' or newline.
  const std::vector<std::string>& values = hostileValues();
  for (int i = 0; i < 40; ++i) {
    const std::size_t colon = text.find(':', below(text.size()));
    if (colon == std::string::npos) continue;
    const std::size_t end = text.find_first_of(",}\n", colon);
    std::string mutated = text;
    mutated.replace(colon + 1, end - colon - 1, values[below(values.size())]);
    mutants.push_back(std::move(mutated));
  }
  return mutants;
}

TEST(ManifestMutationTest, MutantsParseToAFixedPointOrThrowRuntimeError) {
  const std::vector<std::string> texts = sidecars();
  int parsed = 0;
  int rejected = 0;
  for (std::size_t t = 0; t < texts.size(); ++t) {
    const std::vector<std::string> mutants = mutantsOf(texts, t);
    for (std::size_t m = 0; m < mutants.size(); ++m) {
      const std::string label =
          "sidecar " + std::to_string(t) + " mutant " + std::to_string(m);
      try {
        const std::string rendered =
            manifestJson(manifestFromJson(mutants[m]));
        EXPECT_EQ(manifestJson(manifestFromJson(rendered)), rendered)
            << label;
        ++parsed;
      } catch (const std::runtime_error&) {
        ++rejected;
      } catch (const std::exception& error) {
        ADD_FAILURE() << label << ": " << typeid(error).name() << ": "
                      << error.what();
      }
    }
  }
  // Both outcomes occur: flips inside strings parse, structural damage
  // and out-of-range values are rejected.
  EXPECT_GT(parsed, 50);
  EXPECT_GT(rejected, 300);
}

}  // namespace
}  // namespace vanet::obs
