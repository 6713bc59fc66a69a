/// \file spec_mutation_test.cpp
/// Seeded mutation fuzzing of the spec reader. Every committed spec and
/// test fixture is mutated with fixed-seed byte flips, truncations,
/// splices of another spec's bytes and inserted hostile tokens -- about
/// 1500 mutants, the same on every run. Each mutant must either parse or
/// throw a std::runtime_error that names the offending key or the byte
/// offset: no crash, no abort, no std::bad_alloc or other exception
/// type. A mutant that parses must render to a fixed point of
/// render(parse(.)), like a committed spec. Under the sanitizer build
/// the same test also proves no out-of-bounds access.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include "runner/spec.h"

namespace vanet::runner {
namespace {

namespace fs = std::filesystem;

struct SpecFile {
  std::string name;
  std::string text;
};

/// specs/*.json and tests/data/*.json, sorted by path.
std::vector<SpecFile> committedSpecs() {
  const fs::path specDir = VANET_SPEC_DIR;
  std::vector<fs::path> paths;
  for (const fs::path& dir :
       {specDir, specDir.parent_path() / "tests" / "data"}) {
    for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
      if (entry.path().extension() == ".json") paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<SpecFile> files;
  for (const fs::path& path : paths) {
    std::ifstream in(path, std::ios::binary);
    files.push_back({path.filename().string(),
                     std::string((std::istreambuf_iterator<char>(in)),
                                 std::istreambuf_iterator<char>())});
  }
  return files;
}

struct Mutant {
  std::string name;
  std::string text;
};

/// Tokens a hand-edited or corrupted spec could plausibly contain: values
/// outside every field's range, non-finite numbers, wrong types, control
/// characters, and nesting past the parser's depth limit.
const std::vector<std::string>& hostileTokens() {
  static const std::vector<std::string> tokens = {
      "99999999999",  "-1",   "0",        "1e999",     "-1e999",
      "nan",          "inf",  "1.5",      "18446744073709551616",
      "null",         "true", "{}",       "[]",        "\"\"",
      "\"\\u0000\"",  "\"\\ud800\"", ",",  ":",        "\"",
      "{\"a\": 1}",   std::string(300, '['), std::string("\0", 1)};
  return tokens;
}

std::vector<Mutant> mutantsOf(const std::vector<SpecFile>& files,
                              std::size_t index) {
  const std::string& text = files[index].text;
  std::mt19937_64 rng(2008 + index);  // output fixed by the standard
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  std::vector<Mutant> mutants;
  for (int i = 0; i < 50; ++i) {
    std::string mutated = text;
    const std::size_t at = below(text.size());
    mutated[at] = static_cast<char>(mutated[at] ^ (1 + below(255)));
    mutants.push_back({"flip@" + std::to_string(at), std::move(mutated)});
  }
  for (int i = 0; i < 15; ++i) {
    const std::size_t keep = i == 0 ? 0 : below(text.size());
    mutants.push_back({"truncate@" + std::to_string(keep),
                       text.substr(0, keep)});
  }
  // Splices: a range of this spec replaced by a range of another.
  for (int i = 0; i < 30; ++i) {
    const std::string& donor = files[below(files.size())].text;
    const std::size_t from = below(donor.size());
    const std::size_t take = below(std::min<std::size_t>(
                                 donor.size() - from, 200)) + 1;
    const std::size_t at = below(text.size());
    const std::size_t drop = below(std::min<std::size_t>(
                                 text.size() - at, 200)) + 1;
    std::string mutated = text;
    mutated.replace(at, drop, donor, from, take);
    mutants.push_back({"splice@" + std::to_string(at) + "+" +
                           std::to_string(take),
                       std::move(mutated)});
  }
  // Hostile tokens, mostly over a value (after a ": ") so they reach the
  // field validators, sometimes anywhere.
  const std::vector<std::string>& tokens = hostileTokens();
  for (int i = 0; i < 30; ++i) {
    const std::string& token = tokens[below(tokens.size())];
    std::string mutated = text;
    std::size_t at = below(text.size());
    if (i % 3 != 0) {
      const std::size_t colon = text.find(": ", at);
      if (colon != std::string::npos) {
        at = colon + 2;
        const std::size_t valueEnd = text.find_first_of(",\n", at);
        mutated.replace(at, valueEnd - at, token);
        mutants.push_back({"value@" + std::to_string(at), std::move(mutated)});
        continue;
      }
    }
    mutated.insert(at, token);
    mutants.push_back({"insert@" + std::to_string(at), std::move(mutated)});
  }
  return mutants;
}

/// The error names a key ('key "seed"', 'unknown key "x"'), the document
/// root, or a byte offset ('at offset 17').
bool namesFieldOrOffset(const std::string& what) {
  return what.find("key \"") != std::string::npos ||
         what.find("top level") != std::string::npos ||
         what.find("at offset ") != std::string::npos;
}

TEST(SpecMutationTest, MutantsParseOrNameTheFieldOrOffset) {
  const std::vector<SpecFile> files = committedSpecs();
  ASSERT_GE(files.size(), 12u);  // the 10 specs and the 2 fixtures
  int parsed = 0;
  int rejected = 0;
  for (std::size_t f = 0; f < files.size(); ++f) {
    for (const Mutant& mutant : mutantsOf(files, f)) {
      const std::string label = files[f].name + " " + mutant.name;
      try {
        const CampaignSpec spec = parseCampaignSpec(mutant.text);
        const std::string rendered = renderCampaignSpec(spec);
        EXPECT_EQ(renderCampaignSpec(parseCampaignSpec(rendered)), rendered)
            << label;
        ++parsed;
      } catch (const std::runtime_error& error) {
        EXPECT_TRUE(namesFieldOrOffset(error.what()))
            << label << ": " << error.what();
        ++rejected;
      } catch (const std::exception& error) {
        ADD_FAILURE() << label << ": " << typeid(error).name() << ": "
                      << error.what();
      }
    }
  }
  // Both outcomes occur: flips inside strings and splices of whole
  // members parse, structural damage is rejected.
  EXPECT_GT(parsed, 50);
  EXPECT_GT(rejected, 800);
}

}  // namespace
}  // namespace vanet::runner
