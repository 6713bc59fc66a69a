#include "digest.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "util/binio.h"

namespace perfbench {

namespace {

bool endsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

bool runDependentLine(std::string_view line) {
  for (const std::string_view key :
       {"\"threads\":", "\"wall_seconds\":", "\"jobs_per_second\":"}) {
    if (line.substr(0, key.size()) == key) return true;
  }
  return false;
}

}  // namespace

ArtifactDigest digestArtifacts(const std::string& dir,
                               const std::vector<std::string>& names) {
  ArtifactDigest digest;
  std::uint64_t hash = vanet::util::fnv1a64(nullptr, 0);
  for (const std::string& name : names) {
    std::ifstream in(dir + "/" + name, std::ios::binary);
    if (!in) throw std::runtime_error("missing artefact " + dir + "/" + name);
    std::ostringstream contents;
    contents << in.rdbuf();
    if (in.bad()) throw std::runtime_error("cannot read " + dir + "/" + name);
    const std::string bytes = contents.str();
    ++digest.files;

    hash = vanet::util::fnv1a64(name.c_str(), name.size() + 1, hash);
    const bool campaignJson = endsWith(name, "_campaign.json");
    std::string_view rest = bytes;
    while (!rest.empty()) {
      const std::size_t end = rest.find('\n');
      const std::size_t take = end == std::string_view::npos ? rest.size()
                                                             : end + 1;
      const std::string_view line = rest.substr(0, take);
      if (!campaignJson || !runDependentLine(line)) {
        hash = vanet::util::fnv1a64(line.data(), line.size(), hash);
        digest.bytes += line.size();
      }
      rest.remove_prefix(take);
    }
  }
  digest.fnv1a64 = hash;
  return digest;
}

std::string hex64(std::uint64_t value) {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx",
                static_cast<unsigned long long>(value));
  return text;
}

}  // namespace perfbench
