#include "util/flags.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "util/log.h"
#include "util/text.h"

namespace vanet {
namespace {

[[noreturn]] void badValue(const std::string& name, const std::string& value,
                           const char* expected) {
  std::fprintf(stderr, "flag --%s: cannot parse '%s' as %s\n", name.c_str(),
               value.c_str(), expected);
  std::exit(2);
}

/// `--flag=` (an explicitly empty value) is rejected by every typed
/// parser up front: the std::sto* family throws on it anyway, and
/// "absent" (fallback) is the wrong reading of an empty token the user
/// typed.
void rejectEmpty(const std::string& name, const std::string& value,
                 const char* expected) {
  if (value.empty()) badValue(name, value, expected);
}

}  // namespace

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // `--name value` unless the next token is itself a flag (then bare bool).
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

bool Flags::has(const std::string& name) const { return values_.count(name) > 0; }

int Flags::getInt(const std::string& name, int fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  rejectEmpty(name, it->second, "int");
  try {
    std::size_t pos = 0;
    const int v = std::stoi(it->second, &pos);
    if (pos != it->second.size()) badValue(name, it->second, "int");
    return v;
  } catch (const std::exception&) {
    badValue(name, it->second, "int");
  }
}

double Flags::getDouble(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  rejectEmpty(name, it->second, "double");
  try {
    std::size_t pos = 0;
    const double v = std::stod(it->second, &pos);
    if (pos != it->second.size()) badValue(name, it->second, "double");
    return v;
  } catch (const std::exception&) {
    badValue(name, it->second, "double");
  }
}

ShardSpec Flags::getShard(const std::string& name, ShardSpec fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  rejectEmpty(name, v, "shard spec i/N");
  // A bare `--shard` parses as "true": leave it to getBool() callers that
  // use the same name as a mode switch.
  if (v == "true") return fallback;
  const auto slash = v.find('/');
  if (slash == std::string::npos) badValue(name, v, "shard spec i/N");
  try {
    std::size_t posIndex = 0;
    std::size_t posCount = 0;
    ShardSpec shard;
    shard.index = std::stoi(v.substr(0, slash), &posIndex);
    const std::string countText = v.substr(slash + 1);
    shard.count = std::stoi(countText, &posCount);
    if (posIndex != slash || posCount != countText.size() ||
        shard.count < 1 || shard.index < 0 || shard.index >= shard.count) {
      badValue(name, v, "shard spec i/N with 0 <= i < N");
    }
    return shard;
  } catch (const std::exception&) {
    badValue(name, v, "shard spec i/N");
  }
}

std::string Flags::getString(const std::string& name, std::string fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? std::move(fallback) : it->second;
}

void Flags::allowOnly(const std::vector<std::string>& known) const {
  for (const auto& [name, value] : values_) {
    if (std::find(known.begin(), known.end(), name) != known.end()) continue;
    std::string message = "unknown flag --" + name;
    const std::string hint = util::nearestName(name, known);
    if (!hint.empty()) message += " (did you mean --" + hint + "?)";
    std::fprintf(stderr, "%s\n", message.c_str());
    std::exit(2);
  }
}

std::vector<std::string> campaignFlagNames() {
  return {"threads",          "shard",     "partial-out", "checkpoint",
          "resume",           "halt-after-waves", "streaming", "progress",
          "log-level"};
}

bool Flags::getBool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  rejectEmpty(name, v, "bool");
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  badValue(name, v, "bool");
}

CampaignRunFlags campaignRunFlags(const Flags& flags) {
  CampaignRunFlags run;
  run.threads = flags.getInt("threads", 0);
  run.shard = flags.getShard("shard");
  run.partialOut = flags.getString("partial-out", "");
  run.checkpoint = flags.getString("checkpoint", "");
  run.resume = flags.getBool("resume", false);
  if (run.resume && run.checkpoint.empty()) {
    std::fprintf(stderr, "flag --resume needs --checkpoint=<path>\n");
    std::exit(2);
  }
  run.haltAfterWaves = flags.getInt("halt-after-waves", -1);
  run.streaming = flags.getBool("streaming", false);
  run.progress = flags.getBool("progress", false);
  if (flags.has("log-level")) {
    const std::string level = flags.getString("log-level", "");
    if (!Log::setLevelFromName(level)) {
      badValue("log-level", level, "level name (error|warn|info|debug|trace)");
    }
  }
  return run;
}

}  // namespace vanet
