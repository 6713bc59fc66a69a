/// \file main.cpp
/// perfbench_run: the repository benchmark harness.
///
///   perfbench_run --workload W --seed N --seconds S --trace 0|1
///                 [--root DIR] [--work DIR]
///
/// Runs workload W (see workloads.h) with the spec seeds replaced by N,
/// repeating whole iterations -- spec load to last artefact written --
/// for S seconds after one warm-up iteration, at min(4, nproc) worker
/// threads. Every iteration is checked: it must not throw, every emitted
/// file must exist, its artefact digest and work counts must equal the
/// first iteration's, and at the default seed they must also equal the
/// values recorded in perfbench/expected.json.
///
/// --trace 0 reports the end-to-end metrics: medians over iterations of
/// rounds per wall second, CPU ms per round and peak RSS, and the median
/// set-up time of separate probe processes. --trace 1
/// alternates untraced and traced iterations and reports the per-layer
/// metrics from the traced ones; its spans go to
/// <work>/trace/<workload>-seed<N>.spans.jsonl.
///
/// The last stdout line is the result object
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// with error_rate = failed / attempted. Lines before it start with '#'.

#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "digest.h"
#include "obs/counters.h"
#include "obs/manifest.h"
#include "spans.h"
#include "util/json.h"
#include "util/vmath.h"
#include "workloads.h"

extern char** environ;

namespace {

using perfbench::Span;
using perfbench::SpanLog;

constexpr int kSetupProbes = 41;
constexpr int kMinIterations = 3;  // per kind (untraced / traced)

struct Args {
  std::string workload;
  std::uint64_t seed = perfbench::kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";
  std::string work = ".bench_build";
  int probeFd = -1;  // set-up probe: signal on this fd, then exit
};

Args parseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--root") {
      args.root = value;
    } else if (key == "--work") {
      args.work = value;
    } else if (key == "--probe-setup") {
      args.probeFd = std::stoi(value);
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  const auto& names = perfbench::workloadNames();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    throw std::invalid_argument("unknown workload \"" + args.workload + "\"");
  }
  return args;
}

/// CPUs this process may run on, as `nproc` counts them.
int nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

int benchThreads() { return std::clamp(nproc(), 1, 4); }

double cpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double wallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Nearest-rank percentile (p in (0, 100]).
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

/// Wall time from spawning a set-up probe process until it reports that
/// it would now call runCampaign: exec, static initialisation, the
/// scenario registry, and spec parse, validate and config.
double probeSetupSeconds(const Args& args) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  fcntl(fds[0], F_SETFD, FD_CLOEXEC);
  const std::string fd = std::to_string(fds[1]);
  const std::string seed = std::to_string(args.seed);
  const char* argv[] = {"perfbench_run", "--probe-setup", fd.c_str(),
                        "--workload", args.workload.c_str(), "--seed",
                        seed.c_str(), "--root", args.root.c_str(), nullptr};
  const double start = wallSeconds();
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr,
                                  const_cast<char* const*>(argv), environ);
  close(fds[1]);
  char byte = 0;
  const bool signalled = spawned == 0 && read(fds[0], &byte, 1) == 1;
  const double elapsed = wallSeconds() - start;
  close(fds[0]);
  int status = 0;
  if (spawned == 0) waitpid(pid, &status, 0);
  if (!signalled || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up probe failed");
  }
  return elapsed;
}

std::string readFirstMatch(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(" \t", colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

/// Restarts the kernel's peak-RSS mark (VmHWM) of this process. Best
/// effort: where /proc/self/clear_refs cannot be written, the mark keeps
/// running from process start.
void resetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// VmHWM in MB: the peak resident set since the last resetPeakRss().
double peakRssMb() {
  return std::stod(readFirstMatch("/proc/self/status", "VmHWM")) / 1024.0;
}

std::string hostFingerprint(int threads) {
  using vanet::json::quote;
  std::ostringstream out;
  out << "{\"cpu\":" << quote(readFirstMatch("/proc/cpuinfo", "model name"))
      << ",\"nproc\":" << nproc() << ",\"threads\":" << threads
      << ",\"simd\":" << quote(vanet::vmath::simdIsa())
      << ",\"compiler\":" << quote(PERFBENCH_COMPILER)
      << ",\"build_flags\":" << quote(PERFBENCH_BUILD_FLAGS)
      << ",\"git_rev\":" << quote(vanet::obs::buildGitRevision()) << "}";
  return out.str();
}

/// Digest and counts perfbench/expected.json records for `workload` at
/// the default seed.
struct Expected {
  std::string digest;
  std::map<std::string, std::uint64_t> counts;
};

Expected loadExpected(const std::string& root, const std::string& workload) {
  Expected expected;
  const std::string path = root + "/perfbench/expected.json";
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  const vanet::json::Value doc = vanet::json::parse(text.str());
  const vanet::json::Value* entry = doc.at("workloads").find(workload);
  if (entry == nullptr) {
    throw std::runtime_error(path + " has no entry for " + workload);
  }
  expected.digest = entry->at("artifact_fnv1a64").asString();
  for (const auto& [name, value] : entry->at("counts").asObject()) {
    expected.counts[name] = value.asUInt64();
  }
  return expected;
}

/// One measured iteration.
struct Sample {
  bool traced = false;
  double wallS = 0.0;
  double cpuS = 0.0;
  double peakRssMb = 0.0;
  std::int64_t rounds = 0;
  std::map<std::string, std::uint64_t> counts;  // deterministic work
  vanet::obs::Snapshot snapshot;                 // timers of this iteration
  int firstSpanId = 0;                           // traced: span id range
  int endSpanId = 0;
};

/// Every deterministic count of one iteration: obs counters (except the
/// scheduling-dependent reorder stalls), result totals, emitted and
/// partial bytes.
std::map<std::string, std::uint64_t> iterationCounts(
    const vanet::obs::Snapshot& snapshot,
    const perfbench::ResultSummary& summary,
    const perfbench::ArtifactDigest& artifacts,
    const perfbench::IterationOutput& output) {
  std::map<std::string, std::uint64_t> counts = summary.counts;
  for (const auto& counter : snapshot.counters) {
    if (counter.name != "util.reorder.stalls") {
      counts["obs." + counter.name] = counter.value;
    }
  }
  counts["runner.emit_files"] = artifacts.files;
  counts["runner.emit_bytes"] = artifacts.bytes;
  counts["runner.partial_bytes"] = output.partialBytes;
  return counts;
}

/// An ordered metric list rendered as the result object's "metrics".
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += vanet::json::quote(metrics[i].name) +
           ": {\"value\": " + vanet::json::num(metrics[i].value) +
           ", \"unit\": " + vanet::json::quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double timerMs(const Sample& s, const char* name) {
  return 1e-6 * static_cast<double>(s.snapshot.timer(name).totalNanos);
}

/// Per-layer metrics of a traced run (see BENCHMARK.json "per_layer").
std::vector<Metric> layerMetrics(const std::vector<Sample>& samples,
                                 const std::vector<Span>& spans,
                                 int threads, std::ostream& table) {
  std::vector<const Sample*> traced;
  std::vector<double> untracedRps, tracedRps;
  for (const Sample& s : samples) {
    (s.traced ? tracedRps : untracedRps)
        .push_back(static_cast<double>(s.rounds) / s.wallS);
    if (s.traced) traced.push_back(&s);
  }
  const std::vector<std::int64_t> self = perfbench::selfTimesNs(spans);

  // Per traced iteration: span totals by name, self time by name, job
  // durations and the obs timers.
  std::map<std::string, std::vector<double>> perIter;
  std::map<std::string, std::vector<double>> selfMs;
  std::vector<double> jobMs;
  for (const Sample* s : traced) {
    std::map<std::string, double> spanMs, selfByName;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      if (span.id < s->firstSpanId || span.id >= s->endSpanId) continue;
      const double ms = 1e-6 * static_cast<double>(span.durationNs());
      spanMs[span.name] += ms;
      selfByName[span.name] += 1e-6 * static_cast<double>(self[i]);
      if (span.name == "job") jobMs.push_back(ms);
    }
    for (const auto& [name, ms] : selfByName) selfMs[name].push_back(ms);
    const double rounds = static_cast<double>(s->rounds);
    auto& v = perIter;
    v["spec_load_ms"].push_back(spanMs["spec_load"]);
    v["plan_ms"].push_back(timerMs(*s, "campaign.plan"));
    v["execute_s"].push_back(1e-3 * timerMs(*s, "campaign.execute"));
    v["busy"].push_back(
        ratio(spanMs["job"], spanMs["run_campaign"] * threads));
    v["accumulate_ms"].push_back(timerMs(*s, "campaign.accumulate"));
    v["partial_write_ms"].push_back(spanMs["partial_write"]);
    v["partial_merge_ms"].push_back(spanMs["partial_merge"]);
    v["emit_ms"].push_back(spanMs["emit"]);
    v["campaign_self_ms"].push_back(selfByName["run_campaign"]);
    v["build"].push_back(timerMs(*s, "round.build") / rounds);
    v["kernel"].push_back(timerMs(*s, "round.kernel") / rounds);
    v["fold"].push_back(timerMs(*s, "round.fold") / rounds);
    const auto& c = s->counts;
    const double kernelNs = 1e6 * timerMs(*s, "round.kernel");
    v["ns_per_event"].push_back(
        ratio(kernelNs, static_cast<double>(c.at("obs.sim.events_dispatched"))));
    v["ns_per_link_eval"].push_back(
        ratio(kernelNs, static_cast<double>(c.at("obs.mac.link_evaluations"))));
  }
  const auto med = [&](const char* key) { return median(perIter[key]); };

  const auto& c = samples.front().counts;
  const auto count = [&](const std::string& key) {
    const auto it = c.find(key);
    return it == c.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double rounds = count("runner.rounds");
  const double tx = count("medium.transmitted");
  const double events = count("obs.sim.events_dispatched");
  const double links = count("obs.mac.link_evaluations");
  const double batches = count("obs.mac.batch_size_1") +
                         count("obs.mac.batch_size_2_4") +
                         count("obs.mac.batch_size_5_8") +
                         count("obs.mac.batch_size_9plus");
  const double drops = count("medium.sensitivity") + count("medium.collision") +
                       count("medium.channel_error") + count("medium.burst") +
                       count("medium.half_duplex");
  const double untraced = median(untracedRps);

  std::vector<Metric> m = {
      {"runner.spec_load_ms", med("spec_load_ms"), "ms"},
      {"runner.plan_ms", med("plan_ms"), "ms"},
      {"runner.execute_s", med("execute_s"), "s"},
      {"runner.worker_busy_frac", med("busy"), "fraction"},
      {"runner.job_p50_ms", percentile(jobMs, 50), "ms"},
      {"runner.job_p99_ms", percentile(jobMs, 99), "ms"},
      {"runner.job_samples", static_cast<double>(jobMs.size()), "count"},
      {"runner.jobs", count("obs.campaign.jobs_run"), "count"},
      {"runner.waves", count("obs.campaign.waves"), "count"},
      {"runner.rounds", rounds, "count"},
      {"runner.accumulate_ms", med("accumulate_ms"), "ms"},
      {"runner.campaign_self_ms", med("campaign_self_ms"), "ms"},
      {"runner.partial_write_ms", med("partial_write_ms"), "ms"},
      {"runner.partial_bytes", count("runner.partial_bytes"), "bytes"},
      {"runner.partial_merge_ms", med("partial_merge_ms"), "ms"},
      {"runner.emit_ms", med("emit_ms"), "ms"},
      {"runner.emit_bytes", count("runner.emit_bytes"), "bytes"},
      {"runner.emit_files", count("runner.emit_files"), "count"},
      {"analysis.build_ms_per_round", med("build"), "ms"},
      {"analysis.kernel_ms_per_round", med("kernel"), "ms"},
      {"analysis.fold_ms_per_round", med("fold"), "ms"},
      {"sim.events_per_round", ratio(events, rounds), "count"},
      {"sim.events_per_tx", ratio(events, tx), "count"},
      {"sim.cancelled_per_event",
       ratio(count("obs.sim.events_cancelled"), events), "fraction"},
      {"sim.compactions_per_round",
       ratio(count("obs.sim.queue_compactions"), rounds), "count"},
      {"sim.host_ns_per_event", med("ns_per_event"), "ns"},
      {"mac.link_evals_per_tx", ratio(links, tx), "count"},
      {"mac.delivered_per_link_eval",
       ratio(count("obs.mac.frames_delivered"), links), "fraction"},
      {"mac.host_ns_per_link_eval", med("ns_per_link_eval"), "ns"},
      {"mac.batch_share.1", ratio(count("obs.mac.batch_size_1"), batches),
       "fraction"},
      {"mac.batch_share.2_4", ratio(count("obs.mac.batch_size_2_4"), batches),
       "fraction"},
      {"mac.batch_share.5_8", ratio(count("obs.mac.batch_size_5_8"), batches),
       "fraction"},
      {"mac.batch_share.9plus",
       ratio(count("obs.mac.batch_size_9plus"), batches), "fraction"},
      {"mac.drop_share.sensitivity", ratio(count("medium.sensitivity"), drops),
       "fraction"},
      {"mac.drop_share.collision", ratio(count("medium.collision"), drops),
       "fraction"},
      {"mac.drop_share.channel_error",
       ratio(count("medium.channel_error"), drops), "fraction"},
      {"mac.drop_share.burst", ratio(count("medium.burst"), drops), "fraction"},
      {"mac.drop_share.half_duplex", ratio(count("medium.half_duplex"), drops),
       "fraction"},
      {"core.requests_per_round", ratio(count("core.requests"), rounds),
       "count"},
      {"core.request_seqs_per_round",
       ratio(count("core.request_seqs"), rounds), "count"},
      {"core.coop_data_per_round", ratio(count("core.coop_data"), rounds),
       "count"},
      {"core.suppressed_per_round", ratio(count("core.suppressed"), rounds),
       "count"},
      {"core.hellos_per_round", ratio(count("core.hellos"), rounds), "count"},
      {"core.buffered_per_round", ratio(count("core.buffered"), rounds),
       "count"},
      {"obs.trace_overhead_pct",
       100.0 * ratio(untraced - median(tracedRps), untraced), "%"},
  };

  table << "# per-layer (medians over " << traced.size()
        << " traced iterations; counts per iteration)\n";
  for (const Metric& metric : m) {
    table << "#   " << metric.name << " = " << vanet::json::num(metric.value)
          << " " << metric.unit << "\n";
  }
  table << "# self time per iteration by span (ms, median)\n";
  for (const auto& [name, values] : selfMs) {
    table << "#   " << name << " " << vanet::json::num(median(values)) << "\n";
  }
  return m;
}

int run(const Args& args) {
  const int threads = benchThreads();
  if (args.probeFd >= 0) {
    perfbench::loadStudies(args.workload, args.root, args.seed, threads);
    const char byte = 'x';
    if (write(args.probeFd, &byte, 1) != 1) return 1;
    _exit(0);
  }

  std::vector<double> setup;
  if (!args.trace) {
    for (int i = 0; i < kSetupProbes; ++i) {
      setup.push_back(probeSetupSeconds(args));
    }
  }
  std::cout << "# host " << hostFingerprint(threads) << "\n";

  const std::string outDir =
      args.work + "/run/" + args.workload + "." + std::to_string(getpid());
  const Expected expected = args.seed == perfbench::kDefaultSeed
                                ? loadExpected(args.root, args.workload)
                                : Expected{};
  SpanLog log;
  std::vector<Sample> samples;
  std::string firstDigest;
  std::uint64_t firstPoints = 0;
  std::map<std::string, std::uint64_t> firstCounts;
  int attempted = 0;
  int failed = 0;
  int consecutiveFailures = 0;

  // Iteration 0 is the warm-up: checked, not measured. The first
  // iteration that completes is the reference the others must reproduce.
  const double loopStart = wallSeconds();
  for (int iteration = 0;; ++iteration) {
    const bool traced = args.trace && iteration % 2 == 0 && iteration > 0;
    if (iteration > 0) {
      int traceCount = 0, plainCount = 0;
      for (const Sample& s : samples) ++(s.traced ? traceCount : plainCount);
      const bool enough = plainCount >= kMinIterations &&
                          (!args.trace || traceCount >= kMinIterations);
      // Failed iterations never count towards `enough`, so a run that has
      // failed stops at the deadline regardless.
      if (wallSeconds() - loopStart >= args.seconds && (enough || failed > 0)) {
        break;
      }
    }
    if (consecutiveFailures >= 3) break;
    ++attempted;
    try {
      std::filesystem::remove_all(outDir);
      std::filesystem::create_directories(outDir);
      Sample sample;
      sample.traced = traced;
      vanet::obs::resetAll();
      resetPeakRss();
      sample.firstSpanId = log.nextId();
      // Results are checked as they are emitted, so none outlives its
      // emit; the checks' own time is taken out of the iteration's.
      perfbench::ResultSummary summary;
      double checkWallS = 0.0;
      double checkCpuS = 0.0;
      const perfbench::ResultSink sink =
          [&](const vanet::runner::CampaignResult& result) {
            const double wall = wallSeconds();
            const double cpu = cpuSeconds();
            perfbench::addResult(summary, result);
            checkWallS += wallSeconds() - wall;
            checkCpuS += cpuSeconds() - cpu;
          };
      const double wall0 = wallSeconds();
      const double cpu0 = cpuSeconds();
      perfbench::IterationOutput output;
      {
        const perfbench::ScopedSpan root(traced ? &log : nullptr, "iteration",
                                         -1);
        output = perfbench::runIteration(
            args.workload, args.root, args.seed, threads, outDir, sink,
            {traced ? &log : nullptr, root.id()});
      }
      sample.wallS = wallSeconds() - wall0 - checkWallS;
      sample.cpuS = cpuSeconds() - cpu0 - checkCpuS;
      sample.peakRssMb = peakRssMb();
      sample.endSpanId = log.nextId();
      sample.snapshot = vanet::obs::takeSnapshot();

      const perfbench::ArtifactDigest artifacts =
          perfbench::digestArtifacts(outDir, output.written);
      sample.rounds = summary.rounds;
      sample.counts =
          iterationCounts(sample.snapshot, summary, artifacts, output);
      const std::string digest = perfbench::hex64(artifacts.fnv1a64);

      std::vector<std::string> problems;
      if (firstDigest.empty()) {
        firstDigest = digest;
        firstPoints = summary.pointsDigest;
        firstCounts = sample.counts;
        std::cout << "# artifacts " << artifacts.files << " files, "
                  << artifacts.bytes << " bytes, fnv1a64 " << digest << "\n";
        std::cout << "# counts";
        for (const auto& [name, value] : sample.counts) {
          std::cout << " " << name << "=" << value;
        }
        std::cout << "\n";
      }
      if (digest != firstDigest) problems.push_back("artefact bytes changed");
      if (summary.pointsDigest != firstPoints) {
        problems.push_back("per-point results changed");
      }
      for (const auto& [name, value] : firstCounts) {
        const auto it = sample.counts.find(name);
        if (it == sample.counts.end() || it->second != value) {
          problems.push_back("count " + name + " changed");
        }
      }
      if (args.seed == perfbench::kDefaultSeed && digest != expected.digest) {
        problems.push_back("artefact digest " + digest + " != expected " +
                           expected.digest);
      }
      for (const auto& [name, value] : expected.counts) {
        const auto it = sample.counts.find(name);
        if (it == sample.counts.end() || it->second != value) {
          problems.push_back("count " + name + " != expected " +
                             std::to_string(value));
        }
      }
      if (!problems.empty()) {
        for (const std::string& p : problems) {
          std::cerr << "iteration " << iteration << ": " << p << "\n";
        }
        ++failed;
        ++consecutiveFailures;
        continue;
      }
      consecutiveFailures = 0;
      std::cout << "# iteration " << iteration << (traced ? " traced" : "")
                << " wall_s " << sample.wallS << " cpu_s " << sample.cpuS
                << " peak_rss_mb " << sample.peakRssMb << "\n";
      if (iteration > 0) samples.push_back(std::move(sample));
    } catch (const std::exception& error) {
      std::cerr << "iteration " << iteration << ": " << error.what() << "\n";
      ++failed;
      ++consecutiveFailures;
    }
  }
  std::filesystem::remove_all(outDir);
  if (samples.empty()) {
    std::cerr << "no iteration succeeded\n";
    return 1;
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    std::vector<double> rps, cpuMs, rssMb;
    for (const Sample& s : samples) {
      rps.push_back(static_cast<double>(s.rounds) / s.wallS);
      cpuMs.push_back(1e3 * s.cpuS / static_cast<double>(s.rounds));
      rssMb.push_back(s.peakRssMb);
    }
    metrics = {
        {"rounds_per_s", median(rps), "1/s"},
        {"cpu_ms_per_round", median(cpuMs), "ms"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", median(rssMb), "MB"},
    };
    std::cout << "# " << samples.size() << " iterations, "
              << samples.front().rounds << " rounds each, error_rate "
              << vanet::json::num(static_cast<double>(failed) / attempted)
              << "\n";
  } else {
    const std::vector<Span> spans = log.spans();
    metrics = layerMetrics(samples, spans, threads, std::cout);
    const std::string traceDir = args.work + "/trace";
    std::filesystem::create_directories(traceDir);
    const std::string path = traceDir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".spans.jsonl";
    std::ofstream out(path);
    out << "{\"host\":" << hostFingerprint(threads) << "}\n" << log.jsonLines();
    std::cout << "# spans " << spans.size() << " -> " << path << "\n";
  }
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metricsJson(metrics) << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parseArgs(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "perfbench_run: " << error.what() << "\n";
    return 1;
  }
}
