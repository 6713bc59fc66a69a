#pragma once

/// \file spans.h
/// In-memory span recording for the benchmark's traced run. Spans are
/// taken by the benchmark around every public call it makes into
/// libvanet (spec load, runCampaign, partial write, merge, emit) and,
/// through a forwarding scenario, around every campaign job. Nothing is
/// written while the workload runs; the log is serialized once at the end.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One closed span. Times are steady_clock nanoseconds since the log's
/// epoch; `parent` is -1 for a root. `job` / `point` are -1 except on job
/// spans (global job index and full-grid point index).
struct Span {
  std::string name;
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  int id = 0;
  int parent = -1;
  int thread = 0;
  std::int64_t job = -1;
  std::int64_t point = -1;

  std::int64_t durationNs() const noexcept { return endNs - startNs; }
};

/// Thread-safe append-only span store.
class SpanLog {
 public:
  SpanLog();

  /// Nanoseconds since the log was created.
  std::int64_t now() const noexcept;
  /// A fresh span id (ids are handed out when a span opens, so children
  /// can name a parent that has not closed yet).
  int nextId() noexcept { return nextId_.fetch_add(1); }
  void add(Span span);

  /// Every closed span, sorted by id.
  std::vector<Span> spans() const;
  /// One JSON object per line: name, start_ns, end_ns, id, parent,
  /// thread, job, point.
  std::string jsonLines() const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<int> nextId_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// Small dense id of the calling thread (0 for the first thread that
/// asks, then 1, 2, ...).
int threadSlot();

/// Records one span from construction to destruction into `log`; a null
/// log records nothing, so untraced code paths share the call sites.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int parent,
             std::int64_t job = -1, std::int64_t point = -1);
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan();

  /// This span's id, to parent children on; -1 when not recording.
  int id() const noexcept { return span_.id; }

 private:
  SpanLog* log_;
  Span span_;
};

/// Nanoseconds of [lo, hi) covered by the union of `intervals`
/// (each {start, end}; overlapping and out-of-range intervals allowed).
std::int64_t coveredNs(std::vector<std::pair<std::int64_t, std::int64_t>>
                           intervals,
                       std::int64_t lo, std::int64_t hi);

/// Self time of every span, indexed like `spans`: its duration minus the
/// part of its interval that its direct children cover. Children running
/// in parallel count once, so a parent busy-waiting on four concurrent
/// jobs has self time only where no job runs.
std::vector<std::int64_t> selfTimesNs(const std::vector<Span>& spans);

}  // namespace perfbench
