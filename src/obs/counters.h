#pragma once

/// \file counters.h
/// The out-of-band observability registry: named monotonic counters and
/// scoped wall-clock timers, accumulated in per-thread slabs and merged
/// only when a snapshot is taken.
///
/// Design constraints, in order:
///
///  1. *Never perturb result bytes.* Nothing here touches an RNG, a
///     simulation object or a fold order; instrumented code behaves
///     identically whether the registry is enabled or not, and the
///     byte-diff determinism suite runs with it enabled.
///  2. *Cheap on the hot path.* A count is a relaxed load and a relaxed
///     store on a thread-local cell (plus one relaxed enabled-flag
///     load), inlined at the call site through cached raw cell
///     pointers; a scoped timer adds two steady_clock reads. Only the
///     owning thread ever writes its cell, so no locked read-modify-
///     write is needed: each thread owns a private slab, registered on
///     first use and folded into the retired totals when the thread
///     exits. The cells stay atomics so snapshots read them untorn.
///  3. *Deterministic snapshots where the workload is deterministic.*
///     snapshot() returns name-sorted totals; counters that count
///     simulation work (events dispatched, frames delivered, ...) are
///     byte-stable across --threads / --streaming / shards because the
///     jobs themselves are. Scheduling-dependent counters (reorder-window
///     stalls) and all timers are measurements of *this* run, not of the
///     workload, and are excluded from any determinism claim.
///
/// Naming scheme: dot-separated hierarchy, `<layer>.<event>` --
/// `sim.events_dispatched`, `mac.frames_delivered`, `round.kernel`,
/// `campaign.execute`. See docs/observability.md for the full table.
///
/// Handles are interned once per call site:
///
///   static obs::Counter& c = obs::Counter::get("sim.events_dispatched");
///   c.add();
///
/// or, through the convenience macros that hide the static handle:
///
///   OBS_COUNT("sim.events_dispatched");
///   OBS_COUNT_N("mac.link_evaluations", plans.size());
///   OBS_SCOPED_TIMER("round.kernel");

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <chrono>
#include <string>
#include <vector>

namespace vanet::obs {

/// Registry capacities. Interning past these aborts (VANET_ASSERT): the
/// name set is a small, closed vocabulary, not user data.
constexpr std::size_t kMaxCounters = 96;
constexpr std::size_t kMaxTimers = 48;

namespace detail {

/// The process-wide enable flag, inline so add()/record() read it with a
/// single relaxed load instead of a cross-TU call.
inline std::atomic<bool> gEnabled{true};

/// The calling thread's accumulation cells, cached as raw pointers so
/// the hot-path increment is a zero-guard TLS load plus bump().
/// Null until the slow path registers this thread's slab.
struct ThreadCells {
  std::atomic<std::uint64_t>* counters = nullptr;
  std::atomic<std::uint64_t>* timerNanos = nullptr;
  std::atomic<std::uint64_t>* timerCounts = nullptr;
};
extern thread_local ThreadCells tCells;

/// Slow path: allocates and registers this thread's slab, fills tCells.
ThreadCells& initThreadCells();

inline ThreadCells& threadCells() {
  return tCells.counters != nullptr ? tCells : initThreadCells();
}

/// Adds `n` to a cell of the calling thread's own slab. The owner is the
/// cell's only writer, so a relaxed load and store replace fetch_add's
/// locked read-modify-write; readers still see a whole value.
inline void bump(std::atomic<std::uint64_t>& cell, std::uint64_t n) noexcept {
  cell.store(cell.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
}

}  // namespace detail

/// Globally enables / disables accumulation (snapshots still work).
/// Enabled by default; the byte-invariance tests flip it both ways to
/// prove results do not depend on it. Not meant to be toggled while
/// worker threads are mid-count (counts may land on either side).
inline void setEnabled(bool enabled) noexcept {
  detail::gEnabled.store(enabled, std::memory_order_relaxed);
}
inline bool enabled() noexcept {
  return detail::gEnabled.load(std::memory_order_relaxed);
}

/// A named monotonic counter. Get once (interns the name), add anywhere;
/// thread-safe and contention-free.
class Counter {
 public:
  /// Interns `name` (idempotent) and returns its process-wide handle.
  static Counter& get(const std::string& name);

  void add(std::uint64_t n = 1) noexcept {
    if (!enabled()) return;
    detail::bump(detail::threadCells().counters[id_], n);
  }

  std::size_t id() const noexcept { return id_; }
  const std::string& name() const;

 private:
  explicit Counter(std::size_t id) noexcept : id_(id) {}
  friend class Registry;
  std::size_t id_;
};

/// A named duration accumulator: total nanoseconds and invocation count.
/// Use through ScopedTimer; record() exists for pre-measured spans.
class Timer {
 public:
  static Timer& get(const std::string& name);

  void record(std::uint64_t nanos) noexcept {
    if (!enabled()) return;
    detail::ThreadCells& cells = detail::threadCells();
    detail::bump(cells.timerNanos[id_], nanos);
    detail::bump(cells.timerCounts[id_], 1);
  }

  std::size_t id() const noexcept { return id_; }
  const std::string& name() const;

 private:
  explicit Timer(std::size_t id) noexcept : id_(id) {}
  friend class Registry;
  std::size_t id_;
};

/// Times its own lifetime into a Timer. When the registry is disabled at
/// construction the clock is never read.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer& timer) noexcept
      : timer_(enabled() ? &timer : nullptr) {
    if (timer_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    if (timer_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    timer_->record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count()));
  }

 private:
  Timer* timer_;
  std::chrono::steady_clock::time_point start_{};
};

/// One merged counter / timer reading.
struct CounterValue {
  std::string name;
  std::uint64_t value = 0;
};
struct TimerValue {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t totalNanos = 0;
};

/// A merged, name-sorted view over every thread's slab (live threads
/// included) plus the retired totals of exited threads.
struct Snapshot {
  std::vector<CounterValue> counters;
  std::vector<TimerValue> timers;

  /// Value of a counter / timer by name; zero-valued entry when absent.
  std::uint64_t counter(const std::string& name) const noexcept;
  TimerValue timer(const std::string& name) const noexcept;
};

/// Merges every slab into a Snapshot. Thread-safe; concurrent adds land
/// on one side of the snapshot or the other.
Snapshot takeSnapshot();

/// Zeroes every counter and timer cell, live and retired. Meant for
/// perfbench and tests that want per-section readings; do not call while
/// worker threads are counting.
void resetAll() noexcept;

/// Deterministic JSON rendering of a snapshot: two objects keyed by the
/// sorted names, `{"counters":{...},"timers":{"name":{"count":..,
/// "total_ns":..}}}`. Zero-count entries are kept so schema consumers
/// see the full vocabulary that was interned.
std::string snapshotJson(const Snapshot& snapshot);

}  // namespace vanet::obs

#define OBS_COUNT(name)                                     \
  do {                                                      \
    static ::vanet::obs::Counter& vanet_obs_counter_ =      \
        ::vanet::obs::Counter::get(name);                   \
    vanet_obs_counter_.add();                               \
  } while (false)

#define OBS_COUNT_N(name, n)                                \
  do {                                                      \
    static ::vanet::obs::Counter& vanet_obs_counter_ =      \
        ::vanet::obs::Counter::get(name);                   \
    vanet_obs_counter_.add(static_cast<std::uint64_t>(n));  \
  } while (false)

#define VANET_OBS_CONCAT_(a, b) a##b
#define VANET_OBS_CONCAT(a, b) VANET_OBS_CONCAT_(a, b)

/// Declares a scoped timer for the rest of the enclosing block. Names
/// embed the line number so two timers can share a scope.
#define OBS_SCOPED_TIMER(name)                                        \
  static ::vanet::obs::Timer& VANET_OBS_CONCAT(vanet_obs_timer_,      \
                                               __LINE__) =            \
      ::vanet::obs::Timer::get(name);                                 \
  const ::vanet::obs::ScopedTimer VANET_OBS_CONCAT(vanet_obs_scope_,  \
                                                   __LINE__)(         \
      VANET_OBS_CONCAT(vanet_obs_timer_, __LINE__))
