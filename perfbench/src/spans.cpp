#include "spans.h"

#include <algorithm>
#include <map>
#include <sstream>

namespace perfbench {

SpanLog::SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

std::int64_t SpanLog::now() const noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void SpanLog::add(Span span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanLog::spans() const {
  std::vector<Span> out;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    out = spans_;
  }
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return out;
}

std::string SpanLog::jsonLines() const {
  std::ostringstream out;
  for (const Span& s : spans()) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.startNs
        << ",\"end_ns\":" << s.endNs << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"thread\":" << s.thread
        << ",\"job\":" << s.job << ",\"point\":" << s.point << "}\n";
  }
  return out.str();
}

int threadSlot() {
  static std::atomic<int> next{0};
  thread_local const int slot = next.fetch_add(1);
  return slot;
}

ScopedSpan::ScopedSpan(SpanLog* log, std::string name, int parent,
                       std::int64_t job, std::int64_t point)
    : log_(log) {
  span_.id = -1;
  if (log_ == nullptr) return;
  span_.name = std::move(name);
  span_.id = log_->nextId();
  span_.parent = parent;
  span_.thread = threadSlot();
  span_.job = job;
  span_.point = point;
  span_.startNs = log_->now();
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  span_.endNs = log_->now();
  log_->add(std::move(span_));
}

std::int64_t coveredNs(
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
    std::int64_t lo, std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t reach = lo;  // everything before `reach` is accounted for
  for (const auto& [start, end] : intervals) {
    const std::int64_t from = std::max(start, reach);
    const std::int64_t to = std::min(end, hi);
    if (to > from) {
      covered += to - from;
      reach = to;
    }
  }
  return covered;
}

std::vector<std::int64_t> selfTimesNs(const std::vector<Span>& spans) {
  std::map<int, std::vector<std::pair<std::int64_t, std::int64_t>>> children;
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.startNs, s.endNs);
  }
  std::vector<std::int64_t> self;
  self.reserve(spans.size());
  for (const Span& s : spans) {
    const auto it = children.find(s.id);
    const std::int64_t covered =
        it == children.end() ? 0 : coveredNs(it->second, s.startNs, s.endNs);
    self.push_back(s.durationNs() - covered);
  }
  return self;
}

}  // namespace perfbench
