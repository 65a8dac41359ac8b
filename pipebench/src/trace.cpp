#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

namespace pipebench {

namespace {

constexpr const char* kSpanNames[kNumSpanKinds] = {
    "bench.request",      "bench.setup",       "lcl.parse",         "lcl.key",
    "automata.transition", "automata.monoid",  "automata.solvability", "decide.classify",
    "decide.linear_gap",  "decide.const_gap",  "decide.batch",      "decide.synthesize",
    "local.simulate",     "store.put",         "store.commit",      "store.load",
    "store.warm_start",   "store.poll",        "store.find",
};

constexpr const char* kCounterNames[kNumCounters] = {
    "automata.monoid_elements", "automata.monoid_cache_hits", "automata.monoid_cache_misses",
    "decide.linear_gap_points", "decide.batch_cache_hits",    "decide.batch_cache_misses",
    "decide.batch_dedup",       "decide.synth_radius",        "local.nodes",
    "local.chunks",             "local.threads_used",         "store.shards_written",
    "store.records_loaded",     "store.dirty_shards",         "store.preloaded",
    "store.reloaded",           "store.rejected",             "store.find_hits",
};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* span_name(SpanKind kind) { return kSpanNames[static_cast<std::size_t>(kind)]; }

bool is_root(SpanKind kind) { return kind == SpanKind::kRequest || kind == SpanKind::kSetup; }

const char* counter_name(Counter counter) {
  return kCounterNames[static_cast<std::size_t>(counter)];
}

bool counter_is_max(Counter counter) { return counter == Counter::kThreadsUsed; }

std::vector<std::int64_t> self_times_ns(const std::vector<SpanRecord>& spans) {
  std::vector<std::int64_t> self(spans.size());
  std::vector<std::int32_t> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
    if (spans[i].parent >= 0) children.push_back(static_cast<std::int32_t>(i));
  }
  std::sort(children.begin(), children.end(), [&](std::int32_t a, std::int32_t b) {
    const SpanRecord& x = spans[a];
    const SpanRecord& y = spans[b];
    return x.parent != y.parent ? x.parent < y.parent : x.start_ns < y.start_ns;
  });
  // One parent's children are contiguous and sorted by start: sweep their
  // clipped intervals, merging overlaps, and subtract the covered length.
  for (std::size_t k = 0; k < children.size();) {
    const std::int32_t parent = spans[children[k]].parent;
    const SpanRecord& p = spans[parent];
    std::int64_t covered = 0;
    std::int64_t run_start = 0;
    std::int64_t run_end = 0;
    bool in_run = false;
    for (; k < children.size() && spans[children[k]].parent == parent; ++k) {
      const SpanRecord& c = spans[children[k]];
      const std::int64_t s = std::max(c.start_ns, p.start_ns);
      const std::int64_t e = std::min(c.end_ns, p.end_ns);
      if (e <= s) continue;
      if (in_run && s <= run_end) {
        run_end = std::max(run_end, e);
      } else {
        if (in_run) covered += run_end - run_start;
        run_start = s;
        run_end = e;
        in_run = true;
      }
    }
    if (in_run) covered += run_end - run_start;
    self[parent] -= covered;
  }
  return self;
}

void TraceTotals::merge(const TraceTotals& other) {
  for (std::size_t i = 0; i < kNumSpanKinds; ++i) {
    self_s[i] += other.self_s[i];
    calls[i] += other.calls[i];
  }
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    counters[i] = counter_is_max(static_cast<Counter>(i))
                      ? std::max(counters[i], other.counters[i])
                      : counters[i] + other.counters[i];
  }
  request_layer_self_s += other.request_layer_self_s;
}

std::int32_t ThreadTrace::open(SpanKind kind) {
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back({now_ns(), 0, request_, current_, kind});
  current_ = index;
  return index;
}

void ThreadTrace::close(std::int32_t index) {
  SpanRecord& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = now_ns();
  current_ = span.parent;
  if (current_ < 0 && spans_.size() >= kFoldThreshold) fold();
}

void ThreadTrace::add(Counter counter, double value) {
  double& slot = totals_.counters[static_cast<std::size_t>(counter)];
  slot = counter_is_max(counter) ? std::max(slot, value) : slot + value;
}

void ThreadTrace::fold() {
  if (current_ >= 0) throw std::logic_error("ThreadTrace::fold: a span is still open");
  const std::vector<std::int64_t> self = self_times_ns(spans_);
  std::vector<SpanKind> root(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    root[i] = span.parent < 0 ? span.kind : root[static_cast<std::size_t>(span.parent)];
    const auto kind = static_cast<std::size_t>(span.kind);
    const double seconds = static_cast<double>(self[i]) * 1e-9;
    totals_.self_s[kind] += seconds;
    ++totals_.calls[kind];
    if (root[i] == SpanKind::kRequest && !is_root(span.kind)) {
      totals_.request_layer_self_s += seconds;
    }
  }
  spans_.clear();
}

std::string format_self_time_table(const TraceTotals& totals) {
  std::string out = "self-time table (span, calls, self s, self us/call)\n";
  char line[160];
  for (std::size_t i = 0; i < kNumSpanKinds; ++i) {
    if (totals.calls[i] == 0) continue;
    std::snprintf(line, sizeof line, "  %-22s %10llu %12.6f %12.3f\n",
                  span_name(static_cast<SpanKind>(i)),
                  static_cast<unsigned long long>(totals.calls[i]), totals.self_s[i],
                  totals.self_s[i] * 1e6 / static_cast<double>(totals.calls[i]));
    out += line;
  }
  return out;
}

}  // namespace pipebench
