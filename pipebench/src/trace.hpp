// The traced run's span and counter recorder.
//
// Spans are recorded by the benchmark's own code around each public call
// it makes into a layer of lclpath (the library itself is not
// instrumented). A span holds its kind (name), start, end, parent and the
// id of the request it belongs to. Each client thread owns one
// ThreadTrace, so recording takes no lock; the spans stay in that
// thread's memory and are reduced to per-kind self times when the buffer
// fills at a request boundary and when the run ends.
//
// Self time is a span's duration minus the part of its interval covered
// by the union of its child spans.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pipebench {

/// Span names. The two roots group the spans of one loop operation
/// (kRequest) and of the traced set-up (kSetup); every other kind is a
/// call into the layer named before the dot of span_name().
enum class SpanKind : std::uint8_t {
  kRequest,
  kSetup,
  kParse,
  kKey,
  kTransition,
  kMonoid,
  kSolvability,
  kClassify,
  kLinearGap,
  kConstGap,
  kBatch,
  kSynthesize,
  kSimulate,
  kPut,
  kCommit,
  kLoad,
  kWarmStart,
  kPoll,
  kFind,
};
inline constexpr std::size_t kNumSpanKinds = 19;

/// "layer.call", e.g. "lcl.parse"; the roots are "bench.request" and
/// "bench.setup".
const char* span_name(SpanKind kind);
bool is_root(SpanKind kind);

/// Work counts recorded at the same boundaries as the spans.
enum class Counter : std::uint8_t {
  kMonoidElements,
  kMonoidCacheHits,
  kMonoidCacheMisses,
  kLinearGapPoints,
  kBatchCacheHits,
  kBatchCacheMisses,
  kBatchDedup,
  kSynthRadius,
  kNodes,
  kChunks,
  kThreadsUsed,
  kShardsWritten,
  kRecordsLoaded,
  kDirtyShards,
  kPreloaded,
  kReloaded,
  kRejected,
  kFindHits,
};
inline constexpr std::size_t kNumCounters = 18;

/// Metric name, e.g. "automata.monoid_elements".
const char* counter_name(Counter counter);
/// kThreadsUsed is a gauge (largest value seen); every other counter sums.
bool counter_is_max(Counter counter);

struct SpanRecord {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t request = 0;
  std::int32_t parent = -1;  ///< index into the same buffer; -1 for a root
  SpanKind kind = SpanKind::kRequest;
};

/// Self time of every span, in nanoseconds. Parents must precede their
/// children in the buffer (the recording order guarantees it). Children
/// may overlap each other; only the part of a child inside its parent's
/// interval is subtracted.
std::vector<std::int64_t> self_times_ns(const std::vector<SpanRecord>& spans);

/// Per-kind self times, call counts and counters, summed over threads.
struct TraceTotals {
  std::array<double, kNumSpanKinds> self_s{};
  std::array<std::uint64_t, kNumSpanKinds> calls{};
  std::array<double, kNumCounters> counters{};
  /// Self time of the layer spans (non-roots) under kRequest roots: the
  /// numerator of trace.coverage.
  double request_layer_self_s = 0;

  void merge(const TraceTotals& other);
  double self(SpanKind kind) const { return self_s[static_cast<std::size_t>(kind)]; }
  double counter(Counter c) const { return counters[static_cast<std::size_t>(c)]; }
};

class ThreadTrace {
 public:
  /// Buffered spans that trigger a reduction when a root span closes.
  static constexpr std::size_t kFoldThreshold = 1u << 16;

  /// Request id stamped on the spans opened from now on.
  void set_request(std::uint64_t id) { request_ = id; }
  std::int32_t open(SpanKind kind);
  void close(std::int32_t index);
  void add(Counter counter, double value);
  /// Reduces every buffered span into the totals and clears the buffer.
  /// Every opened span must be closed.
  void fold();
  const TraceTotals& totals() const { return totals_; }

 private:
  std::vector<SpanRecord> spans_;
  std::int32_t current_ = -1;
  std::uint64_t request_ = 0;
  TraceTotals totals_;
};

/// Scoped span; a no-op when the trace is null, which is how the untraced
/// runs execute the same code.
class Span {
 public:
  Span(ThreadTrace* trace, SpanKind kind)
      : trace_(trace), index_(trace != nullptr ? trace->open(kind) : -1) {}
  ~Span() {
    if (trace_ != nullptr) trace_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  ThreadTrace* trace_;
  std::int32_t index_;
};

inline void count(ThreadTrace* trace, Counter counter, double value) {
  if (trace != nullptr) trace->add(counter, value);
}

/// The self-time table of a traced run, one line per span kind.
std::string format_self_time_table(const TraceTotals& totals);

}  // namespace pipebench
