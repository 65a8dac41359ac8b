// Batch classification: run the decision procedure (Theorems 8 + 9) over
// many pairwise problems at once on a thread pool.
//
// Each classify() call is independent — it builds its own transition
// system and monoid — so a catalog of problems parallelizes across
// problems with no shared state. classify_batch():
//
//   * preserves input order: result[i] always describes problems[i];
//   * captures per-problem failures (a monoid-budget overflow or any other
//     exception thrown while classifying one problem is recorded in that
//     entry; the rest of the batch is unaffected — note that an
//     *unsolvable* problem is a successful classification, kUnsolvable);
//   * deduplicates: semantically identical problems (same canonical_key
//     from lcl/serialize.hpp, which ignores cosmetic names) are classified
//     once and share one outcome;
//   * optionally memoizes across calls via a caller-owned BatchCache;
//   * optionally shares monoids across distinct problems with equal
//     transition-system skeletons via a caller-owned MonoidCache
//     (options.classify.monoid_cache): the cache is thread-safe and the
//     shared Monoid is immutable, so workers reuse it concurrently.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "decide/classifier.hpp"

namespace lclpath {

/// How a per-problem classification failed. The taxonomy the catalog
/// service's persistent result store will serialize (see ROADMAP), so the
/// kinds are a stable contract, not incidental exception types:
///
///   kTimeout   — a deadline expired (per-problem or batch-level;
///                CancelledError{kDeadline});
///   kBudget    — a resource ceiling: monoid budget overflow
///                (MonoidBudgetError, the Theorem 5 observable), a memory
///                ceiling (CancelledError{kMemory}), or allocation failure;
///   kMalformed — the problem itself is invalid (std::invalid_argument,
///                e.g. an orientation-asymmetric undirected problem, or a
///                parse error routed through a batch);
///   kCancelled — an explicit ExecutionBudget::cancel()
///                (CancelledError{kCancelled});
///   kInternal  — anything else (a bug, not an input property).
enum class BatchErrorKind : std::uint8_t {
  kTimeout,
  kBudget,
  kMalformed,
  kCancelled,
  kInternal,
};
inline constexpr std::size_t kNumBatchErrorKinds = 5;

std::string to_string(BatchErrorKind kind);

/// A structured per-problem failure: the kind plus the human-readable
/// message of the underlying exception.
struct BatchError {
  BatchErrorKind kind = BatchErrorKind::kInternal;
  std::string message;
};

/// The suffix appended to canonical_key() to form a cache identity. There
/// is one decider configuration, so it is empty; classify_batch and the
/// result store both build their keys through this one function, so the
/// two can never drift apart.
std::string cache_identity_suffix(LinearGapEngine engine, CertificateMode mode);

/// The outcome of classifying one problem: a ClassifiedProblem, or the
/// structured error classify() failed with. Shared (immutable once
/// published) between duplicate batch entries and cache hits.
struct BatchOutcome {
  std::optional<ClassifiedProblem> classified;
  std::optional<BatchError> error;

  bool ok() const { return classified.has_value(); }
};

/// One slot of a batch result, aligned with the input problem span.
struct BatchEntry {
  std::shared_ptr<const BatchOutcome> outcome;
  /// True when the outcome came from the caller's BatchCache.
  bool from_cache = false;
  /// True when this slot shares the outcome of an earlier identical
  /// problem in the same batch instead of having been classified itself.
  bool deduplicated = false;

  bool ok() const { return outcome != nullptr && outcome->ok(); }
  /// The failure message (empty for successful entries).
  const std::string& error() const;
  /// The failure kind; nullopt for successful entries.
  std::optional<BatchErrorKind> error_kind() const;
  /// Throws std::runtime_error carrying error() if the problem failed.
  const ClassifiedProblem& classified() const;
};

/// Thread-safe memo cache keyed by canonical_hash/canonical_key. Hash
/// collisions are resolved by comparing full keys, so a hit is always a
/// semantically identical problem. Only successful classifications are
/// stored (failures may depend on the per-call monoid budget, deadline, or
/// cancellation — a timed-out problem must not poison future lookups).
/// Caller-owned so its lifetime (one CLI invocation, one server, ...) is
/// an explicit policy decision.
///
/// A non-zero max_entries caps the cache: once full, each insert evicts
/// the oldest entry in insertion (FIFO) order. Outcomes are shared_ptrs,
/// so eviction never invalidates an outcome a batch already holds.
class BatchCache {
 public:
  /// max_entries == 0 means unbounded (the historical behavior).
  explicit BatchCache(std::size_t max_entries = 0);

  std::shared_ptr<const BatchOutcome> find(std::uint64_t hash,
                                           const std::string& key) const;
  void insert(std::uint64_t hash, std::string key,
              std::shared_ptr<const BatchOutcome> outcome);

  std::size_t size() const;
  std::size_t max_entries() const { return max_entries_; }
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  /// Number of entries evicted to honor max_entries.
  std::uint64_t evictions() const;

 private:
  std::size_t max_entries_ = 0;
  mutable std::mutex mutex_;
  std::unordered_multimap<std::uint64_t,
                          std::pair<std::string, std::shared_ptr<const BatchOutcome>>>
      entries_;
  /// Insertion order of live entries (hash + key identifies the multimap
  /// slot to drop); front() is the eviction victim.
  std::deque<std::pair<std::uint64_t, std::string>> order_;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

struct BatchOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  std::size_t num_threads = 0;
  /// Forwarded to every classify() call (monoid budget, monoid cache,
  /// budget, and whatever the decision procedure grows next — one struct
  /// so batch callers can never drift out of sync with classify()). A
  /// ClassifiedProblem's linear-gap certificate holds the class-level
  /// solution, and its value_at lookups are thread-safe — workers may
  /// share one cached outcome's certificate concurrently.
  ClassifyOptions classify;
  /// Optional cross-call memo cache (may be shared by concurrent batches).
  BatchCache* cache = nullptr;
  /// Classify identical problems once per batch. Disable to force every
  /// slot through classify() (useful for benchmarking).
  bool dedup = true;
  /// Per-problem deadline in milliseconds, measured from the moment the
  /// problem's worker task starts (not from batch submission, so queueing
  /// behind a full pool does not eat a problem's budget). 0 = none. A
  /// tripped deadline records a kTimeout error in that entry only; the
  /// rest of the batch is untouched and bit-identical to a deadline-free
  /// run.
  std::uint64_t problem_deadline_ms = 0;
  /// Batch-level deadline in milliseconds, measured from classify_batch()
  /// entry. 0 = none. Acts as a cooperative watchdog: when it expires,
  /// running workers trip at their next budget checkpoint and queued
  /// workers fail fast at their entry check, each recording kTimeout. The
  /// batch still returns deterministic partial results — every entry is
  /// either a completed classification or a structured error, never
  /// missing.
  std::uint64_t batch_deadline_ms = 0;
};

/// Classifies every problem on a thread pool. result.size() ==
/// problems.size() and result[i] corresponds to problems[i] regardless of
/// completion order. Never throws on a per-problem failure.
std::vector<BatchEntry> classify_batch(std::span<const PairwiseProblem> problems,
                                       const BatchOptions& options = {});

/// Roll-up of one batch result: how many entries classified, failed (a
/// budget overflow is a *recorded* failure, the observable of Theorem 5's
/// PSPACE-hardness studies), were deduplicated in-batch or served from the
/// caller's cache, the successful per-class census (indexed by
/// static_cast<std::size_t>(ComplexityClass)), and the failure census by
/// error kind (indexed by static_cast<std::size_t>(BatchErrorKind) —
/// timeouts are first-class observables, not anonymous failures).
struct BatchSummary {
  std::size_t total = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t deduplicated = 0;
  std::size_t from_cache = 0;
  std::array<std::size_t, 4> by_class{};
  std::array<std::size_t, kNumBatchErrorKinds> by_error{};
};

BatchSummary summarize_batch(std::span<const BatchEntry> entries);

}  // namespace lclpath
