#include "decide/batch.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <new>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>

#include "automata/monoid.hpp"
#include "core/cancel.hpp"
#include "core/thread_pool.hpp"
#include "lcl/serialize.hpp"

namespace lclpath {

std::string to_string(BatchErrorKind kind) {
  switch (kind) {
    case BatchErrorKind::kTimeout: return "timeout";
    case BatchErrorKind::kBudget: return "budget";
    case BatchErrorKind::kMalformed: return "malformed";
    case BatchErrorKind::kCancelled: return "cancelled";
    case BatchErrorKind::kInternal: return "internal";
  }
  return "internal";
}

namespace {

BatchErrorKind kind_of(const CancelledError& e) {
  switch (e.reason()) {
    case CancelReason::kDeadline: return BatchErrorKind::kTimeout;
    case CancelReason::kCancelled: return BatchErrorKind::kCancelled;
    case CancelReason::kMemory: return BatchErrorKind::kBudget;
  }
  return BatchErrorKind::kInternal;
}

}  // namespace

std::string cache_identity_suffix(LinearGapEngine, CertificateMode) { return {}; }

const std::string& BatchEntry::error() const {
  static const std::string kEmpty;
  return outcome && outcome->error ? outcome->error->message : kEmpty;
}

std::optional<BatchErrorKind> BatchEntry::error_kind() const {
  if (ok()) return std::nullopt;
  // A failed entry with no recorded error (a null outcome) is a bug in the
  // batch pipeline itself, which is exactly what kInternal means.
  if (outcome == nullptr || !outcome->error) return BatchErrorKind::kInternal;
  return outcome->error->kind;
}

const Verdict& BatchEntry::classified() const {
  if (!ok()) {
    throw std::runtime_error("BatchEntry: problem failed to classify: " + error());
  }
  return *outcome->verdict;
}

std::vector<BatchEntry> classify_batch(std::span<const PairwiseProblem> problems,
                                       const BatchOptions& options) {
  const std::size_t n = problems.size();
  std::vector<BatchEntry> results(n);
  if (n == 0) return results;

  // Identity pass: canonical keys are cheap (text serialization of small
  // constraint tables) next to classification, but both they and the
  // hashes are pure waste when nothing consumes them.
  const bool need_keys = options.dedup || options.cache != nullptr;
  const std::string identity_suffix =
      cache_identity_suffix(LinearGapEngine::kFactorized, CertificateMode::kAuto);
  std::vector<std::string> keys(need_keys ? n : 0);
  std::vector<std::uint64_t> hashes(options.cache != nullptr ? n : 0);
  for (std::size_t i = 0; i < n && need_keys; ++i) {
    keys[i] = canonical_key(problems[i]);
    if (options.cache != nullptr) {
      keys[i] += identity_suffix;
      hashes[i] = canonical_hash(keys[i]);
    }
  }

  // rep_of[i]: index of the first batch slot with the same key as slot i.
  std::vector<std::size_t> rep_of(n);
  if (options.dedup) {
    std::unordered_map<std::string_view, std::size_t> first_seen;
    for (std::size_t i = 0; i < n; ++i) {
      auto [it, inserted] = first_seen.emplace(keys[i], i);
      rep_of[i] = it->second;
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) rep_of[i] = i;
  }

  // Resolve representatives from the cache first, so the pool is sized to
  // the problems that actually need classifying.
  std::vector<std::size_t> to_run;
  to_run.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rep_of[i] != i) continue;
    if (options.cache != nullptr) {
      if (auto cached = options.cache->find(hashes[i], keys[i])) {
        results[i].outcome = std::move(cached);
        results[i].from_cache = true;
        continue;
      }
    }
    to_run.push_back(i);
  }

  // Classify the misses on the pool. Futures are collected per slot, so
  // input order is preserved no matter which worker finishes first.
  if (!to_run.empty()) {
    std::size_t pool_size = options.num_threads;
    if (pool_size == 0) {
      pool_size = std::thread::hardware_concurrency();
      if (pool_size == 0) pool_size = 1;
    }
    // Batch-level watchdog: a cooperative deadline chained above every
    // per-problem budget. There is no watchdog thread — once the deadline
    // passes, running workers trip at their next checkpoint and queued
    // workers fail fast at their entry check() below.
    std::optional<ExecutionBudget> batch_budget;
    if (options.batch_deadline_ms > 0) {
      batch_budget.emplace();
      batch_budget->set_timeout(std::chrono::milliseconds(options.batch_deadline_ms));
      if (options.classify.budget != nullptr) {
        batch_budget->set_parent(options.classify.budget);
      }
    }
    const ExecutionBudget* parent =
        batch_budget ? &*batch_budget : options.classify.budget;
    const std::uint64_t deadline_ms = options.problem_deadline_ms;
    ThreadPool pool(std::min(pool_size, to_run.size()));
    std::vector<std::pair<std::size_t, std::future<std::shared_ptr<const BatchOutcome>>>>
        pending;
    pending.reserve(to_run.size());
    for (const std::size_t i : to_run) {
      pending.emplace_back(i, pool.submit([&problems, &options, parent, deadline_ms,
                                           i]() {
        auto outcome = std::make_shared<BatchOutcome>();
        try {
          // The per-problem clock starts when the worker does, so queueing
          // behind a full pool never eats a problem's own budget — but the
          // batch deadline (the parent) is checked first, failing
          // post-expiry tasks before they burn a core.
          budget_check(parent);
          ExecutionBudget own;
          const ExecutionBudget* budget = parent;
          if (deadline_ms > 0) {
            own.set_timeout(std::chrono::milliseconds(deadline_ms));
            own.set_parent(parent);
            budget = &own;
          }
          ClassifyOptions classify_options = options.classify;
          classify_options.budget = budget;
          outcome->verdict = classify(problems[i], classify_options).verdict();
        } catch (const CancelledError& e) {
          outcome->error = BatchError{kind_of(e), e.what()};
        } catch (const MonoidBudgetError& e) {
          outcome->error = BatchError{BatchErrorKind::kBudget, e.what()};
        } catch (const std::bad_alloc&) {
          outcome->error = BatchError{BatchErrorKind::kBudget, "allocation failure"};
        } catch (const std::invalid_argument& e) {
          outcome->error = BatchError{BatchErrorKind::kMalformed, e.what()};
        } catch (const std::exception& e) {
          outcome->error = BatchError{BatchErrorKind::kInternal, e.what()};
        } catch (...) {
          outcome->error = BatchError{BatchErrorKind::kInternal, "unknown exception"};
        }
        return std::shared_ptr<const BatchOutcome>(std::move(outcome));
      }));
    }
    for (auto& [i, future] : pending) {
      results[i].outcome = future.get();
      // Failures are not memoized: a monoid-budget overflow depends on the
      // per-call max_monoid, a timeout on the per-call deadline and the
      // machine's load, and a cancellation on the caller — a retry must
      // recompute, so no error kind is ever cached.
      if (options.cache != nullptr && results[i].outcome->ok()) {
        options.cache->insert(hashes[i], std::move(keys[i]), results[i].outcome);
      }
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (rep_of[i] == i) continue;
    const BatchEntry& rep = results[rep_of[i]];
    results[i].outcome = rep.outcome;
    results[i].from_cache = rep.from_cache;
    results[i].deduplicated = true;
  }
  return results;
}

BatchSummary summarize_batch(std::span<const BatchEntry> entries) {
  BatchSummary summary;
  summary.total = entries.size();
  for (const BatchEntry& entry : entries) {
    if (entry.deduplicated) ++summary.deduplicated;
    if (entry.from_cache) ++summary.from_cache;
    if (entry.ok()) {
      ++summary.ok;
      ++summary.by_class[static_cast<std::size_t>(entry.classified().complexity())];
    } else {
      ++summary.failed;
      ++summary.by_error[static_cast<std::size_t>(
          entry.error_kind().value_or(BatchErrorKind::kInternal))];
    }
  }
  return summary;
}

}  // namespace lclpath
