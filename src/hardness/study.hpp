// Routing the hardness constructions through the batch classification
// engine.
//
// The Section 3.7 lifts and the Lemma 2 product form of Pi_MB all produce
// ordinary PairwiseProblems — so the Theorem 4/5 studies and the lift
// regressions should not hand-roll classify() loops: classify_hardness()
// funnels them through classify_batch with a shared MonoidCache, which
// buys in-batch dedup, cross-call caching and thread-pool parallelism in
// one place.
//
// For Pi_MB itself the interesting outcome is *failure*: deciding its
// class is deciding LBA halting (Theorem 5, PSPACE-hard), so the generic
// decider hits its monoid budget on all but the most trivial machines.
// classify_batch records that per entry instead of throwing, which makes
// the budget-capped census a measurable quantity (the fourth CI bench
// family reports it).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "decide/batch.hpp"
#include "lba/lba.hpp"

namespace lclpath::hardness {

/// Lemma 2 product form of Pi_MB on the directed path: outputs are
/// (input, output) pairs so each edge can replay the V_in,in-out,out
/// verifier; the first-node constraint carries the no-predecessor checks
/// and the last mask carries the dangling-chain rule. Construction cost is
/// Theta((|Sigma_in| * |Sigma_out|)^2) node_ok probes — itself part of the
/// Theorem 5 story (the product alphabet grows with B * |Q|).
PairwiseProblem pi_pairwise(const lba::Machine& machine, std::size_t tape_size,
                            std::string name = {});

/// Every Section 3.7 lift construction that yields a classifiable problem:
/// undirected lifts and cycle lifts over the catalog, plus a renamed
/// duplicate (semantically identical problems must be classified once —
/// the dedup path the batch engine gives hardness for free).
std::vector<PairwiseProblem> lift_workload();

struct StudyOptions {
  /// Worker threads; 0 means hardware concurrency.
  std::size_t num_threads = 0;
  /// Monoid budget per problem; overflows are recorded, not thrown.
  std::size_t max_monoid = 500000;
  /// Optional shared caches (null: per-call locals). Sharing across calls
  /// is what makes repeated constructions — parameter sweeps, re-runs —
  /// hit instead of recompute.
  MonoidCache* monoid_cache = nullptr;
  BatchCache* batch_cache = nullptr;
  /// Per-problem / study-wide deadlines in milliseconds (0 = none),
  /// forwarded to BatchOptions. A timed-out problem records a kTimeout
  /// entry — for the Theorem 5 studies a first-class observable alongside
  /// budget overflows, since a deadline is just the wall-clock face of the
  /// same PSPACE wall.
  std::uint64_t problem_deadline_ms = 0;
  std::uint64_t study_deadline_ms = 0;
  /// Optional cooperative cancellation/deadline budget shared by every
  /// worker in the study (core/cancel.hpp). Null = unbounded.
  const ExecutionBudget* budget = nullptr;
};

struct StudyResult {
  std::vector<BatchEntry> entries;  ///< aligned with the input problems
  BatchSummary summary;
  /// MonoidCache traffic attributable to this call (approximate when the
  /// caller shares the cache with concurrent batches).
  std::uint64_t monoid_hits = 0;
  std::uint64_t monoid_misses = 0;
  /// Failure census by kind (summary.by_error re-exposed under the names
  /// the hardness reports print).
  std::size_t timeouts = 0;
  std::size_t budget_overflows = 0;
  std::size_t cancelled = 0;
};

/// classify_batch over the given problems with the hardness defaults:
/// shared MonoidCache, per-entry failure capture.
StudyResult classify_hardness(std::span<const PairwiseProblem> problems,
                              const StudyOptions& options = {});

}  // namespace lclpath::hardness
