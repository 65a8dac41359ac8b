#include "decide/batch.hpp"

#include <gtest/gtest.h>

#include <future>
#include <string>
#include <vector>

#include "core/thread_pool.hpp"
#include "hardness/undirected.hpp"
#include "lcl/serialize.hpp"

namespace lclpath {
namespace {

std::vector<PairwiseProblem> catalog_problems() {
  std::vector<PairwiseProblem> problems;
  for (const auto& entry : catalog::validation_catalog()) {
    problems.push_back(entry.problem);
  }
  return problems;
}

// The acceptance property: batch results over the full validation catalog
// are element-wise identical to serial classify().
TEST(Batch, MatchesSerialClassifyOnCatalog) {
  const auto problems = catalog_problems();
  BatchOptions options;
  options.num_threads = 4;
  const std::vector<BatchEntry> batch = classify_batch(problems, options);
  ASSERT_EQ(batch.size(), problems.size());
  for (std::size_t i = 0; i < problems.size(); ++i) {
    ASSERT_TRUE(batch[i].ok()) << problems[i].name() << ": " << batch[i].error();
    const ClassifiedProblem serial = classify(problems[i]);
    const ClassifiedProblem& parallel = batch[i].classified();
    EXPECT_EQ(parallel.complexity(), serial.complexity()) << problems[i].name();
    EXPECT_EQ(parallel.monoid_size(), serial.monoid_size()) << problems[i].name();
    EXPECT_EQ(parallel.summary(), serial.summary()) << problems[i].name();
    // Slot i describes problems[i]: ordering is deterministic.
    EXPECT_EQ(parallel.problem(), problems[i]) << problems[i].name();
  }
}

TEST(Batch, UnsolvableProblemsAreSuccessfulClassifications) {
  std::vector<PairwiseProblem> problems = {catalog::empty_problem(),
                                           catalog::coloring(3)};
  const auto batch = classify_batch(problems);
  ASSERT_EQ(batch.size(), 2u);
  ASSERT_TRUE(batch[0].ok());
  ASSERT_TRUE(batch[1].ok());
  EXPECT_EQ(batch[0].classified().complexity(), ComplexityClass::kUnsolvable);
  EXPECT_EQ(batch[1].classified().complexity(), ComplexityClass::kLogStar);
}

// A problem whose reachable type space exceeds the monoid budget throws in
// classify(); in a batch the failure must stay confined to its slot.
TEST(Batch, BudgetOverflowDoesNotPoisonTheBatch) {
  const PairwiseProblem small = catalog::constant_output();
  const PairwiseProblem big = catalog::coloring(4);
  const std::size_t small_monoid = classify(small).monoid_size();
  const std::size_t big_monoid = classify(big).monoid_size();
  ASSERT_LT(small_monoid, big_monoid);
  BatchOptions options;
  options.classify.max_monoid = (small_monoid + big_monoid) / 2;

  std::vector<PairwiseProblem> problems = {big, small, big};
  const auto batch = classify_batch(problems, options);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_FALSE(batch[0].ok());
  EXPECT_FALSE(batch[0].error().empty());
  EXPECT_THROW(batch[0].classified(), std::runtime_error);
  ASSERT_TRUE(batch[1].ok()) << batch[1].error();
  EXPECT_EQ(batch[1].classified().complexity(), ComplexityClass::kConstant);
  EXPECT_FALSE(batch[2].ok());
}

TEST(Batch, DeduplicatesIdenticalProblems) {
  PairwiseProblem renamed = catalog::coloring(3);
  renamed.set_name("same-problem-different-name");
  std::vector<PairwiseProblem> problems = {catalog::coloring(3),
                                           catalog::coloring(3), renamed};
  const auto batch = classify_batch(problems);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_FALSE(batch[0].deduplicated);
  EXPECT_TRUE(batch[1].deduplicated);
  // Names are cosmetic: the canonical key ignores them.
  EXPECT_TRUE(batch[2].deduplicated);
  EXPECT_EQ(batch[0].outcome.get(), batch[1].outcome.get());
  EXPECT_EQ(batch[0].outcome.get(), batch[2].outcome.get());
  EXPECT_EQ(batch[1].classified().complexity(), ComplexityClass::kLogStar);
}

TEST(Batch, DedupCanBeDisabled) {
  std::vector<PairwiseProblem> problems = {catalog::coloring(3),
                                           catalog::coloring(3)};
  BatchOptions options;
  options.dedup = false;
  const auto batch = classify_batch(problems, options);
  EXPECT_FALSE(batch[0].deduplicated);
  EXPECT_FALSE(batch[1].deduplicated);
  EXPECT_NE(batch[0].outcome.get(), batch[1].outcome.get());
}

TEST(Batch, CacheServesRepeatCalls) {
  BatchCache cache;
  BatchOptions options;
  options.cache = &cache;
  std::vector<PairwiseProblem> problems = {catalog::coloring(3),
                                           catalog::maximal_independent_set()};

  const auto first = classify_batch(problems, options);
  EXPECT_FALSE(first[0].from_cache);
  EXPECT_FALSE(first[1].from_cache);
  EXPECT_EQ(cache.size(), 2u);

  const auto second = classify_batch(problems, options);
  EXPECT_TRUE(second[0].from_cache);
  EXPECT_TRUE(second[1].from_cache);
  // Cached outcomes are shared, not recomputed.
  EXPECT_EQ(first[0].outcome.get(), second[0].outcome.get());
  EXPECT_EQ(second[0].classified().complexity(), ComplexityClass::kLogStar);
  EXPECT_GE(cache.hits(), 2u);
}

TEST(Batch, CacheDoesNotMemoizeBudgetFailures) {
  const PairwiseProblem big = catalog::coloring(4);
  const std::size_t big_monoid = classify(big).monoid_size();
  ASSERT_GT(big_monoid, 1u);
  BatchCache cache;
  std::vector<PairwiseProblem> problems = {big};

  BatchOptions tight;
  tight.cache = &cache;
  tight.classify.max_monoid = big_monoid - 1;
  const auto first = classify_batch(problems, tight);
  ASSERT_FALSE(first[0].ok());
  EXPECT_EQ(cache.size(), 0u);

  // A retry with a sufficient budget must recompute, not replay the error.
  BatchOptions roomy;
  roomy.cache = &cache;
  const auto second = classify_batch(problems, roomy);
  ASSERT_TRUE(second[0].ok()) << second[0].error();
  EXPECT_FALSE(second[0].from_cache);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(Batch, EmptyBatchIsEmpty) {
  const auto batch = classify_batch({});
  EXPECT_TRUE(batch.empty());
}

// A capped BatchCache evicts in FIFO insertion order; outcomes already
// handed to a batch stay valid (shared_ptr), and the evicted problem
// recomputes on the next call while the survivors still hit.
TEST(Batch, CacheCapsEntriesWithFifoEviction) {
  BatchCache cache(2);
  EXPECT_EQ(cache.max_entries(), 2u);
  BatchOptions options;
  options.cache = &cache;

  const std::vector<PairwiseProblem> first = {catalog::coloring(3)};
  const std::vector<PairwiseProblem> second = {catalog::constant_output()};
  const std::vector<PairwiseProblem> third = {catalog::maximal_independent_set()};
  const auto kept = classify_batch(first, options);
  classify_batch(second, options);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);

  // Third insert evicts the oldest entry (coloring(3)).
  classify_batch(third, options);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  const auto recomputed = classify_batch(first, options);
  EXPECT_FALSE(recomputed[0].from_cache);
  // The pre-eviction outcome the first batch holds is still usable.
  EXPECT_EQ(kept[0].classified().complexity(), ComplexityClass::kLogStar);
  // Survivors of the eviction still hit.
  const auto hit = classify_batch(third, options);
  EXPECT_TRUE(hit[0].from_cache);
}

TEST(MonoidCache, HitMissCountersAndSharedPointer) {
  MonoidCache cache;
  ClassifyOptions options;
  options.monoid_cache = &cache;
  const PairwiseProblem p = catalog::coloring(3);

  const ClassifiedProblem first = classify(p, options);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 1u);

  const ClassifiedProblem second = classify(p, options);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  // Not a copy: one immutable monoid, shared.
  EXPECT_EQ(first.monoid_ptr().get(), second.monoid_ptr().get());
  EXPECT_EQ(second.complexity(), ComplexityClass::kLogStar);
}

TEST(MonoidCache, SharesAcrossCosmeticRenamesButNotConstraints) {
  MonoidCache cache;
  ClassifyOptions options;
  options.monoid_cache = &cache;
  PairwiseProblem renamed = catalog::coloring(3);
  renamed.set_name("same-skeleton-different-name");

  const ClassifiedProblem a = classify(catalog::coloring(3), options);
  const ClassifiedProblem b = classify(renamed, options);
  EXPECT_EQ(a.monoid_ptr().get(), b.monoid_ptr().get());
  EXPECT_EQ(cache.hits(), 1u);

  const ClassifiedProblem c = classify(catalog::coloring(4), options);
  EXPECT_NE(a.monoid_ptr().get(), c.monoid_ptr().get());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(MonoidCache, SkeletonKeySeesTopology) {
  // Deciders read the topology through the shared monoid's transition
  // system, so path and cycle variants must not share one monoid even
  // though their matrices coincide.
  MonoidCache cache;
  ClassifyOptions options;
  options.monoid_cache = &cache;
  const ClassifiedProblem cycle = classify(catalog::coloring(3), options);
  const ClassifiedProblem path =
      classify(catalog::coloring(3, Topology::kDirectedPath), options);
  EXPECT_NE(cycle.monoid_ptr().get(), path.monoid_ptr().get());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(MonoidCache, SharedAcrossThreadsInBatch) {
  // dedup off + no BatchCache: every slot really classifies, and all
  // workers must converge on one shared monoid through the cache.
  MonoidCache cache;
  BatchOptions options;
  options.num_threads = 4;
  options.dedup = false;
  options.classify.monoid_cache = &cache;
  std::vector<PairwiseProblem> problems(8, catalog::coloring(3));
  const auto batch = classify_batch(problems, options);
  ASSERT_EQ(batch.size(), 8u);
  const Monoid* shared = batch[0].classified().monoid_ptr().get();
  for (const BatchEntry& entry : batch) {
    ASSERT_TRUE(entry.ok()) << entry.error();
    EXPECT_FALSE(entry.deduplicated);
    EXPECT_EQ(entry.classified().monoid_ptr().get(), shared);
  }
  EXPECT_EQ(cache.size(), 1u);
  // Concurrent misses may race before the first insert; at least the
  // repeats after it must hit, and every lookup is accounted for.
  EXPECT_EQ(cache.hits() + cache.misses(), 8u);
  EXPECT_GE(cache.hits(), 1u);
}

TEST(MonoidCache, BudgetOverflowIsNotCachedAndHitsRespectBudget) {
  const PairwiseProblem big = catalog::coloring(4);
  const std::size_t big_monoid = classify(big).monoid_size();
  ASSERT_GT(big_monoid, 1u);
  MonoidCache cache;

  ClassifyOptions tight;
  tight.monoid_cache = &cache;
  tight.max_monoid = big_monoid - 1;
  EXPECT_THROW(classify(big, tight), std::runtime_error);
  EXPECT_EQ(cache.size(), 0u);

  // A retry with a sufficient budget recomputes and caches.
  ClassifyOptions roomy;
  roomy.monoid_cache = &cache;
  const ClassifiedProblem ok = classify(big, roomy);
  EXPECT_EQ(ok.monoid_size(), big_monoid);
  EXPECT_EQ(cache.size(), 1u);

  // A cache hit whose monoid exceeds the caller's budget throws exactly
  // like enumeration would have.
  EXPECT_THROW(classify(big, tight), std::runtime_error);
}

// ISSUE 5: the lazy certificate's memoized value_at is the hot lookup of
// every synthesized log* algorithm a batch outcome hands out, and batch
// consumers share one outcome (dedup, BatchCache) across worker threads.
// Hammer one shared lazy certificate from the pool: all threads must see
// the same deterministic values as a serial sweep (the memo is the only
// mutable state; this test runs under the sanitizer jobs, and the race
// would also surface as torn BlockValues here).
TEST(Batch, LazyCertificateLookupsAreThreadSafeUnderThePool) {
  const PairwiseProblem lifted =
      hardness::lift_to_undirected(catalog::coloring(3, Topology::kDirectedPath));
  const ClassifiedProblem result = classify(lifted);
  ASSERT_TRUE(result.linear_certificate().feasible);
  const LinearGapCertificate& cert = result.linear_certificate();

  // A deterministic sample of domain points (spread across the context
  // layers and inputs) and their expected values, resolved serially first.
  const Monoid& monoid = result.monoid();
  const std::vector<std::size_t> contexts = linear_gap_contexts(monoid).elements;
  ASSERT_FALSE(contexts.empty());
  const Label alpha = static_cast<Label>(lifted.num_inputs());
  std::vector<BlockPoint> sample;
  for (std::size_t i = 0; i < 64; ++i) {
    sample.push_back(BlockPoint{BlockKind::kInterior,
                                contexts[(i * 13) % contexts.size()],
                                static_cast<Label>(i % alpha),
                                static_cast<Label>((i / 2) % alpha),
                                contexts[(i * 29) % contexts.size()]});
  }
  // Fresh, un-memoized certificate for the concurrent pass, so the racing
  // threads also exercise first-resolution inserts, not only memo hits.
  const ClassifiedProblem fresh = classify(lifted);
  const LinearGapCertificate& shared = fresh.linear_certificate();
  std::vector<BlockValue> expected;
  for (const BlockPoint& p : sample) expected.push_back(cert.value_at(p));

  ThreadPool pool(8);
  std::vector<std::future<std::size_t>> futures;
  for (std::size_t t = 0; t < 8; ++t) {
    futures.push_back(pool.submit([&, t]() -> std::size_t {
      std::size_t mismatches = 0;
      for (std::size_t round = 0; round < 50; ++round) {
        for (std::size_t i = 0; i < sample.size(); ++i) {
          const std::size_t j = (i + t * 7) % sample.size();
          if (!(shared.value_at(sample[j]) == expected[j])) ++mismatches;
          if (!(shared.value_at(sample[j].reversed(monoid)) ==
                shared.value_at(sample[j].reversed(monoid)))) {
            ++mismatches;
          }
        }
      }
      return mismatches;
    }));
  }
  for (auto& f : futures) EXPECT_EQ(f.get(), 0u);
}

TEST(CanonicalKey, IgnoresNamesButSeesConstraints) {
  PairwiseProblem a = catalog::coloring(3);
  PairwiseProblem b = catalog::coloring(3);
  b.set_name("renamed");
  EXPECT_EQ(canonical_key(a), canonical_key(b));
  EXPECT_EQ(canonical_hash(a), canonical_hash(b));

  const PairwiseProblem c = catalog::coloring(4);
  EXPECT_NE(canonical_key(a), canonical_key(c));

  // Endpoint constraints are part of the identity (serialized via the
  // `first` / `last` lines).
  PairwiseProblem d = catalog::coloring(3, Topology::kDirectedPath);
  PairwiseProblem e = d;
  e.forbid_last(0);
  EXPECT_NE(canonical_key(d), canonical_key(e));
  PairwiseProblem f = d;
  f.allow_node_first("_", "c0");
  EXPECT_NE(canonical_key(d), canonical_key(f));
}

}  // namespace
}  // namespace lclpath
