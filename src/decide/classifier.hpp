// The top-level decision procedure (Theorems 8 + 9).
//
// classify() takes any pairwise LCL problem and returns its deterministic
// LOCAL complexity class on the problem's topology:
//
//   1. solvability: if some instance has no valid labeling, the problem
//      admits no algorithm at all (kUnsolvable);
//   2. Theorem 8 (Section 4.2): a feasible separator-block function exists
//      iff the problem is O(log* n); otherwise it is Theta(n);
//   3. Theorem 9 (Sections 4.4-4.5): a feasible periodic-pattern function
//      exists iff the problem is O(1).
//
// The procedure outputs two things, and they get two types. A Verdict is
// the problem and its class: what a batch cache serves and a catalog
// store persists. A ClassifiedProblem adds the certificates, which are
// exactly the "description of an asymptotically optimal algorithm" the
// paper's theorems promise: synthesize() turns them into a runnable
// LocalAlgorithm on the problem's own topology — directed or undirected,
// path or cycle (the per-topology strategies live in
// decide/synthesized.hpp). Only classify() makes one.
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "automata/monoid.hpp"
#include "automata/solvability.hpp"
#include "decide/const_gap.hpp"
#include "decide/linear_gap.hpp"
#include "decide/synthesized.hpp"
#include "lcl/catalog.hpp"

namespace lclpath {

/// Tunables of the decision procedure.
struct ClassifyOptions {
  /// Budget on the reachable type space, as in classify()'s throw contract.
  std::size_t max_monoid = 500000;
  /// Optional caller-owned monoid memo cache, keyed by the transition
  /// system's canonical_hash() (skeleton fingerprint). Problems sharing a
  /// skeleton — renamed copies, or repeat sweeps over the same family —
  /// then share one immutable Monoid instead of re-enumerating it per
  /// classify() call; classify_batch forwards this through
  /// BatchOptions::classify, so one cache deduplicates monoid construction
  /// across a whole parameter sweep (and across threads: the cache is
  /// thread-safe, and a const Monoid is safe to share). A cached monoid
  /// whose size exceeds max_monoid throws the same budget error
  /// enumeration would have thrown.
  MonoidCache* monoid_cache = nullptr;
  /// Optional cooperative cancellation/deadline budget (see
  /// core/cancel.hpp). When non-null, every unbounded hot loop in the
  /// pipeline — monoid BFS, both linear-gap engines, the const-gap
  /// search — checkpoints it and aborts with CancelledError when a limit
  /// trips. A cancelled classify() leaves monoid_cache consistent: a
  /// monoid this call inserted is erased again before the error
  /// propagates, so shared caches hold no entry for the abandoned
  /// problem. Null = run to completion (no overhead beyond a pointer
  /// test per checkpoint site).
  const ExecutionBudget* budget = nullptr;
};

/// A problem's complexity class: what a batch cache serves and a catalog
/// store persists. It holds the problem and its class and nothing that
/// can be missing, so a verdict prints the same whether it came from
/// classify() or from a store record.
class Verdict {
 public:
  Verdict(std::shared_ptr<const PairwiseProblem> problem, ComplexityClass complexity)
      : problem_(std::move(problem)), complexity_(complexity) {}

  const PairwiseProblem& problem() const { return *problem_; }
  ComplexityClass complexity() const { return complexity_; }
  /// `<name> on <topology>: <class>`.
  std::string summary() const;

 private:
  std::shared_ptr<const PairwiseProblem> problem_;
  ComplexityClass complexity_;
};

/// The certified result of classify(): the verdict plus everything
/// synthesis needs (the solvability report, both certificates and the
/// monoid), so it can outlive the inputs of classify(). The problem lives
/// on the heap, so an algorithm synthesize() returns may point into it
/// across moves of this object.
class ClassifiedProblem {
 public:
  const Verdict& verdict() const { return verdict_; }
  ComplexityClass complexity() const { return verdict_.complexity(); }
  const PairwiseProblem& problem() const { return verdict_.problem(); }
  const SolvabilityReport& solvability() const { return solvability_; }
  const LinearGapCertificate& linear_certificate() const { return linear_; }
  const ConstGapCertificate& const_certificate() const { return const_; }
  const Monoid& monoid() const { return *monoid_; }
  /// The shared monoid itself. With ClassifyOptions::monoid_cache, results
  /// of a parameter sweep alias one Monoid — callers can keep it alive
  /// past this ClassifiedProblem or compare pointers to observe sharing.
  const std::shared_ptr<const Monoid>& monoid_ptr() const { return monoid_; }
  std::size_t monoid_size() const { return monoid_->size(); }

  /// An asymptotically optimal executable algorithm for the class, on the
  /// problem's own topology (all four are synthesized):
  ///   kConstant  -> SynthesizedConstant
  ///   kLogStar   -> SynthesizedLogStar
  ///   kLinear    -> GatherAllAlgorithm
  /// Throws for kUnsolvable.
  std::unique_ptr<LocalAlgorithm> synthesize() const;

  /// verdict().summary() plus the monoid size and any counterexample.
  std::string summary() const;

 private:
  friend ClassifiedProblem classify(const PairwiseProblem& problem,
                                    const ClassifyOptions& options);

  ClassifiedProblem(Verdict verdict, SolvabilityReport solvability, LinearGapCertificate linear,
                    ConstGapCertificate constant, std::shared_ptr<const Monoid> monoid)
      : verdict_(std::move(verdict)),
        solvability_(std::move(solvability)),
        linear_(std::move(linear)),
        const_(std::move(constant)),
        monoid_(std::move(monoid)) {}

  Verdict verdict_;
  SolvabilityReport solvability_;
  LinearGapCertificate linear_;
  ConstGapCertificate const_;
  std::shared_ptr<const Monoid> monoid_;
};

/// Runs the full decision procedure. Throws std::runtime_error if the
/// problem's reachable type space exceeds options.max_monoid elements (the
/// procedure is PSPACE-hard in general — Theorem 5 — so a budget is part
/// of the API).
ClassifiedProblem classify(const PairwiseProblem& problem,
                           const ClassifyOptions& options);

/// Convenience overload with the default engine and the given budget.
ClassifiedProblem classify(const PairwiseProblem& problem,
                           std::size_t max_monoid = 500000);

}  // namespace lclpath
