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
// The result bundles the certificates, which are exactly the "description
// of an asymptotically optimal algorithm" the paper's theorems promise:
// synthesize() turns them into a runnable LocalAlgorithm on the problem's
// own topology — directed or undirected, path or cycle (the per-topology
// strategies live in decide/synthesized.hpp).
#pragma once

#include <memory>
#include <string>

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

/// Classification result; owns everything synthesis needs (the problem
/// copy, the transition system, the monoid and the certificates), so it
/// can outlive the inputs of classify().
class ClassifiedProblem {
 public:
  /// Rebuilds a result from a persisted catalog record (src/store/): the
  /// problem plus its complexity class, with no monoid or certificates —
  /// those are recomputable and deliberately not serialized. A restored
  /// result answers lookups (complexity(), problem(), summary()) exactly
  /// like a fresh one, which is what lets a store warm-start the
  /// BatchCache without re-running any decider; it cannot synthesize()
  /// the sub-linear algorithms (that throws std::logic_error directing
  /// the caller to re-classify) and has no monoid() — check restored()
  /// before touching certificate-level accessors.
  static ClassifiedProblem restore(PairwiseProblem problem, ComplexityClass complexity);

  /// True for results rebuilt by restore() (no monoid/certificates).
  bool restored() const { return monoid_ == nullptr; }

  ComplexityClass complexity() const { return complexity_; }
  const SolvabilityReport& solvability() const { return solvability_; }
  const LinearGapCertificate& linear_certificate() const { return linear_; }
  const ConstGapCertificate& const_certificate() const { return const_; }
  const Monoid& monoid() const { return *monoid_; }
  /// The shared monoid itself. With ClassifyOptions::monoid_cache, results
  /// of a parameter sweep alias one Monoid — callers can keep it alive
  /// past this ClassifiedProblem or compare pointers to observe sharing.
  const std::shared_ptr<const Monoid>& monoid_ptr() const { return monoid_; }
  const PairwiseProblem& problem() const { return *problem_; }
  /// 0 for restored() results (the monoid is not persisted).
  std::size_t monoid_size() const { return monoid_ ? monoid_->size() : 0; }
  std::size_t ell_pump() const { return monoid_ ? monoid_->ell_pump() : 0; }

  /// An asymptotically optimal executable algorithm for the class, on the
  /// problem's own topology (all four are synthesized):
  ///   kConstant  -> SynthesizedConstant
  ///   kLogStar   -> SynthesizedLogStar
  ///   kLinear    -> GatherAllAlgorithm
  /// Throws for kUnsolvable.
  std::unique_ptr<LocalAlgorithm> synthesize() const;

  /// One-line human-readable summary.
  std::string summary() const;

 private:
  friend ClassifiedProblem classify(const PairwiseProblem& problem,
                                    const ClassifyOptions& options);

  ComplexityClass complexity_ = ComplexityClass::kUnsolvable;
  SolvabilityReport solvability_;
  LinearGapCertificate linear_;
  ConstGapCertificate const_;
  std::unique_ptr<PairwiseProblem> problem_;
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
