#include "decide/classifier.hpp"

#include <stdexcept>
#include <utility>

#include "lcl/serialize.hpp"

namespace lclpath {

std::string Verdict::summary() const {
  return problem_->name() + " on " + lclpath::to_string(problem_->topology()) + ": " +
         lclpath::to_string(complexity_);
}

std::unique_ptr<LocalAlgorithm> ClassifiedProblem::synthesize() const {
  switch (complexity()) {
    case ComplexityClass::kUnsolvable:
      throw std::logic_error("synthesize: problem is unsolvable (" +
                             (solvability_.counterexample
                                  ? word_to_string(problem().inputs(),
                                                   *solvability_.counterexample)
                                  : std::string("?")) +
                             " has no valid labeling)");
    case ComplexityClass::kConstant:
      return std::make_unique<SynthesizedConstant>(*monoid_, const_);
    case ComplexityClass::kLogStar:
      return std::make_unique<SynthesizedLogStar>(*monoid_, linear_);
    case ComplexityClass::kLinear:
      break;
  }
  return std::make_unique<GatherAllAlgorithm>(problem());
}

std::string ClassifiedProblem::summary() const {
  std::string out = verdict_.summary() + " (monoid " +
                    std::to_string(monoid_->size()) + " elements)";
  if (!solvability_.solvable && solvability_.counterexample) {
    out += "; counterexample inputs: " +
           word_to_string(problem().inputs(), *solvability_.counterexample);
  }
  return out;
}

ClassifiedProblem classify(const PairwiseProblem& problem, std::size_t max_monoid) {
  ClassifyOptions options;
  options.max_monoid = max_monoid;
  return classify(problem, options);
}

ClassifiedProblem classify(const PairwiseProblem& problem, const ClassifyOptions& options) {
  if (!is_directed(problem.topology()) && !problem.is_orientation_symmetric()) {
    throw std::invalid_argument(
        "classify: undirected topologies require an orientation-symmetric edge "
        "constraint (see Section 3.7 for the lift from directed problems)");
  }
  budget_check(options.budget);
  // On the heap for the life of the result: GatherAllAlgorithm points
  // into it.
  auto owned = std::make_shared<const PairwiseProblem>(problem);
  const TransitionSystem transitions = TransitionSystem::build(*owned);
  // Tracks whether THIS call published the monoid into the shared cache,
  // so a later cancellation can de-publish it (abandoned problems must
  // leave no cache trace).
  bool published_monoid = false;
  std::string skeleton_key;
  std::uint64_t skeleton_hash = 0;
  std::shared_ptr<const Monoid> monoid;
  if (options.monoid_cache != nullptr) {
    skeleton_key = transitions.canonical_key();
    skeleton_hash = canonical_hash(skeleton_key);
    monoid = options.monoid_cache->find(skeleton_hash, skeleton_key);
    if (monoid != nullptr && monoid->size() > options.max_monoid) {
      // Same contract as enumeration: a tighter-budget caller must see the
      // overflow, not silently receive a bigger monoid another caller paid
      // for.
      throw_monoid_budget_overflow(options.max_monoid);
    }
    if (monoid == nullptr) {
      // A budget overflow or cancellation throws here, before insert():
      // failures are never cached, so a retry recomputes.
      auto built = std::make_shared<const Monoid>(
          Monoid::enumerate(transitions, options.max_monoid, options.budget));
      monoid = options.monoid_cache->insert(skeleton_hash, skeleton_key, built);
      published_monoid = (monoid == built);
    }
  } else {
    monoid = std::make_shared<const Monoid>(
        Monoid::enumerate(transitions, options.max_monoid, options.budget));
  }

  try {
    SolvabilityReport solvability = check_solvability(*monoid, problem.topology());
    LinearGapCertificate linear;
    ConstGapCertificate constant;
    ComplexityClass complexity = ComplexityClass::kUnsolvable;
    if (solvability.solvable) {
      linear = decide_linear_gap(*monoid, LinearGapEngine::kFactorized,
                                 CertificateMode::kAuto, options.budget);
      complexity = ComplexityClass::kLinear;
      if (linear.feasible) {
        constant = decide_const_gap(*monoid, options.budget);
        complexity = constant.feasible ? ComplexityClass::kConstant
                                       : ComplexityClass::kLogStar;
      }
    }
    return ClassifiedProblem(Verdict(std::move(owned), complexity), std::move(solvability),
                             std::move(linear), std::move(constant), std::move(monoid));
  } catch (...) {
    // The monoid itself is sound (enumeration completed), but a run that
    // fails mid-decision must not leave the abandoned problem discoverable
    // in the shared cache — the no-poisoned-entries contract deadlines and
    // fault injection both test. Lost insert races stay untouched: the
    // other writer's entry is doing real work for other callers.
    if (published_monoid) {
      options.monoid_cache->erase(skeleton_hash, skeleton_key);
    }
    throw;
  }
}

}  // namespace lclpath
