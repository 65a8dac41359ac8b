#include "decide/classifier.hpp"

#include <sstream>
#include <stdexcept>

#include "lcl/serialize.hpp"

namespace lclpath {

ClassifiedProblem ClassifiedProblem::restore(PairwiseProblem problem,
                                             ComplexityClass complexity) {
  ClassifiedProblem result;
  result.problem_ = std::make_unique<PairwiseProblem>(std::move(problem));
  result.complexity_ = complexity;
  // A restored kUnsolvable has no counterexample (not persisted); the
  // solvable flag still matches the class so summary() stays truthful.
  result.solvability_.solvable = complexity != ComplexityClass::kUnsolvable;
  return result;
}

std::unique_ptr<LocalAlgorithm> ClassifiedProblem::synthesize() const {
  if (restored() && (complexity_ == ComplexityClass::kConstant ||
                     complexity_ == ComplexityClass::kLogStar)) {
    // The certificates back the O(1)/log* constructions and are not
    // persisted; kLinear falls through — gather-all needs only the problem.
    throw std::logic_error(
        "synthesize: result was restored from a catalog store without "
        "certificates; re-classify the problem to synthesize");
  }
  switch (complexity_) {
    case ComplexityClass::kUnsolvable:
      throw std::logic_error("synthesize: problem is unsolvable (" +
                             (solvability_.counterexample
                                  ? word_to_string(problem_->inputs(),
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
  return std::make_unique<GatherAllAlgorithm>(*problem_);
}

std::string ClassifiedProblem::summary() const {
  std::ostringstream out;
  out << problem_->name() << " on " << lclpath::to_string(problem_->topology()) << ": "
      << lclpath::to_string(complexity_);
  if (restored()) {
    out << " (restored from store)";
  } else {
    out << " (monoid " << monoid_->size() << " elements)";
  }
  if (!solvability_.solvable && solvability_.counterexample) {
    out << "; counterexample inputs: "
        << word_to_string(problem_->inputs(), *solvability_.counterexample);
  }
  return out.str();
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
  ClassifiedProblem result;
  result.problem_ = std::make_unique<PairwiseProblem>(problem);
  const TransitionSystem transitions = TransitionSystem::build(*result.problem_);
  // Tracks whether THIS call published the monoid into the shared cache,
  // so a later cancellation can de-publish it (abandoned problems must
  // leave no cache trace).
  bool published_monoid = false;
  std::string skeleton_key;
  std::uint64_t skeleton_hash = 0;
  if (options.monoid_cache != nullptr) {
    skeleton_key = transitions.canonical_key();
    skeleton_hash = canonical_hash(skeleton_key);
    result.monoid_ = options.monoid_cache->find(skeleton_hash, skeleton_key);
    if (result.monoid_ != nullptr && result.monoid_->size() > options.max_monoid) {
      // Same contract as enumeration: a tighter-budget caller must see the
      // overflow, not silently receive a bigger monoid another caller paid
      // for.
      throw_monoid_budget_overflow(options.max_monoid);
    }
    if (result.monoid_ == nullptr) {
      // A budget overflow or cancellation throws here, before insert():
      // failures are never cached, so a retry recomputes.
      auto built = std::make_shared<const Monoid>(
          Monoid::enumerate(transitions, options.max_monoid, options.budget));
      result.monoid_ =
          options.monoid_cache->insert(skeleton_hash, skeleton_key, built);
      published_monoid = (result.monoid_ == built);
    }
  } else {
    result.monoid_ = std::make_shared<const Monoid>(
        Monoid::enumerate(transitions, options.max_monoid, options.budget));
  }

  try {
    result.solvability_ = check_solvability(*result.monoid_, problem.topology());
    if (!result.solvability_.solvable) {
      result.complexity_ = ComplexityClass::kUnsolvable;
      return result;
    }

    result.linear_ = decide_linear_gap(*result.monoid_, LinearGapEngine::kFactorized,
                                       CertificateMode::kAuto, options.budget);
    if (!result.linear_.feasible) {
      result.complexity_ = ComplexityClass::kLinear;
      return result;
    }

    result.const_ = decide_const_gap(*result.monoid_, options.budget);
    result.complexity_ = result.const_.feasible ? ComplexityClass::kConstant
                                                : ComplexityClass::kLogStar;
    return result;
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
