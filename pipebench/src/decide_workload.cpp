// decide_mix: a closed loop of `clients` threads, each parsing a generated
// problem text and classifying it cold (no cache).
// The traced run replays the same op sequence through classify()'s public
// steps (replay_classify in probe.hpp).
#include <atomic>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>

#include "bench.hpp"
#include "decide/classifier.hpp"
#include "generate.hpp"
#include "lcl/serialize.hpp"
#include "lcl/verifier.hpp"
#include "local/simulator.hpp"
#include "loop.hpp"
#include "probe.hpp"

namespace pipebench {

namespace {

using namespace lclpath;

constexpr int kUnset = -1;
/// Per-problem deadline inside the loop; a problem past it counts as
/// failed and the loop moves on.
constexpr std::chrono::milliseconds kDeadline{5000};
/// An instance size far beyond every radius, to read the structured radius.
constexpr std::size_t kUnclampedNodes = std::size_t{1} << 40;

/// An instance size at which `algorithm` runs its structured regime rather
/// than the full-view solve: radius(n) is below the full-view clamp, which
/// takes n > 2r + 1 on a cycle and n > r + 1 on a path. It is about twice
/// the smallest such size: there, each simulated window labels one node,
/// and a check costs O(n r) instead of O(n).
std::size_t structured_nodes(const LocalAlgorithm& algorithm, Topology topology) {
  const std::size_t r = algorithm.radius(kUnclampedNodes);
  return is_cycle(topology) ? 4 * r + 4 : 2 * r + 4;
}

class DecideWorkload final : public Workload {
 public:
  explicit DecideWorkload(const Config& config) : config_(config) {}

  void setup(ThreadTrace* /*trace*/) override {
    inputs_ = decide_mix_inputs(config_.seed, config_.sizes.mix_pool);
    const std::size_t n = inputs_.size();
    problems_.clear();
    for (const GeneratedProblem& input : inputs_) {
      problems_.push_back(parse_problem(input.text));
    }
    classes_ = std::make_unique<std::atomic<int>[]>(n);
    linear_gap_runs_ = std::make_unique<std::atomic<std::uint64_t>[]>(n);
    for (std::size_t i = 0; i < n; ++i) {
      classes_[i] = kUnset;
      linear_gap_runs_[i] = 0;
    }
    order_ = seeded_order(config_.seed, 2, n);
  }

  LoopResult run(const Plan* replay, std::vector<ThreadTrace>* traces) override {
    LoopSpec spec;
    spec.clients = config_.clients;
    spec.seconds = config_.seconds;
    spec.replay = replay;
    spec.traces = traces;
    LoopResult result =
        closed_loop(spec, [this](std::size_t, std::size_t op, ThreadTrace* trace) {
          const std::size_t index = order_[op % order_.size()];
          return trace != nullptr ? traced_op(index, trace) : classify_op(index);
        });
    result.work = static_cast<double>(result.attempted - result.failed);
    if (traces != nullptr) count_linear_gap_points(traces->front());
    return result;
  }

  void check(Checks& checks) override {
    const std::string name = "decide_mix";
    checks.require(!inconsistent_, name + ": a problem got different classes in two passes");
    checks.require(replay_mismatches_ == 0,
                   name + ": the traced step replay disagreed with classify() " +
                       std::to_string(replay_mismatches_.load()) + " time(s)");
    {
      std::lock_guard<std::mutex> lock(error_mutex_);
      checks.require(error_.empty(), name + ": " + error_);
    }
    synth_checked_ = 0;
    std::mutex mutex;
    parallel_for(inputs_.size(), config_.clients, [&](std::size_t i) {
      std::string failure;
      try {
        failure = check_problem(i);
      } catch (const std::exception& e) {
        failure = std::string("the check threw: ") + e.what();
      }
      if (failure.empty()) return;
      std::lock_guard<std::mutex> lock(mutex);
      checks.require(false, name + ": " + problems_[i].name() + ": " + failure);
    });
  }

  const char* work_name() const override { return "problems"; }
  const char* op_name() const override { return "classify"; }

  std::vector<Metric> details(const LoopResult&) const override {
    return {{"distinct_problems", static_cast<double>(inputs_.size()), "count"},
            {"synth_checked", static_cast<double>(synth_checked_.load()), "count"}};
  }

 private:
  void record(std::size_t index, ComplexityClass complexity) {
    int seen = kUnset;
    const int value = static_cast<int>(complexity);
    if (!classes_[index].compare_exchange_strong(seen, value) && seen != value) {
      inconsistent_ = true;
    }
  }

  void note_error(const std::exception& e) {
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (error_.empty()) error_ = e.what();
  }

  bool classify_op(std::size_t index) {
    try {
      const PairwiseProblem problem = parse_problem(inputs_[index].text);
      ExecutionBudget budget;
      budget.set_timeout(kDeadline);
      ClassifyOptions options;
      options.budget = &budget;
      record(index, classify(problem, options).complexity());
      return true;
    } catch (const CancelledError&) {
      return false;
    } catch (const std::exception& e) {
      note_error(e);
      return false;
    }
  }

  bool traced_op(std::size_t index, ThreadTrace* trace) {
    Span request(trace, SpanKind::kRequest);
    try {
      std::optional<PairwiseProblem> problem;
      {
        Span span(trace, SpanKind::kParse);
        problem.emplace(parse_problem(inputs_[index].text));
      }
      ExecutionBudget budget;
      budget.set_timeout(kDeadline);
      const ComplexityClass complexity = replay_classify(*problem, budget, trace);
      if (complexity != ComplexityClass::kUnsolvable) ++linear_gap_runs_[index];
      if (static_cast<int>(complexity) != classes_[index]) ++replay_mismatches_;
      return true;
    } catch (const CancelledError&) {
      return false;
    } catch (const std::exception& e) {
      note_error(e);
      return false;
    }
  }

  /// Adds the sum of linear_gap_domain_size over the traced run's
  /// decide_linear_gap calls. Computed after the loop, once per distinct
  /// problem, so the count costs the traced run nothing.
  void count_linear_gap_points(ThreadTrace& trace) {
    std::vector<double> points(problems_.size(), 0);
    parallel_for(problems_.size(), config_.clients, [&](std::size_t i) {
      const std::uint64_t runs = linear_gap_runs_[i].exchange(0);
      if (runs == 0) return;
      const Monoid monoid = Monoid::enumerate(TransitionSystem::build(problems_[i]));
      points[i] =
          static_cast<double>(runs) * static_cast<double>(linear_gap_domain_size(monoid));
    });
    trace.add(Counter::kLinearGapPoints, std::accumulate(points.begin(), points.end(), 0.0));
  }

  /// Empty when problem i's outputs check out; otherwise what failed.
  std::string check_problem(std::size_t i) {
    const int got = classes_[i].load();
    if (got == kUnset) return "";  // not reached by the loop
    const auto complexity = static_cast<ComplexityClass>(got);
    if (inputs_[i].expected && complexity != *inputs_[i].expected) {
      return "classified " + to_string(complexity) + ", textbook class is " +
             to_string(*inputs_[i].expected);
    }
    // An independent classification, whose certificates back the checks
    // below (the loop keeps no results, only their classes).
    const PairwiseProblem& problem = problems_[i];
    const ClassifiedProblem reference = classify(problem);
    if (reference.complexity() != complexity) {
      return "loop class " + to_string(complexity) + " differs from a fresh classify(): " +
             to_string(reference.complexity());
    }
    // O(1) verdicts' algorithms are not run: SynthesizedConstant's
    // structured regime fails on some problems and instances (README.md,
    // "Output checks").
    if (complexity == ComplexityClass::kLogStar) {
      const std::unique_ptr<LocalAlgorithm> algorithm = reference.synthesize();
      const std::size_t n = structured_nodes(*algorithm, problem.topology());
      Rng rng = seeded_rng(config_.seed, 1000 + i);
      const Instance instance = random_instance(problem.topology(), n, problem.num_inputs(), rng);
      SimulationOptions options;
      options.threads = 1;
      ++synth_checked_;
      const SimulationResult run = simulate(*algorithm, problem, instance, options);
      const VerifyResult verdict = verify_pairwise(problem, instance.inputs, run.outputs);
      if (!verdict.ok) {
        return "synthesized algorithm fails verify_pairwise at n=" + std::to_string(n) + ": " +
               verdict.reason;
      }
    } else if (complexity == ComplexityClass::kUnsolvable) {
      const std::optional<Word>& counterexample = reference.solvability().counterexample;
      if (!counterexample) return "unsolvable verdict without a counterexample";
      if (solve_by_dp(problem, *counterexample)) {
        return "counterexample " + word_to_string(problem.inputs(), *counterexample) +
               " has a labeling";
      }
    }
    return "";
  }

  Config config_;
  std::vector<GeneratedProblem> inputs_;
  std::vector<PairwiseProblem> problems_;
  std::vector<std::size_t> order_;
  std::atomic<std::size_t> synth_checked_{0};  ///< synthesized algorithms run by check()
  std::unique_ptr<std::atomic<int>[]> classes_;
  /// decide_linear_gap calls per problem in the traced run.
  std::unique_ptr<std::atomic<std::uint64_t>[]> linear_gap_runs_;
  std::atomic<bool> inconsistent_{false};
  std::atomic<std::uint64_t> replay_mismatches_{0};
  mutable std::mutex error_mutex_;
  std::string error_;
};

}  // namespace

std::unique_ptr<Workload> make_decide_mix(const Config& config) {
  return std::make_unique<DecideWorkload>(config);
}

}  // namespace pipebench
