// synth_simulate: classify and synthesize catalog problems of every
// solvable class on all four topologies (set-up), then run simulate() on
// seeded 10^6-node instances, one call per op, with keep_outputs = false
// so the engine verifies while it streams. One client: simulate() itself
// spreads each call over the local engine's thread pool.
#include <memory>
#include <mutex>
#include <optional>

#include "bench.hpp"
#include "decide/classifier.hpp"
#include "generate.hpp"
#include "lcl/serialize.hpp"
#include "local/simulator.hpp"
#include "loop.hpp"

namespace pipebench {

namespace {

using namespace lclpath;

constexpr std::chrono::milliseconds kSimulateDeadline{30000};

struct SynthItem {
  PairwiseProblem problem;
  /// Owned by pointer: the synthesized algorithm refers into it.
  std::unique_ptr<ClassifiedProblem> classified;
  std::unique_ptr<LocalAlgorithm> algorithm;
  std::size_t instance = 0;
};

struct SharedInstance {
  Instance instance;
  std::size_t alphabet = 0;
};

class SynthWorkload final : public Workload {
 public:
  explicit SynthWorkload(const Config& config) : config_(config) {}

  void setup(ThreadTrace* trace) override {
    Span setup_span(trace, SpanKind::kSetup);
    items_.clear();
    instances_.clear();
    setup_failures_.clear();
    const std::size_t n = config_.sizes.sim_nodes;
    for (const GeneratedProblem& input : synth_inputs()) {
      SynthItem item;
      {
        Span span(trace, SpanKind::kParse);
        item.problem = parse_problem(input.text);
      }
      {
        Span span(trace, SpanKind::kClassify);
        item.classified = std::make_unique<ClassifiedProblem>(classify(item.problem));
      }
      const ComplexityClass got = item.classified->complexity();
      if (got != *input.expected) {
        setup_failures_.push_back(item.problem.name() + " on " +
                                  to_string(item.problem.topology()) + ": classified " +
                                  to_string(got) + ", textbook class is " +
                                  to_string(*input.expected));
        continue;
      }
      {
        Span span(trace, SpanKind::kSynthesize);
        item.algorithm = item.classified->synthesize();
      }
      count(trace, Counter::kSynthRadius, static_cast<double>(item.algorithm->radius(n)));
      item.instance = instance_for(item.problem, n);
      items_.push_back(std::move(item));
    }
    order_ = seeded_order(config_.seed, 3, items_.size());
  }

  LoopResult run(const Plan* replay, std::vector<ThreadTrace>* traces) override {
    if (items_.empty()) return {};  // every class was wrong; check() reports it
    LoopSpec spec;
    spec.clients = 1;
    spec.seconds = config_.seconds;
    spec.replay = replay;
    spec.traces = traces;
    spec.round = items_.size();
    LoopResult result =
        closed_loop(spec, [this](std::size_t, std::size_t op, ThreadTrace* trace) {
          return simulate_op(items_[order_[op % order_.size()]], trace);
        });
    result.work = static_cast<double>(result.attempted - result.failed) *
                  static_cast<double>(config_.sizes.sim_nodes);
    return result;
  }

  void check(Checks& checks) override {
    for (const std::string& failure : setup_failures_) {
      checks.require(false, "synth_simulate: " + failure);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    checks.require(bad_verdict_.empty(), "synth_simulate: " + bad_verdict_);
  }

  const char* work_name() const override { return "nodes"; }
  const char* op_name() const override { return "run"; }

  std::vector<Metric> details(const LoopResult& loop) const override {
    return {{"rounds", items_.empty() ? 0.0
                                      : static_cast<double>(loop.attempted / items_.size()),
             "count"},
            {"problems", static_cast<double>(items_.size()), "count"}};
  }

  void teardown() override {
    items_.clear();
    instances_.clear();
  }

 private:
  /// One seeded instance per (topology, input alphabet), shared by the
  /// problems that fit it.
  std::size_t instance_for(const PairwiseProblem& problem, std::size_t n) {
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      if (instances_[i].instance.topology == problem.topology() &&
          instances_[i].alphabet == problem.num_inputs()) {
        return i;
      }
    }
    Rng rng = seeded_rng(config_.seed, 10 + instances_.size());
    instances_.push_back({random_instance(problem.topology(), n, problem.num_inputs(), rng),
                          problem.num_inputs()});
    return instances_.size() - 1;
  }

  bool simulate_op(const SynthItem& item, ThreadTrace* trace) {
    Span request(trace, SpanKind::kRequest);
    ExecutionBudget budget;
    budget.set_timeout(kSimulateDeadline);
    SimulationOptions options;
    options.keep_outputs = false;
    options.budget = &budget;
    const Instance& instance = instances_[item.instance].instance;
    std::optional<SimulationResult> result;
    try {
      Span span(trace, SpanKind::kSimulate);
      result.emplace(simulate(*item.algorithm, item.problem, instance, options));
    } catch (const CancelledError&) {
      return false;
    }
    count(trace, Counter::kNodes, static_cast<double>(instance.size()));
    count(trace, Counter::kChunks, static_cast<double>(result->chunks));
    count(trace, Counter::kThreadsUsed, static_cast<double>(result->threads_used));
    if (!result->verdict.ok) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (bad_verdict_.empty()) {
        bad_verdict_ = item.problem.name() + " on " + to_string(item.problem.topology()) +
                       ": simulate() verdict failed at node " +
                       std::to_string(result->verdict.failed_at) + ": " +
                       result->verdict.reason;
      }
    }
    return true;
  }

  Config config_;
  std::vector<SynthItem> items_;
  std::vector<SharedInstance> instances_;
  std::vector<std::size_t> order_;
  std::vector<std::string> setup_failures_;
  std::mutex mutex_;
  std::string bad_verdict_;
};

}  // namespace

std::unique_ptr<Workload> make_synth_simulate(const Config& config) {
  return std::make_unique<SynthWorkload>(config);
}

}  // namespace pipebench
