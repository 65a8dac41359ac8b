#include "probe.hpp"

#include <unistd.h>

#include <filesystem>
#include <span>

#include "decide/batch.hpp"
#include "generate.hpp"
#include "lcl/serialize.hpp"
#include "local/simulator.hpp"
#include "store/serve.hpp"
#include "store/store.hpp"

namespace pipebench {

using namespace lclpath;

namespace {

/// classify()'s default monoid budget, which the replay repeats.
constexpr std::size_t kMaxMonoid = 500000;
constexpr std::size_t kProbeNodes = 2000;

}  // namespace

ComplexityClass replay_classify(const PairwiseProblem& problem, const ExecutionBudget& budget,
                                ThreadTrace* trace) {
  if (!is_directed(problem.topology()) && !problem.is_orientation_symmetric()) {
    throw std::invalid_argument("replay: undirected problem is not orientation-symmetric");
  }
  Span transition_span(trace, SpanKind::kTransition);
  const TransitionSystem transitions = TransitionSystem::build(problem);
  Span monoid_span(trace, SpanKind::kMonoid);
  const Monoid monoid = Monoid::enumerate(transitions, kMaxMonoid, &budget);
  count(trace, Counter::kMonoidElements, static_cast<double>(monoid.size()));
  bool solvable = false;
  {
    Span span(trace, SpanKind::kSolvability);
    solvable = check_solvability(monoid, problem.topology()).solvable;
  }
  if (!solvable) return ComplexityClass::kUnsolvable;
  bool linear_feasible = false;
  {
    Span span(trace, SpanKind::kLinearGap);
    linear_feasible = decide_linear_gap(monoid, LinearGapEngine::kFactorized,
                                        CertificateMode::kAuto, &budget)
                          .feasible;
  }
  if (!linear_feasible) return ComplexityClass::kLinear;
  bool const_feasible = false;
  {
    Span span(trace, SpanKind::kConstGap);
    const_feasible = decide_const_gap(monoid, &budget).feasible;
  }
  return const_feasible ? ComplexityClass::kConstant : ComplexityClass::kLogStar;
}

std::string probe_every_layer(ThreadTrace* trace, const std::string& workdir) {
  namespace fs = std::filesystem;
  constexpr ComplexityClass kExpected = ComplexityClass::kLogStar;
  const std::string text = serialize(catalog::coloring(3));
  const std::string suffix =
      cache_identity_suffix(LinearGapEngine::kFactorized, CertificateMode::kAuto);

  std::optional<PairwiseProblem> problem;
  {
    Span span(trace, SpanKind::kParse);
    problem.emplace(parse_problem(text));
  }
  std::string key;
  {
    Span span(trace, SpanKind::kKey);
    key = canonical_key(*problem) + suffix;
  }
  const ExecutionBudget unbounded;
  if (replay_classify(*problem, unbounded, trace) != kExpected) {
    return "probe: the step replay misclassifies 3-coloring";
  }
  std::optional<ClassifiedProblem> classified;
  {
    Span span(trace, SpanKind::kClassify);
    classified.emplace(classify(*problem));
  }
  BatchCache cache;
  MonoidCache monoids;
  BatchOptions options;
  options.num_threads = 1;
  options.cache = &cache;
  options.classify.monoid_cache = &monoids;
  std::vector<BatchEntry> batch;
  {
    Span span(trace, SpanKind::kBatch);
    batch = classify_batch(std::span<const PairwiseProblem>(&*problem, 1), options);
  }
  count(trace, Counter::kBatchCacheHits, static_cast<double>(cache.hits()));
  count(trace, Counter::kBatchCacheMisses, static_cast<double>(cache.misses()));
  count(trace, Counter::kMonoidCacheHits, static_cast<double>(monoids.hits()));
  count(trace, Counter::kMonoidCacheMisses, static_cast<double>(monoids.misses()));
  std::unique_ptr<LocalAlgorithm> algorithm;
  {
    Span span(trace, SpanKind::kSynthesize);
    algorithm = classified->synthesize();
  }
  count(trace, Counter::kSynthRadius, static_cast<double>(algorithm->radius(kProbeNodes)));
  Rng rng = seeded_rng(0, 9);
  const Instance instance =
      random_instance(problem->topology(), kProbeNodes, problem->num_inputs(), rng);
  SimulationOptions simulation;
  simulation.keep_outputs = false;
  std::optional<SimulationResult> run;
  {
    Span span(trace, SpanKind::kSimulate);
    run.emplace(simulate(*algorithm, *problem, instance, simulation));
  }
  if (!run->verdict.ok) return "probe: simulate() verdict failed";
  count(trace, Counter::kNodes, static_cast<double>(instance.size()));
  count(trace, Counter::kChunks, static_cast<double>(run->chunks));
  count(trace, Counter::kThreadsUsed, static_cast<double>(run->threads_used));

  const fs::path dir = fs::path(workdir) / ("probe-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::string failure;
  {
    store::ResultStore writer(dir.string());
    {
      Span span(trace, SpanKind::kPut);
      writer.put(store::record_of(*problem, batch[0], options.classify));
    }
    {
      Span span(trace, SpanKind::kCommit);
      count(trace, Counter::kShardsWritten, static_cast<double>(writer.commit()));
    }
    store::ResultStore reader(dir.string());
    {
      Span span(trace, SpanKind::kLoad);
      const store::LoadReport report = reader.load();
      count(trace, Counter::kRecordsLoaded, static_cast<double>(report.records));
      count(trace, Counter::kDirtyShards, static_cast<double>(report.dirty.size()));
    }
    BatchCache warm;
    {
      Span span(trace, SpanKind::kWarmStart);
      count(trace, Counter::kPreloaded, static_cast<double>(reader.warm_start(warm)));
    }
    store::CatalogServer server(dir.string());
    {
      Span span(trace, SpanKind::kPoll);
      const store::ReloadReport report = server.poll();
      count(trace, Counter::kReloaded, static_cast<double>(report.reloaded));
      count(trace, Counter::kRejected, static_cast<double>(report.rejected));
    }
    const std::shared_ptr<const store::StoreSnapshot> snapshot = server.snapshot();
    const store::StoreRecord* record = nullptr;
    {
      Span span(trace, SpanKind::kFind);
      record = snapshot->find(key);
    }
    if (record == nullptr || !record->ok() || *record->classified != kExpected) {
      failure = "probe: the store does not serve the 3-coloring verdict";
    } else {
      count(trace, Counter::kFindHits, 1);
    }
  }
  fs::remove_all(dir);
  return failure;
}

}  // namespace pipebench
