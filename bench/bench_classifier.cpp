// Experiments E7 + E8: the decision procedure (Theorems 8 + 9) over the
// validation catalog — verdicts, type-space sizes, and decision cost —
// plus registered serial and 1/2/4/8-thread batch benchmarks for the
// thread-pooled engine.
//
// --emit-json writes BENCH_classifier.json (catalog verdict rows with
// their classify time and the lifted undirected 3-coloring row);
// --perf-smoke additionally
// requires every catalog verdict to match its textbook class and the
// lift to classify O(1). See bench/bench_json.hpp for the protocol.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "decide/batch.hpp"
#include "decide/classifier.hpp"
#include "hardness/undirected.hpp"

namespace {

using namespace lclpath;

// The batch workload: every catalog problem, the Section 3.7
// path-to-cycle lifts of the cheap directed-path entries, the undirected
// lifts of the same entries (classifiable since decide_linear_gap's
// factorized engine replaced the quadratic point-pair sweep — previously
// they had to stay out entirely), and renamed replicas of the medium-cost
// problems so the pool has enough balanced work to overlap (a single
// dominant item would cap the speedup by Amdahl, which is why the 0.7s
// copy-input cycle lift is excluded). Lifts that reject their source are
// skipped.
std::vector<PairwiseProblem> batch_workload() {
  std::vector<PairwiseProblem> problems;
  for (const auto& entry : catalog::validation_catalog()) {
    problems.push_back(entry.problem);
  }
  const PairwiseProblem liftable[] = {
      catalog::coloring(3, Topology::kDirectedPath),
      catalog::two_coloring(Topology::kDirectedPath),
      catalog::constant_output(Topology::kDirectedPath),
  };
  for (const PairwiseProblem& p : liftable) {
    try {
      problems.push_back(hardness::lift_path_to_cycle(p));
    } catch (const std::exception&) {
    }
    try {
      problems.push_back(hardness::lift_to_undirected(p));
    } catch (const std::exception&) {
    }
  }
  for (int copy = 0; copy < 4; ++copy) {
    for (PairwiseProblem p : {catalog::agreement(),
                              catalog::agreement(Topology::kDirectedPath),
                              catalog::shift_input()}) {
      p.set_name(p.name() + "#" + std::to_string(copy));
      problems.push_back(std::move(p));
    }
  }
  return problems;
}

void ClassifyWorkloadSerial(benchmark::State& state) {
  const auto problems = batch_workload();
  for (auto _ : state) {
    for (const PairwiseProblem& p : problems) {
      try {
        const ClassifiedProblem result = classify(p);
        benchmark::DoNotOptimize(result.complexity());
      } catch (const std::exception&) {
      }
    }
  }
  state.counters["problems"] = static_cast<double>(problems.size());
}
BENCHMARK(ClassifyWorkloadSerial)->Unit(benchmark::kMillisecond)->UseRealTime();

void ClassifyWorkloadBatch(benchmark::State& state) {
  const auto problems = batch_workload();
  BatchOptions options;
  options.num_threads = static_cast<std::size_t>(state.range(0));
  options.dedup = false;  // match the serial loop's work exactly
  for (auto _ : state) {
    const auto results = classify_batch(problems, options);
    benchmark::DoNotOptimize(results.size());
  }
  state.counters["problems"] = static_cast<double>(problems.size());
  state.counters["threads"] = static_cast<double>(options.num_threads);
}
BENCHMARK(ClassifyWorkloadBatch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// End-to-end classification of the ROADMAP headline case the old engine
// could not touch: lift_to_undirected(coloring(3, path)), ~7 * 10^5 domain
// points. Exists so the factorized decide_linear_gap speedup is visible at
// the classify() surface, not just inside the decider.
void ClassifyLiftedUndirectedColoring(benchmark::State& state) {
  const PairwiseProblem lifted =
      hardness::lift_to_undirected(catalog::coloring(3, Topology::kDirectedPath));
  for (auto _ : state) {
    const ClassifiedProblem result = classify(lifted);
    if (result.complexity() != ComplexityClass::kConstant) {
      state.SkipWithError("unexpected class");
    }
    benchmark::DoNotOptimize(result.monoid_size());
  }
}
BENCHMARK(ClassifyLiftedUndirectedColoring)->Unit(benchmark::kMillisecond);

void ClassifyCatalogEntry(benchmark::State& state) {
  const auto entries = catalog::validation_catalog();
  const CatalogEntry& entry = entries.at(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const ClassifiedProblem result = classify(entry.problem);
    benchmark::DoNotOptimize(result.complexity());
  }
  const ClassifiedProblem result = classify(entry.problem);
  state.SetLabel(entry.problem.name() + " -> " + to_string(result.complexity()) +
                 " (expected " + to_string(entry.expected) + ", monoid " +
                 std::to_string(result.monoid_size()) + ")");
  state.counters["monoid"] = static_cast<double>(result.monoid_size());
  state.counters["class"] = static_cast<double>(result.complexity());
}
BENCHMARK(ClassifyCatalogEntry)
    ->DenseRange(0, static_cast<long>(lclpath::catalog::validation_catalog().size()) - 1)
    ->Unit(benchmark::kMillisecond);

/// One timed classify() of a catalog or lifted problem.
struct ClassifyRow {
  std::string problem;
  std::string topology;
  std::string expected;
  std::string decided;
  std::size_t monoid = 0;
  double classify_ms = 0;  ///< fastest of kRepeats cold classifies
};

ClassifyRow time_classify(const PairwiseProblem& problem, const std::string& expected) {
  constexpr int kRepeats = 5;
  using clock = std::chrono::steady_clock;
  ClassifyRow row{problem.name(), to_string(problem.topology()), expected, "", 0, 0};
  double best_ms = -1;
  for (int i = 0; i < kRepeats; ++i) {
    const auto start = clock::now();
    const ClassifiedProblem result = classify(problem);
    const double ms = std::chrono::duration<double, std::milli>(clock::now() - start).count();
    if (best_ms < 0 || ms < best_ms) best_ms = ms;
    row.decided = to_string(result.complexity());
    row.monoid = result.monoid_size();
  }
  row.classify_ms = best_ms;
  return row;
}

void write_json(const std::vector<ClassifyRow>& catalog_rows, const ClassifyRow& lifted,
                const char* path) {
  using benchjson::json_escaped;
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  const auto write_row = [out](const ClassifyRow& r) {
    std::fprintf(out,
                 "{\"problem\": \"%s\", \"topology\": \"%s\", \"expected\": \"%s\", "
                 "\"decided\": \"%s\", \"monoid\": %zu, \"classify_ms\": %.6f}",
                 json_escaped(r.problem).c_str(), r.topology.c_str(), r.expected.c_str(),
                 r.decided.c_str(), r.monoid, r.classify_ms);
  };
  std::fprintf(out, "{\n  \"catalog\": [\n");
  for (std::size_t i = 0; i < catalog_rows.size(); ++i) {
    std::fprintf(out, "    ");
    write_row(catalog_rows[i]);
    std::fprintf(out, "%s\n", i + 1 < catalog_rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"lifted\": ");
  write_row(lifted);
  std::fprintf(out, "\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  benchjson::Harness harness(argc, argv, "BENCH_classifier.json");
  if (harness.filtered_only()) return harness.run_benchmarks();

  // Table E7/E8: verdict per catalog problem.
  std::printf("=== E7/E8: classifier verdicts (Theorems 8+9) ===\n");
  std::printf("%-28s %-14s %-14s %8s %12s\n", "problem", "expected", "decided", "monoid",
              "classify");
  std::vector<ClassifyRow> catalog_rows;
  for (const auto& entry : catalog::validation_catalog()) {
    catalog_rows.push_back(time_classify(entry.problem, to_string(entry.expected)));
    const ClassifyRow& r = catalog_rows.back();
    std::printf("%-28s %-14s %-14s %8zu %10.4fms\n", r.problem.c_str(), r.expected.c_str(),
                r.decided.c_str(), r.monoid, r.classify_ms);
  }
  const ClassifyRow lifted = time_classify(
      hardness::lift_to_undirected(catalog::coloring(3, Topology::kDirectedPath)),
      to_string(ComplexityClass::kConstant));
  std::printf("%-28s %-14s %-14s %8zu %10.4fms  (undirected lift)\n\n",
              lifted.problem.c_str(), lifted.expected.c_str(), lifted.decided.c_str(),
              lifted.monoid, lifted.classify_ms);

  if (harness.emit_json()) write_json(catalog_rows, lifted, harness.json_path());

  harness.check_smoke_budget();
  harness.require(std::ranges::all_of(catalog_rows,
                                      [](const ClassifyRow& r) { return r.decided == r.expected; }),
                  "every catalog verdict matches its textbook class");
  harness.require(lifted.decided == lifted.expected,
                  "the undirected lift of directed-path 3-coloring classifies O(1)");
  return harness.run_benchmarks();
}
