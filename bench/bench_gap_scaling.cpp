// Experiment E9: the three-regime separation. For one problem from each
// class, report the synthesized algorithm's view radius ("rounds") across
// n — the paper's O(1) / Theta(log* n) / Theta(n) landscape. Also times
// one full simulated execution per regime at a moderate n.
//
// Experiment E10: decide_linear_gap scaling across growing block domains,
// including the Section 3.7 undirected lifts. `search` is the factorized
// aggregate search emitting the class-indexed certificate (cost
// independent of domain size), and `lookup` is the amortized value_at cost
// the synthesized algorithms pay at runtime. Rows also report the
// search's resident-memory delta, and an end-to-end classify() table
// covers the full decision procedure — the lifted shift-input row (monoid
// 930, ~2.9 * 10^7 points) is the heaviest. Agreement with the point-pair
// oracle is checked in tests/linear_gap_diff_test.cpp, not here.
//
// `--emit-json[=path]` writes the measurements as machine-readable JSON
// (default BENCH_linear_gap.json; committed at the repo root as the
// tracked baseline and uploaded fresh as a CI artifact).
// `--perf-smoke[=seconds]` additionally enforces a wall-clock bound on the
// fixed-cost experiments and — the regression tripwire — bounds the lifted
// shift-input end-to-end classify at a sixth of the budget: a slide back
// toward materializing per-point certificate tables (~30 s) fails the CI
// step loudly.
#include <benchmark/benchmark.h>

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "decide/classifier.hpp"
#include "hardness/undirected.hpp"

namespace {

using namespace lclpath;
using clock_type = std::chrono::steady_clock;

using benchjson::current_rss_mb;
using benchjson::peak_rss_mb;

void SimulateRegime(benchmark::State& state) {
  // 0 = constant, 1 = logstar, 2 = linear
  const long regime = state.range(0);
  const PairwiseProblem problem = regime == 0   ? catalog::constant_output()
                                  : regime == 1 ? catalog::coloring(3)
                                                : catalog::agreement();
  const ClassifiedProblem result = classify(problem);
  const auto algorithm = result.synthesize();
  Rng rng(static_cast<std::uint64_t>(regime) + 11);
  // Keep n moderate so the O(n^2)-ish simulation cost stays benchable.
  const std::size_t n = regime == 2 ? 4096 : 2 * algorithm->radius(1 << 20) + 33;
  Instance instance = random_instance(problem.topology(), n, problem.num_inputs(), rng);
  for (auto _ : state) {
    const auto sim = simulate(*algorithm, problem, instance);
    if (!sim.verdict.ok) state.SkipWithError("invalid output");
    benchmark::DoNotOptimize(sim.outputs);
  }
  state.SetLabel(problem.name() + " n=" + std::to_string(n) +
                 " radius=" + std::to_string(algorithm->radius(n)));
}
BENCHMARK(SimulateRegime)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

// ------------------------------------------------------------------- E10

/// value_at lookups per row for the amortized-lookup column.
constexpr std::size_t kLookupSamples = 10000;

struct GapMeasurement {
  std::string problem;
  std::size_t points = 0;
  std::size_t contexts = 0;
  std::size_t monoid = 0;
  bool feasible = false;
  double search_s = 0;       ///< search -> certificate
  double search_rss_mb = 0;  ///< resident-set delta across the search
  double lookup_us = -1;     ///< mean value_at (< 0: infeasible)
};

struct EndToEndMeasurement {
  std::string problem;
  std::string complexity;
  double classify_s = 0;
};

std::vector<PairwiseProblem> gap_workload() {
  std::vector<PairwiseProblem> problems = {
      catalog::coloring(3),
      catalog::input_gated_coloring(),
      catalog::shift_input(),
      catalog::agreement(),
      hardness::lift_path_to_cycle(catalog::agreement(Topology::kDirectedPath)),
      hardness::lift_to_undirected(catalog::constant_output(Topology::kDirectedPath)),
      hardness::lift_to_undirected(catalog::two_coloring(Topology::kDirectedPath)),
      hardness::lift_to_undirected(catalog::coloring(3, Topology::kDirectedPath)),
      hardness::lift_to_undirected(catalog::shift_input()),
  };
  return problems;
}

/// The lifted shift-input: the huge-feasible-domain headline whose
/// end-to-end time the perf smoke bounds.
const char* kSmokeProblem = "shift-input (undirected) on undirected cycle";

/// Deterministic interior sample points for the lookup column, spread
/// across the certificate's context layers and the input alphabet.
std::vector<BlockPoint> sample_points(const Monoid& monoid) {
  const std::vector<std::size_t> contexts = linear_gap_contexts(monoid).elements;
  const std::size_t alpha = monoid.transitions().num_inputs();
  std::vector<BlockPoint> sample;
  sample.reserve(kLookupSamples);
  for (std::size_t i = 0; i < kLookupSamples; ++i) {
    sample.push_back(BlockPoint{BlockKind::kInterior,
                                contexts[(i * 131) % contexts.size()],
                                static_cast<Label>(i % alpha),
                                static_cast<Label>((i / 3) % alpha),
                                contexts[(i * 197) % contexts.size()]});
  }
  return sample;
}

std::vector<GapMeasurement> run_gap_scaling() {
  std::vector<GapMeasurement> rows;
  for (const PairwiseProblem& problem : gap_workload()) {
    GapMeasurement row;
    row.problem = problem.name() + " on " + to_string(problem.topology());
    const Monoid monoid = Monoid::enumerate(TransitionSystem::build(problem));
    row.monoid = monoid.size();
    row.points = linear_gap_domain_size(monoid, &row.contexts);

    const double rss0 = current_rss_mb();
    const auto t0 = clock_type::now();
    const LinearGapCertificate cert = decide_linear_gap(monoid);
    const auto t1 = clock_type::now();
    row.feasible = cert.feasible;
    row.search_s = std::chrono::duration<double>(t1 - t0).count();
    row.search_rss_mb = current_rss_mb() - rss0;

    if (row.feasible) {
      const std::vector<BlockPoint> sample = sample_points(monoid);
      const auto t2 = clock_type::now();
      std::size_t checksum = 0;
      for (const BlockPoint& p : sample) checksum += cert.value_at(p).a;
      const auto t3 = clock_type::now();
      benchmark::DoNotOptimize(checksum);
      row.lookup_us = std::chrono::duration<double, std::micro>(t3 - t2).count() /
                      static_cast<double>(sample.size());
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<EndToEndMeasurement> run_end_to_end() {
  std::vector<EndToEndMeasurement> rows;
  for (const PairwiseProblem& problem : gap_workload()) {
    EndToEndMeasurement row;
    row.problem = problem.name() + " on " + to_string(problem.topology());
    const auto t0 = clock_type::now();
    const ClassifiedProblem result = classify(problem);
    const auto t1 = clock_type::now();
    row.classify_s = std::chrono::duration<double>(t1 - t0).count();
    row.complexity = to_string(result.complexity());
    rows.push_back(std::move(row));
  }
  return rows;
}

void print_gap_table(const std::vector<GapMeasurement>& rows) {
  std::printf("=== E10: decide_linear_gap — search and certificate lookups ===\n");
  std::printf("%-44s %9s %6s %9s %9s %10s\n", "problem", "points", "ctx", "feasible",
              "search", "lookup");
  for (const GapMeasurement& r : rows) {
    char lookup[32];
    if (r.lookup_us >= 0) {
      std::snprintf(lookup, sizeof lookup, "%.3fus", r.lookup_us);
    } else {
      std::snprintf(lookup, sizeof lookup, "-");
    }
    std::printf("%-44s %9zu %6zu %9s %8.4fs %10s\n", r.problem.c_str(), r.points,
                r.contexts, r.feasible ? "yes" : "no", r.search_s, lookup);
  }
  std::printf(
      "(search = factorized aggregate search emitting the class-indexed\n"
      " certificate; lookup = mean value_at over %zu sampled points.)\n\n",
      static_cast<std::size_t>(kLookupSamples));
}

void print_end_to_end(const std::vector<EndToEndMeasurement>& rows) {
  std::printf("=== E10b: end-to-end classify() (monoid + solvability + both gaps) ===\n");
  std::printf("%-44s %12s %12s\n", "problem", "class", "classify");
  for (const EndToEndMeasurement& r : rows) {
    std::printf("%-44s %12s %11.4fs\n", r.problem.c_str(), r.complexity.c_str(),
                r.classify_s);
  }
  std::printf("(peak RSS this run %.1f MB)\n\n", peak_rss_mb());
}

using benchjson::json_escaped;

void write_gap_json(const std::vector<GapMeasurement>& rows,
                    const std::vector<EndToEndMeasurement>& e2e, const char* path) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  auto optional_s = [out](const char* key, double value, const char* suffix) {
    if (value >= 0) {
      std::fprintf(out, "\"%s\": %.6f%s", key, value, suffix);
    } else {
      std::fprintf(out, "\"%s\": null%s", key, suffix);
    }
  };
  std::fprintf(out, "{\n  \"decide\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const GapMeasurement& r = rows[i];
    std::fprintf(out,
                 "    {\"problem\": \"%s\", \"points\": %zu, \"contexts\": %zu, "
                 "\"monoid\": %zu, \"feasible\": %s, "
                 "\"search_s\": %.6f, \"search_rss_mb\": %.2f, ",
                 json_escaped(r.problem).c_str(), r.points, r.contexts, r.monoid,
                 r.feasible ? "true" : "false", r.search_s, r.search_rss_mb);
    optional_s("lookup_us", r.lookup_us, "");
    std::fprintf(out, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"end_to_end\": [\n");
  for (std::size_t i = 0; i < e2e.size(); ++i) {
    const EndToEndMeasurement& r = e2e[i];
    std::fprintf(out,
                 "    {\"problem\": \"%s\", \"complexity\": \"%s\", "
                 "\"classify_s\": %.6f}%s\n",
                 json_escaped(r.problem).c_str(), json_escaped(r.complexity).c_str(),
                 r.classify_s, i + 1 < e2e.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"peak_rss_mb\": %.1f\n}\n", peak_rss_mb());
  std::fclose(out);
  std::printf("wrote %s (%zu decide rows, %zu end-to-end rows)\n\n", path, rows.size(),
              e2e.size());
}

void DecideLinearGapLiftedColoring(benchmark::State& state) {
  const PairwiseProblem lifted =
      hardness::lift_to_undirected(catalog::coloring(3, Topology::kDirectedPath));
  const Monoid monoid = Monoid::enumerate(TransitionSystem::build(lifted));
  for (auto _ : state) {
    const LinearGapCertificate cert = decide_linear_gap(monoid);
    if (!cert.feasible) state.SkipWithError("expected feasible");
    benchmark::DoNotOptimize(cert.domain_size());
  }
  state.counters["points"] = static_cast<double>(linear_gap_domain_size(monoid));
}
BENCHMARK(DecideLinearGapLiftedColoring)->Unit(benchmark::kMillisecond);

void DecideLinearGapLiftedShiftInput(benchmark::State& state) {
  // Monoid 930, ~2.9e7 points — benchable because the certificate is the
  // class-level solution, not per-point tables.
  const PairwiseProblem lifted = hardness::lift_to_undirected(catalog::shift_input());
  const Monoid monoid = Monoid::enumerate(TransitionSystem::build(lifted));
  for (auto _ : state) {
    const LinearGapCertificate cert = decide_linear_gap(monoid);
    if (!cert.feasible) state.SkipWithError("expected feasible");
    benchmark::DoNotOptimize(cert.domain_size());
  }
  state.counters["points"] = static_cast<double>(linear_gap_domain_size(monoid));
}
BENCHMARK(DecideLinearGapLiftedShiftInput)->Unit(benchmark::kMillisecond);

void LazyCertificateLookup(benchmark::State& state) {
  const PairwiseProblem lifted =
      hardness::lift_to_undirected(catalog::coloring(3, Topology::kDirectedPath));
  const Monoid monoid = Monoid::enumerate(TransitionSystem::build(lifted));
  const LinearGapCertificate cert = decide_linear_gap(monoid);
  const std::vector<BlockPoint> sample = sample_points(monoid);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cert.value_at(sample[i]));
    i = (i + 1) % sample.size();
  }
}
BENCHMARK(LazyCertificateLookup);

}  // namespace

int main(int argc, char** argv) {
  using namespace lclpath;

  benchjson::Harness harness(argc, argv, "BENCH_linear_gap.json");
  if (harness.filtered_only()) return harness.run_benchmarks();

  std::printf("=== E9: rounds (view radius) vs n for the three regimes ===\n");
  const auto constant = classify(catalog::constant_output()).synthesize();
  const auto logstar = classify(catalog::coloring(3)).synthesize();
  const auto linear = classify(catalog::agreement()).synthesize();
  std::printf("%12s %14s %14s %14s\n", "n", "O(1) rounds", "log* rounds", "Theta(n) rounds");
  for (std::size_t n : {1u << 10, 1u << 12, 1u << 14, 1u << 16, 1u << 18, 1u << 20}) {
    std::printf("%12zu %14zu %14zu %14zu\n", n, constant->radius(n), logstar->radius(n),
                linear->radius(n));
  }
  std::printf("(log*(2^64) = 5: the log* term hides inside the constant; the shape\n"
              " to check is constant-vs-constant-vs-linear, as in the paper.)\n\n");

  const std::vector<GapMeasurement> rows = run_gap_scaling();
  print_gap_table(rows);
  const std::vector<EndToEndMeasurement> e2e = run_end_to_end();
  print_end_to_end(e2e);
  if (harness.emit_json()) write_gap_json(rows, e2e, harness.json_path());

  harness.check_smoke_budget();
  // The regression tripwire: the lifted shift-input end-to-end classify
  // must stay fast (~1 s in Release). A sixth of the smoke budget (10 s
  // under CI's --perf-smoke=60) is ~10x headroom over the healthy time yet
  // far below the ~30 s it took when the certificate was materialized per
  // point — a partial slide fails too.
  bool found = false;
  for (const EndToEndMeasurement& r : e2e) {
    if (r.problem != kSmokeProblem) continue;
    found = true;
    harness.check_smoke("lifted shift-input end-to-end", r.classify_s,
                        harness.smoke_budget_s() / 6);
  }
  harness.require(found, "lifted shift-input row present");

  return harness.run_benchmarks();
}
