// Experiment E10: the type machinery (Lemmas 12-15) — monoid sizes and
// enumeration cost vs. alphabet sizes, plus pumping throughput and the
// MonoidCache cold-vs-cached classify_batch sweep. `--emit-json[=path]`
// writes the measurements as machine-readable JSON (default
// BENCH_monoid.json; uploaded as a CI artifact, the perf trajectory of the
// monoid layer). `--perf-smoke[=seconds]` additionally enforces a generous
// wall-clock bound on the fixed-cost experiments (CI's Release-job monoid
// regression tripwire): nonzero exit if exceeded.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "automata/pumping.hpp"
#include "bench_json.hpp"
#include "core/rng.hpp"
#include "decide/batch.hpp"
#include "lcl/catalog.hpp"

namespace {

using namespace lclpath;
using clock_type = std::chrono::steady_clock;

/// Random pairwise problem with given alphabet sizes (fixed seed per size
/// so runs are comparable).
PairwiseProblem random_problem(std::size_t alpha, std::size_t beta, std::uint64_t seed) {
  Rng rng(seed);
  Alphabet in, out;
  for (std::size_t i = 0; i < alpha; ++i) in.add(std::string("i").append(std::to_string(i)));
  for (std::size_t o = 0; o < beta; ++o) out.add(std::string("o").append(std::to_string(o)));
  PairwiseProblem p("rnd-a" + std::to_string(alpha) + "-b" + std::to_string(beta), in, out,
                    Topology::kDirectedCycle);
  for (Label i = 0; i < alpha; ++i)
    for (Label o = 0; o < beta; ++o)
      if (rng.next_bool(3, 4)) p.allow_node(i, o);
  for (Label a = 0; a < beta; ++a)
    for (Label b = 0; b < beta; ++b)
      if (rng.next_bool(3, 4)) p.allow_edge(a, b);
  return p;
}

/// The E10 grid: the random (alpha, beta) problems also registered as
/// google-benchmark cases below.
const std::vector<std::pair<std::size_t, std::size_t>>& e10_grid() {
  static const std::vector<std::pair<std::size_t, std::size_t>> grid = {
      {2, 2}, {2, 3}, {2, 4}, {3, 3}, {3, 4}, {2, 5}, {2, 8}, {2, 9}};
  return grid;
}

struct EnumRow {
  std::string problem;
  std::size_t elements = 0;
  std::size_t ell_pump = 0;
  double enumerate_ms = 0;
};

EnumRow time_enumeration(const std::string& name, const PairwiseProblem& problem) {
  EnumRow row;
  row.problem = name;
  const TransitionSystem ts = TransitionSystem::build(problem);
  {
    const Monoid warmup = Monoid::enumerate(ts);  // touch caches, size the run
    row.elements = warmup.size();
    row.ell_pump = warmup.ell_pump();
  }
  // Enough repeats for sub-ms monoids to measure; one is plenty beyond.
  const int iters = row.elements < 100 ? 20 : (row.elements < 500 ? 5 : 1);
  const auto t0 = clock_type::now();
  for (int i = 0; i < iters; ++i) {
    const Monoid monoid = Monoid::enumerate(ts);
    benchmark::DoNotOptimize(monoid.size());
  }
  const auto t1 = clock_type::now();
  row.enumerate_ms = std::chrono::duration<double, std::milli>(t1 - t0).count() / iters;
  return row;
}

struct SweepResult {
  std::size_t problems = 0;
  double cold_s = 0;
  double cached_s = 0;
  std::uint64_t monoid_hits = 0;
  std::uint64_t monoid_misses = 0;
};

/// Cold-vs-cached classify_batch over the coloring(k) k = 2..6 sweep: the
/// cold pass fills the caller-owned MonoidCache, the cached pass replays
/// the identical batch against it — the delta is monoid construction.
SweepResult run_batch_sweep() {
  std::vector<PairwiseProblem> problems;
  for (std::size_t k = 2; k <= 6; ++k) problems.push_back(catalog::coloring(k));

  MonoidCache cache;
  BatchOptions options;
  options.dedup = false;
  options.classify.monoid_cache = &cache;

  SweepResult result;
  result.problems = problems.size();
  const auto t0 = clock_type::now();
  const auto cold = classify_batch(problems, options);
  const auto t1 = clock_type::now();
  const std::size_t cold_monoids = cache.size();
  const std::uint64_t cold_misses = cache.misses();
  const auto cached = classify_batch(problems, options);
  const auto t2 = clock_type::now();
  result.cold_s = std::chrono::duration<double>(t1 - t0).count();
  result.cached_s = std::chrono::duration<double>(t2 - t1).count();
  result.monoid_hits = cache.hits();
  result.monoid_misses = cache.misses();
  for (const auto& entry : cold) {
    if (!entry.ok()) std::fprintf(stderr, "sweep entry failed: %s\n", entry.error().c_str());
  }
  // The cached pass must reuse the cold pass's monoids: no miss, no new
  // cache entry.
  if (cache.misses() != cold_misses || cache.size() != cold_monoids) {
    std::fprintf(stderr, "cached sweep built %llu monoid(s) instead of sharing them\n",
                 static_cast<unsigned long long>(cache.misses() - cold_misses));
  }
  return result;
}

void print_sweep(const SweepResult& s) {
  const double rate =
      s.monoid_hits + s.monoid_misses == 0
          ? 0
          : 100.0 * static_cast<double>(s.monoid_hits) /
                static_cast<double>(s.monoid_hits + s.monoid_misses);
  std::printf("=== MonoidCache: cold vs cached classify_batch, coloring(k) k=2..6 ===\n");
  std::printf("%zu problems: cold %.4fs, cached %.4fs (%.2fx); monoid cache %llu hits / "
              "%llu misses (hit rate %.0f%%)\n\n",
              s.problems, s.cold_s, s.cached_s, s.cached_s > 0 ? s.cold_s / s.cached_s : 0,
              static_cast<unsigned long long>(s.monoid_hits),
              static_cast<unsigned long long>(s.monoid_misses), rate);
}

using benchjson::json_escaped;

void write_json(const std::vector<EnumRow>& catalog_rows,
                const std::vector<EnumRow>& grid_rows, const SweepResult& sweep,
                const char* path) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  auto write_rows = [out](const char* section, const std::vector<EnumRow>& rows) {
    std::fprintf(out, "  \"%s\": [\n", section);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const EnumRow& r = rows[i];
      std::fprintf(out,
                   "    {\"problem\": \"%s\", \"elements\": %zu, \"ell_pump\": %zu, "
                   "\"enumerate_ms\": %.6f}%s\n",
                   json_escaped(r.problem).c_str(), r.elements, r.ell_pump, r.enumerate_ms,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
  };
  std::fprintf(out, "{\n");
  write_rows("catalog", catalog_rows);
  write_rows("grid", grid_rows);
  const std::uint64_t lookups = sweep.monoid_hits + sweep.monoid_misses;
  std::fprintf(out,
               "  \"batch_sweep\": {\"problems\": %zu, \"cold_s\": %.6f, \"cached_s\": %.6f, "
               "\"monoid_hits\": %llu, \"monoid_misses\": %llu, \"hit_rate\": %.4f}\n}\n",
               sweep.problems, sweep.cold_s, sweep.cached_s,
               static_cast<unsigned long long>(sweep.monoid_hits),
               static_cast<unsigned long long>(sweep.monoid_misses),
               lookups == 0 ? 0
                            : static_cast<double>(sweep.monoid_hits) /
                                  static_cast<double>(lookups));
  std::fclose(out);
  std::printf("wrote %s\n\n", path);
}

void MonoidEnumeration(benchmark::State& state) {
  const auto alpha = static_cast<std::size_t>(state.range(0));
  const auto beta = static_cast<std::size_t>(state.range(1));
  const PairwiseProblem p = random_problem(alpha, beta, alpha * 100 + beta);
  const TransitionSystem ts = TransitionSystem::build(p);
  std::size_t size = 0;
  for (auto _ : state) {
    const Monoid monoid = Monoid::enumerate(ts);
    size = monoid.size();
    benchmark::DoNotOptimize(size);
  }
  state.counters["elements"] = static_cast<double>(size);
}
BENCHMARK(MonoidEnumeration)
    ->Apply([](benchmark::internal::Benchmark* b) {
      // One source of truth: the registered cases are exactly the e10_grid()
      // problems the preamble tables and BENCH_monoid.json report.
      for (const auto& [alpha, beta] : e10_grid()) {
        b->Args({static_cast<long>(alpha), static_cast<long>(beta)});
      }
    })
    ->Unit(benchmark::kMillisecond);

void PumpDecompositionThroughput(benchmark::State& state) {
  const PairwiseProblem p = catalog::agreement();
  const Monoid monoid = Monoid::enumerate(TransitionSystem::build(p));
  Rng rng(7);
  Word w;
  for (std::size_t i = 0; i < monoid.size() + 10; ++i) {
    w.push_back(static_cast<Label>(rng.next_below(p.num_inputs())));
  }
  for (auto _ : state) {
    auto d = pump_decomposition(monoid, w);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(PumpDecompositionThroughput);

}  // namespace

int main(int argc, char** argv) {
  benchjson::Harness harness(argc, argv, "BENCH_monoid.json");
  if (harness.filtered_only()) return harness.run_benchmarks();

  std::printf("=== E10: reachable type-space sizes (Lemma 13 in practice) ===\n");
  std::printf("%-28s %10s %10s %14s\n", "problem", "elements", "ell_pump", "enumerate");
  std::vector<EnumRow> catalog_rows;
  for (const auto& entry : catalog::validation_catalog()) {
    catalog_rows.push_back(time_enumeration(entry.problem.name(), entry.problem));
    const EnumRow& r = catalog_rows.back();
    std::printf("%-28s %10zu %10zu %12.4fms\n", r.problem.c_str(), r.elements, r.ell_pump,
                r.enumerate_ms);
  }
  std::printf("\n=== E10 grid: random problems, alphabet scaling ===\n");
  std::printf("%-28s %10s %10s %14s\n", "problem", "elements", "ell_pump", "enumerate");
  std::vector<EnumRow> grid_rows;
  for (const auto& [alpha, beta] : e10_grid()) {
    const PairwiseProblem p = random_problem(alpha, beta, alpha * 100 + beta);
    grid_rows.push_back(time_enumeration(p.name(), p));
    const EnumRow& r = grid_rows.back();
    std::printf("%-28s %10zu %10zu %12.4fms\n", r.problem.c_str(), r.elements, r.ell_pump,
                r.enumerate_ms);
  }
  std::printf("\n");

  const SweepResult sweep = run_batch_sweep();
  print_sweep(sweep);
  if (harness.emit_json()) write_json(catalog_rows, grid_rows, sweep, harness.json_path());

  harness.check_smoke_budget();
  // The sweep must also actually exercise the cache: every problem misses
  // once on the cold pass and hits once on the cached pass.
  harness.require(sweep.monoid_hits >= sweep.problems,
                  "cached sweep hit the monoid cache for every problem");

  return harness.run_benchmarks();
}
