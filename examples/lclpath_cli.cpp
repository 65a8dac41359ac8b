// lclpath_cli — classify an LCL problem description from a file or stdin.
//
//   $ ./examples/lclpath_cli problem.lcl
//   $ ./examples/lclpath_cli classify [--deadline-ms N] problem.lcl
//   $ ./examples/lclpath_cli --demo            # classify the catalog
//   $ cat problem.lcl | ./examples/lclpath_cli -
//   $ ./examples/lclpath_cli classify-batch [--threads N] [--deadline-ms N]
//         [--batch-deadline-ms N] [--store DIR] many.lcl ...
//   $ ./examples/lclpath_cli deadline-suite [--deadline-ms N]
//   $ ./examples/lclpath_cli serve STORE_DIR [--classify many.lcl ...]
//         [--poll-ms N] [--polls N] [--chunk K] [--exit-when-idle]
//   $ ./examples/lclpath_cli store-fsck STORE_DIR
//
// Output: the complexity class (Theorems 8+9), the certificate summary,
// and — when the problem is solvable — a sample run of the synthesized
// algorithm on a random instance. classify-batch reads files holding any
// number of concatenated problem blocks (each ending in `end`; `-` =
// stdin) and classifies them all on a thread pool.
//
// The persistent catalog store (src/store/): classify-batch --store
// warm-starts the batch cache from the store (a cold start is a directory
// read, not a re-classify) and commits fresh results — successes and
// structured failure observations — back into crash-safe shards. `serve`
// is the long-running loop: it watches the store directory, hot-reloads
// externally changed shards only after off-to-the-side validation (a
// corrupt update is rejected while the last good snapshot keeps serving),
// and incrementally classifies + commits any problems from --classify
// files the store does not cover. `store-fsck` validates every shard's
// version/checksum/record count and exits 1 on any corruption.
//
// Deadlines (core/cancel.hpp) are cooperative: --deadline-ms bounds each
// problem, --batch-deadline-ms bounds the whole batch; a tripped deadline
// is a structured per-problem kTimeout outcome, not a crash.
//
// Exit codes: 0 = all classified; 1 = some problem failed (budget,
// malformed, internal); 2 = usage or input/infrastructure error;
// 3 = at least one problem timed out or was cancelled (3 wins over 1).
//
// deadline-suite is the CI robustness gate: it classifies the Section 3.7
// lift family plus a generator-sampled hostile set under a per-problem
// deadline, and fails when any problem escapes the deadline by more than
// 2x (a missing checkpoint in some hot loop) or crashes outright.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/cancel.hpp"
#include "core/rng.hpp"
#include "decide/batch.hpp"
#include "decide/classifier.hpp"
#include "hardness/study.hpp"
#include "lcl/serialize.hpp"
#include "store/serve.hpp"
#include "store/store.hpp"

namespace {

std::string read_source(const char* path) {
  std::ostringstream buffer;
  if (std::strcmp(path, "-") == 0) {
    buffer << std::cin.rdbuf();
  } else {
    std::ifstream file(path);
    if (!file) throw std::runtime_error(std::string("cannot open ") + path);
    buffer << file.rdbuf();
  }
  return buffer.str();
}

/// Parses a non-negative integer flag value; returns false (with a
/// message) on junk.
bool parse_count(const char* flag, const char* text, std::size_t* out) {
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || value < 0) {
    std::fprintf(stderr, "%s: '%s' is not a non-negative count\n", flag, text);
    return false;
  }
  *out = static_cast<std::size_t>(value);
  return true;
}

/// The per-kind failure census line (BatchSummary::by_error): persisted
/// and fresh runs of the same inputs are diffable kind-by-kind, not just
/// by the failure total.
void print_error_census(const lclpath::BatchSummary& summary) {
  using namespace lclpath;
  if (summary.failed == 0) return;
  std::printf("errors by kind:");
  for (std::size_t k = 0; k < kNumBatchErrorKinds; ++k) {
    std::printf(" %s=%zu", to_string(static_cast<BatchErrorKind>(k)).c_str(),
                summary.by_error[k]);
  }
  std::printf("\n");
}

int run_classify_batch(int argc, char** argv) {
  using namespace lclpath;
  // Problems sharing a transition-system skeleton (renamed copies, sweep
  // families) build their monoid once per invocation.
  MonoidCache monoids;
  BatchOptions options;
  options.classify.monoid_cache = &monoids;
  std::vector<const char*> paths;
  const char* store_dir = nullptr;
  std::size_t store_shards = 16;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0) {
      std::size_t count = 0;
      if (i + 1 >= argc || !parse_count("--threads", argv[++i], &count)) return 2;
      options.num_threads = count;
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0) {
      std::size_t ms = 0;
      if (i + 1 >= argc || !parse_count("--deadline-ms", argv[++i], &ms)) return 2;
      options.problem_deadline_ms = ms;
    } else if (std::strcmp(argv[i], "--batch-deadline-ms") == 0) {
      std::size_t ms = 0;
      if (i + 1 >= argc || !parse_count("--batch-deadline-ms", argv[++i], &ms)) return 2;
      options.batch_deadline_ms = ms;
    } else if (std::strcmp(argv[i], "--store") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--store needs a directory\n");
        return 2;
      }
      store_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      if (i + 1 >= argc || !parse_count("--shards", argv[++i], &store_shards)) return 2;
    } else {
      paths.push_back(argv[i]);
    }
  }
  if (paths.empty()) paths.push_back("-");

  // With --store the run is persistent: warm-start the cache from the
  // store (known problems cost a lookup, not a decider run) and commit
  // every fresh outcome — including failure observations — afterwards.
  std::optional<store::ResultStore> result_store;
  BatchCache cache;
  std::size_t preloaded = 0;
  if (store_dir != nullptr) {
    result_store.emplace(store_dir, store::StoreOptions{store_shards});
    const store::LoadReport loaded = result_store->load();
    for (const std::string& dirty : loaded.dirty) {
      std::fprintf(stderr, "store: dirty shard skipped: %s\n", dirty.c_str());
    }
    preloaded = result_store->warm_start(cache);
    options.cache = &cache;
  }

  std::vector<PairwiseProblem> problems;
  try {
    for (const char* path : paths) {
      for (PairwiseProblem& problem : parse_problems(read_source(path))) {
        problems.push_back(std::move(problem));
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  if (problems.empty()) {
    std::fprintf(stderr, "classify-batch: no problems found\n");
    return 2;
  }

  const auto start = std::chrono::steady_clock::now();
  std::vector<BatchEntry> batch;
  try {
    batch = classify_batch(problems, options);
  } catch (const std::exception& e) {
    // e.g. the OS refused to spawn the requested worker threads.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  const auto elapsed = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - start);

  int failures = 0;
  bool any_timeout = false;
  for (std::size_t i = 0; i < problems.size(); ++i) {
    if (batch[i].ok()) {
      // Deduplicated slots share the representative's result; keep the
      // slot's own name in front so every input line is accounted for.
      const std::string& rep_name = batch[i].classified().problem().name();
      if (batch[i].deduplicated && problems[i].name() != rep_name) {
        std::printf("%s: same problem as '%s'  [dedup]\n", problems[i].name().c_str(),
                    rep_name.c_str());
      } else {
        std::printf("%s%s\n", batch[i].classified().summary().c_str(),
                    batch[i].deduplicated ? "  [dedup]" : "");
      }
    } else {
      ++failures;
      const BatchErrorKind kind =
          batch[i].error_kind().value_or(BatchErrorKind::kInternal);
      if (kind == BatchErrorKind::kTimeout || kind == BatchErrorKind::kCancelled) {
        any_timeout = true;
      }
      std::printf("%s: ERROR[%s]: %s\n", problems[i].name().c_str(),
                  to_string(kind).c_str(), batch[i].error().c_str());
    }
  }
  const BatchSummary summary = summarize_batch(batch);
  std::printf("classified %zu problem(s) in %.3fs (%zu failed)", problems.size(),
              elapsed.count(), static_cast<std::size_t>(failures));
  if (monoids.hits() > 0) {
    std::printf("; %llu monoid(s) reused across shared skeletons",
                static_cast<unsigned long long>(monoids.hits()));
  }
  std::printf("\n");
  print_error_census(summary);

  if (result_store) {
    // Persist only what this run actually produced: cache hits came from
    // the store, dedup slots share their representative's record.
    for (std::size_t i = 0; i < problems.size(); ++i) {
      if (batch[i].deduplicated || batch[i].from_cache) continue;
      result_store->put(store::record_of(problems[i], batch[i], options.classify));
    }
    std::size_t shards_written = 0;
    try {
      shards_written = result_store->commit();
    } catch (const store::StoreIoError& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
    const std::size_t fresh =
        summary.total - summary.from_cache - summary.deduplicated;
    std::printf("store: preloaded %zu record(s); %zu classified fresh; committed "
                "%zu shard(s); %zu record(s) total\n",
                preloaded, fresh, shards_written, result_store->size());
  }
  if (any_timeout) return 3;
  return failures == 0 ? 0 : 1;
}

int run_store_fsck(int argc, char** argv) {
  using namespace lclpath;
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s store-fsck STORE_DIR\n", argv[0]);
    return 2;
  }
  const store::FsckReport report = store::fsck(argv[2]);
  for (const store::FsckShard& shard : report.shards) {
    if (shard.ok) {
      std::printf("%s  v%u  %zu record(s)  checksum %016llx  ok\n",
                  shard.file.c_str(), shard.version, shard.records,
                  static_cast<unsigned long long>(shard.checksum));
    } else {
      std::printf("%s  DIRTY: %s\n", shard.file.c_str(), shard.error.c_str());
    }
  }
  std::printf("store-fsck: %zu shard(s), %zu record(s): %s\n", report.shards.size(),
              report.records, report.clean ? "clean" : "CORRUPTION DETECTED");
  return report.clean ? 0 : 1;
}

// The long-running catalog service loop: watch the store directory with
// validated hot reloads, and incrementally classify + commit whatever the
// --classify files cover that the store does not. Built to be killed at
// any instant (the CI kill-and-recover gate SIGKILLs it mid-commit): every
// shard write is atomic, so recovery is a reload plus an incremental
// re-classify of whatever had not landed yet.
int run_serve(int argc, char** argv) {
  using namespace lclpath;
  const char* dir = nullptr;
  std::size_t poll_ms = 200;
  std::size_t polls = 0;  // 0 = forever
  std::size_t chunk = 4;
  std::size_t store_shards = 16;
  std::size_t deadline_ms = 0;
  bool exit_when_idle = false;
  BatchOptions options;
  std::vector<const char*> classify_paths;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--poll-ms") == 0) {
      if (i + 1 >= argc || !parse_count("--poll-ms", argv[++i], &poll_ms)) return 2;
    } else if (std::strcmp(argv[i], "--polls") == 0) {
      if (i + 1 >= argc || !parse_count("--polls", argv[++i], &polls)) return 2;
    } else if (std::strcmp(argv[i], "--chunk") == 0) {
      if (i + 1 >= argc || !parse_count("--chunk", argv[++i], &chunk)) return 2;
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      if (i + 1 >= argc || !parse_count("--shards", argv[++i], &store_shards)) return 2;
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      std::size_t count = 0;
      if (i + 1 >= argc || !parse_count("--threads", argv[++i], &count)) return 2;
      options.num_threads = count;
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0) {
      if (i + 1 >= argc || !parse_count("--deadline-ms", argv[++i], &deadline_ms)) {
        return 2;
      }
    } else if (std::strcmp(argv[i], "--classify") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--classify needs a file\n");
        return 2;
      }
      classify_paths.push_back(argv[++i]);
    } else if (std::strcmp(argv[i], "--exit-when-idle") == 0) {
      exit_when_idle = true;
    } else if (dir == nullptr) {
      dir = argv[i];
    } else {
      std::fprintf(stderr, "serve: unknown argument '%s'\n", argv[i]);
      return 2;
    }
  }
  if (dir == nullptr) {
    std::fprintf(stderr, "usage: %s serve STORE_DIR [--classify FILE ...] "
                         "[--poll-ms N] [--polls N] [--chunk K] [--threads N] "
                         "[--shards N] [--deadline-ms N] [--exit-when-idle]\n",
                 argv[0]);
    return 2;
  }
  if (chunk == 0) chunk = 1;
  options.problem_deadline_ms = deadline_ms;

  std::vector<PairwiseProblem> problems;
  try {
    for (const char* path : classify_paths) {
      for (PairwiseProblem& problem : parse_problems(read_source(path))) {
        problems.push_back(std::move(problem));
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  MonoidCache monoids;
  BatchCache cache;
  options.classify.monoid_cache = &monoids;
  options.cache = &cache;
  store::ResultStore writer(dir, store::StoreOptions{store_shards});
  const store::LoadReport loaded = writer.load();
  const std::size_t preloaded = writer.warm_start(cache);
  std::printf("serve: %s: %zu shard(s) (%zu dirty), %zu record(s), %zu preloaded "
              "into cache\n",
              dir, loaded.shards_seen, loaded.dirty.size(), writer.size(), preloaded);
  for (const std::string& dirty : loaded.dirty) {
    std::printf("serve: dirty shard will be re-derived incrementally: %s\n",
                dirty.c_str());
  }
  std::fflush(stdout);

  store::CatalogServer server(dir);
  const std::string identity_suffix =
      cache_identity_suffix(LinearGapEngine::kFactorized, CertificateMode::kAuto);
  // Each problem is (re)classified at most once per serve process, so a
  // deterministic failure cannot turn the loop into a hot retry spin;
  // retry-eligible observations from *previous* runs are retried here.
  std::set<std::size_t> attempted;
  for (std::size_t iteration = 0; polls == 0 || iteration < polls; ++iteration) {
    const auto poll_start = std::chrono::steady_clock::now();
    const store::ReloadReport report = server.poll();
    const double poll_wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - poll_start)
                               .count();
    for (const std::string& note : report.notes) {
      std::printf("serve: %s\n", note.c_str());
    }
    if (report.changed()) {
      std::printf("serve: generation %llu: %zu reloaded, %zu removed, snapshot %zu "
                  "record(s), poll %.1f ms\n",
                  static_cast<unsigned long long>(server.generation()),
                  report.reloaded, report.removed, server.snapshot()->size(), poll_wall_ms);
    }

    std::vector<std::size_t> todo;
    for (std::size_t i = 0; i < problems.size() && todo.size() < chunk; ++i) {
      if (attempted.count(i) != 0) continue;
      const std::string key = canonical_key(problems[i]) + identity_suffix;
      const store::StoreRecord* record = writer.find(key);
      if (record != nullptr &&
          (record->ok() || !store::retry_eligible(record->observation->kind))) {
        continue;
      }
      todo.push_back(i);
    }
    if (!todo.empty()) {
      std::vector<PairwiseProblem> chunk_problems;
      chunk_problems.reserve(todo.size());
      for (const std::size_t i : todo) {
        attempted.insert(i);
        chunk_problems.push_back(problems[i]);
      }
      const std::vector<BatchEntry> batch = classify_batch(chunk_problems, options);
      for (std::size_t j = 0; j < batch.size(); ++j) {
        if (batch[j].deduplicated || batch[j].from_cache) continue;
        writer.put(store::record_of(chunk_problems[j], batch[j], options.classify));
      }
      try {
        const std::size_t shards_written = writer.commit();
        const BatchSummary summary = summarize_batch(batch);
        std::printf("serve: classified %zu problem(s) (%zu ok, %zu failed), "
                    "committed %zu shard(s), store %zu record(s)\n",
                    summary.total, summary.ok, summary.failed, shards_written,
                    writer.size());
      } catch (const store::StoreIoError& e) {
        // Old-complete or new-complete on disk either way; the dirty
        // shards stay queued, so a later iteration retries the commit.
        std::printf("serve: commit failed (will retry): %s\n", e.what());
      }
    } else {
      // Retry any commit a failed iteration left queued (no-op when
      // nothing is dirty); only a fully-committed store counts as idle.
      bool committed = true;
      try {
        writer.commit();
      } catch (const store::StoreIoError& e) {
        committed = false;
        std::printf("serve: commit retry failed: %s\n", e.what());
      }
      if (exit_when_idle && committed) {
        std::printf("serve: idle (nothing left to classify); exiting\n");
        break;
      }
    }
    std::fflush(stdout);
    if (poll_ms > 0 && (polls == 0 || iteration + 1 < polls)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
    }
  }
  std::printf("serve: done: store %zu record(s), %llu reload(s), %llu rejection(s)\n",
              writer.size(), static_cast<unsigned long long>(server.reloads()),
              static_cast<unsigned long long>(server.rejections()));
  return 0;
}

int classify_and_report(const lclpath::PairwiseProblem& problem, bool run_sample,
                        const lclpath::SimulationOptions& sim_options = {},
                        const lclpath::ExecutionBudget* budget = nullptr) {
  using namespace lclpath;
  ClassifyOptions options;
  options.budget = budget;
  const ClassifiedProblem result = classify(problem, options);
  std::printf("%s\n", result.summary().c_str());
  if (result.complexity() == ComplexityClass::kUnsolvable) {
    std::printf("  witness instance with no valid labeling: %s\n",
                word_to_string(problem.inputs(), *result.solvability().counterexample)
                    .c_str());
    return 0;
  }
  std::printf("  linear-gap feasible: %s; const-gap feasible: %s\n",
              result.linear_certificate().feasible ? "yes" : "no",
              result.const_certificate().feasible ? "yes" : "no");
  if (!run_sample) return 0;
  // Synthesis covers all four topologies; the algorithm name carries the
  // per-topology strategy that was chosen (e.g. "[undirected-path]").
  const auto algorithm = result.synthesize();
  std::printf("  synthesized algorithm: %s, radius %zu at n = 2^20\n",
              algorithm->name().c_str(), algorithm->radius(1 << 20));
  Rng rng(42);
  const std::size_t n =
      std::min<std::size_t>(4096, 2 * algorithm->radius(1 << 20) + 33);
  Instance instance = random_instance(problem.topology(), n, problem.num_inputs(), rng);
  SimulationOptions sim = sim_options;
  sim.budget = budget;
  const SimulationResult result_sim = simulate(*algorithm, problem, instance, sim);
  std::printf("  sample run: n = %zu, radius = %zu, threads = %zu, chunks = %zu, "
              "output %s\n",
              n, result_sim.radius, result_sim.threads_used, result_sim.chunks,
              result_sim.verdict.ok
                  ? "valid"
                  : ("INVALID (" + result_sim.verdict.reason + ")").c_str());
  return result_sim.verdict.ok ? 0 : 1;
}

/// Random pairwise problem in the generator-sampled hostile set (the same
/// shape bench_monoid scales with; fixed seed per size so CI runs are
/// reproducible).
lclpath::PairwiseProblem hostile_problem(std::size_t alpha, std::size_t beta,
                                         std::uint64_t seed,
                                         lclpath::Topology topology) {
  using namespace lclpath;
  Rng rng(seed);
  Alphabet in, out;
  for (std::size_t i = 0; i < alpha; ++i) in.add(std::string("i").append(std::to_string(i)));
  for (std::size_t o = 0; o < beta; ++o) out.add(std::string("o").append(std::to_string(o)));
  PairwiseProblem p("hostile-a" + std::to_string(alpha) + "-b" + std::to_string(beta) +
                        "-s" + std::to_string(seed),
                    in, out, topology);
  for (Label i = 0; i < alpha; ++i)
    for (Label o = 0; o < beta; ++o)
      if (rng.next_bool(3, 4)) p.allow_node(i, o);
  for (Label a = 0; a < beta; ++a)
    for (Label b = 0; b < beta; ++b)
      if (rng.next_bool(3, 4)) p.allow_edge(a, b);
  return p;
}

// The CI robustness gate: every problem must either classify, fail with a
// structured budget error, or trip its deadline — within 2x the deadline.
// Escaping by more than 2x means some hot loop is missing a budget
// checkpoint; any other exception is a crash. Exit 0 = gate holds.
int run_deadline_suite(int argc, char** argv) {
  using namespace lclpath;
  std::size_t deadline_ms = 100;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--deadline-ms") == 0) {
      if (i + 1 >= argc || !parse_count("--deadline-ms", argv[++i], &deadline_ms)) {
        return 2;
      }
    } else {
      std::fprintf(stderr, "deadline-suite: unknown argument '%s'\n", argv[i]);
      return 2;
    }
  }
  if (deadline_ms == 0) {
    std::fprintf(stderr, "deadline-suite: --deadline-ms must be positive\n");
    return 2;
  }

  std::vector<PairwiseProblem> problems = hardness::lift_workload();
  const std::size_t grid[][2] = {{2, 4}, {3, 3}, {3, 4}, {2, 5}, {4, 4}, {2, 6}};
  for (const auto& [alpha, beta] : grid) {
    problems.push_back(hostile_problem(alpha, beta, alpha * 100 + beta,
                                       Topology::kDirectedCycle));
    problems.push_back(hostile_problem(alpha, beta, alpha * 1000 + beta,
                                       Topology::kDirectedPath));
  }

  std::size_t escapes = 0;
  std::size_t crashes = 0;
  std::size_t timeouts = 0;
  for (const PairwiseProblem& problem : problems) {
    ExecutionBudget budget;
    budget.set_timeout(std::chrono::milliseconds(deadline_ms));
    ClassifyOptions options;
    options.budget = &budget;
    const auto start = std::chrono::steady_clock::now();
    std::string outcome = "ok";
    try {
      const ClassifiedProblem result = classify(problem, options);
      outcome = to_string(result.complexity());
    } catch (const CancelledError&) {
      outcome = "timeout";
      ++timeouts;
    } catch (const MonoidBudgetError&) {
      outcome = "budget";
    } catch (const std::exception& e) {
      outcome = std::string("CRASH: ") + e.what();
      ++crashes;
    }
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
            .count();
    const bool escaped = elapsed_ms > 2.0 * static_cast<double>(deadline_ms);
    if (escaped) ++escapes;
    std::printf("%-44s %10.2fms  %s%s\n", problem.name().c_str(), elapsed_ms,
                outcome.c_str(), escaped ? "  [ESCAPED DEADLINE]" : "");
  }
  std::printf("deadline-suite: %zu problem(s), deadline %zums: "
              "%zu timeout(s), %zu escape(s), %zu crash(es)\n",
              problems.size(), deadline_ms, timeouts, escapes, crashes);
  return (escapes == 0 && crashes == 0) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lclpath;
  if (argc >= 2 && std::strcmp(argv[1], "classify-batch") == 0) {
    return run_classify_batch(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "deadline-suite") == 0) {
    return run_deadline_suite(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "serve") == 0) {
    return run_serve(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "store-fsck") == 0) {
    return run_store_fsck(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "--demo") == 0) {
    for (const auto& entry : catalog::validation_catalog()) {
      std::printf("-- %s\n", entry.note.c_str());
      classify_and_report(entry.problem, false);
    }
    return 0;
  }
  // Single-problem mode (optionally spelled `classify`): [--threads N]
  // steers the sample run's chunked simulation engine (0 = serial;
  // classify itself stays single-threaded); [--deadline-ms N] bounds the
  // whole classification + sample run with a cooperative deadline.
  const int first_arg = (argc >= 2 && std::strcmp(argv[1], "classify") == 0) ? 2 : 1;
  SimulationOptions sim_options;
  std::size_t deadline_ms = 0;
  const char* path = nullptr;
  bool usage_error = argc < first_arg + 1;
  for (int i = first_arg; i < argc && !usage_error; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0) {
      std::size_t count = 0;
      if (i + 1 >= argc || !parse_count("--threads", argv[++i], &count)) return 2;
      sim_options.threads = count;
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0) {
      if (i + 1 >= argc || !parse_count("--deadline-ms", argv[++i], &deadline_ms)) {
        return 2;
      }
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      usage_error = true;
    }
  }
  if (usage_error || path == nullptr) {
    std::fprintf(stderr,
                 "usage: %s [classify] [--threads N] [--deadline-ms N] "
                 "<problem.lcl | - | --demo>\n"
                 "       %s classify-batch [--threads N] [--deadline-ms N] "
                 "[--batch-deadline-ms N] [--store DIR [--shards N]] "
                 "[file.lcl ... | -]\n"
                 "       %s deadline-suite [--deadline-ms N]\n"
                 "       %s serve STORE_DIR [--classify FILE ...] [--poll-ms N] "
                 "[--polls N] [--chunk K] [--exit-when-idle]\n"
                 "       %s store-fsck STORE_DIR\n"
                 "File format: see lcl/serialize.hpp (lcl/topology/inputs/outputs/"
                 "node/edge/first/last/end).\n"
                 "Exit codes: 0 ok, 1 failed, 2 usage/input, 3 timeout/cancelled.\n",
                 argv[0], argv[0], argv[0], argv[0], argv[0]);
    return 2;
  }
  try {
    const PairwiseProblem problem = parse_problem(read_source(path));
    ExecutionBudget budget;
    const ExecutionBudget* budget_ptr = nullptr;
    if (deadline_ms > 0) {
      budget.set_timeout(std::chrono::milliseconds(deadline_ms));
      budget_ptr = &budget;
    }
    return classify_and_report(problem, true, sim_options, budget_ptr);
  } catch (const CancelledError& e) {
    std::fprintf(stderr, "%s: %s\n",
                 e.reason() == CancelReason::kDeadline ? "timeout" : "cancelled",
                 e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
