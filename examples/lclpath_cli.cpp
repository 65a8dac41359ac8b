// lclpath_cli — classify an LCL problem description from a file or stdin.
//
//   $ ./examples/lclpath_cli problem.lcl
//   $ ./examples/lclpath_cli classify [--threads N] [--deadline-ms N] problem.lcl
//   $ ./examples/lclpath_cli --demo            # classify the catalog
//   $ cat problem.lcl | ./examples/lclpath_cli -
//   $ ./examples/lclpath_cli classify-batch [--threads N] [--deadline-ms N]
//         [--batch-deadline-ms N] [--store DIR] [--shards N] many.lcl ...
//   $ ./examples/lclpath_cli deadline-suite [--deadline-ms N]
//   $ ./examples/lclpath_cli serve [--classify many.lcl ...] [--poll-ms N]
//         [--polls N] [--chunk N] [--threads N] [--shards N] [--deadline-ms N]
//         [--exit-when-idle] STORE_DIR
//   $ ./examples/lclpath_cli store-fsck STORE_DIR
//
// All modes parse through one flag table (kModes), which also generates
// the usage text; an unknown flag or a missing value is a usage error.
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
// lift family, the Lemma 3 image of secret agreement (beta' = 1024) and a
// generator-sampled hostile set under a per-problem deadline, and fails
// when any problem escapes the deadline by more than 2x (a missing
// checkpoint in some hot loop) or crashes outright.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <variant>
#include <vector>

#include "core/cancel.hpp"
#include "core/rng.hpp"
#include "decide/batch.hpp"
#include "decide/classifier.hpp"
#include "hardness/study.hpp"
#include "lcl/catalog.hpp"
#include "lcl/normalize.hpp"
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

/// Parses every problem block of every file (`-` = stdin); nullopt, with
/// the error printed, when a file cannot be read or parsed.
std::optional<std::vector<lclpath::PairwiseProblem>> read_problems(
    const std::vector<const char*>& paths) {
  std::vector<lclpath::PairwiseProblem> problems;
  try {
    for (const char* path : paths) {
      for (auto& problem : lclpath::parse_problems(read_source(path))) {
        problems.push_back(std::move(problem));
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return std::nullopt;
  }
  return problems;
}

/// Every value a mode's flags and operands set; a mode's own defaults are set first.
struct Args {
  std::size_t threads = 0;
  std::size_t deadline_ms = 0;
  std::size_t batch_deadline_ms = 0;
  std::size_t shards = 16;
  std::size_t poll_ms = 200;
  std::size_t polls = 0;  // 0 = forever
  std::size_t chunk = 4;
  const char* store = nullptr;
  std::vector<const char*> classify;
  bool exit_when_idle = false;
  std::vector<const char*> operands;
};

/// One flag: its spelling and the Args field it sets. A count takes a non-negative
/// integer, a list collects every occurrence's value, a bool is a switch.
struct Flag {
  const char* name;
  std::variant<std::size_t Args::*, const char* Args::*, std::vector<const char*> Args::*,
               bool Args::*>
      target;
};

/// A mode: its word on the command line, its flag table, the usage text
/// and count of its operands (SIZE_MAX: any number), and what it runs.
struct Mode {
  const char* name;
  std::vector<Flag> flags;
  const char* operands;
  std::size_t num_operands;
  int (*run)(const Args&);
};

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

int run_classify_batch(const Args& args) {
  using namespace lclpath;
  // Problems sharing a transition-system skeleton (renamed copies, sweep
  // families) build their monoid once per invocation.
  MonoidCache monoids;
  BatchOptions options;
  options.classify.monoid_cache = &monoids;
  options.num_threads = args.threads;
  options.problem_deadline_ms = args.deadline_ms;
  options.batch_deadline_ms = args.batch_deadline_ms;
  std::vector<const char*> paths = args.operands;
  if (paths.empty()) paths.push_back("-");

  // With --store the run is persistent: warm-start the cache from the
  // store (known problems cost a lookup, not a decider run) and commit
  // every fresh outcome — including failure observations — afterwards.
  std::optional<store::ResultStore> result_store;
  BatchCache cache;
  std::size_t preloaded = 0;
  if (args.store != nullptr) {
    result_store.emplace(args.store, store::StoreOptions{args.shards});
    const store::LoadReport loaded = result_store->load();
    for (const std::string& dirty : loaded.dirty) {
      std::fprintf(stderr, "store: dirty shard skipped: %s\n", dirty.c_str());
    }
    preloaded = result_store->warm_start(cache);
    options.cache = &cache;
  }

  const auto read = read_problems(paths);
  if (!read) return 2;
  const std::vector<PairwiseProblem>& problems = *read;
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
      // Deduplicated slots share the representative's verdict; keep the
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

int run_store_fsck(const Args& args) {
  using namespace lclpath;
  const store::FsckReport report = store::fsck(args.operands[0]);
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
int run_serve(const Args& args) {
  using namespace lclpath;
  const char* dir = args.operands[0];
  const std::size_t chunk = args.chunk == 0 ? 1 : args.chunk;
  BatchOptions options;
  options.num_threads = args.threads;
  options.problem_deadline_ms = args.deadline_ms;

  const auto read = read_problems(args.classify);
  if (!read) return 2;
  const std::vector<PairwiseProblem>& problems = *read;

  MonoidCache monoids;
  BatchCache cache;
  options.classify.monoid_cache = &monoids;
  options.cache = &cache;
  store::ResultStore writer(dir, store::StoreOptions{args.shards});
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
  for (std::size_t iteration = 0; args.polls == 0 || iteration < args.polls; ++iteration) {
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
      if (args.exit_when_idle && committed) {
        std::printf("serve: idle (nothing left to classify); exiting\n");
        break;
      }
    }
    std::fflush(stdout);
    if (args.poll_ms > 0 && (args.polls == 0 || iteration + 1 < args.polls)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(args.poll_ms));
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
int run_deadline_suite(const Args& args) {
  using namespace lclpath;
  const std::size_t deadline_ms = args.deadline_ms;
  if (deadline_ms == 0) {
    std::fprintf(stderr, "deadline-suite: --deadline-ms must be positive\n");
    return 2;
  }

  std::vector<PairwiseProblem> problems = hardness::lift_workload();
  // beta' = 1024: one monoid BFS probe takes ~0.3 ms, so enumeration meets
  // the deadline only if its checkpoints are charged by work.
  problems.push_back(normalize_binary(catalog::agreement(Topology::kDirectedPath)).problem);
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

// Single-problem mode: --threads steers the sample run's chunked
// simulation engine (0 = auto; classify itself stays single-threaded);
// --deadline-ms bounds the whole classification + sample run with a
// cooperative deadline.
int run_classify(const Args& args) {
  using namespace lclpath;
  SimulationOptions sim_options;
  sim_options.threads = args.threads;
  try {
    const PairwiseProblem problem = parse_problem(read_source(args.operands[0]));
    ExecutionBudget budget;
    const ExecutionBudget* budget_ptr = nullptr;
    if (args.deadline_ms > 0) {
      budget.set_timeout(std::chrono::milliseconds(args.deadline_ms));
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

/// The first mode is the default: its word may be left out.
const Mode kModes[] = {
    {"classify",
     {{"--threads", &Args::threads}, {"--deadline-ms", &Args::deadline_ms}},
     "<problem.lcl | - | --demo>", 1, run_classify},
    {"classify-batch",
     {{"--threads", &Args::threads}, {"--deadline-ms", &Args::deadline_ms},
      {"--batch-deadline-ms", &Args::batch_deadline_ms}, {"--store", &Args::store},
      {"--shards", &Args::shards}},
     "[file.lcl ... | -]", SIZE_MAX, run_classify_batch},
    {"deadline-suite", {{"--deadline-ms", &Args::deadline_ms}}, "", 0, run_deadline_suite},
    {"serve",
     {{"--classify", &Args::classify}, {"--poll-ms", &Args::poll_ms},
      {"--polls", &Args::polls}, {"--chunk", &Args::chunk}, {"--threads", &Args::threads},
      {"--shards", &Args::shards}, {"--deadline-ms", &Args::deadline_ms},
      {"--exit-when-idle", &Args::exit_when_idle}},
     "STORE_DIR", 1, run_serve},
    {"store-fsck", {}, "STORE_DIR", 1, run_store_fsck},
};

/// Prints the usage line of `only`, or of every mode when it is null. A
/// flag's value is named by the kind of Args field it sets.
void print_usage(const char* program, const Mode* only) {
  static constexpr const char* kValue[] = {" N", " DIR", " FILE ...", ""};
  static_assert(std::size(kValue) == std::variant_size_v<decltype(Flag::target)>);
  const char* lead = "usage:";
  for (const Mode& mode : kModes) {
    if (only != nullptr && only != &mode) continue;
    std::string line = &mode == &kModes[0] ? std::string("[").append(mode.name).append("]")
                                           : std::string(mode.name);
    for (const Flag& flag : mode.flags) {
      line.append(" [").append(flag.name).append(kValue[flag.target.index()]).append("]");
    }
    if (*mode.operands != '\0') line.append(" ").append(mode.operands);
    std::fprintf(stderr, "%s %s %s\n", lead, program, line.c_str());
    lead = "      ";
  }
  if (only != nullptr) return;
  std::fprintf(stderr,
               "File format: see lcl/serialize.hpp (lcl/topology/inputs/outputs/"
               "node/edge/first/last/end).\n"
               "Exit codes: 0 ok, 1 failed, 2 usage/input, 3 timeout/cancelled.\n");
}

/// Parses argv[first..argc) against `mode`'s flag table into `args`.
/// Returns false, having printed why, on an unknown flag, a missing or
/// malformed value, or the wrong number of operands. The default mode's
/// usage errors print every mode's usage.
bool parse_args(const Mode& mode, int first, int argc, char** argv, Args& args) {
  const auto usage_error = [&] {
    print_usage(argv[0], &mode == &kModes[0] ? nullptr : &mode);
    return false;
  };
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.size() < 2 || arg[0] != '-') {
      args.operands.push_back(argv[i]);
      continue;
    }
    const Flag* flag = nullptr;
    for (const Flag& candidate : mode.flags) {
      if (arg == candidate.name) flag = &candidate;
    }
    if (flag == nullptr) {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return usage_error();
    }
    if (const auto* on = std::get_if<bool Args::*>(&flag->target)) {
      args.**on = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s needs a value\n", flag->name);
      return usage_error();
    }
    const char* value = argv[++i];
    if (const auto* count = std::get_if<std::size_t Args::*>(&flag->target)) {
      char* end = nullptr;
      const long long parsed = std::strtoll(value, &end, 10);
      if (end == value || *end != '\0' || parsed < 0) {
        std::fprintf(stderr, "%s: '%s' is not a non-negative count\n", flag->name, value);
        return usage_error();
      }
      args.**count = static_cast<std::size_t>(parsed);
    } else if (const auto* text = std::get_if<const char* Args::*>(&flag->target)) {
      args.**text = value;
    } else {
      (args.*std::get<std::vector<const char*> Args::*>(flag->target)).push_back(value);
    }
  }
  if (mode.num_operands != SIZE_MAX && args.operands.size() != mode.num_operands) {
    return usage_error();
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lclpath;
  const Mode* mode = &kModes[0];
  int first = 1;
  for (const Mode& each : kModes) {
    if (argc >= 2 && std::strcmp(argv[1], each.name) == 0) {
      mode = &each;
      first = 2;
    }
  }
  if (mode == &kModes[0] && argc == first + 1 && std::strcmp(argv[first], "--demo") == 0) {
    for (const auto& entry : catalog::validation_catalog()) {
      std::printf("-- %s\n", entry.note.c_str());
      classify_and_report(entry.problem, false);
    }
    return 0;
  }
  Args args;
  if (mode->run == run_deadline_suite) args.deadline_ms = 100;
  if (!parse_args(*mode, first, argc, argv, args)) return 2;
  return mode->run(args);
}
