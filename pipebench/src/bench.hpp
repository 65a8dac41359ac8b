// Shared types of the pipeline benchmark: run configuration, per-workload
// sizes, the closed-loop result, and the interface every workload
// implements so main() and the tests drive all three the same way.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"

namespace pipebench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Input and state sizes of one workload run. The defaults are what the
/// benchmark measures; `smoke()` is a tiny configuration for the unit
/// tests that still runs every code path and every output check.
struct Sizes {
  std::size_t mix_pool = 16000;      ///< random problems in decide_mix
  std::size_t sim_nodes = 1000000;   ///< instance size in synth_simulate
  std::size_t corpus = 10000;        ///< problems classified into the store
  std::size_t novel_pool = 4000;     ///< distinct never-stored problems
  std::size_t serve_lookups = 5120;  ///< repeat lookups per store_serve iteration
  std::size_t serve_chunk = 4;       ///< novel problems per iteration (serve --chunk)
  std::size_t setup_reps = 3;        ///< set-ups per untraced run (median reported)

  static Sizes smoke();
};

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::size_t clients = 1;  ///< closed-loop clients (nproc)
  std::string workdir;      ///< scratch directory for store files
  Sizes sizes;
};

/// How many operations a timed loop completed (ops 0 .. ops-1, claimed
/// from one shared cursor); a replay runs exactly these again.
struct Plan {
  std::size_t ops = 0;
};

/// What one closed loop measured.
struct LoopResult {
  double wall_s = 0;              ///< first op start to last op end
  double work = 0;                ///< problems / nodes / requests completed
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> latency_ms; ///< one sample per operation
  std::vector<double> client_wall_s;
  Plan plan;
};

/// One named number with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Failed output checks, collected across a run; any entry fails it.
struct Checks {
  std::vector<std::string> failures;
  void require(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  bool ok() const { return failures.empty(); }
};

/// One workload. An untraced run calls prepare(), then setup() several
/// times (the set-up median), then run(), check() and teardown(). A traced
/// run calls prepare(trace), setup(trace), run(), check(), then
/// prepare_replay() and a second run() that replays the first run's plan
/// with spans on, check() again and teardown(). prepare() and check()
/// always run outside the timed regions.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds fixtures the timed set-up starts from (store_serve's corpus
  /// store). `trace` (nullable) records its calls into the library.
  virtual void prepare(ThreadTrace* /*trace*/) {}
  /// Builds the inputs and the program state the loop needs, replacing
  /// any an earlier call built. `trace` (nullable) records the set-up's
  /// calls into the library.
  virtual void setup(ThreadTrace* trace) = 0;
  /// The closed loop. replay == nullptr runs for config.seconds and
  /// returns the plan it completed; otherwise it runs exactly *replay.
  /// traces (nullable) holds one ThreadTrace per client.
  virtual LoopResult run(const Plan* replay, std::vector<ThreadTrace>* traces) = 0;
  /// Restores the state run() mutates, so a replay sees the same inputs.
  virtual void prepare_replay() {}
  /// Independent output checks of everything the loops produced.
  virtual void check(Checks& checks) = 0;
  /// Workload-specific numbers printed beside the end-to-end metrics.
  virtual std::vector<Metric> details(const LoopResult& loop) const = 0;
  /// What LoopResult::work counts ("problems") and what one op is
  /// ("classify"); the printed metric names are built from these.
  virtual const char* work_name() const = 0;
  virtual const char* op_name() const = 0;
  /// Releases files and memory (the store directory, instances).
  virtual void teardown() {}
};

std::unique_ptr<Workload> make_decide_mix(const Config& config);
std::unique_ptr<Workload> make_synth_simulate(const Config& config);
std::unique_ptr<Workload> make_store_serve(const Config& config);

/// The workloads by name, in BENCHMARK.json order; nullptr for an unknown
/// name.
std::unique_ptr<Workload> make_workload(const Config& config);
const std::vector<std::string>& workload_names();

}  // namespace pipebench
