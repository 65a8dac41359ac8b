// Runs one workload end to end and formats the result line.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"

namespace pipebench {

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// The result line's metrics: every end-to-end metric of an untraced
  /// run, every per-layer metric of a traced one.
  std::vector<Metric> metrics;
  /// Printed beside them: the metrics under their workload-specific names
  /// and the workload's own numbers.
  std::vector<Metric> details;
  std::vector<std::string> failures;  ///< failed output checks
  std::string table;                  ///< self-time table of a traced run

  bool correct() const { return failures.empty(); }
};

/// The end-to-end metric names, in BENCHMARK.json order.
const std::vector<std::string>& end_to_end_names();

Report run_benchmark(const Config& config);

/// The last line the benchmark prints: one JSON object with the keys
/// correct, attempted, failed and metrics.
std::string result_json(const Report& report);

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

}  // namespace pipebench
