// Summary statistics for the benchmark's timings.
//
// Percentiles use the nearest-rank rule on sorted samples: the p-th
// percentile is the sample at 1-based rank ceil(p/100 * n), and the
// samples "beyond" it are the n - rank larger-ranked ones.
#pragma once

#include <cstddef>
#include <vector>

namespace pipebench {

/// Median of the values (mean of the middle two for even counts); 0 for
/// an empty input.
double median(std::vector<double> values);

/// Nearest-rank percentile of ascending-sorted samples, p in (0, 100].
double percentile_sorted(const std::vector<double>& sorted, double p);

/// A tail latency: which percentile, its value, and how many samples lie
/// beyond it.
struct Tail {
  double percentile = 0;
  double value = 0;
  std::size_t beyond = 0;
};

/// The percentiles a tail is picked from, highest first. The ladder stops
/// at p99: above it the samples beyond the percentile are repeats of a
/// handful of seeded inputs, so the number would measure which seed was
/// drawn rather than the program. Between p90 and p75 it steps by 5, so a
/// run of under a hundred operations over a few fixed inputs (one
/// synth_simulate round is 11 simulate() calls) picks a percentile inside
/// the slowest inputs' group, not at its lowest sample.
inline constexpr double kTailLadder[] = {99, 90, 85, 80, 75, 50};
inline constexpr std::size_t kMinBeyond = 10;

/// The highest ladder percentile with at least kMinBeyond samples beyond
/// it. With fewer than 2 * kMinBeyond samples no ladder step qualifies and
/// the tail is the maximum (percentile 100, nothing beyond); with no
/// samples it is all zeros.
Tail tail_of_sorted(const std::vector<double>& sorted);

}  // namespace pipebench
