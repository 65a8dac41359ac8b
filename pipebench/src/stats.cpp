#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace pipebench {

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2;
}

namespace {

std::size_t nearest_rank(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  return sorted[nearest_rank(sorted.size(), p) - 1];
}

Tail tail_of_sorted(const std::vector<double>& sorted) {
  if (sorted.empty()) return {};
  for (const double p : kTailLadder) {
    const std::size_t rank = nearest_rank(sorted.size(), p);
    const std::size_t beyond = sorted.size() - rank;
    if (beyond >= kMinBeyond) return {p, sorted[rank - 1], beyond};
  }
  return {100, sorted.back(), 0};
}

}  // namespace pipebench
