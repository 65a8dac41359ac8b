#include "local/partition.hpp"

namespace lclpath {

void claim_periodic_runs(std::span<const Label> in, std::size_t max_period,
                         const ClaimRule& rule, std::vector<PeriodicRun>& claim) {
  const std::size_t n = in.size();
  claim.assign(n, PeriodicRun{});
  // Once every position is claimed, no further run can change anything.
  std::size_t unclaimed = n;
  for (std::size_t q = 1; q <= max_period && unclaimed != 0; ++q) {
    std::size_t i = 0;
    while (i + q < n && unclaimed != 0) {
      if (in[i] != in[i + q]) {
        ++i;
        continue;
      }
      std::size_t j = i;
      while (j + q < n && in[j] == in[j + q]) ++j;
      const std::size_t begin = i;
      const std::size_t end = j + q;  // exclusive
      if (const std::optional<std::size_t> margin = rule(q, begin, end)) {
        for (std::size_t k = begin; k < end; ++k) {
          PeriodicRun& c = claim[k];
          if (c.period == 0) {
            c = PeriodicRun{q, begin, end, *margin};
            --unclaimed;
          }
        }
      }
      i = j + 1;
    }
  }
}

std::size_t least_rotation(std::span<const Label> w) {
  const std::size_t q = w.size();
  std::size_t best = 0;  // shift of the least rotation found so far
  for (std::size_t s = 1; s < q; ++s) {
    for (std::size_t k = 0; k < q; ++k) {
      const Label a = w[(s + k) % q];
      const Label b = w[(best + k) % q];
      if (a != b) {
        if (a < b) best = s;
        break;
      }
    }
  }
  return best;
}

}  // namespace lclpath
