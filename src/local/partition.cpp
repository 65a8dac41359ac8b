#include "local/partition.hpp"

namespace lclpath {

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
