#include "local/cole_vishkin.hpp"

#include <bit>
#include <stdexcept>

namespace lclpath {

std::size_t cv_steps_for_ids() {
  // 64-bit IDs: value space 2^64 -> 128 -> 14 -> 8 -> 6; four halvings
  // reach the 6-color fixed point.
  return 4;
}

std::uint64_t cv_step(std::uint64_t mine, std::uint64_t next) {
  if (mine == next) {
    throw std::logic_error("cv_step: adjacent colors equal (invariant broken)");
  }
  const std::uint64_t diff = mine ^ next;
  const std::uint64_t i = static_cast<std::uint64_t>(std::countr_zero(diff));
  return 2 * i + ((mine >> i) & 1u);
}

void cv_colors_window(std::span<const NodeId> ids, bool left_end, bool right_end,
                      std::vector<std::uint64_t>& color) {
  const std::size_t len = ids.size();
  color.assign(ids.begin(), ids.end());
  // Every round updates `color` in place, in ascending order, reading only
  // values of the previous round: a node's successor is not yet written
  // when the node is, and a shrink round keeps its predecessor's old
  // color aside.
  // Halving steps: each consumes one node of lookahead on the right,
  // unless the right boundary is a real path end (the last node anchors
  // with color' = bit0(color)).
  std::size_t right_margin = 0;
  for (std::size_t step = 0; step < cv_steps_for_ids(); ++step) {
    const std::size_t last_valid = len - 1 - right_margin;
    for (std::size_t i = 0; i < last_valid; ++i) color[i] = cv_step(color[i], color[i + 1]);
    if (right_end) {
      color[last_valid] &= 1u;
    } else if (right_margin + 1 < len) {
      ++right_margin;
    }
  }
  // Colors now in {0..5}; three shrink rounds remove 5, 4, 3. Each round
  // consumes one node of margin on non-end sides.
  std::size_t left_margin = 0;
  for (std::uint64_t kill = 5; kill >= 3; --kill) {
    const std::size_t lo = left_end ? 0 : left_margin + 1;
    const std::size_t hi = right_end ? len - 1 : len - 2 - right_margin;
    std::uint64_t left_old = lo > 0 && lo <= len ? color[lo - 1] : 6;
    for (std::size_t i = lo; i <= hi && i < len; ++i) {
      const std::uint64_t old = color[i];
      if (old == kill) {
        const std::uint64_t left = i > 0 ? left_old : 6;
        const std::uint64_t right = i + 1 < len ? color[i + 1] : 6;
        for (std::uint64_t c = 0; c < 3; ++c) {
          if (c != left && c != right) {
            color[i] = c;
            break;
          }
        }
      }
      left_old = old;
    }
    if (!left_end) ++left_margin;
    if (!right_end && right_margin + 1 < len) ++right_margin;
  }
}

}  // namespace lclpath
