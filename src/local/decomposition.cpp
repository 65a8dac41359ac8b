#include "local/decomposition.hpp"

#include "local/cole_vishkin.hpp"

namespace lclpath {

namespace {

constexpr std::uint64_t kNoColor = ~std::uint64_t{0};

/// Greedy MIS by color class in one pass: the rule "for phase 0, 1, 2 in
/// turn, in index order, a node of that color joins unless a neighbor
/// already did" resolved per node. Node i of color c <= 2 joins unless its
/// left neighbor joined with a color <= c or its right neighbor joins with
/// a color < c. Such a right neighbor has no left blocker, so it joins
/// unless *its* right neighbor has a still smaller color: color 0 always
/// joins, color 1 unless followed by 0. Colors above 2 (untrusted window
/// margins) never join. Calls emit(i) for every joining i, ascending.
template <class Emit>
void greedy_mis(std::span<const std::uint64_t> color, Emit emit) {
  const std::size_t len = color.size();
  bool prev_joined = false;
  std::uint64_t prev = kNoColor;
  for (std::size_t i = 0; i < len; ++i) {
    const std::uint64_t c = color[i];
    const std::uint64_t c1 = i + 1 < len ? color[i + 1] : kNoColor;
    const std::uint64_t c2 = i + 2 < len ? color[i + 2] : kNoColor;
    const bool left_blocks = prev_joined && prev <= c;
    const bool right_blocks = c1 < c && !(c1 == 1 && c2 == 0);
    const bool joined = c <= 2 && !left_blocks && !right_blocks;
    if (joined) emit(i);
    prev_joined = joined;
    prev = c;
  }
}

/// One doubling level over the member positions `pos`: MIS on the member
/// subsequence (Cole-Vishkin on the member IDs; real window boundaries
/// anchor the color recursion exactly like path ends), then repair so the
/// gaps lie in [new_min, 2 * new_min] by inserting synthetic members at
/// multiples of new_min after each kept member. Real boundaries act as
/// virtual anchors just outside the window, so the distance from a real
/// end to the nearest member stays below 2 * new_min too. Replaces `pos`
/// with the next level's positions, still ascending.
void double_level(std::span<const NodeId> ids, std::vector<std::size_t>& pos,
                  std::size_t new_min, bool left_real, bool right_real,
                  RulingScratch& scratch) {
  const std::size_t len = ids.size();
  if (pos.size() < 2 && !left_real && !right_real) {
    return;  // window too small; margins cover this
  }
  std::vector<std::size_t>& next = scratch.next;
  next.clear();
  next.reserve(len);
  const auto step = static_cast<std::ptrdiff_t>(new_min);
  std::ptrdiff_t last = -1;  // the previous anchor
  bool have_last = left_real;
  const auto anchor = [&](std::ptrdiff_t v) {
    if (have_last) {
      for (std::ptrdiff_t p = last + step; p + step <= v; p += step) {
        next.push_back(static_cast<std::size_t>(p));
      }
    }
    last = v;
    have_last = true;
  };
  const auto keep = [&](std::size_t k) {
    anchor(static_cast<std::ptrdiff_t>(pos[k]));
    next.push_back(pos[k]);
  };
  if (pos.size() >= 2) {
    scratch.sub_ids.clear();
    for (std::size_t p : pos) scratch.sub_ids.push_back(ids[p]);
    cv_colors_window(scratch.sub_ids, left_real, right_real, scratch.color);
    greedy_mis(scratch.color, keep);
  } else {
    for (std::size_t k = 0; k < pos.size(); ++k) keep(k);
  }
  if (right_real) anchor(static_cast<std::ptrdiff_t>(len));
  pos.swap(next);
}

}  // namespace

std::size_t ruling_levels(std::size_t min_gap) {
  std::size_t levels = 0;
  std::size_t m = 2;
  while (m < min_gap) {
    m *= 2;
    ++levels;
  }
  return levels;
}

std::size_t ruling_min_gap(std::size_t min_gap) {
  return std::size_t{2} << ruling_levels(min_gap);
}

std::size_t ruling_radius(std::size_t min_gap) {
  // Level 0 consumes 11 window positions per side; level j operates on a
  // subsequence with gaps <= 2 m_{j-1}: 10 sub-steps of Cole-Vishkin/MIS
  // plus the repair's anchor lookback (<= 2 m_j) — bounded by 14 m_j
  // window positions per side, with m_j = 2^{j+1}.
  std::size_t radius = 11;
  std::size_t m = 2;
  for (std::size_t level = 0; level < ruling_levels(min_gap); ++level) {
    m *= 2;
    radius += 14 * m;
  }
  return radius + 4;
}

void ruling_members_segment(std::span<const NodeId> ids, std::size_t min_gap, bool left_real,
                            bool right_real, std::vector<std::size_t>& members,
                            RulingScratch& scratch) {
  // Level 0: 3-coloring + greedy MIS, gaps in [2, 3]. Flags are trusted
  // away from mere window edges (ruling_radius() covers that margin) and
  // all the way to a *real* boundary (cv_colors_window anchors its
  // recursion there).
  cv_colors_window(ids, left_real, right_real, scratch.color);
  members.clear();
  members.reserve(ids.size());
  greedy_mis(scratch.color, [&members](std::size_t i) { members.push_back(i); });
  std::size_t m = 2;
  for (std::size_t level = 0; level < ruling_levels(min_gap); ++level) {
    m *= 2;
    double_level(ids, members, m, left_real, right_real, scratch);
  }
}

}  // namespace lclpath
