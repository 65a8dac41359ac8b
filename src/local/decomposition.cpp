#include "local/decomposition.hpp"

#include "local/cole_vishkin.hpp"

namespace lclpath {

namespace {

/// Greedy MIS by color class: for phase 0, 1, 2 in turn, every node of
/// that color joins unless a neighbor already did. Writes flags into
/// `member`.
void greedy_mis(const std::vector<std::uint64_t>& color, std::size_t len,
                std::vector<char>& member) {
  member.assign(len, 0);
  for (std::uint64_t phase = 0; phase < 3; ++phase) {
    for (std::size_t i = 0; i < len; ++i) {
      if (color[i] != phase || member[i]) continue;
      const bool lb = i > 0 && member[i - 1];
      const bool rb = i + 1 < len && member[i + 1];
      if (!lb && !rb) member[i] = 1;
    }
  }
}

/// Level-0 member flags: 3-coloring + greedy MIS; gaps in [2, 3]. Flags
/// are trusted away from mere window edges (ruling_radius() covers that
/// margin) and all the way to a *real* boundary (cv_colors_window anchors
/// its recursion there).
void level0_members(std::span<const NodeId> ids, bool left_real, bool right_real,
                    std::vector<char>& member, RulingScratch& scratch) {
  cv_colors_window(ids, left_real, right_real, scratch.color);
  greedy_mis(scratch.color, ids.size(), member);
}

/// One doubling level: MIS on the member subsequence, then repair so the
/// gaps lie in [new_min, 2 * new_min]. Real boundaries act as virtual
/// anchors: the repair measures from them, so the distance from a real
/// end to the nearest member stays below 2 * new_min too. Updates
/// `member` in place.
void double_level(std::span<const NodeId> ids, std::vector<char>& member, std::size_t new_min,
                  bool left_real, bool right_real, RulingScratch& scratch) {
  const std::size_t len = ids.size();
  // Collect member positions.
  std::vector<std::size_t>& pos = scratch.pos;
  pos.clear();
  pos.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    if (member[i]) pos.push_back(i);
  }
  if (pos.size() < 2 && !left_real && !right_real) {
    return;  // window too small; margins cover this
  }

  // MIS over the subsequence (Cole-Vishkin on the member IDs; real window
  // boundaries anchor the color recursion exactly like path ends).
  std::vector<char>& sub_member = scratch.sub_member;
  if (pos.size() >= 2) {
    scratch.sub_ids.clear();
    scratch.sub_ids.reserve(pos.size());
    for (std::size_t p : pos) scratch.sub_ids.push_back(ids[p]);
    cv_colors_window(scratch.sub_ids, left_real, right_real, scratch.color);
    greedy_mis(scratch.color, pos.size(), sub_member);
  } else {
    sub_member.assign(pos.size(), 1);
  }
  // Keep selected members; repair long gaps by inserting synthetic members
  // at multiples of new_min after the left anchor. Real boundaries join
  // the anchor sequence as virtual members just outside the window.
  std::vector<char>& out = scratch.next_member;
  out.assign(len, 0);
  std::vector<std::ptrdiff_t>& anchors = scratch.anchors;
  anchors.clear();
  anchors.reserve(pos.size() + 2);
  if (left_real) anchors.push_back(-1);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    if (sub_member[i]) {
      out[pos[i]] = 1;
      anchors.push_back(static_cast<std::ptrdiff_t>(pos[i]));
    }
  }
  if (right_real) anchors.push_back(static_cast<std::ptrdiff_t>(len));
  for (std::size_t i = 0; i + 1 < anchors.size(); ++i) {
    const std::ptrdiff_t u = anchors[i];
    const std::ptrdiff_t v = anchors[i + 1];
    const std::ptrdiff_t step = static_cast<std::ptrdiff_t>(new_min);
    for (std::ptrdiff_t p = u + step; p + step <= v; p += step) {
      if (p >= 0 && p < static_cast<std::ptrdiff_t>(len)) out[static_cast<std::size_t>(p)] = 1;
    }
  }
  member.swap(out);
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
                            bool right_real, std::vector<char>& member,
                            RulingScratch& scratch) {
  level0_members(ids, left_real, right_real, member, scratch);
  std::size_t m = 2;
  for (std::size_t level = 0; level < ruling_levels(min_gap); ++level) {
    m *= 2;
    double_level(ids, member, m, left_real, right_real, scratch);
  }
}

}  // namespace lclpath
