#include <gtest/gtest.h>

#include <algorithm>

#include "local/cole_vishkin.hpp"
#include "local/decomposition.hpp"
#include "local/orientation.hpp"
#include "local/partition.hpp"
#include "local/simulator.hpp"
#include "test_util.hpp"

namespace lclpath {
namespace {

TEST(Instance, ValidationAndNeighbors) {
  Instance i = make_instance(Topology::kDirectedCycle, {0, 1, 0});
  EXPECT_NO_THROW(i.validate());
  EXPECT_EQ(i.succ(2), 0u);
  EXPECT_EQ(i.pred(0), 2u);
  i.ids[1] = i.ids[0];
  EXPECT_THROW(i.validate(), std::invalid_argument);
}

TEST(Views, WindowShapesOnPathsAndCycles) {
  Rng rng(1);
  Instance cycle = random_instance(Topology::kDirectedCycle, 20, 2, rng);
  const View v = extract_view(cycle, 3, 4);
  EXPECT_EQ(v.size(), 9u);
  EXPECT_EQ(v.center, 4u);
  EXPECT_EQ(v.inputs[4], cycle.inputs[3]);
  EXPECT_EQ(v.inputs[0], cycle.inputs[19]);  // wraps

  const View full = extract_view(cycle, 5, 30);
  EXPECT_EQ(full.size(), 20u);
  EXPECT_EQ(full.center, 0u);
  EXPECT_EQ(full.inputs[0], cycle.inputs[5]);

  Instance path = random_instance(Topology::kDirectedPath, 20, 2, rng);
  const View pv = extract_view(path, 2, 5);
  EXPECT_TRUE(pv.sees_left_end);
  EXPECT_FALSE(pv.sees_right_end);
  EXPECT_EQ(pv.center, 2u);
  EXPECT_EQ(pv.size(), 8u);
}

TEST(GatherAll, SolvesCatalogInstances) {
  Rng rng(2);
  for (const auto& entry : catalog::validation_catalog()) {
    if (entry.expected == ComplexityClass::kUnsolvable) continue;
    const PairwiseProblem& p = entry.problem;
    if (!is_directed(p.topology())) continue;
    GatherAllAlgorithm algorithm(p);
    for (std::size_t n : {4u, 9u, 16u}) {
      Instance instance = random_instance(p.topology(), n, p.num_inputs(), rng);
      const auto result = simulate(algorithm, p, instance);
      EXPECT_TRUE(result.verdict.ok)
          << p.name() << " n=" << n << ": " << result.verdict.reason;
    }
  }
}

// Undirected views are canonicalized (the storage orientation must not
// leak), so the gather-all baseline has to agree on one labeling although
// different nodes may receive opposite presentations of the same cycle.
TEST(GatherAll, SolvesUndirectedInstances) {
  Rng rng(12);
  for (const Topology topology :
       {Topology::kUndirectedCycle, Topology::kUndirectedPath}) {
    for (PairwiseProblem p :
         {catalog::coloring(3, topology), catalog::copy_input(topology)}) {
      GatherAllAlgorithm algorithm(p);
      for (std::size_t n : {4u, 9u, 17u}) {
        Instance instance = random_instance(p.topology(), n, p.num_inputs(), rng);
        const auto result = simulate(algorithm, p, instance);
        EXPECT_TRUE(result.verdict.ok)
            << p.name() << " on " << to_string(topology) << " n=" << n << ": "
            << result.verdict.reason;
      }
    }
  }
}

TEST(Views, UndirectedWindowsAreCanonicalized) {
  Rng rng(13);
  Instance cycle = random_instance(Topology::kUndirectedCycle, 40, 2, rng);
  Instance mirrored = cycle;
  std::reverse(mirrored.inputs.begin(), mirrored.inputs.end());
  std::reverse(mirrored.ids.begin(), mirrored.ids.end());
  for (std::size_t v = 0; v < cycle.size(); ++v) {
    const View a = extract_view(cycle, v, 7);
    const View b = extract_view(mirrored, cycle.size() - 1 - v, 7);
    EXPECT_EQ(a.ids, b.ids) << "node " << v;
    EXPECT_EQ(a.inputs, b.inputs) << "node " << v;
    EXPECT_EQ(a.center, b.center) << "node " << v;
  }
  // Path windows seeing an end keep global order (end identity is
  // content); middle windows are canonicalized like cycle windows.
  Instance path = random_instance(Topology::kUndirectedPath, 60, 2, rng);
  const View end_view = extract_view(path, 2, 5);
  EXPECT_TRUE(end_view.sees_left_end);
  EXPECT_EQ(end_view.inputs[2], path.inputs[2]);
  Instance path_mirror = path;
  std::reverse(path_mirror.inputs.begin(), path_mirror.inputs.end());
  std::reverse(path_mirror.ids.begin(), path_mirror.ids.end());
  const View mid_a = extract_view(path, 30, 6);
  const View mid_b = extract_view(path_mirror, path.size() - 1 - 30, 6);
  EXPECT_EQ(mid_a.ids, mid_b.ids);
  EXPECT_EQ(mid_a.inputs, mid_b.inputs);
}

TEST(ColeVishkin, StepReducesAndKeepsProper) {
  Rng rng(3);
  const std::size_t n = 500;
  std::vector<std::uint64_t> color(n);
  std::vector<std::size_t> ids = rng.permutation(n);
  for (std::size_t v = 0; v < n; ++v) color[v] = ids[v];
  for (std::size_t step = 0; step < cv_steps_for_ids(); ++step) {
    std::vector<std::uint64_t> next(n);
    for (std::size_t v = 0; v < n; ++v) next[v] = cv_step(color[v], color[(v + 1) % n]);
    color = next;
    for (std::size_t v = 0; v < n; ++v) {
      ASSERT_NE(color[v], color[(v + 1) % n]) << "step " << step;
    }
  }
  for (std::size_t v = 0; v < n; ++v) EXPECT_LT(color[v], 6u);
}

TEST(ColeVishkin, ThreeColoringViaViews) {
  Rng rng(4);
  for (std::size_t n : {50u, 173u}) {
    Instance instance = random_instance(Topology::kDirectedCycle, n, 2, rng);
    std::vector<std::size_t> colors(n);
    for (std::size_t v = 0; v < n; ++v) {
      colors[v] = cv_three_color(extract_view(instance, v, cv_radius()));
      EXPECT_LT(colors[v], 3u);
    }
    for (std::size_t v = 0; v < n; ++v) {
      EXPECT_NE(colors[v], colors[(v + 1) % n]) << "n=" << n << " v=" << v;
    }
  }
}

TEST(ColeVishkin, SpacedMisIsMaximalIndependent) {
  Rng rng(5);
  const std::size_t n = 300;
  Instance instance = random_instance(Topology::kDirectedCycle, n, 2, rng);
  std::vector<char> member(n);
  const std::size_t radius = cv_spaced_mis_radius(1);
  for (std::size_t v = 0; v < n; ++v) {
    member[v] = cv_spaced_mis(extract_view(instance, v, radius), 1) ? 1 : 0;
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (member[v]) {
      EXPECT_FALSE(member[(v + 1) % n]) << v;
    }
    EXPECT_TRUE(member[v] || member[(v + 1) % n] || member[(v + n - 1) % n]) << v;
  }
}

TEST(RulingSet, GapsWithinBounds) {
  Rng rng(6);
  for (std::size_t min_gap : {8u, 20u, 40u}) {
    const std::size_t m = ruling_min_gap(min_gap);
    EXPECT_GE(m, min_gap);
    const std::size_t radius = ruling_radius(min_gap);
    const std::size_t n = 6 * radius + 7;
    Instance instance = random_instance(Topology::kDirectedCycle, n, 2, rng);
    std::vector<std::size_t> members;
    for (std::size_t v = 0; v < n; ++v) {
      if (ruling_member(extract_view(instance, v, radius), min_gap)) members.push_back(v);
    }
    ASSERT_GE(members.size(), 2u) << "min_gap " << min_gap;
    for (std::size_t k = 0; k < members.size(); ++k) {
      const std::size_t gap = k + 1 < members.size()
                                  ? members[k + 1] - members[k]
                                  : members[0] + n - members.back();
      EXPECT_GE(gap, m) << "min_gap " << min_gap << " at member " << members[k];
      EXPECT_LE(gap, 2 * m) << "min_gap " << min_gap << " at member " << members[k];
    }
  }
}

TEST(RulingSet, WindowAgreementLocality) {
  Rng rng(7);
  const std::size_t min_gap = 16;
  const std::size_t radius = ruling_radius(min_gap);
  const std::size_t n = 4 * radius + 11;
  Instance a = random_instance(Topology::kDirectedCycle, n, 2, rng);
  Instance b = a;
  const std::size_t far = (2 * radius + 50) % n;
  b.ids[far] = 999'999;
  const bool ma = ruling_member(extract_view(a, 0, radius), min_gap);
  const bool mb = ruling_member(extract_view(b, 0, radius), min_gap);
  EXPECT_EQ(ma, mb);
}

// Real boundaries (path ends / orientation flips) anchor the ruling-set
// construction: member flags are trusted to the boundary, gaps stay in
// [m, 2m] and the boundary-to-first-member distance stays below 2m.
TEST(RulingSet, SegmentRealEndsAnchorTheConstruction) {
  Rng rng(14);
  for (std::size_t min_gap : {8u, 20u}) {
    const std::size_t m = ruling_min_gap(min_gap);
    for (int trial = 0; trial < 6; ++trial) {
      const std::size_t len = 20 * m + rng.next_below(10 * m);
      std::vector<NodeId> ids;
      for (std::size_t id : rng.permutation(len)) ids.push_back(id);
      const auto member = ruling_members_segment(ids, min_gap, true, true);
      std::vector<std::size_t> pos;
      for (std::size_t i = 0; i < len; ++i) {
        if (member[i]) pos.push_back(i);
      }
      ASSERT_GE(pos.size(), 2u);
      EXPECT_LT(pos.front() + 1, 2 * m);  // anchored at the left boundary
      EXPECT_LT(len - pos.back(), 2 * m + 1);
      for (std::size_t k = 0; k + 1 < pos.size(); ++k) {
        const std::size_t gap = pos[k + 1] - pos[k];
        EXPECT_GE(gap + 1, m) << "trial " << trial << " at " << pos[k];
        EXPECT_LE(gap, 2 * m) << "trial " << trial << " at " << pos[k];
      }
    }
  }
}

// The windowless directed-cycle entry point must be unchanged by the
// segment generalization (no real boundaries = the old construction).
TEST(RulingSet, WindowDelegatesToSegment) {
  Rng rng(15);
  std::vector<NodeId> ids;
  for (std::size_t id : rng.permutation(600)) ids.push_back(id);
  EXPECT_EQ(ruling_members_window(ids, 16), ruling_members_segment(ids, 16, false, false));
}

// Reference for the ell-orientation: the per-node O(ell^2) rule, scanning
// the center's balls directly (peak = maximum ID within radius L = 2 ell +
// 2; nearest peak within L, ties toward the larger ID; a peak toward its
// larger neighbor; otherwise toward the ball maximum). Needs a view with
// 2L nodes on both sides of the center.
Direction naive_orient(const View& view, std::size_t ell) {
  const std::size_t scale = 2 * ell + 2;
  const std::size_t c = view.center;
  auto is_peak = [&](std::size_t pos) {
    for (std::size_t i = pos - scale; i <= pos + scale; ++i) {
      if (i != pos && view.ids[i] >= view.ids[pos]) return false;
    }
    return true;
  };
  for (std::size_t d = 0; d <= scale; ++d) {
    const bool right = is_peak(c + d);
    const bool left = d > 0 && is_peak(c - d);
    if (!right && !left) continue;
    if (d == 0) {
      return view.ids[c + 1] > view.ids[c - 1] ? Direction::kForward : Direction::kBackward;
    }
    const bool fwd = right && (!left || view.ids[c + d] > view.ids[c - d]);
    return fwd ? Direction::kForward : Direction::kBackward;
  }
  std::size_t best = c - scale;
  for (std::size_t i = c - scale; i <= c + scale; ++i) {
    if (view.ids[i] > view.ids[best]) best = i;
  }
  return best > c ? Direction::kForward : Direction::kBackward;
}

// The O(len) sliding-window orientation (and orient(), its center entry)
// must agree with the per-node reference rule wherever both have their
// margins.
TEST(Orientation, WindowDirectionsMatchOrient) {
  Rng rng(16);
  const std::size_t ell = 5;
  const std::size_t radius = orientation_radius(ell);
  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t n = 150 + rng.next_below(60);
    Instance instance = random_instance(Topology::kDirectedCycle, n, 2, rng);
    if (trial == 1) {
      for (std::size_t v = 0; v < n; ++v) instance.ids[v] = v;  // monotone
    }
    // Evaluate the window form on each node's window and compare centers.
    const std::size_t margin = orientation_window_margin(ell);
    for (std::size_t v = 0; v < n; ++v) {
      const View view = extract_view(instance, v, radius);
      if (view.size() == view.n) break;  // orient() switches to global rule
      const Direction expected = naive_orient(view, ell);
      EXPECT_EQ(orient(view, ell), expected) << "node " << v << " trial " << trial;
      const auto dirs = orientation_directions_window(view.ids, ell);
      ASSERT_GE(view.center, margin);
      EXPECT_EQ(dirs[view.center], expected) << "node " << v << " trial " << trial;
    }
  }
}

TEST(Orientation, RunsAreLongOnAdversarialIds) {
  const std::size_t ell = 5;
  Rng rng(8);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = 120 + rng.next_below(80);
    Instance instance = random_instance(Topology::kDirectedCycle, n, 2, rng);
    if (trial == 1) {  // monotone IDs: the classic hard case for peak rules
      for (std::size_t v = 0; v < n; ++v) instance.ids[v] = v;
    }
    if (trial == 2) {  // zigzag
      for (std::size_t v = 0; v < n; ++v) instance.ids[v] = (v % 2 == 0) ? v : n + v;
    }
    const auto directions = orient_all(instance, ell);
    std::vector<std::size_t> run_lengths;
    std::size_t start = 0;
    while (start < n && directions[start] == directions[(start + n - 1) % n]) ++start;
    if (start == n) {
      run_lengths.push_back(n);
    } else {
      std::size_t count = 1;
      for (std::size_t k = 1; k <= n; ++k) {
        const std::size_t v = (start + k) % n;
        if (k < n && directions[v] == directions[(start + k - 1) % n]) {
          ++count;
        } else {
          run_lengths.push_back(count);
          count = 1;
        }
        if (k == n) break;
      }
    }
    for (std::size_t len : run_lengths) {
      EXPECT_GE(len, ell) << "trial " << trial << " n=" << n;
    }
  }
}

TEST(Lemma20, IrregularIndependentSet) {
  Rng rng(9);
  const std::size_t gamma = 4;
  const std::size_t l = 16;
  Word inputs;
  for (std::size_t v = 0; v < 400; ++v) {
    inputs.push_back(static_cast<Label>(rng.next_below(3)));
  }
  const auto member = irregular_independent_set(inputs, gamma, l);
  std::ptrdiff_t last = -1;
  for (std::size_t v = 0; v + l <= inputs.size(); ++v) {
    if (!member[v]) continue;
    if (last >= 0 && v - static_cast<std::size_t>(last) <= gamma) {
      // Members this close must have identical windows — impossible in an
      // irregular stretch unless the word happened to repeat; verify.
      bool same = true;
      for (std::size_t k = 0; k < l && same; ++k) {
        same = inputs[v + k] == inputs[static_cast<std::size_t>(last) + k];
      }
      EXPECT_TRUE(same) << "close members with distinct windows at " << v;
    }
    last = static_cast<std::ptrdiff_t>(v);
  }
}

// Reference for the shared sliding-window argmax: the naive local-maximum
// loop over the eligible length-l windows of a word (O(n * radius * l)).
// best[p] is the leftmost largest eligible window start within radius of p
// (n when none), member[p] marks eligible p that no eligible window within
// radius strictly exceeds.
struct NaiveWindowMaxima {
  std::vector<std::size_t> best;
  std::vector<char> member;
};

NaiveWindowMaxima naive_window_maxima(const Word& word, std::size_t l, std::size_t radius,
                                      const std::vector<char>& eligible) {
  const std::size_t n = word.size();
  const std::size_t windows = n >= l ? n - l + 1 : 0;
  auto compare = [&](std::size_t a, std::size_t b) {
    for (std::size_t k = 0; k < l; ++k) {
      if (word[a + k] != word[b + k]) return word[a + k] < word[b + k] ? -1 : 1;
    }
    return 0;
  };
  NaiveWindowMaxima out{std::vector<std::size_t>(windows, windows),
                        std::vector<char>(n, 0)};
  for (std::size_t i = 0; i < windows; ++i) {
    const std::size_t lo = i >= radius ? i - radius : 0;
    const std::size_t hi = std::min(windows - 1, i + radius);
    bool top = eligible[i] != 0;
    for (std::size_t j = lo; j <= hi; ++j) {
      if (!eligible[j]) continue;
      if (out.best[i] == windows || compare(j, out.best[i]) > 0) out.best[i] = j;
      if (j != i && compare(j, i) > 0) top = false;
    }
    out.member[i] = top ? 1 : 0;
  }
  return out;
}

TEST(WindowMaxima, MatchesNaiveReference) {
  Rng rng(17);
  std::size_t ties = 0, holes = 0, radius_zero = 0, short_words = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t letters = 2 + rng.next_below(2);
    const std::size_t n = rng.next_below(90);
    const std::size_t l = 1 + rng.next_below(6);
    const std::size_t radius = trial % 5 == 0 ? 0 : rng.next_below(14);
    Word word;
    for (std::size_t i = 0; i < n; ++i) {
      word.push_back(static_cast<Label>(rng.next_below(letters)));
    }
    if (trial % 3 == 1) {  // periodic words repeat windows: ties
      const std::size_t period = 1 + rng.next_below(4);
      for (std::size_t i = period; i < n; ++i) word[i] = word[i - period];
    }
    std::vector<char> eligible(n, 1);
    if (trial % 2 == 1) {
      for (char& e : eligible) e = rng.next_below(3) != 0 ? 1 : 0;
    }
    const std::size_t windows = n >= l ? n - l + 1 : 0;
    const NaiveWindowMaxima expected = naive_window_maxima(word, l, radius, eligible);
    const auto is_eligible = [&](std::size_t i) { return eligible[i] != 0; };

    std::vector<char> member =
        window_maxima(windows, radius, is_eligible, window_less(word, l));
    member.resize(n, 0);
    EXPECT_EQ(member, expected.member) << "trial " << trial;
    std::vector<std::size_t> best;
    sliding_window_argmax(windows, radius, is_eligible, window_less(word, l),
                          [&](std::size_t, std::size_t b) { best.push_back(b); });
    EXPECT_EQ(best, expected.best) << "trial " << trial;
    if (trial % 2 == 0) {
      EXPECT_EQ(irregular_independent_set(word, radius, l), expected.member)
          << "trial " << trial;
    }

    for (std::size_t i = 0; i < windows; ++i) {
      for (std::size_t j = i + 1; j < windows && j <= i + radius; ++j) {
        if (expected.member[i] && expected.member[j]) ++ties;
      }
      if (!eligible[i]) ++holes;
    }
    radius_zero += radius == 0 ? 1 : 0;
    short_words += n < l ? 1 : 0;
  }
  // Every case the helper must handle actually occurred.
  EXPECT_GT(ties, 0u);
  EXPECT_GT(holes, 0u);
  EXPECT_GT(radius_zero, 0u);
  EXPECT_GT(short_words, 0u);
}

TEST(Partition, InvariantsOnRandomAndPeriodicInputs) {
  Rng rng(10);
  PartitionParams params;
  params.l_width = 3;
  params.l_count = 4;
  params.l_pattern = 3;
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t n = 60 + rng.next_below(120);
    Instance instance =
        trial % 3 == 0 ? periodic_instance(Topology::kDirectedCycle, n, {0, 1}, rng)
                       : random_instance(Topology::kDirectedCycle, n, 2, rng);
    const Partition part = partition(instance, params);
    const auto failure = check_partition(instance, params, part);
    EXPECT_FALSE(failure.has_value()) << "trial " << trial << ": "
                                      << (failure ? *failure : "");
  }
}

TEST(Partition, WholePeriodicCycleDetected) {
  Rng rng(11);
  PartitionParams params{3, 4, 3};
  Instance instance = periodic_instance(Topology::kDirectedCycle, 60, {0, 1}, rng);
  const Partition part = partition(instance, params);
  EXPECT_TRUE(part.whole_cycle_periodic);
  ASSERT_EQ(part.components.size(), 1u);
  EXPECT_TRUE(part.components[0].long_component);
  EXPECT_EQ(part.components[0].pattern, (Word{0, 1}));
}

}  // namespace
}  // namespace lclpath
