#include "decide/synthesized.hpp"

#include <algorithm>
#include <deque>
#include <optional>
#include <stdexcept>

#include "local/decomposition.hpp"

namespace lclpath {

namespace {

/// Path-shaped problem copy with the endpoint rules selectively kept.
/// Interior completions must not fire the first/last rules; completions
/// that touch a true path end keep exactly the rule anchored there.
PairwiseProblem path_variant(const PairwiseProblem& problem, bool keep_first,
                             bool keep_last) {
  PairwiseProblem p = problem;
  p.set_topology(Topology::kDirectedPath);
  if (!keep_first) p.clear_first_constraint();
  if (!keep_last) p.clear_last_mask();
  return p;
}

/// complete_by_dp over the sub-word, optionally processed right-to-left.
/// The result is always aligned with the input order. Reversed processing
/// is only used on orientation-symmetric problems with the endpoint rules
/// stripped, where a labeling is valid independently of the direction.
std::optional<Word> complete_oriented(const PairwiseProblem& problem, Word sub,
                                      std::vector<std::optional<Label>> fixed,
                                      bool reverse) {
  if (!reverse) return complete_by_dp(problem, sub, fixed);
  std::reverse(sub.begin(), sub.end());
  std::reverse(fixed.begin(), fixed.end());
  auto completion = complete_by_dp(problem, sub, fixed);
  if (completion) std::reverse(completion->begin(), completion->end());
  return completion;
}

}  // namespace

// ---------------------------------------------------------------------------
// SynthesisStrategy
// ---------------------------------------------------------------------------

SynthesisStrategy::SynthesisStrategy(const PairwiseProblem& problem)
    : topology_(problem.topology()),
      interior_(path_variant(problem, false, false)),
      prefix_(path_variant(problem, true, false)),
      suffix_(path_variant(problem, false, true)),
      full_path_(path_variant(problem, true, true)) {}

const char* SynthesisStrategy::name() const {
  switch (topology_) {
    case Topology::kDirectedCycle: return "directed-cycle";
    case Topology::kDirectedPath: return "directed-path";
    case Topology::kUndirectedCycle: return "undirected-cycle";
    case Topology::kUndirectedPath: return "undirected-path";
  }
  return "?";
}

std::size_t SynthesisStrategy::orientation_margin(std::size_t orient_ell) const {
  return directed() ? 0 : orientation_window_margin(orient_ell);
}

std::vector<SynthesisStrategy::Segment> SynthesisStrategy::segments(
    const View& view, std::size_t orient_ell) const {
  const std::size_t len = view.size();
  std::vector<Segment> out;
  const bool left_end = !cycle() && view.sees_left_end;
  const bool right_end = !cycle() && view.sees_right_end;
  if (directed()) {
    out.push_back(Segment{0, len, Direction::kForward, left_end, right_end});
    return out;
  }
  const std::vector<Direction> dir = orientation_directions_window(view.ids, orient_ell);
  std::size_t start = 0;
  for (std::size_t i = 1; i <= len; ++i) {
    if (i < len && dir[i] == dir[start]) continue;
    Segment seg;
    seg.begin = start;
    seg.end = i;
    seg.dir = dir[start];
    seg.left_real = start > 0 || left_end;
    seg.right_real = i < len || right_end;
    out.push_back(seg);
    start = i;
  }
  return out;
}

bool SynthesisStrategy::dp_reversed(const View& view, std::size_t lo,
                                    std::size_t hi) const {
  if (directed()) return false;
  return view.ids[hi] < view.ids[lo];
}

// ---------------------------------------------------------------------------
// SynthesizedLogStar (Lemma 17, all four topologies)
// ---------------------------------------------------------------------------

SynthesizedLogStar::SynthesizedLogStar(const Monoid& monoid,
                                       const LinearGapCertificate& certificate)
    : monoid_(&monoid),
      cert_(&certificate),
      strategy_(monoid.transitions().problem()) {
  if (!certificate.feasible) {
    throw std::invalid_argument("SynthesizedLogStar: certificate is infeasible");
  }
  // Context length: the layer-stabilization point, not the worst-case
  // ell_ctx. Past it the layer sequence is (<= 2)-periodic, so every
  // context of length >= ell_ lands inside the certificate domain
  // layer(ell_ctx) ∪ layer(ell_ctx + 1) — the certificate checked exactly
  // the elements our shorter contexts produce. Clamped at ell_ctx (and by
  // SIZE_MAX when the layer cycle is longer than 2, where the fold does
  // not apply).
  ell_ = std::min(certificate.ell_ctx,
                  std::max<std::size_t>(monoid.layer_stabilization(), 1));
  // Inter-block segments split into two context shares of >= (m - 2) / 2
  // each; min_gap = 2 ell + 4 keeps every share at >= ell + 1.
  min_gap_ = 2 * ell_ + 4;
  gap_ = ruling_min_gap(min_gap_);
  radius_ = ruling_radius(min_gap_) + 6 * gap_ + 16;
  if (!strategy_.cycle()) radius_ += ell_ + 2 * gap_ + 16;
  if (!strategy_.directed()) {
    // Flips are >= orient_ell apart, so every uniformly-oriented segment
    // is long enough to keep a ruling member after the flip-margin drops.
    // Beyond the orientation's own margin, consecutive usable blocks sit
    // within 2 h_flip + 2 (2m) + 2 <= 8 gap of each other across a flip.
    orient_ell_ = 4 * gap_ + 3;
    radius_ += strategy_.orientation_margin(orient_ell_) + orient_ell_ + 8 * gap_;
  }
}

std::size_t SynthesizedLogStar::radius(std::size_t n) const {
  // Clamp to the full-view threshold: radius(n) <= n always, and at the
  // clamp run() answers with the canonical full-view solve — the
  // gather-all self-selection rule (see the header).
  const std::size_t full = strategy_.cycle() ? (n + 1) / 2 : (n == 0 ? 0 : n - 1);
  return std::min(radius_, full);
}

namespace {

/// A placed separator block: nodes (anchor, anchor + 1) in presentation
/// order, labeled through the feasible function read in `dir`.
struct PlacedBlock {
  std::size_t anchor = 0;
  BlockKind kind = BlockKind::kInterior;
  Direction dir = Direction::kForward;
};

/// The log* window layout: end blocks + per-segment ruling blocks, plus
/// the label extraction (certificate lookups and DP completions).
class LogStarLayout {
 public:
  LogStarLayout(const Monoid& monoid, const LinearGapCertificate& cert,
                const SynthesisStrategy& strategy, const View& view, std::size_t ell,
                std::size_t min_gap, std::size_t gap, std::size_t orient_ell)
      : monoid_(monoid), cert_(cert), strategy_(strategy), view_(view), ell_(ell) {
    const std::size_t len = view.size();
    const std::size_t h_flip = gap;           // keep blocks clear of flips
    const std::size_t h_end = ell + gap + 2;  // and of the end blocks' zone
    const bool path = !strategy.cycle();

    for (const SynthesisStrategy::Segment& seg : strategy.segments(view, orient_ell)) {
      const bool fwd = seg.dir == Direction::kForward;
      std::vector<NodeId> sub(view.ids.begin() + static_cast<std::ptrdiff_t>(seg.begin),
                              view.ids.begin() + static_cast<std::ptrdiff_t>(seg.end));
      if (!fwd) std::reverse(sub.begin(), sub.end());
      const bool sub_left_real = fwd ? seg.left_real : seg.right_real;
      const bool sub_right_real = fwd ? seg.right_real : seg.left_real;
      const std::vector<char> member =
          ruling_members_segment(sub, min_gap, sub_left_real, sub_right_real);
      const bool left_is_path_end = path && seg.begin == 0 && view.sees_left_end;
      const bool right_is_path_end = path && seg.end == len && view.sees_right_end;
      const std::size_t need_left =
          seg.left_real ? (left_is_path_end ? h_end : h_flip) : 0;
      const std::size_t need_right =
          seg.right_real ? (right_is_path_end ? h_end : h_flip) : 0;
      for (std::size_t i = 0; i < sub.size(); ++i) {
        if (!member[i]) continue;
        const std::size_t p = fwd ? seg.begin + i : seg.end - 1 - i;
        if (!fwd && p == 0) continue;
        const std::size_t anchor = fwd ? p : p - 1;
        if (anchor < seg.begin || anchor + 1 >= seg.end) continue;
        if (anchor - seg.begin < need_left) continue;
        if (seg.end - anchor - 2 < need_right) continue;
        blocks_.push_back(PlacedBlock{anchor, BlockKind::kInterior, seg.dir});
      }
    }
    if (path && view.sees_left_end) {
      blocks_.push_back(PlacedBlock{ell, BlockKind::kLeftEnd, Direction::kForward});
    }
    if (path && view.sees_right_end) {
      blocks_.push_back(
          PlacedBlock{len - ell - 2, BlockKind::kRightEnd, Direction::kForward});
    }
    std::sort(blocks_.begin(), blocks_.end(),
              [](const PlacedBlock& a, const PlacedBlock& b) { return a.anchor < b.anchor; });
  }

  /// Labels every window position in [begin, end) into out, computing each
  /// end-zone / inter-block completion word once and reading label runs off
  /// it. A single position is the one-element span, so the per-node and
  /// chunk-sweep paths share one routing.
  void labels_span(std::size_t begin, std::size_t end, Label* out) const {
    const std::size_t len = view_.size();
    const bool path = !strategy_.cycle();
    std::size_t c = begin;
    while (c < end) {
      if (path && view_.sees_left_end && c < ell_) {
        const auto [word, lo] = end_zone_word(true);
        const std::size_t stop = std::min(end, ell_);
        for (; c < stop; ++c) out[c - begin] = word[c - lo];
        continue;
      }
      if (path && view_.sees_right_end && c >= len - ell_) {
        const auto [word, lo] = end_zone_word(false);
        for (; c < end; ++c) out[c - begin] = word[c - lo];
        continue;
      }
      const std::size_t lo = first_block_at_or_after(c);
      if (lo < blocks_.size() && blocks_[lo].anchor <= c) {
        const auto [la, lb] = block_labels(lo);
        if (c == blocks_[lo].anchor) {
          out[c - begin] = la;
          if (++c >= end) break;
        }
        if (c == blocks_[lo].anchor + 1) {
          out[c - begin] = lb;
          ++c;
        }
        continue;
      }
      if (lo == 0 || lo == blocks_.size()) {
        throw std::logic_error("logstar: no enclosing blocks in window");
      }
      const std::size_t u_anchor = blocks_[lo - 1].anchor;
      const Word word = gap_completion(lo);
      // Positions on block lo itself route through block_labels (the
      // completion fixes the same values there).
      const std::size_t stop = std::min(end, blocks_[lo].anchor);
      for (; c < stop; ++c) out[c - begin] = word[c - u_anchor];
    }
  }

 private:
  const Monoid& monoid_;
  const LinearGapCertificate& cert_;
  const SynthesisStrategy& strategy_;
  const View& view_;
  std::size_t ell_;
  std::vector<PlacedBlock> blocks_;

  /// Index of the first block whose pair (anchor, anchor + 1) ends at or
  /// after c; blocks_.size() when none does.
  std::size_t first_block_at_or_after(std::size_t c) const {
    std::size_t hi = blocks_.size();
    std::size_t lo = 0;
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (blocks_[mid].anchor + 1 < c) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Completion of the segment between blocks lo-1 and lo with the four
  /// block labels fixed, covering window positions
  /// [blocks_[lo-1].anchor, blocks_[lo].anchor + 2).
  Word gap_completion(std::size_t lo) const {
    const PlacedBlock& u = blocks_[lo - 1];
    const PlacedBlock& w = blocks_[lo];
    const auto [ua, ub] = block_labels(lo - 1);
    const auto [wa, wb] = block_labels(lo);
    Word sub(view_.inputs.begin() + static_cast<std::ptrdiff_t>(u.anchor),
             view_.inputs.begin() + static_cast<std::ptrdiff_t>(w.anchor + 2));
    std::vector<std::optional<Label>> fixed(sub.size());
    fixed[0] = ua;
    fixed[1] = ub;
    fixed[sub.size() - 2] = wa;
    fixed[sub.size() - 1] = wb;
    auto completion =
        complete_oriented(strategy_.interior(), std::move(sub), std::move(fixed),
                          strategy_.dp_reversed(view_, u.anchor, w.anchor + 1));
    if (!completion) {
      throw std::logic_error("logstar: segment completion failed (gluing violated)");
    }
    return *std::move(completion);
  }

  /// The left block's share of the inter-block segment of length z. The
  /// directed rule is positional (presentation-left takes floor(z/2)); the
  /// undirected rule breaks the tie by anchor IDs so that observers with
  /// opposite presentations split identically.
  std::size_t split_share(const PlacedBlock& left, const PlacedBlock& right,
                          std::size_t z) const {
    if (strategy_.directed()) return z / 2;
    return view_.ids[left.anchor] < view_.ids[right.anchor] ? z / 2 : z - z / 2;
  }

  std::pair<Label, Label> block_labels(std::size_t bi) const {
    const PlacedBlock& b = blocks_[bi];
    const Word& in = view_.inputs;
    Word rear;
    if (b.kind == BlockKind::kLeftEnd) {
      rear.assign(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(ell_));
    } else {
      if (bi == 0) throw std::logic_error("logstar: no block to the left in window");
      const PlacedBlock& prev = blocks_[bi - 1];
      const std::size_t z = b.anchor - prev.anchor - 2;
      const std::size_t share = split_share(prev, b, z);
      rear.assign(in.begin() + static_cast<std::ptrdiff_t>(prev.anchor + 2 + share),
                  in.begin() + static_cast<std::ptrdiff_t>(b.anchor));
    }
    Word front;
    if (b.kind == BlockKind::kRightEnd) {
      front.assign(in.begin() + static_cast<std::ptrdiff_t>(b.anchor + 2),
                   in.begin() + static_cast<std::ptrdiff_t>(b.anchor + 2 + ell_));
    } else {
      if (bi + 1 >= blocks_.size()) {
        throw std::logic_error("logstar: no block to the right in window");
      }
      const PlacedBlock& next = blocks_[bi + 1];
      const std::size_t z = next.anchor - b.anchor - 2;
      const std::size_t share = split_share(b, next, z);
      front.assign(in.begin() + static_cast<std::ptrdiff_t>(b.anchor + 2),
                   in.begin() + static_cast<std::ptrdiff_t>(b.anchor + 2 + share));
    }
    BlockPoint point;
    point.kind = b.kind;
    point.left = monoid_.of_word(rear);
    point.s0 = in[b.anchor];
    point.s1 = in[b.anchor + 1];
    point.right = monoid_.of_word(front);
    if (b.dir == Direction::kBackward) point = point.reversed(monoid_);
    const BlockValue value = cert_.value_at(point);
    if (b.dir == Direction::kBackward) return {value.b, value.a};
    return {value.a, value.b};
  }

  /// Prefix/suffix completion against the true path end, with the end
  /// block's labels fixed (existence is the certificate's endpoint
  /// filter on kLeftEnd/kRightEnd candidates). Returns the completion word
  /// together with the window position it starts at: left covers
  /// [0, ell + 2), right covers [len - ell - 2, len).
  std::pair<Word, std::size_t> end_zone_word(bool left) const {
    const std::size_t len = view_.size();
    const std::size_t anchor = left ? ell_ : len - ell_ - 2;
    std::size_t bi = blocks_.size();
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
      if (blocks_[i].anchor == anchor &&
          blocks_[i].kind == (left ? BlockKind::kLeftEnd : BlockKind::kRightEnd)) {
        bi = i;
        break;
      }
    }
    if (bi == blocks_.size()) throw std::logic_error("logstar: end block missing");
    const auto [la, lb] = block_labels(bi);
    const std::size_t lo = left ? 0 : anchor;
    const std::size_t hi = left ? ell_ + 2 : len;  // exclusive
    Word sub(view_.inputs.begin() + static_cast<std::ptrdiff_t>(lo),
             view_.inputs.begin() + static_cast<std::ptrdiff_t>(hi));
    std::vector<std::optional<Label>> fixed(sub.size());
    fixed[anchor - lo] = la;
    fixed[anchor + 1 - lo] = lb;
    auto completion =
        complete_by_dp(left ? strategy_.prefix() : strategy_.suffix(), sub, fixed);
    if (!completion) {
      throw std::logic_error("logstar: end completion failed (endpoint filter violated)");
    }
    return {*std::move(completion), lo};
  }
};

}  // namespace

Label SynthesizedLogStar::run(const View& view) const {
  const PairwiseProblem& problem = monoid_->transitions().problem();
  if (view.topology != strategy_.topology()) {
    throw std::invalid_argument("SynthesizedLogStar: view topology mismatch");
  }
  const bool full = strategy_.cycle() ? view.size() == view.n : view.n <= radius_ + 1;
  if (full) return solve_full_view(problem, view);
  return run_large(view);
}

Label SynthesizedLogStar::run_large(const View& view) const {
  const LogStarLayout layout(*monoid_, *cert_, strategy_, view, ell_, min_gap_, gap_,
                             orient_ell_);
  Label label = 0;
  layout.labels_span(view.center, view.center + 1, &label);
  return label;
}

bool SynthesizedLogStar::run_span(const View& window, std::size_t begin,
                                  std::size_t end, Label* out) const {
  if (window.topology != strategy_.topology()) {
    throw std::invalid_argument("SynthesizedLogStar: view topology mismatch");
  }
  // Instance-covering windows route through the canonical full-view solve
  // (which the engine memoizes itself); the span path serves only the
  // structured regime.
  const bool full = strategy_.cycle() ? window.size() == window.n : window.n <= radius_ + 1;
  if (full) return false;
  const LogStarLayout layout(*monoid_, *cert_, strategy_, window, ell_, min_gap_, gap_,
                             orient_ell_);
  layout.labels_span(begin, end, out);
  return true;
}

const PairwiseProblem* SynthesizedLogStar::full_view_problem() const {
  return &monoid_->transitions().problem();
}

// ---------------------------------------------------------------------------
// SynthesizedConstant (Lemma 27, all four topologies)
// ---------------------------------------------------------------------------

SynthesizedConstant::SynthesizedConstant(const Monoid& monoid,
                                         const ConstGapCertificate& certificate)
    : monoid_(&monoid),
      cert_(&certificate),
      strategy_(monoid.transitions().problem()) {
  if (!certificate.feasible) {
    throw std::invalid_argument("SynthesizedConstant: certificate is infeasible");
  }
  // Lambda: the maximum over monoid elements of the pre-period of the
  // forward-matrix power sequence. A buffer of t pattern blocks has the
  // same matrix as one of t + k*period blocks for every k, so once t
  // reaches the pre-period it realizes a power the certificate verified at
  // its own block length L — the excess blocks fold into the middle
  // element the gluing checks quantify over. Per-run pre-periods (computed
  // from each claimed region's actual rotations) are bounded by this, so
  // it is what the global margins scale with — replacing the worst-case
  // ell_ctx ~ |monoid| factor.
  for (std::size_t e = 0; e < monoid.size(); ++e) {
    lam_ = std::max(lam_, static_cast<std::size_t>(
                              monoid.element(e).fwd.stabilize().first));
  }
  // Maximum claimed period: one past it every seed gap's chunk interior is
  // long enough that pump_decomposition is guaranteed (interior length
  // ce - cb - 4 >= ell_pump + 5), so no period falls between "claimed" and
  // "pumpable" — the band a periodic adversarial input could hide in.
  const std::size_t p0 = monoid.ell_pump() + 8;
  // L0: candidate-window length. Two candidate windows agreeing at shift
  // d <= p0 witness a periodic run of length >= scale + d >= (2 lam + 8) d
  // — long enough to be claimed, contradicting candidacy; so surviving
  // seeds are > p0 apart and their interiors pump.
  scale_ = (2 * lam_ + 8) * p0;
  const bool unary = monoid.transitions().num_inputs() < 2;
  // Unary-input problems have no irregular stretches at all: the whole
  // window is one claimed period-1 run, so the seed machinery is provably
  // idle and the domination radius drops out of every bound.
  domin_ = unary ? 0 : (monoid.transitions().num_inputs() + 2) * scale_;
  radius_ = unary ? 2 * scale_ + 64 : 3 * domin_ + 6 * scale_ + 64;
  if (!strategy_.cycle()) radius_ += unary ? scale_ + 64 : 2 * scale_ + 64;
  if (!strategy_.directed()) {
    // Runs must be long enough that each contains anchors (a periodic
    // region or a pumpable chunk shows up in every D + O(L0) stretch), so
    // consecutive anchors — also across flips — stay within the window.
    orient_ell_ = domin_ + (unary ? 2 : 4) * scale_ + 64;
    radius_ += strategy_.orientation_margin(orient_ell_) + 2 * scale_ + 64;
  }
}

std::size_t SynthesizedConstant::radius(std::size_t n) const {
  // Clamp to the full-view threshold: radius(n) <= n always, and at the
  // clamp run() answers with the canonical full-view solve — the
  // gather-all self-selection rule (see the header).
  const std::size_t full = strategy_.cycle() ? (n + 1) / 2 : (n == 0 ? 0 : n - 1);
  return std::min(radius_, full);
}

namespace {

/// Per-segment analysis for the O(1) algorithm, on the segment's input
/// word read in segment direction. All coordinates are sub-word-relative;
/// structures are content-determined, hence identical across the
/// overlapping windows of nearby nodes.
struct ConstAnalysis {
  const Monoid& monoid;
  const TransitionSystem& ts;
  const PairwiseProblem& problem;
  const ConstGapCertificate& cert;
  Word in;
  std::size_t len;
  std::size_t p0, scale, domin;

  /// Periodic-region claims: period[i] = claimed primitive period (0 if
  /// none); run_begin/run_end[i] = maximal run extent (clipped at the
  /// segment); run_margin[i] = the run's anchor margin, derived from the
  /// pre-period of its own rotations' forward matrices.
  std::vector<std::size_t> period, run_begin, run_end, run_margin;
  /// anchored[i]: inside a claimed region, at least run_margin from both
  /// visible run ends.
  std::vector<char> anchored;
  std::vector<Label> anchor_label;

  /// Seed flags (chunk boundaries in irregular zones).
  std::vector<char> seed;

  /// Pre-period of an element's forward-matrix power sequence (>= 1),
  /// memoized per element — the per-pattern buffer length.
  mutable std::vector<std::size_t> preperiod_cache;

  ConstAnalysis(const Monoid& m, const ConstGapCertificate& c, Word inputs,
                std::size_t scale_in, std::size_t domin_in)
      : monoid(m),
        ts(m.transitions()),
        problem(m.transitions().problem()),
        cert(c),
        in(std::move(inputs)),
        len(in.size()),
        p0(m.ell_pump() + 8),
        scale(scale_in),
        domin(domin_in),
        preperiod_cache(m.size(), kUnknown) {
    find_periodic_regions();
    find_anchors();
    find_seeds();
  }

  static constexpr std::size_t kUnknown = static_cast<std::size_t>(-1);

  std::size_t preperiod_of(std::size_t element) const {
    std::size_t& memo = preperiod_cache[element];
    if (memo == kUnknown) {
      memo = std::max<std::size_t>(
          1, static_cast<std::size_t>(monoid.element(element).fwd.stabilize().first));
    }
    return memo;
  }

  /// The claimed run's buffer pre-period: the maximum over the pattern's q
  /// rotations (all of which occur as subwords of the run), so the value
  /// is phase-invariant — observers whose windows clip the run at
  /// different phases still derive the same margin.
  std::size_t run_preperiod(std::size_t begin, std::size_t q) const {
    std::size_t worst = 1;
    for (std::size_t s = 0; s < q; ++s) {
      const Word rotation(in.begin() + static_cast<std::ptrdiff_t>(begin + s),
                          in.begin() + static_cast<std::ptrdiff_t>(begin + s + q));
      worst = std::max(worst, preperiod_of(monoid.of_word(rotation)));
    }
    return worst;
  }

  /// Lexicographically smallest valid periodic labeling of the pattern w
  /// whose first/last labels follow the certificate's choice for w's
  /// monoid element.
  Word periodic_labeling(const Word& w) const {
    const std::size_t e = monoid.of_word(w);
    const PeriodicChoice choice = cert.choice_for(e);
    PairwiseProblem cycle_problem = problem;
    cycle_problem.set_topology(Topology::kDirectedCycle);
    std::vector<std::optional<Label>> fixed(w.size());
    fixed[0] = choice.first;
    fixed[w.size() - 1] = choice.last;
    auto labeling = complete_by_dp(cycle_problem, w, fixed);
    if (!labeling) {
      throw std::logic_error("constant: certificate periodic labeling does not exist");
    }
    return *labeling;
  }

  void find_periodic_regions() {
    period.assign(len, 0);
    run_begin.assign(len, 0);
    run_end.assign(len, 0);
    run_margin.assign(len, 0);
    for (std::size_t q = 1; q <= p0; ++q) {
      std::size_t i = 0;
      while (i + q < len) {
        if (in[i] != in[i + q]) {
          ++i;
          continue;
        }
        // Maximal match run starting at i.
        std::size_t j = i;
        while (j + q < len && in[j] == in[j + q]) ++j;
        const std::size_t begin = i;
        const std::size_t end = j + q;  // exclusive: the periodic run
        // Claim threshold and anchor margin from this run's own rotations:
        // buffer_blocks = pre-period + 2 blocks on each side absorb into
        // the certificate's verified powers, and the threshold leaves an
        // anchored middle of >= 2 blocks beyond both margins.
        if (end - begin >= 2 * q) {
          const std::size_t a_run = run_preperiod(begin, q);
          const std::size_t margin = (a_run + 3) * q;
          const std::size_t threshold = 2 * margin + 2 * q;
          if (end - begin >= threshold) {
            for (std::size_t k = begin; k < end; ++k) {
              if (period[k] == 0) {
                period[k] = q;
                run_begin[k] = begin;
                run_end[k] = end;
                run_margin[k] = margin;
              }
            }
          }
        }
        i = j + 1;
      }
    }
  }

  void find_anchors() {
    anchored.assign(len, 0);
    anchor_label.assign(len, 0);
    // Cache periodic labelings per canonical pattern.
    std::unordered_map<std::size_t, Word> labeling_cache;  // hash of word -> labeling
    std::unordered_map<std::size_t, Word> word_cache;
    for (std::size_t i = 0; i < len; ++i) {
      const std::size_t q = period[i];
      if (q == 0) continue;
      const std::size_t margin = run_margin[i];
      if (i < run_begin[i] + margin || i + margin >= run_end[i]) continue;
      // Canonical rotation of the period and the phase of i within it.
      Word rotation(in.begin() + static_cast<std::ptrdiff_t>(i),
                    in.begin() + static_cast<std::ptrdiff_t>(i + q));
      Word canon = rotation;
      std::size_t phase = 0;
      for (std::size_t s = 1; s < q; ++s) {
        Word candidate;
        candidate.reserve(q);
        for (std::size_t k = 0; k < q; ++k) candidate.push_back(rotation[(s + k) % q]);
        if (candidate < canon) {
          canon = candidate;
          phase = (q - s) % q;
        }
      }
      // phase: index of i within canon. canon[k] = rotation[(s*+k) % q]
      // where s* minimizes; i corresponds to rotation[0] = canon[phase].
      std::size_t h = hash_mix(0xC0, q);
      for (Label l : canon) h = hash_mix(h, l);
      auto it = labeling_cache.find(h);
      if (it == labeling_cache.end() || word_cache[h] != canon) {
        labeling_cache[h] = periodic_labeling(canon);
        word_cache[h] = canon;
        it = labeling_cache.find(h);
      }
      anchored[i] = 1;
      anchor_label[i] = it->second[phase];
    }
  }

  /// Lexicographic comparison of the length-scale windows at a and b.
  int compare_windows(std::size_t a, std::size_t b) const {
    for (std::size_t k = 0; k < scale; ++k) {
      const Label x = in[a + k];
      const Label y = in[b + k];
      if (x != y) return x < y ? -1 : 1;
    }
    return 0;
  }

  void find_seeds() {
    seed.assign(len, 0);
    // Candidate positions: window fully inside the segment and fully
    // unclaimed (irregular zone).
    std::vector<char> candidate(len, 0);
    {
      std::size_t unclaimed_run = 0;
      for (std::size_t i = 0; i < len; ++i) {
        unclaimed_run = period[i] == 0 ? unclaimed_run + 1 : 0;
        if (unclaimed_run >= scale && i + 1 >= scale) candidate[i + 1 - scale] = 1;
      }
    }
    // Sliding-window maximum over the candidate windows (monotonic deque:
    // O(len) amortized comparisons instead of O(len * domin)).
    std::deque<std::size_t> deque;
    std::size_t next_to_add = 0;
    for (std::size_t i = 0; i < len; ++i) {
      const std::size_t hi = std::min(len - 1, i + domin);
      while (next_to_add <= hi) {
        if (candidate[next_to_add]) {
          while (!deque.empty() && compare_windows(deque.back(), next_to_add) < 0) {
            deque.pop_back();
          }
          deque.push_back(next_to_add);
        }
        ++next_to_add;
      }
      const std::size_t lo = i >= domin ? i - domin : 0;
      while (!deque.empty() && deque.front() < lo) deque.pop_front();
      if (!candidate[i]) continue;
      // Seed iff no window in range is strictly larger.
      seed[i] = (!deque.empty() && compare_windows(deque.front(), i) > 0) ? 0 : 1;
    }
  }
};

/// Virtual sequence entry (Lemma 27's pumped graph G').
struct VirtualEntry {
  Label input = 0;
  std::optional<Label> fixed;
  std::ptrdiff_t real = -1;  ///< presentation position, or -1 for pumped inserts
};

constexpr std::size_t kUnmapped = static_cast<std::size_t>(-1);

/// The whole-window O(1) layout: per-segment analyses stitched into one
/// presentation-ordered virtual sequence, plus the completions.
class ConstLayout {
 public:
  ConstLayout(const Monoid& monoid, const ConstGapCertificate& cert,
              const SynthesisStrategy& strategy, const View& view, std::size_t scale,
              std::size_t domin, std::size_t orient_ell)
      : monoid_(monoid), cert_(cert), strategy_(strategy), view_(view) {
    const std::size_t len = view.size();
    v_of_real_.assign(len, kUnmapped);

    for (const SynthesisStrategy::Segment& seg : strategy.segments(view, orient_ell)) {
      const bool fwd = seg.dir == Direction::kForward;
      Word sub(view.inputs.begin() + static_cast<std::ptrdiff_t>(seg.begin),
               view.inputs.begin() + static_cast<std::ptrdiff_t>(seg.end));
      if (!fwd) std::reverse(sub.begin(), sub.end());
      const ConstAnalysis az(monoid, cert, std::move(sub), scale, domin);
      append_segment(seg, az);
    }
    for (std::size_t vi = 0; vi < vseq_.size(); ++vi) {
      if (vseq_[vi].real >= 0) v_of_real_[static_cast<std::size_t>(vseq_[vi].real)] = vi;
    }
  }

  /// Labels every window position in [begin, end) into out. Each
  /// virtual-gap completion and each interior pull-back is computed once
  /// and read for every position it covers. A single position is the
  /// one-element span, so the per-node and chunk-sweep paths share one
  /// routing.
  void labels_span(std::size_t begin, std::size_t end, Label* out) const {
    GapWord gap;
    const Interior* cached_interior = nullptr;
    Word cached_pull_back;
    for (std::size_t c = begin; c < end; ++c) {
      const Interior* hit = nullptr;
      for (const Interior& interior : interiors_) {
        if (c >= interior.begin && c < interior.end) {
          hit = &interior;
          break;
        }
      }
      if (hit != nullptr) {
        if (hit != cached_interior) {
          cached_pull_back = interior_word(*hit);
          cached_interior = hit;
        }
        out[c - begin] = cached_pull_back[c - (hit->begin - 2)];
        continue;
      }
      const std::size_t vi = v_of_real_[c];
      if (vi == kUnmapped) {
        throw std::logic_error(
            "constant: center position missing from the virtual sequence");
      }
      if (vseq_[vi].fixed) {
        out[c - begin] = *vseq_[vi].fixed;
        continue;
      }
      if (gap.word.empty() || vi < gap.lo || vi > gap.hi) gap = gap_word_at(vi);
      out[c - begin] = gap.word[vi - gap.lo];
    }
  }

 private:
  struct Interior {
    std::size_t begin = 0, end = 0;  // presentation positions [begin, end)
    Direction dir = Direction::kForward;
  };

  /// A materialized virtual-gap completion: virtual indices [lo, hi]
  /// inclusive and the completed labels over them.
  struct GapWord {
    std::size_t lo = 0, hi = 0;
    Word word;
  };

  const Monoid& monoid_;
  const ConstGapCertificate& cert_;
  const SynthesisStrategy& strategy_;
  const View& view_;
  std::vector<VirtualEntry> vseq_;
  std::vector<std::size_t> v_of_real_;
  std::vector<Interior> interiors_;

  void append_segment(const SynthesisStrategy::Segment& seg, const ConstAnalysis& az) {
    const bool fwd = seg.dir == Direction::kForward;
    auto present = [&](std::size_t sub_pos) {
      return fwd ? seg.begin + sub_pos : seg.end - 1 - sub_pos;
    };

    // Chunk interiors: [seed_j + 2, seed_{j+1} - 2) within irregular
    // stretches, pumped and virtually anchored when long enough.
    struct SubInterior {
      std::size_t begin, end;  // sub coordinates
      PumpDecomposition pump;
      Word y_labeling;
    };
    std::vector<SubInterior> interiors;
    {
      std::vector<std::size_t> seeds;
      for (std::size_t i = 0; i < az.len; ++i) {
        if (az.seed[i]) seeds.push_back(i);
      }
      for (std::size_t j = 0; j + 1 < seeds.size(); ++j) {
        const std::size_t cb = seeds[j];
        const std::size_t ce = seeds[j + 1];
        // Seeds closer than p0 cannot coexist (equal windows at shift
        // d <= p0 witness a claimable run; unequal ones dominate), so the
        // interior is >= ell_pump + 5 long and always pumps. Defensive.
        if (ce - cb <= az.p0) continue;
        // Chunks live in irregular stretches only: a seed pair straddling
        // a claimed periodic run must not be pumped (it would swallow the
        // run's anchors and leave everything beyond the pumped middle
        // unanchored). The run's own anchors bound those gaps instead.
        bool irregular = true;
        for (std::size_t k = cb; k < ce && irregular; ++k) irregular = az.period[k] == 0;
        if (!irregular) continue;
        SubInterior interior;
        interior.begin = cb + 2;
        interior.end = ce - 2;
        const Word word(az.in.begin() + static_cast<std::ptrdiff_t>(interior.begin),
                        az.in.begin() + static_cast<std::ptrdiff_t>(interior.end));
        auto pump = pump_decomposition(monoid_, word);
        if (!pump) {
          throw std::logic_error("constant: chunk interior not pumpable");
        }
        interior.pump = *pump;
        interior.y_labeling = az.periodic_labeling(interior.pump.y);
        interiors.push_back(std::move(interior));
      }
    }
    auto interior_of = [&](std::size_t pos) -> const SubInterior* {
      for (const SubInterior& it : interiors) {
        if (pos >= it.begin && pos < it.end) return &it;
      }
      return nullptr;
    };

    // Build the segment's virtual entries in segment order, then flip them
    // into presentation order for backward segments.
    std::vector<VirtualEntry> entries;
    entries.reserve(2 * az.len);
    std::size_t i = 0;
    while (i < az.len) {
      const SubInterior* interior = interior_of(i);
      if (interior == nullptr) {
        VirtualEntry e;
        e.input = az.in[i];
        e.real = static_cast<std::ptrdiff_t>(present(i));
        if (az.anchored[i]) e.fixed = az.anchor_label[i];
        entries.push_back(e);
        ++i;
        continue;
      }
      // Emit the pumped interior: x, y^K (with the middle blocks fixed to
      // the periodic labeling), z. Real positions map to the x/z parts;
      // inserted nodes carry real = -1; the pumped-away middle stays
      // unmapped (it is never queried directly — pull-back covers it).
      // The buffer on each side of the anchored middle is a_y + 2 blocks,
      // where a_y is the pre-period of y's forward-matrix powers: past it
      // the buffer realizes a certificate-verified power (excess folds
      // into the quantified middle element), so the worst-case ell-sized
      // buffers are unnecessary.
      const std::size_t a_y = az.preperiod_of(monoid_.of_word(interior->pump.y));
      const std::size_t k_blocks = 2 * a_y + 8;
      const Word& x = interior->pump.x;
      const Word& y = interior->pump.y;
      const Word& z = interior->pump.z;
      for (std::size_t t = 0; t < x.size(); ++t) {
        VirtualEntry e;
        e.input = x[t];
        e.real = static_cast<std::ptrdiff_t>(present(interior->begin + t));
        entries.push_back(e);
      }
      for (std::size_t b = 0; b < k_blocks; ++b) {
        const bool anchored_block = b >= a_y + 2 && b + a_y + 2 < k_blocks;
        for (std::size_t t = 0; t < y.size(); ++t) {
          VirtualEntry e;
          e.input = y[t];
          e.real = -1;
          if (anchored_block) e.fixed = interior->y_labeling[t];
          entries.push_back(e);
        }
      }
      for (std::size_t t = 0; t < z.size(); ++t) {
        VirtualEntry e;
        e.input = z[t];
        e.real = static_cast<std::ptrdiff_t>(present(interior->end - z.size() + t));
        entries.push_back(e);
      }
      i = interior->end;
    }
    if (!fwd) std::reverse(entries.begin(), entries.end());
    vseq_.insert(vseq_.end(), entries.begin(), entries.end());

    for (const SubInterior& interior : interiors) {
      Interior out;
      out.dir = seg.dir;
      if (fwd) {
        out.begin = seg.begin + interior.begin;
        out.end = seg.begin + interior.end;
      } else {
        out.begin = seg.end - interior.end;
        out.end = seg.end - interior.begin;
      }
      interiors_.push_back(out);
    }
  }

  /// Deterministic completion of the maximal unlabeled virtual run that
  /// contains virtual index vi, between the neighboring fixed anchors (or
  /// a true path end, where the endpoint rules take over).
  Label complete_gap_at(std::size_t vi) const {
    if (vseq_[vi].fixed) return *vseq_[vi].fixed;
    const GapWord gap = gap_word_at(vi);
    return gap.word[vi - gap.lo];
  }

  /// The materialized completion of vi's maximal unlabeled run (vi must be
  /// unlabeled): the run plus its enclosing anchors, completed by one DP.
  GapWord gap_word_at(std::size_t vi) const {
    std::size_t a = vi;
    while (a > 0 && !vseq_[a - 1].fixed) --a;
    std::size_t b = vi;
    while (b + 1 < vseq_.size() && !vseq_[b + 1].fixed) ++b;
    const bool path = !strategy_.cycle();
    const bool left_end_gap = path && view_.sees_left_end && a == 0;
    const bool right_end_gap = path && view_.sees_right_end && b + 1 == vseq_.size();
    if ((!left_end_gap && a < 2) || (!right_end_gap && b + 2 >= vseq_.size())) {
      throw std::logic_error("constant: virtual gap not enclosed by anchors in window");
    }
    GapWord gap;
    gap.lo = left_end_gap ? 0 : a - 2;
    gap.hi = right_end_gap ? vseq_.size() - 1 : b + 2;  // inclusive
    Word sub;
    std::vector<std::optional<Label>> fixed;
    for (std::size_t t = gap.lo; t <= gap.hi; ++t) {
      sub.push_back(vseq_[t].input);
      fixed.push_back(vseq_[t].fixed);
    }
    const PairwiseProblem& problem =
        left_end_gap ? (right_end_gap ? strategy_.full_path() : strategy_.prefix())
                     : (right_end_gap ? strategy_.suffix() : strategy_.interior());
    const bool reverse =
        (left_end_gap || right_end_gap) ? false : gap_reversed(gap.lo, gap.hi);
    auto completion = complete_oriented(problem, std::move(sub), std::move(fixed), reverse);
    if (!completion) {
      throw std::logic_error("constant: virtual gap completion failed (gluing violated)");
    }
    gap.word = *std::move(completion);
    return gap;
  }

  /// Direction rule for an interior virtual-gap DP: compare the IDs of the
  /// real positions nearest to the gap's two ends (virtual pumped inserts
  /// carry no ID; the nearest real node is a bounded scan away).
  bool gap_reversed(std::size_t lo, std::size_t hi) const {
    if (strategy_.directed()) return false;
    std::size_t l = lo;
    while (l < hi && vseq_[l].real < 0) ++l;
    std::size_t r = hi;
    while (r > l && vseq_[r].real < 0) --r;
    if (l >= r) return false;
    return view_.ids[static_cast<std::size_t>(vseq_[r].real)] <
           view_.ids[static_cast<std::size_t>(vseq_[l].real)];
  }

  /// Pull-back: real labels of a chunk interior from a DP fixing the 2 + 2
  /// real boundary nodes to their virtual-gap labels (the forward matrix
  /// of the pumped interior equals the real interior's, so a completion
  /// exists; Lemmas 10-11). The DP runs in the owning segment's direction.
  /// Returns the completion word covering positions [begin - 2, end + 2).
  Word interior_word(const Interior& interior) const {
    const std::size_t ib = interior.begin;
    const std::size_t ie = interior.end;
    Word sub(view_.inputs.begin() + static_cast<std::ptrdiff_t>(ib - 2),
             view_.inputs.begin() + static_cast<std::ptrdiff_t>(ie + 2));
    std::vector<std::optional<Label>> fixed(sub.size());
    fixed[0] = complete_gap_at(mapped(ib - 2));
    fixed[1] = complete_gap_at(mapped(ib - 1));
    fixed[sub.size() - 2] = complete_gap_at(mapped(ie));
    fixed[sub.size() - 1] = complete_gap_at(mapped(ie + 1));
    auto completion =
        complete_oriented(strategy_.interior(), std::move(sub), std::move(fixed),
                          interior.dir == Direction::kBackward);
    if (!completion) {
      throw std::logic_error("constant: interior pull-back failed (type mismatch)");
    }
    return *std::move(completion);
  }

  std::size_t mapped(std::size_t real_pos) const {
    const std::size_t vi = v_of_real_[real_pos];
    if (vi == kUnmapped) {
      throw std::logic_error("constant: queried a pumped-away virtual position");
    }
    return vi;
  }
};

}  // namespace

Label SynthesizedConstant::run(const View& view) const {
  const PairwiseProblem& problem = monoid_->transitions().problem();
  if (view.topology != strategy_.topology()) {
    throw std::invalid_argument("SynthesizedConstant: view topology mismatch");
  }
  const bool full = strategy_.cycle() ? view.size() == view.n : view.n <= radius_ + 1;
  if (full) return solve_full_view(problem, view);
  return run_large(view);
}

Label SynthesizedConstant::run_large(const View& view) const {
  const ConstLayout layout(*monoid_, *cert_, strategy_, view, scale_, domin_,
                           orient_ell_);
  Label label = 0;
  layout.labels_span(view.center, view.center + 1, &label);
  return label;
}

bool SynthesizedConstant::run_span(const View& window, std::size_t begin,
                                   std::size_t end, Label* out) const {
  if (window.topology != strategy_.topology()) {
    throw std::invalid_argument("SynthesizedConstant: view topology mismatch");
  }
  const bool full = strategy_.cycle() ? window.size() == window.n : window.n <= radius_ + 1;
  if (full) return false;
  const ConstLayout layout(*monoid_, *cert_, strategy_, window, scale_, domin_,
                           orient_ell_);
  layout.labels_span(begin, end, out);
  return true;
}

const PairwiseProblem* SynthesizedConstant::full_view_problem() const {
  return &monoid_->transitions().problem();
}

}  // namespace lclpath
