#include "decide/synthesized.hpp"

#include <algorithm>
#include <deque>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "local/decomposition.hpp"
#include "local/partition.hpp"

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

/// The DP completions of one layout: the kernel tables of each problem
/// variant, built on first use, and the sub-word, pin and result buffers
/// that every completion refills, so completing a gap allocates nothing
/// once the buffers have grown. Callers fill `in` and `pins` (same length,
/// in window order) and call run().
class Completions {
 public:
  Word in;
  std::vector<std::optional<Label>> pins;

  /// Completes `in` under `pins` against `problem` (a strategy variant),
  /// processing the word right to left when `reverse` — used only on
  /// orientation-symmetric problems with the endpoint rules stripped,
  /// where a labeling is valid independently of the direction. Returns
  /// the completion aligned with the input order, or nullptr when none
  /// exists; it stays valid until the next run(). Consumes `in`/`pins`.
  const Word* run(const PairwiseProblem& problem, bool reverse) {
    if (reverse) {
      std::reverse(in.begin(), in.end());
      std::reverse(pins.begin(), pins.end());
    }
    if (!dp_for(problem).complete(in, pins, out_)) return nullptr;
    if (reverse) std::reverse(out_.begin(), out_.end());
    return &out_;
  }

  /// Sets `in` to `inputs` with no pins.
  void reset(std::span<const Label> inputs) {
    in.assign(inputs.begin(), inputs.end());
    pins.assign(inputs.size(), std::nullopt);
  }

 private:
  PathDp& dp_for(const PairwiseProblem& problem) {
    for (auto& [variant, dp] : dps_) {
      if (variant == &problem) return dp;
    }
    return dps_.emplace_back(&problem, PathDp(problem)).second;
  }

  std::vector<std::pair<const PairwiseProblem*, PathDp>> dps_;
  Word out_;
};

}  // namespace

// ---------------------------------------------------------------------------
// SynthesisStrategy
// ---------------------------------------------------------------------------

SynthesisStrategy::SynthesisStrategy(const PairwiseProblem& problem)
    : topology_(problem.topology()),
      interior_(path_variant(problem, false, false)),
      prefix_(path_variant(problem, true, false)),
      suffix_(path_variant(problem, false, true)),
      full_path_(path_variant(problem, true, true)),
      periodic_(problem) {
  periodic_.set_topology(Topology::kDirectedCycle);
}

const char* SynthesisStrategy::name() const {
  switch (topology_) {
    case Topology::kDirectedCycle: return "directed-cycle";
    case Topology::kDirectedPath: return "directed-path";
    case Topology::kUndirectedCycle: return "undirected-cycle";
    case Topology::kUndirectedPath: return "undirected-path";
  }
  return "?";
}

std::size_t SynthesisStrategy::clamp_radius(std::size_t radius, std::size_t n) const {
  const std::size_t full = cycle() ? (n + 1) / 2 : (n == 0 ? 0 : n - 1);
  return std::min(radius, full);
}

bool SynthesisStrategy::covers_instance(const View& view, std::size_t radius) const {
  return cycle() ? view.size() == view.n : view.n <= radius + 1;
}

std::size_t SynthesisStrategy::orientation_margin(std::size_t orient_ell) const {
  return directed() ? 0 : orientation_window_margin(orient_ell);
}

const std::vector<SynthesisStrategy::Segment>& SynthesisStrategy::segments(
    const View& view, std::size_t orient_ell, SegmentScratch& scratch) const {
  const std::size_t len = view.size();
  std::vector<Segment>& out = scratch.segments;
  out.clear();
  const bool left_end = !cycle() && view.sees_left_end;
  const bool right_end = !cycle() && view.sees_right_end;
  if (directed()) {
    out.push_back(Segment{0, len, Direction::kForward, left_end, right_end});
    return out;
  }
  std::vector<Direction>& dir = scratch.directions;
  orientation_directions_window(view.ids, orient_ell, dir, scratch.orientation);
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
                  std::max<std::size_t>(monoid.layer_cycle().stabilization(), 1));
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
  return strategy_.clamp_radius(radius_, n);
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
/// the label extraction (certificate lookups and DP completions). Each
/// block's label pair is looked up once and kept; the completions share
/// one set of DP buffers.
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

    // Scratch reused by every segment of the window.
    SynthesisStrategy::SegmentScratch segments;
    std::vector<NodeId> reversed_ids;
    std::vector<std::size_t> members;
    RulingScratch ruling;
    for (const SynthesisStrategy::Segment& seg : strategy.segments(view, orient_ell, segments)) {
      const bool fwd = seg.dir == Direction::kForward;
      std::span<const NodeId> sub(view.ids.data() + seg.begin, seg.end - seg.begin);
      if (!fwd) {
        reversed_ids.assign(sub.rbegin(), sub.rend());
        sub = reversed_ids;
      }
      const bool sub_left_real = fwd ? seg.left_real : seg.right_real;
      const bool sub_right_real = fwd ? seg.right_real : seg.left_real;
      ruling_members_segment(sub, min_gap, sub_left_real, sub_right_real, members, ruling);
      const bool left_is_path_end = path && seg.begin == 0 && view.sees_left_end;
      const bool right_is_path_end = path && seg.end == len && view.sees_right_end;
      const std::size_t need_left =
          seg.left_real ? (left_is_path_end ? h_end : h_flip) : 0;
      const std::size_t need_right =
          seg.right_real ? (right_is_path_end ? h_end : h_flip) : 0;
      for (const std::size_t i : members) {
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
    block_labels_.resize(blocks_.size());
  }

  /// Labels every window position in [begin, end) into out, computing each
  /// end-zone / inter-block completion word once and reading label runs off
  /// it. A single position is the one-element span, so the per-node and
  /// chunk-sweep paths share one routing.
  void labels_span(std::size_t begin, std::size_t end, Label* out) {
    const std::size_t len = view_.size();
    const bool path = !strategy_.cycle();
    std::size_t c = begin;
    while (c < end) {
      if (path && view_.sees_left_end && c < ell_) {
        const Word& word = end_zone_word(true);
        const std::size_t stop = std::min(end, ell_);
        for (; c < stop; ++c) out[c - begin] = word[c];
        continue;
      }
      if (path && view_.sees_right_end && c >= len - ell_) {
        const Word& word = end_zone_word(false);
        const std::size_t lo = len - ell_ - 2;
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
      const Word& word = gap_completion(lo);
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
  /// Per block: its label pair, once looked up.
  std::vector<std::optional<std::pair<Label, Label>>> block_labels_;
  Completions dp_;

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
  /// [blocks_[lo-1].anchor, blocks_[lo].anchor + 2). Valid until the next
  /// completion.
  const Word& gap_completion(std::size_t lo) {
    const PlacedBlock& u = blocks_[lo - 1];
    const PlacedBlock& w = blocks_[lo];
    const auto [ua, ub] = block_labels(lo - 1);
    const auto [wa, wb] = block_labels(lo);
    dp_.reset(std::span<const Label>(view_.inputs).subspan(u.anchor, w.anchor + 2 - u.anchor));
    const std::size_t len = dp_.in.size();
    dp_.pins[0] = ua;
    dp_.pins[1] = ub;
    dp_.pins[len - 2] = wa;
    dp_.pins[len - 1] = wb;
    const Word* completion =
        dp_.run(strategy_.interior(), strategy_.dp_reversed(view_, u.anchor, w.anchor + 1));
    if (completion == nullptr) {
      throw std::logic_error("logstar: segment completion failed (gluing violated)");
    }
    return *completion;
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

  std::pair<Label, Label> block_labels(std::size_t bi) {
    std::optional<std::pair<Label, Label>>& memo = block_labels_[bi];
    if (!memo) memo = lookup_block_labels(bi);
    return *memo;
  }

  /// The certificate's label pair for block bi, read through the feasible
  /// function at the block's rear and front contexts (views into the
  /// window).
  std::pair<Label, Label> lookup_block_labels(std::size_t bi) const {
    const PlacedBlock& b = blocks_[bi];
    const std::span<const Label> in(view_.inputs);
    std::span<const Label> rear;
    if (b.kind == BlockKind::kLeftEnd) {
      rear = in.first(ell_);
    } else {
      if (bi == 0) throw std::logic_error("logstar: no block to the left in window");
      const PlacedBlock& prev = blocks_[bi - 1];
      const std::size_t z = b.anchor - prev.anchor - 2;
      const std::size_t from = prev.anchor + 2 + split_share(prev, b, z);
      rear = in.subspan(from, b.anchor - from);
    }
    std::span<const Label> front;
    if (b.kind == BlockKind::kRightEnd) {
      front = in.subspan(b.anchor + 2, ell_);
    } else {
      if (bi + 1 >= blocks_.size()) {
        throw std::logic_error("logstar: no block to the right in window");
      }
      const PlacedBlock& next = blocks_[bi + 1];
      const std::size_t z = next.anchor - b.anchor - 2;
      front = in.subspan(b.anchor + 2, split_share(b, next, z));
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
  /// filter on kLeftEnd/kRightEnd candidates). Left covers window
  /// positions [0, ell + 2), right covers [len - ell - 2, len). Valid until
  /// the next completion.
  const Word& end_zone_word(bool left) {
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
    dp_.reset(std::span<const Label>(view_.inputs).subspan(lo, hi - lo));
    dp_.pins[anchor - lo] = la;
    dp_.pins[anchor + 1 - lo] = lb;
    const Word* completion = dp_.run(left ? strategy_.prefix() : strategy_.suffix(), false);
    if (completion == nullptr) {
      throw std::logic_error("logstar: end completion failed (endpoint filter violated)");
    }
    return *completion;
  }
};

}  // namespace

Label SynthesizedLogStar::run(const View& view) const {
  const PairwiseProblem& problem = monoid_->transitions().problem();
  if (view.topology != strategy_.topology()) {
    throw std::invalid_argument("SynthesizedLogStar: view topology mismatch");
  }
  if (strategy_.covers_instance(view, radius_)) return solve_full_view(problem, view);
  LogStarLayout layout(*monoid_, *cert_, strategy_, view, ell_, min_gap_, gap_, orient_ell_);
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
  if (strategy_.covers_instance(window, radius_)) return false;
  LogStarLayout layout(*monoid_, *cert_, strategy_, window, ell_, min_gap_, gap_, orient_ell_);
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
  preperiod_.resize(monoid.size());
  for (std::size_t e = 0; e < monoid.size(); ++e) {
    const auto first = static_cast<std::size_t>(monoid.element(e).fwd.stabilize().first);
    preperiod_[e] = std::max<std::size_t>(1, first);
    lam_ = std::max(lam_, preperiod_[e]);
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
    // Runs must be long enough that each contains anchors, so consecutive
    // anchors — also across flips — stay within the window. This sizing
    // assumes a periodic region or a pumpable chunk shows up in every
    // D + O(L0) stretch, i.e. that seeds are at most ~2D apart. The seeds
    // are window maxima, which are independent but NOT dominating (see
    // window_maxima in local/partition.hpp): consecutive seeds can be
    // further apart, and README's Synthesis section records a measured
    // directed-cycle instance where that leaves a window without anchors.
    orient_ell_ = domin_ + (unary ? 2 : 4) * scale_ + 64;
    radius_ += strategy_.orientation_margin(orient_ell_) + 2 * scale_ + 64;
  }
}

std::size_t SynthesizedConstant::radius(std::size_t n) const {
  return strategy_.clamp_radius(radius_, n);
}

namespace {

/// Per-segment analysis for the O(1) algorithm, on the segment's input
/// word read in segment direction. All coordinates are sub-word-relative;
/// structures are content-determined, hence identical across the
/// overlapping windows of nearby nodes. One analysis serves every segment
/// of a layout: analyze() replaces the previous segment's results in the
/// same buffers, and the periodic labelings it derives are kept for the
/// layout's lifetime. Every result is a sorted list (claimed stretches,
/// anchored stretches, seeds).
class ConstAnalysis {
 public:
  ConstAnalysis(const Monoid& monoid, const ConstGapCertificate& cert,
                const SynthesisStrategy& strategy, std::span<const std::size_t> preperiod,
                std::size_t scale, std::size_t domin, Completions& dp)
      : p0(monoid.ell_pump() + 8),
        monoid_(monoid),
        cert_(cert),
        strategy_(strategy),
        preperiod_(preperiod),
        scale_(scale),
        domin_(domin),
        dp_(dp) {}

  /// Analyzes the segment whose inputs, in presentation order, are
  /// `segment`; `reversed` reads them backward (a backward segment).
  void analyze(std::span<const Label> segment, bool reversed) {
    if (reversed) {
      in.assign(segment.rbegin(), segment.rend());
    } else {
      in.assign(segment.begin(), segment.end());
    }
    len = in.size();
    find_periodic_regions();
    find_anchors();
    find_seeds();
  }

  /// A stretch of anchored positions: inside one claimed stretch, at least
  /// its run's margin from both visible run ends. The anchored window
  /// [i, i + q) is the run's rotation at i, so position i sits at phase
  /// `(q - s) mod q` of the canonical rotation, where s is the window's
  /// least-rotation shift; s falls by one (mod the canonical rotation's
  /// smallest period `root`, a divisor of q) per position.
  struct Anchored {
    std::size_t from = 0, to = 0;
    std::size_t period = 0;
    std::size_t root = 0;
    std::size_t shift = 0;  ///< least-rotation shift of the window at `from`
    const Word* labeling = nullptr;  ///< the canonical rotation's labeling
  };

  /// Maximum claimed period (see SynthesizedConstant's constructor).
  const std::size_t p0;
  /// The segment's inputs in segment direction.
  Word in;
  std::size_t len = 0;
  /// The claimed periodic stretches, ascending and disjoint: each carries
  /// its maximal run extent (clipped at the segment) and the run's anchor
  /// margin, derived from the pre-period of its own rotations' forward
  /// matrices. Positions in none are unclaimed.
  std::vector<PeriodicRun> claims;
  /// The anchored stretches, ascending.
  std::vector<Anchored> anchors;
  /// Seed positions (chunk boundaries in irregular zones), ascending.
  std::vector<std::size_t> seeds;

  /// Pre-period of an element's forward-matrix power sequence (>= 1) —
  /// the per-pattern buffer length.
  std::size_t preperiod_of(std::size_t element) const { return preperiod_[element]; }

  /// Lexicographically smallest valid periodic labeling of the pattern w
  /// whose first/last labels follow the certificate's choice for w's
  /// monoid element. Computed once per pattern and layout; the reference
  /// stays valid for the layout's lifetime.
  const Word& periodic_labeling(std::span<const Label> w) {
    for (const PeriodicLabeling& known : labelings_) {
      if (std::ranges::equal(known.pattern, w)) return known.labeling;
    }
    const PeriodicChoice choice = cert_.choice_for(monoid_.of_word(w));
    dp_.reset(w);
    dp_.pins[0] = choice.first;
    dp_.pins[w.size() - 1] = choice.last;
    const Word* labeling = dp_.run(strategy_.periodic(), false);
    if (labeling == nullptr) {
      throw std::logic_error("constant: certificate periodic labeling does not exist");
    }
    labelings_.push_back({Word(w.begin(), w.end()), *labeling});
    return labelings_.back().labeling;
  }

 private:
  struct PeriodicLabeling {
    Word pattern;
    Word labeling;
  };

  const Monoid& monoid_;
  const ConstGapCertificate& cert_;
  const SynthesisStrategy& strategy_;
  std::span<const std::size_t> preperiod_;
  std::size_t scale_, domin_;
  Completions& dp_;
  /// Every pattern labeled so far (a deque: references stay valid).
  std::deque<PeriodicLabeling> labelings_;
  /// find_anchors' canonical rotation and find_seeds' scratch.
  Word canon_;
  std::vector<char> candidate_;
  std::vector<std::size_t> deque_;

  /// The claimed run's buffer pre-period: the maximum over the pattern's q
  /// rotations (all of which occur as subwords of the run), so the value
  /// is phase-invariant — observers whose windows clip the run at
  /// different phases still derive the same margin.
  std::size_t run_preperiod(std::size_t begin, std::size_t q) const {
    const std::span<const Label> word(in);
    std::size_t worst = 1;
    for (std::size_t s = 0; s < q; ++s) {
      worst = std::max(worst, preperiod_of(monoid_.of_word(word.subspan(begin + s, q))));
    }
    return worst;
  }

  void find_periodic_regions() {
    // Claim threshold and anchor margin from each run's own rotations:
    // buffer_blocks = pre-period + 2 blocks on each side absorb into the
    // certificate's verified powers, and the threshold leaves an anchored
    // middle of >= 2 blocks beyond both margins.
    const auto rule = [this](std::size_t q, std::size_t begin,
                             std::size_t end) -> std::optional<std::size_t> {
      if (end - begin < 2 * q) return std::nullopt;
      const std::size_t margin = (run_preperiod(begin, q) + 3) * q;
      if (end - begin < 2 * margin + 2 * q) return std::nullopt;
      return margin;
    };
    claim_periodic_runs(in, p0, rule, claims);
  }

  void find_anchors() {
    // Each anchored stretch resolves its canonical rotation (hence its
    // labeling) and that rotation's smallest period once.
    anchors.clear();
    for (const PeriodicRun& r : claims) {
      const std::size_t from = std::max(r.from, r.begin + r.margin);
      const std::size_t to = std::min(r.to, r.end - std::min(r.end, r.margin));
      if (from >= to) continue;
      const std::size_t q = r.period;
      const std::span<const Label> window = std::span<const Label>(in).subspan(from, q);
      const std::size_t best = least_rotation(window);
      canon_.clear();
      for (std::size_t k = 0; k < q; ++k) canon_.push_back(window[(best + k) % q]);
      std::size_t root = 1;
      while (q % root != 0 || !std::equal(canon_.begin() + static_cast<std::ptrdiff_t>(root),
                                          canon_.end(), canon_.begin())) {
        ++root;
      }
      anchors.push_back(Anchored{from, to, q, root, best, &periodic_labeling(canon_)});
    }
  }

  void find_seeds() {
    // Candidate positions: window fully inside the segment and fully
    // unclaimed (irregular zone), i.e. the starts s of an unclaimed gap
    // [g0, g1) with s + scale <= g1.
    seeds.clear();
    candidate_.assign(len, 0);
    bool any = false;
    std::size_t gap = 0;
    for (std::size_t k = 0; k <= claims.size(); ++k) {
      const std::size_t gap_end = k < claims.size() ? claims[k].from : len;
      if (gap_end >= gap + scale_) {
        any = true;
        std::fill(candidate_.begin() + static_cast<std::ptrdiff_t>(gap),
                  candidate_.begin() + static_cast<std::ptrdiff_t>(gap_end - scale_ + 1), 1);
      }
      if (k < claims.size()) gap = claims[k].to;
    }
    if (!any) return;
    // Seeds: candidates no candidate window within domin strictly exceeds.
    const auto is_candidate = [this](std::size_t i) { return candidate_[i] != 0; };
    window_maxima(len, domin_, is_candidate, window_less(in, scale_), seeds, deque_);
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
/// presentation-ordered virtual sequence, plus the completions. Segments
/// share one analysis and one set of scratch buffers; completions share
/// one set of DP buffers.
class ConstLayout {
 public:
  ConstLayout(const Monoid& monoid, const ConstGapCertificate& cert,
              const SynthesisStrategy& strategy, std::span<const std::size_t> preperiod,
              const View& view, std::size_t scale, std::size_t domin, std::size_t orient_ell)
      : monoid_(monoid), strategy_(strategy), view_(view) {
    const std::size_t len = view.size();
    v_of_real_.assign(len, kUnmapped);
    vseq_.reserve(2 * len);

    ConstAnalysis az(monoid, cert, strategy, preperiod, scale, domin, dp_);
    first_seen_.assign(monoid.size(), kNotSeen);
    const std::span<const Label> inputs(view.inputs);
    SynthesisStrategy::SegmentScratch segments;
    for (const SynthesisStrategy::Segment& seg : strategy.segments(view, orient_ell, segments)) {
      const bool backward = seg.dir == Direction::kBackward;
      az.analyze(inputs.subspan(seg.begin, seg.end - seg.begin), backward);
      append_segment(seg, az);
    }
    std::ranges::sort(interiors_, {}, &Interior::begin);
  }

  /// Labels every window position in [begin, end) into out. Each
  /// virtual-gap completion and each interior pull-back is computed once
  /// and read for every position it covers. A single position is the
  /// one-element span, so the per-node and chunk-sweep paths share one
  /// routing.
  void labels_span(std::size_t begin, std::size_t end, Label* out) {
    bool have_gap = false;
    const Interior* cached_interior = nullptr;
    std::size_t next_interior = 0;  // interiors_ is sorted and disjoint
    for (std::size_t c = begin; c < end; ++c) {
      while (next_interior < interiors_.size() && interiors_[next_interior].end <= c) {
        ++next_interior;
      }
      const Interior* hit = next_interior < interiors_.size() &&
                                    interiors_[next_interior].begin <= c
                                ? &interiors_[next_interior]
                                : nullptr;
      if (hit != nullptr) {
        if (hit != cached_interior) {
          interior_word(*hit);
          cached_interior = hit;
        }
        out[c - begin] = pull_back_[c - (hit->begin - 2)];
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
      if (!have_gap || vi < span_gap_.lo || vi > span_gap_.hi) {
        gap_word_at(vi, span_gap_);
        have_gap = true;
      }
      out[c - begin] = span_gap_.word[vi - span_gap_.lo];
    }
  }

 private:
  struct Interior {
    std::size_t begin = 0, end = 0;  // presentation positions [begin, end)
    Direction dir = Direction::kForward;
  };

  /// A materialized virtual-gap completion: the unlabeled run [a, b] it
  /// was computed for, the virtual indices [lo, hi] it covers (inclusive:
  /// the run plus its enclosing anchors) and the completed labels over
  /// them.
  struct GapWord {
    std::size_t a = 0, b = 0;
    std::size_t lo = 0, hi = 0;
    Word word;
  };

  /// A pumped chunk interior of the current segment: sub-word positions
  /// [begin, end), split as x y z (views into the analysis' word).
  struct SubInterior {
    std::size_t begin = 0, end = 0;
    std::span<const Label> x, y, z;
    const Word* y_labeling = nullptr;
  };

  const Monoid& monoid_;
  const SynthesisStrategy& strategy_;
  const View& view_;
  std::vector<VirtualEntry> vseq_;
  std::vector<std::size_t> v_of_real_;
  std::vector<Interior> interiors_;
  Completions dp_;
  /// Segment scratch.
  std::vector<SubInterior> sub_interiors_;
  std::vector<std::size_t> first_seen_;  ///< pump_split scratch
  /// Completion scratch: labels_span's current gap, the gap last read by
  /// complete_gap_at, and the current interior pull-back.
  GapWord span_gap_;
  GapWord boundary_gap_;
  bool have_boundary_gap_ = false;
  Word pull_back_;

  void append_segment(const SynthesisStrategy::Segment& seg, ConstAnalysis& az) {
    const bool fwd = seg.dir == Direction::kForward;
    auto present = [&](std::size_t sub_pos) {
      return static_cast<std::ptrdiff_t>(fwd ? seg.begin + sub_pos : seg.end - 1 - sub_pos);
    };
    const std::span<const Label> in(az.in);

    // Chunk interiors: [seed_j + 2, seed_{j+1} - 2) within irregular
    // stretches, pumped and virtually anchored when long enough.
    std::vector<SubInterior>& interiors = sub_interiors_;
    interiors.clear();
    const std::vector<std::size_t>& seeds = az.seeds;
    std::size_t claim = 0;  // the first claimed stretch ending after cb
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
      while (claim < az.claims.size() && az.claims[claim].to <= cb) ++claim;
      if (claim < az.claims.size() && az.claims[claim].from < ce) continue;
      const std::span<const Label> word = in.subspan(cb + 2, ce - cb - 4);
      const auto split = pump_split(monoid_, word, first_seen_);
      if (!split) {
        throw std::logic_error("constant: chunk interior not pumpable");
      }
      const auto [p1, p2] = *split;
      SubInterior interior{cb + 2, ce - 2, word.first(p1), word.subspan(p1, p2 - p1),
                           word.subspan(p2), nullptr};
      interior.y_labeling = &az.periodic_labeling(interior.y);
      interiors.push_back(interior);
    }

    // Append the segment's virtual entries in segment order, then flip
    // them into presentation order for backward segments.
    const std::size_t first_entry = vseq_.size();
    std::size_t i = 0;
    std::size_t anchor = 0;  // the first anchored stretch ending after i
    for (std::size_t k = 0; k <= interiors.size(); ++k) {
      // Real positions up to the next interior, fixed where anchored.
      const std::size_t stop = k < interiors.size() ? interiors[k].begin : az.len;
      while (i < stop) {
        while (anchor < az.anchors.size() && az.anchors[anchor].to <= i) ++anchor;
        if (anchor == az.anchors.size() || az.anchors[anchor].from > i) {
          const std::size_t free_end =
              anchor < az.anchors.size() ? std::min(stop, az.anchors[anchor].from) : stop;
          for (; i < free_end; ++i) vseq_.push_back(VirtualEntry{in[i], std::nullopt, present(i)});
          continue;
        }
        const ConstAnalysis::Anchored& a = az.anchors[anchor];
        const std::size_t q = a.period;
        const Word& labeling = *a.labeling;
        std::size_t shift = (a.shift + a.root - (i - a.from) % a.root) % a.root;
        for (const std::size_t e = std::min(stop, a.to); i < e; ++i) {
          vseq_.push_back(VirtualEntry{in[i], labeling[shift == 0 ? 0 : q - shift], present(i)});
          shift = shift == 0 ? a.root - 1 : shift - 1;
        }
      }
      if (k == interiors.size()) break;
      // Emit the pumped interior: x, y^K (with the middle blocks fixed to
      // the periodic labeling), z. Real positions map to the x/z parts;
      // inserted nodes carry real = -1; the pumped-away middle stays
      // unmapped (it is never queried directly — pull-back covers it).
      // The buffer on each side of the anchored middle is a_y + 2 blocks,
      // where a_y is the pre-period of y's forward-matrix powers: past it
      // the buffer realizes a certificate-verified power (excess folds
      // into the quantified middle element), so the worst-case ell-sized
      // buffers are unnecessary.
      const SubInterior& interior = interiors[k];
      const std::span<const Label> x = interior.x;
      const std::span<const Label> y = interior.y;
      const std::span<const Label> z = interior.z;
      const std::size_t a_y = az.preperiod_of(monoid_.of_word(y));
      const std::size_t k_blocks = 2 * a_y + 8;
      for (std::size_t t = 0; t < x.size(); ++t) {
        vseq_.push_back(VirtualEntry{x[t], std::nullopt, present(interior.begin + t)});
      }
      for (std::size_t b = 0; b < k_blocks; ++b) {
        const bool anchored_block = b >= a_y + 2 && b + a_y + 2 < k_blocks;
        for (std::size_t t = 0; t < y.size(); ++t) {
          VirtualEntry e{y[t], std::nullopt, -1};
          if (anchored_block) e.fixed = (*interior.y_labeling)[t];
          vseq_.push_back(e);
        }
      }
      for (std::size_t t = 0; t < z.size(); ++t) {
        vseq_.push_back(
            VirtualEntry{z[t], std::nullopt, present(interior.end - z.size() + t)});
      }
      i = interior.end;
    }
    if (!fwd) {
      std::reverse(vseq_.begin() + static_cast<std::ptrdiff_t>(first_entry), vseq_.end());
    }
    for (std::size_t vi = first_entry; vi < vseq_.size(); ++vi) {
      if (vseq_[vi].real >= 0) v_of_real_[static_cast<std::size_t>(vseq_[vi].real)] = vi;
    }

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
  Label complete_gap_at(std::size_t vi) {
    if (vseq_[vi].fixed) return *vseq_[vi].fixed;
    if (!have_boundary_gap_ || vi < boundary_gap_.a || vi > boundary_gap_.b) {
      gap_word_at(vi, boundary_gap_);
      have_boundary_gap_ = true;
    }
    return boundary_gap_.word[vi - boundary_gap_.lo];
  }

  /// Materializes into `gap` the completion of vi's maximal unlabeled run
  /// (vi must be unlabeled): the run plus its enclosing anchors, completed
  /// by one DP.
  void gap_word_at(std::size_t vi, GapWord& gap) {
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
    const std::size_t lo = left_end_gap ? 0 : a - 2;
    const std::size_t hi = right_end_gap ? vseq_.size() - 1 : b + 2;  // inclusive
    dp_.in.clear();
    dp_.pins.clear();
    for (std::size_t t = lo; t <= hi; ++t) {
      dp_.in.push_back(vseq_[t].input);
      dp_.pins.push_back(vseq_[t].fixed);
    }
    const PairwiseProblem& problem =
        left_end_gap ? (right_end_gap ? strategy_.full_path() : strategy_.prefix())
                     : (right_end_gap ? strategy_.suffix() : strategy_.interior());
    const bool reverse = (left_end_gap || right_end_gap) ? false : gap_reversed(lo, hi);
    const Word* completion = dp_.run(problem, reverse);
    if (completion == nullptr) {
      throw std::logic_error("constant: virtual gap completion failed (gluing violated)");
    }
    gap.a = a;
    gap.b = b;
    gap.lo = lo;
    gap.hi = hi;
    gap.word.assign(completion->begin(), completion->end());
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
  /// Writes into pull_back_ the completion covering positions
  /// [begin - 2, end + 2).
  void interior_word(const Interior& interior) {
    const std::size_t ib = interior.begin;
    const std::size_t ie = interior.end;
    const Label f0 = complete_gap_at(mapped(ib - 2));
    const Label f1 = complete_gap_at(mapped(ib - 1));
    const Label f2 = complete_gap_at(mapped(ie));
    const Label f3 = complete_gap_at(mapped(ie + 1));
    dp_.reset(std::span<const Label>(view_.inputs).subspan(ib - 2, ie - ib + 4));
    const std::size_t len = dp_.in.size();
    dp_.pins[0] = f0;
    dp_.pins[1] = f1;
    dp_.pins[len - 2] = f2;
    dp_.pins[len - 1] = f3;
    const Word* completion =
        dp_.run(strategy_.interior(), interior.dir == Direction::kBackward);
    if (completion == nullptr) {
      throw std::logic_error("constant: interior pull-back failed (type mismatch)");
    }
    pull_back_.assign(completion->begin(), completion->end());
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
  if (strategy_.covers_instance(view, radius_)) return solve_full_view(problem, view);
  ConstLayout layout(*monoid_, *cert_, strategy_, preperiod_, view, scale_, domin_,
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
  if (strategy_.covers_instance(window, radius_)) return false;
  ConstLayout layout(*monoid_, *cert_, strategy_, preperiod_, window, scale_, domin_,
                     orient_ell_);
  layout.labels_span(begin, end, out);
  return true;
}

const PairwiseProblem* SynthesizedConstant::full_view_problem() const {
  return &monoid_->transitions().problem();
}

}  // namespace lclpath
