// Executable synthesized algorithms for the three complexity classes, on
// all four topologies (Theorems 8-9 promise a "description of an
// asymptotically optimal algorithm" for every pairwise LCL on directed and
// undirected paths and cycles; these classes make the descriptions run).
//
//  * SynthesizedLinear — Theta(n): gather everything, canonical DP
//    (GatherAllAlgorithm; the paper's Section 3.3 upper-bound baseline).
//
//  * SynthesizedLogStar — Theta(log* n), Lemma 17: a ruling set with gaps
//    in [m, 2m] places 2r-node separator blocks; each block labels itself
//    with the feasible function of the linear-gap certificate applied to
//    its half-segment contexts; segments between blocks complete by
//    deterministic DP (existence guaranteed by the gluing requirement).
//
//  * SynthesizedConstant — O(1), Lemma 27: partition the cycle into long
//    periodic regions (anchored by the const-gap certificate's periodic
//    labelings) and irregular chunks (anchored by *virtually pumping* the
//    chunk and labeling the pumped middle periodically); complete virtual
//    gaps by DP and pull chunk labels back through the type-preserving
//    replacement (Lemmas 10-11). Symmetry inside irregular stretches is
//    broken by input irregularity alone — window-lexicographic local
//    maxima — never by IDs, which is what makes the algorithm O(1).
//
// Radii are derived per problem, not from worst-case composition. The log*
// context length is the monoid's layer-stabilization point (every context
// of at least that length lands inside the certificate domain), and the
// constant-class margins scale with the pre-period of the forward-matrix
// power sequences (a buffer of t pattern blocks has the same matrix as a
// certificate-length buffer once t reaches the pre-period — extra blocks
// fold into the quantified-over middle element), with per-run pre-periods
// recomputed from each claimed region's actual rotations. Unary-input
// problems drop the seed-domination term entirely: every window is one
// claimed period-1 run, so the chunk machinery is provably idle.
//
// Gather-all self-selection: radius(n) clamps to the full-view threshold
// ((n + 1) / 2 on cycles, n - 1 on paths), and run() answers full views
// with the canonical solve — so whenever the derived radius exceeds the
// instance regime the synthesized algorithm *is* gather-all by
// construction, never a nominally-constant algorithm that sees more than
// the instance and loses to the Theta(n) baseline.
//
// The topology axis is factored into a SynthesisStrategy shared by both
// algorithms:
//
//  * paths add endpoint structure — a kLeftEnd/kRightEnd separator block
//    at a fixed offset from each visible end (its prefix/suffix context is
//    exactly what the certificate's endpoint filters quantified over), and
//    prefix/suffix DP completions that keep the first/last rules only at
//    the true ends;
//
//  * undirected topologies add a local orientation — the Lemma 19
//    ell-orientation (an O(ell)-round, ID-derived direction whose uniform
//    runs span >= ell nodes) splits the window into oriented segments;
//    the directed machinery runs inside each segment, orientation flips
//    act as real boundaries (the ruling set anchors there, the const
//    partition ends its regions there), and blocks/regions of opposite
//    orientations glue because the undirected deciders checked exactly
//    those reversed placements (BlockPoint::reversed, reversed periodic
//    signatures). All tie-breaks (context splits, DP direction) compare
//    IDs, so every observer derives the same physical structure no matter
//    which way its canonicalized window happens to point.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "automata/monoid.hpp"
#include "automata/pumping.hpp"
#include "decide/const_gap.hpp"
#include "decide/linear_gap.hpp"
#include "local/orientation.hpp"
#include "local/simulator.hpp"

namespace lclpath {

/// The per-topology seam of the synthesized algorithms: everything that
/// varies across the four topologies — endpoint handling, local
/// orientation, the problem variants interior completions run against —
/// lives here; the algorithm cores are topology-agnostic against it.
class SynthesisStrategy {
 public:
  explicit SynthesisStrategy(const PairwiseProblem& problem);

  Topology topology() const { return topology_; }
  bool cycle() const { return is_cycle(topology_); }
  bool directed() const { return is_directed(topology_); }
  /// Strategy tag for display: "directed-cycle", "undirected-path", ...
  const char* name() const;

  /// Problem variants for DP completions: `interior` strips the first/last
  /// rules entirely (sub-words away from the true ends), `prefix` keeps
  /// only the first-node rule, `suffix` only the last-node mask. All are
  /// path-shaped so the DP never applies a wrap edge.
  const PairwiseProblem& interior() const { return interior_; }
  const PairwiseProblem& prefix() const { return prefix_; }
  const PairwiseProblem& suffix() const { return suffix_; }
  /// Both endpoint rules kept (a completion spanning the whole path).
  const PairwiseProblem& full_path() const { return full_path_; }
  /// The problem on a directed cycle: the periodic labelings of the O(1)
  /// algorithm's claimed patterns.
  const PairwiseProblem& periodic() const { return periodic_; }

  /// A maximal uniformly-oriented stretch of the window ([begin, end) in
  /// presentation coordinates). A boundary is *real* when it is an
  /// orientation flip or a true path end — the per-segment machinery may
  /// anchor there; window-clipped boundaries are not real and keep their
  /// margins.
  struct Segment {
    std::size_t begin = 0;
    std::size_t end = 0;
    Direction dir = Direction::kForward;
    bool left_real = false;
    bool right_real = false;
  };

  /// The buffers segments() refills: a layout keeps one and passes it for
  /// every window it splits.
  struct SegmentScratch {
    std::vector<Segment> segments;
    std::vector<Direction> directions;
    OrientationScratch orientation;
  };

  /// Splits the window into oriented segments, returned in `scratch`.
  /// Directed topologies return one forward segment; undirected ones run
  /// the window ell-orientation with the given ell.
  const std::vector<Segment>& segments(const View& view, std::size_t orient_ell,
                                       SegmentScratch& scratch) const;

  /// The gather-all self-selection rule (see the file comment): the
  /// structured radius capped at the full-view threshold, and whether a
  /// view taken at that radius covers the whole instance.
  std::size_t clamp_radius(std::size_t radius, std::size_t n) const;
  bool covers_instance(const View& view, std::size_t radius) const;

  /// Window margin the orientation layer consumes (0 when directed).
  std::size_t orientation_margin(std::size_t orient_ell) const;

  /// Direction for a DP completion over window positions [lo, hi]: global
  /// forward on directed topologies; on undirected ones, from the smaller
  /// boundary ID toward the larger — an ID comparison both endpoints'
  /// observers resolve identically, whichever way their presentations
  /// point. Returns true when the DP must process the sub-word reversed.
  bool dp_reversed(const View& view, std::size_t lo, std::size_t hi) const;

 private:
  Topology topology_;
  PairwiseProblem interior_;
  PairwiseProblem prefix_;
  PairwiseProblem suffix_;
  PairwiseProblem full_path_;
  PairwiseProblem periodic_;
};

class SynthesizedLogStar final : public LocalAlgorithm {
 public:
  SynthesizedLogStar(const Monoid& monoid, const LinearGapCertificate& certificate);

  std::string name() const override {
    return "synthesized-logstar[" + std::string(strategy_.name()) + "]";
  }
  std::size_t radius(std::size_t n) const override;
  Label run(const View& view) const override;
  /// run() answers instance-covering views with solve_full_view on the
  /// transition system's problem (gather-all self-selection, see radius()),
  /// so the engine may memoize the canonical solve across nodes.
  const PairwiseProblem* full_view_problem() const override;
  /// Chunk-sweep form: one LogStarLayout over the whole chunk-plus-halo
  /// window answers every spanned node, computing each inter-block / end
  /// completion once (ruling and block decisions are content-determined
  /// with engineered margins, so the wide window derives the same physical
  /// structure every per-node window does — bit-identical labels).
  bool run_span(const View& window, std::size_t begin, std::size_t end,
                Label* out) const override;

  std::size_t block_gap() const { return gap_; }
  const SynthesisStrategy& strategy() const { return strategy_; }

 private:
  const Monoid* monoid_;
  const LinearGapCertificate* cert_;
  SynthesisStrategy strategy_;
  std::size_t ell_ = 0;        ///< context length (layer stabilization point)
  std::size_t min_gap_ = 0;    ///< requested ruling-set gap lower bound
  std::size_t gap_ = 0;        ///< ruling-set minimum gap m (power of two)
  std::size_t orient_ell_ = 0; ///< ell-orientation scale (undirected only)
  std::size_t radius_ = 0;     ///< structured-regime view radius
};

class SynthesizedConstant final : public LocalAlgorithm {
 public:
  SynthesizedConstant(const Monoid& monoid, const ConstGapCertificate& certificate);

  std::string name() const override {
    return "synthesized-constant[" + std::string(strategy_.name()) + "]";
  }
  std::size_t radius(std::size_t n) const override;
  Label run(const View& view) const override;
  /// Same gather-all self-selection contract as SynthesizedLogStar.
  const PairwiseProblem* full_view_problem() const override;
  /// Chunk-sweep form: one ConstLayout (periodic regions, seeds, pumped
  /// chunks) over the whole chunk-plus-halo window answers every spanned
  /// node, computing each virtual-gap completion and interior pull-back
  /// once — same content-determined-structure argument as the log* span.
  bool run_span(const View& window, std::size_t begin, std::size_t end,
                Label* out) const override;

  const SynthesisStrategy& strategy() const { return strategy_; }

 private:
  const Monoid* monoid_;
  const ConstGapCertificate* cert_;
  SynthesisStrategy strategy_;
  /// Per monoid element: the pre-period of its forward-matrix power
  /// sequence, at least 1 — the per-pattern buffer length in blocks.
  std::vector<std::size_t> preperiod_;
  std::size_t lam_ = 1;        ///< max forward-matrix power pre-period
  std::size_t scale_ = 0;      ///< L0: candidate-window / claim-margin scale
  std::size_t domin_ = 0;      ///< D: seed domination radius (0 when unary)
  std::size_t orient_ell_ = 0; ///< ell-orientation scale (undirected only)
  std::size_t radius_ = 0;     ///< structured-regime view radius
};

}  // namespace lclpath
