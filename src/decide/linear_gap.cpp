#include "decide/linear_gap.hpp"

#include <algorithm>
#include <iterator>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/id_slots.hpp"

namespace lclpath {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

[[noreturn]] void throw_point_not_in_domain() {
  throw std::logic_error("LinearGapCertificate::value_at: point not in domain");
}

/// Position of `element` in the sorted, duplicate-free context list, or
/// kNone if it is not a context.
std::size_t context_position(const std::vector<std::size_t>& contexts, std::size_t element) {
  const auto it = std::lower_bound(contexts.begin(), contexts.end(), element);
  if (it == contexts.end() || *it != element) return kNone;
  return static_cast<std::size_t>(it - contexts.begin());
}

}  // namespace

BlockPoint BlockPoint::reversed(const Monoid& monoid) const {
  BlockKind k = kind;
  if (k == BlockKind::kLeftEnd) {
    k = BlockKind::kRightEnd;
  } else if (k == BlockKind::kRightEnd) {
    k = BlockKind::kLeftEnd;
  }
  return BlockPoint{k, monoid.reversed_index(right), s1, s0, monoid.reversed_index(left)};
}

// ---------------------------------------------------------------------------
// LazyFeasibleFunction — the search's class-level solution,
// resolved per point on demand.
// ---------------------------------------------------------------------------

class LazyFeasibleFunction {
 public:
  /// Problem shape.
  bool cycle = true;
  std::size_t alpha = 0;  ///< |Sigma_in|
  std::size_t beta = 0;   ///< |Sigma_out|

  /// Sorted, duplicate-free context element list; a context's position
  /// in it is its index into the tables below.
  std::vector<std::size_t> contexts;
  /// Context quotient (see FactorizedSearch::build_classes).
  std::vector<std::size_t> ctx_class;  ///< [position] -> class
  std::vector<std::size_t> ctx_pair;   ///< [position] -> (class, rev class) pair

  /// Final per-(pair, input) candidate filters derived from the solved
  /// caps, flat as in the search: p[pair][s0] = valid va set,
  /// q[pair][s1] = valid vb set.
  std::vector<BitVector> p;
  std::vector<BitVector> q;
  /// Endpoint filters (paths only): prefix_ok[class][s0] = va set of a
  /// kLeftEnd block, suffix_ok[class] = vb set of a kRightEnd block.
  std::vector<BitVector> prefix_ok;
  std::vector<BitVector> suffix_ok;
  /// cand[s0][s1] = local candidate filter node(s0,va) & node(s1,vb) &
  /// edge(va,vb).
  std::vector<BitMatrix> cand;

  std::size_t at(std::size_t k, Label s) const { return k * alpha + s; }

  std::size_t domain_size() const {
    const std::size_t kinds = cycle ? 1 : 3;
    return kinds * contexts.size() * contexts.size() * alpha * alpha;
  }

  bool contains(const BlockPoint& point) const {
    if (cycle && point.kind != BlockKind::kInterior) return false;
    if (point.s0 >= alpha || point.s1 >= alpha) return false;
    return context_position(contexts, point.left) != kNone &&
           context_position(contexts, point.right) != kNone;
  }

  BlockValue value_at(const BlockPoint& point) const {
    if ((cycle && point.kind != BlockKind::kInterior) || point.s0 >= alpha ||
        point.s1 >= alpha) {
      throw_point_not_in_domain();
    }
    const std::size_t left = context_position(contexts, point.left);
    const std::size_t right = context_position(contexts, point.right);
    if (left == kNone || right == kNone) throw_point_not_in_domain();
    return value_for(point.kind, left, point.s0, point.s1, right);
  }

  /// The chosen value of the domain point (kind, contexts[l], s0, s1,
  /// contexts[r]). Depends on the contexts only through their class (end
  /// filters) or pair (interior filters), so the first-valid scan runs
  /// once per class tuple and is memoized; lookups are O(1) afterwards.
  /// Thread-safe: the memo is the only mutable state; hits take a shared
  /// lock (concurrent simulator lookups in the batch pool don't serialize)
  /// and first resolution scans the immutable tables outside any lock —
  /// racing resolvers compute the same value, and the loser's emplace is a
  /// no-op.
  BlockValue value_for(BlockKind kind, std::size_t l, Label s0, Label s1,
                       std::size_t r) const {
    const std::size_t key_l =
        kind == BlockKind::kLeftEnd ? ctx_class[l] : ctx_pair[l];
    const std::size_t key_r =
        kind == BlockKind::kRightEnd ? ctx_class[r] : ctx_pair[r];
    const std::size_t stride = contexts.size() + 1;  // > every class and pair id
    const std::uint64_t key =
        (((static_cast<std::uint64_t>(kind) * stride + key_l) * alpha + s0) * alpha +
         s1) *
            stride +
        key_r;
    {
      std::shared_lock<std::shared_mutex> lock(memo_mutex_);
      auto it = memo_.find(key);
      if (it != memo_.end()) return it->second;
    }
    const BitVector& va_set =
        kind == BlockKind::kLeftEnd ? prefix_ok[at(key_l, s0)] : p[at(key_l, s0)];
    const BitVector& vb_set =
        kind == BlockKind::kRightEnd ? suffix_ok[key_r] : q[at(key_r, s1)];
    const BitMatrix& pairs = cand[at(s0, s1)];
    for (Label va = 0; va < beta; ++va) {
      if (!va_set.get(va)) continue;
      for (Label vb = 0; vb < beta; ++vb) {
        if (!pairs.get(va, vb) || !vb_set.get(vb)) continue;
        const BlockValue value{va, vb};
        std::lock_guard<std::shared_mutex> write(memo_mutex_);
        memo_.emplace(key, value);
        return value;
      }
    }
    throw std::logic_error("decide_linear_gap: factorized certificate extraction failed");
  }

  void for_each_point(
      const std::function<void(const BlockPoint&, const BlockValue&)>& fn) const {
    auto emit_kind = [&](BlockKind kind) {
      for (std::size_t l = 0; l < contexts.size(); ++l) {
        for (Label s0 = 0; s0 < alpha; ++s0) {
          for (Label s1 = 0; s1 < alpha; ++s1) {
            for (std::size_t r = 0; r < contexts.size(); ++r) {
              const BlockPoint point{kind, contexts[l], s0, s1, contexts[r]};
              fn(point, value_for(kind, l, s0, s1, r));
            }
          }
        }
      }
    };
    emit_kind(BlockKind::kInterior);
    if (!cycle) {
      emit_kind(BlockKind::kLeftEnd);
      emit_kind(BlockKind::kRightEnd);
    }
  }

 private:
  mutable std::shared_mutex memo_mutex_;
  mutable std::unordered_map<std::uint64_t, BlockValue> memo_;
};

// ---------------------------------------------------------------------------
// LinearGapCertificate — a shared, immutable class-level solution.
// ---------------------------------------------------------------------------

std::size_t LinearGapCertificate::domain_size() const {
  return function_ != nullptr ? function_->domain_size() : 0;
}

bool LinearGapCertificate::contains(const BlockPoint& point) const {
  return function_ != nullptr && function_->contains(point);
}

BlockValue LinearGapCertificate::value_at(const BlockPoint& point) const {
  if (function_ == nullptr) throw_point_not_in_domain();
  return function_->value_at(point);
}

void LinearGapCertificate::for_each_point(
    const std::function<void(const BlockPoint&, const BlockValue&)>& fn) const {
  if (function_ != nullptr) function_->for_each_point(fn);
}

void LinearGapCertificate::adopt(std::shared_ptr<const LazyFeasibleFunction> function) {
  function_ = std::move(function);
}

LinearGapContexts linear_gap_contexts(const Monoid& monoid) {
  LinearGapContexts contexts;
  contexts.ell_ctx = monoid.size() + 5;
  const LayerCycle layers = monoid.layer_cycle();
  const std::span<const std::size_t> layer = layers.at(contexts.ell_ctx);
  const std::span<const std::size_t> next = layers.at(contexts.ell_ctx + 1);
  contexts.elements.reserve(layer.size() + next.size());
  std::ranges::set_union(layer, next, std::back_inserter(contexts.elements));
  return contexts;
}

namespace {

// =====================================================================
// The factorized search
//
// The pair constraint between p1 (left role, value v1) and p2 (right role,
// value v2) is G(p1.right, p2.left, p2.s0)[sym1][sym2] for every symbol
// sym1 the p1 side can present rightwards and every sym2 the p2 side can
// present leftwards, where G(e1, e2, s0) = fwd(e1) * fwd(e2) * A(s0). On
// directed topologies sym1 = v1.b and sym2 = v2.a; on undirected ones the
// reversed placements add sym1 = value(rho(p1)).a and sym2 =
// value(rho(p2)).b through the *same* G (rho = point reversal).
//
// So an assignment is consistent iff its *realized aggregate sets*
//
//   emit(e)       = all right-facing symbols presented at right-context e
//   accept(e, s0) = all left-facing symbols presented at (left-context e,
//                   first block input s0)
//
// are pairwise glued: forall e1, (e2, s0): emit(e1) x accept(e2, s0)
// subset G(e1, e2, s0). A point's value feeds these sets only through its
// own classes and (undirected) its reversed point's classes:
//
//   left role:  v.b -> emit(p.right)   and  v.b -> accept(rev(p.right), p.s1)
//   right role: v.a -> accept(p.left, p.s0)  and  v.a -> emit(rev(p.left))
//
// (the second member of each line only on undirected topologies). Since
// every (context, s0) combination is realized by some interior point, a
// solution's realized sets are nonempty everywhere; and since the glued
// property is inherited by subsets, feasibility is equivalent to the
// existence of *cap* tables — one symbol set per aggregate class — that
// are pairwise glued and under which every domain point keeps at least one
// candidate value. The search below runs entirely over caps:
//
//   1. start from all-ones caps;
//   2. shrink: recompute each cap as the union of the projections of the
//      candidate values still valid under the caps (arc consistency over
//      the quotient spaces), failing if any point class loses all
//      candidates;
//   3. support pruning: drop an emitted symbol with an empty glue row
//      against some accept cap, and an accepted symbol no emitted symbol
//      of some context glues with (dense support counting);
//   4. at the fixpoint, any remaining violation emit(e1) !subset-glued
//      accept(e2, s0) is a two-way branch: forbid the emitted symbol or
//      the accepted one. Each branch removes one cap bit, so the search
//      tree is finite and in practice shallow.
//
// Everything is O(|classes|^2 * |Sigma_in| * beta) bit-vector work per
// pass — independent of the number of domain points (|contexts|^2 *
// |Sigma_in|^2 * 3), which is what makes lifted undirected problems
// classifiable at all. |classes| <= |contexts|: the search only reads a
// context through its fwd matrix, its prefix vector (paths) and the class
// of its reversal, so contexts equal on those are quotiented into one
// class (their caps stay equal through every pass, and a conflict branch
// that removes a symbol removes it class-wide — complete, because a
// symbol surviving at any member re-creates the same conflict).
//
// Layout: each table is one flat vector (one allocation while beta <= 64
// keeps BitVector inline); [k][s] is row at(k, s), [k][s0][s1] row
// at(k, s0, s1). The caps hold class k's emit row, then its alpha accept
// rows, so a branch frame saves them with one copy.
// =====================================================================

/// A gluing violation surviving the propagation fixpoint: emitted symbol
/// sym1 at contexts[c1] does not glue with accepted symbol sym2 at
/// (contexts[c2], s0). Exactly one of the two symbols must go.
struct GlueConflict {
  std::size_t c1 = 0;
  std::size_t c2 = 0;
  Label s0 = 0;
  Label sym1 = 0;
  Label sym2 = 0;
};

/// The search state: symbol caps per class, rows at emit_at / accept_at.
using AggregateCaps = std::vector<BitVector>;

class FactorizedSearch {
 public:
  explicit FactorizedSearch(const Monoid& monoid,
                            const ExecutionBudget* budget = nullptr)
      : budget_(budget),
        monoid_(monoid),
        ts_(monoid.transitions()),
        problem_(ts_.problem()),
        cycle_(is_cycle(problem_.topology())),
        directed_(is_directed(problem_.topology())),
        beta_(ts_.num_outputs()),
        alpha_(ts_.num_inputs()),
        contexts_(linear_gap_contexts(monoid)) {
    build_classes();
    build_tables();
  }

  LinearGapCertificate run() {
    LinearGapCertificate cert;
    cert.ell_ctx = contexts_.ell_ctx;

    AggregateCaps caps(n_cls_ * (1 + alpha_), BitVector::ones(beta_));

    // Depth-first over conflict branches, iterative (PR-1 lesson: one
    // stack frame per decision can get deep on lifted problems). Popped
    // frames stay in `stack` and a later branch at their depth reuses
    // their cap storage; stack[0, depth) are the live ones.
    struct BranchFrame {
      AggregateCaps saved;
      GlueConflict conflict;
      bool tried_accept = false;
    };
    std::vector<BranchFrame> stack;
    std::size_t depth = 0;
    while (true) {
      budget_checkpoint(budget_);
      std::optional<GlueConflict> conflict;
      const bool alive = propagate(caps, conflict);
      if (alive && !conflict) {
        cert.feasible = true;
        cert.adopt(solution(caps));
        return cert;
      }
      if (alive) {
        if (depth == stack.size()) stack.emplace_back();
        BranchFrame& frame = stack[depth++];
        frame.saved = caps;  // same shape: copies into the frame's storage
        frame.conflict = *conflict;
        frame.tried_accept = false;
        caps[emit_at(conflict->c1)].set(conflict->sym1, false);
        continue;
      }
      // Dead end: take the deepest branch whose accept side is untried.
      while (depth > 0 && stack[depth - 1].tried_accept) --depth;
      if (depth == 0) return cert;  // infeasible
      BranchFrame& frame = stack[depth - 1];
      frame.tried_accept = true;
      caps = frame.saved;
      caps[accept_at(frame.conflict.c2, frame.conflict.s0)].set(frame.conflict.sym2, false);
    }
  }

 private:
  const ExecutionBudget* budget_;
  const Monoid& monoid_;
  const TransitionSystem& ts_;
  const PairwiseProblem& problem_;
  const bool cycle_;
  const bool directed_;
  const std::size_t beta_;
  const std::size_t alpha_;
  LinearGapContexts contexts_;

  /// Context quotient, two levels. Caps and glue tables live on *classes*
  /// (equal fwd matrix + equal prefix vector on paths); the per-point
  /// value filters additionally depend on the class of the reversed
  /// context, so they live on the distinct (class, reversed class) *pairs*
  /// actually realized by some context.
  std::vector<std::size_t> ctx_class_;  ///< [context] -> class
  std::vector<std::size_t> cls_rep_;    ///< [class] -> a representative context
  std::size_t n_cls_ = 0;
  std::vector<std::size_t> ctx_pair_;   ///< [context] -> pair id
  std::vector<std::pair<std::size_t, std::size_t>> pairs_;  ///< (class, rev class)
  std::vector<std::size_t> rev_pair_;   ///< [pair (k, k')] -> pair (k', k)
  std::size_t n_pairs_ = 0;

  /// row(k, sym) = e_sym * fwd(class k).
  std::vector<BitVector> row_;
  /// head_[k][s0] = fwd(class k) * A(s0); a glue row is then
  /// row(k1, sym1) * head_[k2][s0] — no per-(k1,k2,s0) matrix is stored.
  std::vector<BitMatrix> head_;
  /// cand_[at(s0, s1)][va][vb] = candidate filter node(s0,va) &
  /// node(s1,vb) & edge(va,vb); cand_t_ is its transpose.
  std::vector<BitMatrix> cand_;
  std::vector<BitMatrix> cand_t_;
  /// Endpoint filters (paths only): va sets passing the prefix check per
  /// (left class, s0); vb sets passing the suffix check per right class.
  std::vector<BitVector> prefix_ok_;  ///< [class][s0]
  std::vector<BitVector> suffix_ok_;  ///< [class]
  /// Cap-independent endpoint projections: lend_b_[l][s0][s1] = b-symbols
  /// of candidates whose va passes the prefix filter; rend_a_[r][s0][s1] =
  /// a-symbols of candidates whose vb passes the suffix filter.
  std::vector<BitVector> lend_b_;
  std::vector<BitVector> rend_a_;

  // Per-pass scratch (allocated once; recomputed from caps each pass).
  std::vector<BitVector> p_;      ///< [pair][s0]: va filter
  std::vector<BitVector> q_;      ///< [pair][s1]: vb filter
  std::vector<BitVector> xb_;     ///< [pair][s0][s1]
  std::vector<BitVector> ya_;     ///< [pair][s0][s1]
  AggregateCaps new_caps_;        ///< the shrunk caps, before they replace caps
  std::vector<BitVector> all_b_;  ///< [s1]
  std::vector<BitVector> all_a_;  ///< [s0]
  BitVector row_scratch_;
  BitVector mask_scratch_;
  BitVector glued_scratch_;
  BitVector all_ones_;  ///< ones(beta_), copied into glued_scratch_ per glue triple

  std::size_t at(std::size_t k, Label s) const { return k * alpha_ + s; }
  std::size_t at(std::size_t k, Label s0, Label s1) const { return at(k, s0) * alpha_ + s1; }
  const BitVector& row(std::size_t k, std::size_t sym) const { return row_[k * beta_ + sym]; }
  /// Cap rows: class k's emit caps, then its accept caps per first input s0.
  std::size_t emit_at(std::size_t k) const { return k * (1 + alpha_); }
  std::size_t accept_at(std::size_t k, Label s0) const { return emit_at(k) + 1 + s0; }

  void build_classes() {
    // Classes: equal fwd matrix (and, on paths, equal prefix vector — the
    // only other per-context data any table reads), numbered in first-seen
    // context order.
    const std::size_t n_ctx = contexts_.elements.size();
    const auto element_of = [&](std::size_t c) -> const MonoidElement& {
      return monoid_.element(contexts_.elements[c]);
    };
    std::vector<std::size_t> slots;  // first-seen id lookup (core/id_slots.hpp)
    reset_id_slots(slots, n_ctx);
    ctx_class_.assign(n_ctx, 0);
    for (std::size_t c = 0; c < n_ctx; ++c) {
      const MonoidElement& elem = element_of(c);
      std::size_t h = elem.fwd.hash();
      if (!cycle_) h = hash_mix(h, elem.pvec.hash());
      const std::size_t k = find_or_add_id(slots, h, cls_rep_.size(), [&](std::size_t k) {
        const MonoidElement& rep = element_of(cls_rep_[k]);
        return rep.fwd == elem.fwd && (cycle_ || rep.pvec == elem.pvec);
      });
      if (k == cls_rep_.size()) cls_rep_.push_back(c);
      ctx_class_[c] = k;
    }
    n_cls_ = cls_rep_.size();

    // Pairs: (class, class of the reversed context). Directed problems
    // never read the reversal, so every class is its own pair (and
    // rev_pair_ stays empty).
    if (directed_) {
      ctx_pair_ = ctx_class_;
      for (std::size_t k = 0; k < n_cls_; ++k) pairs_.emplace_back(k, k);
      n_pairs_ = n_cls_;
      return;
    }
    const auto pair_hash = [](std::size_t k, std::size_t krev) {
      return hash_mix(hash_mix(0x9A1, k), krev);
    };
    reset_id_slots(slots, n_ctx);
    ctx_pair_.assign(n_ctx, 0);
    for (std::size_t c = 0; c < n_ctx; ++c) {
      const std::size_t reversed_element = monoid_.reversed_index(contexts_.elements[c]);
      const std::size_t reversed = context_position(contexts_.elements, reversed_element);
      if (reversed == kNone) {
        throw std::logic_error("decide_linear_gap: reversed context missing");
      }
      const auto key = std::pair(ctx_class_[c], ctx_class_[reversed]);
      const std::size_t id =
          find_or_add_id(slots, pair_hash(key.first, key.second), pairs_.size(),
                         [&](std::size_t i) { return pairs_[i] == key; });
      if (id == pairs_.size()) pairs_.push_back(key);
      ctx_pair_[c] = id;
    }
    n_pairs_ = pairs_.size();
    rev_pair_.resize(n_pairs_);
    for (std::size_t i = 0; i < n_pairs_; ++i) {
      // (k', k) is realized by the reversal of any context realizing (k, k').
      const auto key = std::pair(pairs_[i].second, pairs_[i].first);
      rev_pair_[i] = find_id(slots, pair_hash(key.first, key.second),
                             [&](std::size_t j) { return pairs_[j] == key; });
      if (rev_pair_[i] == kNoId) {
        throw std::logic_error("decide_linear_gap: reversed pair missing");
      }
    }
  }

  void build_tables() {
    row_.reserve(n_cls_ * beta_);
    head_.reserve(n_cls_ * alpha_);
    for (std::size_t k = 0; k < n_cls_; ++k) {
      const BitMatrix& fwd = monoid_.element(contexts_.elements[cls_rep_[k]]).fwd;
      for (Label sym = 0; sym < beta_; ++sym) {
        row_.push_back(BitVector::unit(beta_, sym).multiplied(fwd));
      }
      for (Label s0 = 0; s0 < alpha_; ++s0) head_.push_back(fwd * ts_.step(s0));
    }

    cand_.reserve(alpha_ * alpha_);
    cand_t_.reserve(alpha_ * alpha_);
    for (Label s0 = 0; s0 < alpha_; ++s0) {
      for (Label s1 = 0; s1 < alpha_; ++s1) {
        BitMatrix m(beta_);
        for (Label va = 0; va < beta_; ++va) {
          for (Label vb = 0; vb < beta_; ++vb) {
            m.set(va, vb, problem_.node_ok(s0, va) && problem_.node_ok(s1, vb) &&
                          problem_.edge_ok(va, vb));
          }
        }
        cand_t_.push_back(m.transposed());
        cand_.push_back(std::move(m));
      }
    }

    if (!cycle_) {
      prefix_ok_.assign(n_cls_ * alpha_, BitVector());
      suffix_ok_.assign(n_cls_, BitVector(beta_));
      lend_b_.assign(n_cls_ * alpha_ * alpha_, BitVector());
      rend_a_ = lend_b_;
      for (std::size_t k = 0; k < n_cls_; ++k) {
        const MonoidElement& elem = monoid_.element(contexts_.elements[cls_rep_[k]]);
        for (Label vb = 0; vb < beta_; ++vb) {
          if (row(k, vb).intersects(ts_.last_mask())) suffix_ok_[k].set(vb, true);
        }
        for (Label s0 = 0; s0 < alpha_; ++s0) {
          prefix_ok_[at(k, s0)] = elem.pvec.multiplied(ts_.step(s0));
          for (Label s1 = 0; s1 < alpha_; ++s1) {
            lend_b_[at(k, s0, s1)] = prefix_ok_[at(k, s0)].multiplied(cand_[at(s0, s1)]);
            rend_a_[at(k, s0, s1)] = suffix_ok_[k].multiplied(cand_t_[at(s0, s1)]);
          }
        }
      }
    }

    p_.assign(n_pairs_ * alpha_, BitVector(beta_));
    q_ = p_;
    xb_.assign(n_pairs_ * alpha_ * alpha_, BitVector(beta_));
    ya_ = xb_;
    new_caps_.assign(n_cls_ * (1 + alpha_), BitVector(beta_));
    all_b_.assign(alpha_, BitVector(beta_));
    all_a_.assign(alpha_, BitVector(beta_));
    row_scratch_ = BitVector(beta_);
    mask_scratch_ = BitVector(beta_);
    glued_scratch_ = BitVector(beta_);
    all_ones_ = BitVector::ones(beta_);
  }

  /// Per-point value filters implied by the caps: a candidate (va, vb) of
  /// an interior point (l, s0, s1, r) is valid iff va in p_[at(pair(l), s0)]
  /// and vb in q_[at(pair(r), s1)] (end blocks drop the side that faces the
  /// path end).
  void derive_filters(const AggregateCaps& caps) {
    for (std::size_t i = 0; i < n_pairs_; ++i) {
      const auto [k, krev] = pairs_[i];
      for (Label s = 0; s < alpha_; ++s) {
        p_[at(i, s)] = caps[accept_at(k, s)];
        q_[at(i, s)] = caps[emit_at(k)];
        if (!directed_) {
          p_[at(i, s)] &= caps[emit_at(krev)];
          q_[at(i, s)] &= caps[accept_at(krev, s)];
        }
      }
    }
  }

  /// One arc-consistency pass over the quotient spaces: checks that every
  /// point class keeps a candidate under the caps, then shrinks each cap
  /// to the union of the surviving candidates' projections. Returns false
  /// on a dead point class or an emptied cap; sets `changed` if any cap
  /// lost a bit.
  bool shrink_pass(AggregateCaps& caps, bool& changed) {
    derive_filters(caps);
    for (std::size_t i = 0; i < n_pairs_; ++i) {
      budget_checkpoint(budget_);
      for (Label s0 = 0; s0 < alpha_; ++s0) {
        for (Label s1 = 0; s1 < alpha_; ++s1) {
          p_[at(i, s0)].multiply_into(cand_[at(s0, s1)], xb_[at(i, s0, s1)]);
          q_[at(i, s1)].multiply_into(cand_t_[at(s0, s1)], ya_[at(i, s0, s1)]);
        }
      }
    }

    // Realizability: every (l, s0, s1, r) combination is a domain point of
    // every applicable kind, so every pair-class combination must keep a
    // candidate.
    for (Label s0 = 0; s0 < alpha_; ++s0) {
      for (Label s1 = 0; s1 < alpha_; ++s1) {
        for (std::size_t l = 0; l < n_pairs_; ++l) {
          budget_checkpoint(budget_);
          const BitVector& xb = xb_[at(l, s0, s1)];
          for (std::size_t r = 0; r < n_pairs_; ++r) {
            if (!xb.intersects(q_[at(r, s1)])) return false;  // interior died
          }
        }
        if (cycle_) continue;
        for (std::size_t l = 0; l < n_cls_; ++l) {
          const BitVector& lb = lend_b_[at(l, s0, s1)];
          for (std::size_t r = 0; r < n_pairs_; ++r) {
            if (!lb.intersects(q_[at(r, s1)])) return false;  // left end died
          }
        }
        for (std::size_t r = 0; r < n_cls_; ++r) {
          const BitVector& ra = rend_a_[at(r, s0, s1)];
          for (std::size_t l = 0; l < n_pairs_; ++l) {
            if (!ra.intersects(p_[at(l, s0)])) return false;  // right end died
          }
        }
      }
    }

    // Aggregate unions of valid projections across all partner classes.
    for (Label s = 0; s < alpha_; ++s) {
      all_b_[s].clear();
      all_a_[s].clear();
    }
    for (Label s0 = 0; s0 < alpha_; ++s0) {
      for (Label s1 = 0; s1 < alpha_; ++s1) {
        for (std::size_t i = 0; i < n_pairs_; ++i) {
          all_b_[s1] |= xb_[at(i, s0, s1)];
          all_a_[s0] |= ya_[at(i, s0, s1)];
        }
        if (!cycle_) {
          for (std::size_t k = 0; k < n_cls_; ++k) {
            all_b_[s1] |= lend_b_[at(k, s0, s1)];
            all_a_[s0] |= rend_a_[at(k, s0, s1)];
          }
        }
      }
    }

    // New caps = union of valid contributions over every context of a
    // class, grouped by (class, rev class) pairs; always a subset of the
    // old caps.
    for (BitVector& cap : new_caps_) cap.clear();
    for (std::size_t i = 0; i < n_pairs_; ++i) {
      const std::size_t k = pairs_[i].first;
      BitVector& new_emit = new_caps_[emit_at(k)];
      for (Label s1 = 0; s1 < alpha_; ++s1) new_emit |= q_[at(i, s1)] & all_b_[s1];
      for (Label s0 = 0; s0 < alpha_; ++s0) {
        new_caps_[accept_at(k, s0)] |= p_[at(i, s0)] & all_a_[s0];
        if (!directed_) {
          // Contributions routed through reversed points: the a-symbol of
          // a right-role point lands in emit(rev(left)), the b-symbol of a
          // left-role point in accept(rev(right), s1); seen from class k
          // these are the reversed pair's filters.
          new_emit |= p_[at(rev_pair_[i], s0)] & all_a_[s0];
          new_caps_[accept_at(k, s0)] |= q_[at(rev_pair_[i], s0)] & all_b_[s0];
        }
      }
    }
    // Row order is class by class, emit before accept(s0 = 0, 1, ...).
    for (std::size_t i = 0; i < caps.size(); ++i) {
      if (!(new_caps_[i] == caps[i])) {
        changed = true;
        caps[i] = new_caps_[i];
      }
      if (!new_caps_[i].any()) return false;
    }
    return true;
  }

  /// Dense support pruning over the glue tables: an emitted symbol whose
  /// glue row misses an accept cap entirely can never be used (some
  /// accepting point would die), and an accepted symbol no emitted symbol
  /// of some context glues with is equally dead. Returns false when a cap
  /// empties; sets `changed` on any prune.
  ///
  /// The same sweep finds the branch point. It ANDs each (c1, c2, s0)
  /// triple's glue rows into glued_by_all; the first triple whose accept
  /// cap is not inside it is a gluing violation, recorded as `conflict`
  /// with sym2 = its lowest unglued accepted symbol and sym1 = the lowest
  /// emitted symbol that does not glue with sym2. The conflict is dropped
  /// if the pass changed a cap: only a pass that changes nothing has seen
  /// the fixpoint caps throughout.
  bool glue_prune_pass(AggregateCaps& caps, bool& changed,
                       std::optional<GlueConflict>& conflict) {
    BitVector& glue = row_scratch_;
    BitVector& support = mask_scratch_;
    BitVector& glued_by_all = glued_scratch_;
    for (std::size_t c1 = 0; c1 < n_cls_; ++c1) {
      for (std::size_t c2 = 0; c2 < n_cls_; ++c2) {
        for (Label s0 = 0; s0 < alpha_; ++s0) {
          budget_checkpoint(budget_);
          BitVector& acc = caps[accept_at(c2, s0)];
          support.clear();
          glued_by_all = all_ones_;  // same dim: no allocation
          BitVector& emit = caps[emit_at(c1)];
          for (std::size_t sym1 = emit.first_set(); sym1 < beta_;
               sym1 = emit.next_set(sym1 + 1)) {
            row(c1, sym1).multiply_into(head_[at(c2, s0)], glue);
            if (!glue.intersects(acc)) {
              emit.set(sym1, false);
              changed = true;
              if (!emit.any()) return false;
              continue;
            }
            support |= glue;
            glued_by_all &= glue;
          }
          if (!acc.subset_of(support)) {
            acc &= support;
            changed = true;
            if (!acc.any()) return false;
          }
          if (changed || conflict || acc.subset_of(glued_by_all)) continue;
          BitVector& bad = support;  // acc minus glued_by_all
          bad = acc;
          bad.remove(glued_by_all);
          const Label sym2 = static_cast<Label>(bad.first_set());
          std::size_t sym1 = emit.first_set();
          for (;; sym1 = emit.next_set(sym1 + 1)) {
            row(c1, sym1).multiply_into(head_[at(c2, s0)], glue);
            if (!glue.get(sym2)) break;
          }
          conflict = GlueConflict{c1, c2, s0, static_cast<Label>(sym1), sym2};
        }
      }
    }
    if (changed) conflict.reset();
    return true;
  }

  /// Runs shrink and glue passes to a joint fixpoint. False = dead end;
  /// otherwise `conflict` holds the fixpoint's first gluing violation in
  /// (c1, c2, s0, sym2, sym1) order, or nothing if the caps are solved.
  bool propagate(AggregateCaps& caps, std::optional<GlueConflict>& conflict) {
    while (true) {
      bool changed = false;
      if (!shrink_pass(caps, changed)) return false;
      if (changed) continue;  // the cheap pass first, to its own fixpoint
      if (!glue_prune_pass(caps, changed, conflict)) return false;
      if (!changed) return true;
    }
  }

  /// Builds the certificate's class-level solution: a
  /// LazyFeasibleFunction holding the final per-pair candidate filters
  /// (derive_filters of the solved caps), the endpoint filters, the local
  /// candidate matrices and the context quotient maps. This is the whole
  /// feasible function in O(|classes|^2 * |Sigma_in|^2) storage. Consumes
  /// the search state (run() returns right after), so the tables move
  /// instead of copying.
  std::shared_ptr<LazyFeasibleFunction> solution(const AggregateCaps& caps) {
    derive_filters(caps);
    auto fn = std::make_shared<LazyFeasibleFunction>();
    fn->cycle = cycle_;
    fn->alpha = alpha_;
    fn->beta = beta_;
    fn->contexts = std::move(contexts_.elements);
    fn->ctx_class = std::move(ctx_class_);
    fn->ctx_pair = std::move(ctx_pair_);
    fn->p = std::move(p_);
    fn->q = std::move(q_);
    fn->prefix_ok = std::move(prefix_ok_);
    fn->suffix_ok = std::move(suffix_ok_);
    fn->cand = std::move(cand_);
    return fn;
  }
};

}  // namespace

LinearGapCertificate decide_linear_gap(const Monoid& monoid, LinearGapEngine,
                                       CertificateMode, const ExecutionBudget* budget) {
  return FactorizedSearch(monoid, budget).run();
}

std::size_t linear_gap_domain_size(const Monoid& monoid, std::size_t* num_contexts) {
  const std::size_t n = linear_gap_contexts(monoid).elements.size();
  if (num_contexts != nullptr) *num_contexts = n;
  const std::size_t alpha = monoid.transitions().num_inputs();
  const std::size_t kinds = is_cycle(monoid.transitions().problem().topology()) ? 1 : 3;
  return kinds * n * n * alpha * alpha;
}

}  // namespace lclpath
