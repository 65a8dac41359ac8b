#include "decide/linear_gap.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace lclpath {

namespace {

[[noreturn]] void throw_point_not_in_domain() {
  throw std::logic_error("LinearGapCertificate::value_at: point not in domain");
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

  /// Sorted context element list and the element -> position index.
  std::vector<std::size_t> contexts;
  std::unordered_map<std::size_t, std::size_t> ctx_pos;
  /// Context quotient (see FactorizedSearch::build_classes).
  std::vector<std::size_t> ctx_class;  ///< [position] -> class
  std::vector<std::size_t> ctx_pair;   ///< [position] -> (class, rev class) pair

  /// Final per-(pair, input) candidate filters derived from the solved
  /// caps: p[pair][s0] = valid va set, q[pair][s1] = valid vb set.
  std::vector<std::vector<BitVector>> p;
  std::vector<std::vector<BitVector>> q;
  /// Endpoint filters (paths only): prefix_ok[class][s0] = va set of a
  /// kLeftEnd block, suffix_ok[class] = vb set of a kRightEnd block.
  std::vector<std::vector<BitVector>> prefix_ok;
  std::vector<BitVector> suffix_ok;
  /// cand[s0][s1] = local candidate filter node(s0,va) & node(s1,vb) &
  /// edge(va,vb).
  std::vector<std::vector<BitMatrix>> cand;

  std::size_t domain_size() const {
    const std::size_t kinds = cycle ? 1 : 3;
    return kinds * contexts.size() * contexts.size() * alpha * alpha;
  }

  bool contains(const BlockPoint& point) const {
    if (cycle && point.kind != BlockKind::kInterior) return false;
    if (point.s0 >= alpha || point.s1 >= alpha) return false;
    return ctx_pos.contains(point.left) && ctx_pos.contains(point.right);
  }

  BlockValue value_at(const BlockPoint& point) const {
    if ((cycle && point.kind != BlockKind::kInterior) || point.s0 >= alpha ||
        point.s1 >= alpha) {
      throw_point_not_in_domain();
    }
    const auto left = ctx_pos.find(point.left);
    const auto right = ctx_pos.find(point.right);
    if (left == ctx_pos.end() || right == ctx_pos.end()) throw_point_not_in_domain();
    return value_for(point.kind, left->second, point.s0, point.s1, right->second);
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
    const std::size_t stride = std::max(p.size(), prefix_ok.size()) + 1;
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
        kind == BlockKind::kLeftEnd ? prefix_ok[key_l][s0] : p[key_l][s0];
    const BitVector& vb_set =
        kind == BlockKind::kRightEnd ? suffix_ok[key_r] : q[key_r][s1];
    const BitMatrix& pairs = cand[s0][s1];
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
  contexts.elements = monoid.layer_at(contexts.ell_ctx);
  const std::vector<std::size_t> next = monoid.layer_at(contexts.ell_ctx + 1);
  contexts.elements.insert(contexts.elements.end(), next.begin(), next.end());
  std::sort(contexts.elements.begin(), contexts.elements.end());
  contexts.elements.erase(std::unique(contexts.elements.begin(), contexts.elements.end()),
                          contexts.elements.end());
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

/// The search state: symbol caps per aggregate class. Indices are
/// positions into the sorted context-element list, not monoid elements.
struct AggregateCaps {
  std::vector<BitVector> emit;                 ///< [context] -> b-side caps
  std::vector<std::vector<BitVector>> accept;  ///< [context][s0] -> a-side caps
};

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
        contexts_(linear_gap_contexts(monoid)),
        n_ctx_(contexts_.elements.size()) {
    build_classes();
    build_tables();
  }

  LinearGapCertificate run() {
    LinearGapCertificate cert;
    cert.ell_ctx = contexts_.ell_ctx;

    AggregateCaps caps;
    caps.emit.assign(n_cls_, BitVector::ones(beta_));
    caps.accept.assign(n_cls_, std::vector<BitVector>(alpha_, BitVector::ones(beta_)));

    // Depth-first over conflict branches, iterative (PR-1 lesson: one
    // stack frame per decision can get deep on lifted problems).
    struct BranchFrame {
      AggregateCaps saved;
      GlueConflict conflict;
      bool tried_accept = false;
    };
    std::vector<BranchFrame> stack;
    while (true) {
      budget_checkpoint(budget_);
      bool alive = propagate(caps);
      GlueConflict conflict;
      bool conflicted = false;
      if (alive) conflicted = first_conflict(caps, conflict);
      if (alive && !conflicted) {
        cert.feasible = true;
        cert.adopt(solution(caps));
        return cert;
      }
      if (alive) {
        stack.push_back(BranchFrame{caps, conflict, false});
        caps.emit[conflict.c1].set(conflict.sym1, false);
        continue;
      }
      // Dead end: take the deepest branch whose accept side is untried.
      while (!stack.empty() && stack.back().tried_accept) stack.pop_back();
      if (stack.empty()) return cert;  // infeasible
      BranchFrame& frame = stack.back();
      frame.tried_accept = true;
      caps = frame.saved;
      caps.accept[frame.conflict.c2][frame.conflict.s0].set(frame.conflict.sym2, false);
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
  const std::size_t n_ctx_;

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

  /// row_[k][sym] = e_sym * fwd(class k).
  std::vector<std::vector<BitVector>> row_;
  /// head_[k][s0] = fwd(class k) * A(s0); a glue row is then
  /// row_[k1][sym1] * head_[k2][s0] — no per-(k1,k2,s0) matrix is stored.
  std::vector<std::vector<BitMatrix>> head_;
  /// cand_[s0][s1][va][vb] = candidate filter node(s0,va) & node(s1,vb) &
  /// edge(va,vb); cand_t_ is its transpose.
  std::vector<std::vector<BitMatrix>> cand_;
  std::vector<std::vector<BitMatrix>> cand_t_;
  /// Endpoint filters (paths only): va sets passing the prefix check per
  /// (left class, s0); vb sets passing the suffix check per right class.
  std::vector<std::vector<BitVector>> prefix_ok_;
  std::vector<BitVector> suffix_ok_;
  /// Cap-independent endpoint projections: lend_b_[l][s0][s1] = b-symbols
  /// of candidates whose va passes the prefix filter; rend_a_[r][s0][s1] =
  /// a-symbols of candidates whose vb passes the suffix filter.
  std::vector<std::vector<std::vector<BitVector>>> lend_b_;
  std::vector<std::vector<std::vector<BitVector>>> rend_a_;

  // Per-pass scratch (allocated once; recomputed from caps each pass).
  std::vector<std::vector<BitVector>> p_;   ///< [pair][s0]: va filter
  std::vector<std::vector<BitVector>> q_;   ///< [pair][s1]: vb filter
  std::vector<std::vector<std::vector<BitVector>>> xb_;  ///< [pair][s0][s1]
  std::vector<std::vector<std::vector<BitVector>>> ya_;  ///< [pair][s0][s1]
  std::vector<BitVector> new_emit_;                      ///< [class]
  std::vector<std::vector<BitVector>> new_accept_;       ///< [class][s0]
  std::vector<BitVector> all_b_;                         ///< [s1]
  std::vector<BitVector> all_a_;                         ///< [s0]
  BitVector row_scratch_;
  BitVector mask_scratch_;

  void build_classes() {
    // Classes: equal fwd matrix (and, on paths, equal prefix vector — the
    // only other per-context data any table reads).
    ctx_class_.assign(n_ctx_, 0);
    cls_rep_.clear();
    {
      std::unordered_map<std::size_t, std::vector<std::size_t>> buckets;
      for (std::size_t c = 0; c < n_ctx_; ++c) {
        const MonoidElement& elem = monoid_.element(contexts_.elements[c]);
        std::size_t h = elem.fwd.hash();
        if (!cycle_) h = hash_mix(h, elem.pvec.hash());
        auto& bucket = buckets[h];
        bool found = false;
        for (std::size_t k : bucket) {
          const MonoidElement& rep = monoid_.element(contexts_.elements[cls_rep_[k]]);
          if (rep.fwd == elem.fwd && (cycle_ || rep.pvec == elem.pvec)) {
            ctx_class_[c] = k;
            found = true;
            break;
          }
        }
        if (!found) {
          ctx_class_[c] = cls_rep_.size();
          bucket.push_back(cls_rep_.size());
          cls_rep_.push_back(c);
        }
      }
    }
    n_cls_ = cls_rep_.size();

    // Pairs: (class, class of the reversed context). Directed problems
    // never read the reversal, so every class is its own pair.
    ctx_pair_.assign(n_ctx_, 0);
    pairs_.clear();
    if (directed_) {
      for (std::size_t k = 0; k < n_cls_; ++k) pairs_.emplace_back(k, k);
      for (std::size_t c = 0; c < n_ctx_; ++c) ctx_pair_[c] = ctx_class_[c];
      n_pairs_ = n_cls_;
      rev_pair_.resize(n_pairs_);
      for (std::size_t i = 0; i < n_pairs_; ++i) rev_pair_[i] = i;
      return;
    }
    std::unordered_map<std::size_t, std::size_t> ctx_pos;
    for (std::size_t c = 0; c < n_ctx_; ++c) ctx_pos.emplace(contexts_.elements[c], c);
    std::map<std::pair<std::size_t, std::size_t>, std::size_t> pair_index;
    for (std::size_t c = 0; c < n_ctx_; ++c) {
      auto it = ctx_pos.find(monoid_.reversed_index(contexts_.elements[c]));
      if (it == ctx_pos.end()) {
        throw std::logic_error("decide_linear_gap: reversed context missing");
      }
      const auto key = std::pair(ctx_class_[c], ctx_class_[it->second]);
      auto [pit, inserted] = pair_index.emplace(key, pairs_.size());
      if (inserted) pairs_.push_back(key);
      ctx_pair_[c] = pit->second;
    }
    n_pairs_ = pairs_.size();
    rev_pair_.resize(n_pairs_);
    for (std::size_t i = 0; i < n_pairs_; ++i) {
      // (k', k) is realized by the reversal of any context realizing (k, k').
      auto it = pair_index.find(std::pair(pairs_[i].second, pairs_[i].first));
      if (it == pair_index.end()) {
        throw std::logic_error("decide_linear_gap: reversed pair missing");
      }
      rev_pair_[i] = it->second;
    }
  }

  void build_tables() {
    row_.resize(n_cls_);
    head_.resize(n_cls_);
    for (std::size_t k = 0; k < n_cls_; ++k) {
      const BitMatrix& fwd = monoid_.element(contexts_.elements[cls_rep_[k]]).fwd;
      row_[k].reserve(beta_);
      for (Label sym = 0; sym < beta_; ++sym) {
        row_[k].push_back(BitVector::unit(beta_, sym).multiplied(fwd));
      }
      head_[k].reserve(alpha_);
      for (Label s0 = 0; s0 < alpha_; ++s0) head_[k].push_back(fwd * ts_.step(s0));
    }

    cand_.assign(alpha_, std::vector<BitMatrix>(alpha_));
    cand_t_.assign(alpha_, std::vector<BitMatrix>(alpha_));
    for (Label s0 = 0; s0 < alpha_; ++s0) {
      for (Label s1 = 0; s1 < alpha_; ++s1) {
        BitMatrix m(beta_);
        for (Label va = 0; va < beta_; ++va) {
          if (!problem_.node_ok(s0, va)) continue;
          for (Label vb = 0; vb < beta_; ++vb) {
            if (!problem_.node_ok(s1, vb)) continue;
            if (!problem_.edge_ok(va, vb)) continue;
            m.set(va, vb, true);
          }
        }
        cand_t_[s0][s1] = m.transposed();
        cand_[s0][s1] = std::move(m);
      }
    }

    if (!cycle_) {
      prefix_ok_.assign(n_cls_, std::vector<BitVector>(alpha_));
      suffix_ok_.assign(n_cls_, BitVector(beta_));
      lend_b_.assign(n_cls_, std::vector<std::vector<BitVector>>(
                                 alpha_, std::vector<BitVector>(alpha_)));
      rend_a_ = lend_b_;
      for (std::size_t k = 0; k < n_cls_; ++k) {
        const MonoidElement& elem = monoid_.element(contexts_.elements[cls_rep_[k]]);
        for (Label vb = 0; vb < beta_; ++vb) {
          if (row_[k][vb].intersects(ts_.last_mask())) suffix_ok_[k].set(vb, true);
        }
        for (Label s0 = 0; s0 < alpha_; ++s0) {
          prefix_ok_[k][s0] = elem.pvec.multiplied(ts_.step(s0));
          for (Label s1 = 0; s1 < alpha_; ++s1) {
            lend_b_[k][s0][s1] = prefix_ok_[k][s0].multiplied(cand_[s0][s1]);
            rend_a_[k][s0][s1] = suffix_ok_[k].multiplied(cand_t_[s0][s1]);
          }
        }
      }
    }

    p_.assign(n_pairs_, std::vector<BitVector>(alpha_, BitVector(beta_)));
    q_ = p_;
    xb_.assign(n_pairs_, std::vector<std::vector<BitVector>>(
                             alpha_, std::vector<BitVector>(alpha_, BitVector(beta_))));
    ya_ = xb_;
    new_emit_.assign(n_cls_, BitVector(beta_));
    new_accept_.assign(n_cls_, std::vector<BitVector>(alpha_, BitVector(beta_)));
    all_b_.assign(alpha_, BitVector(beta_));
    all_a_.assign(alpha_, BitVector(beta_));
    row_scratch_ = BitVector(beta_);
    mask_scratch_ = BitVector(beta_);
  }

  /// Per-point value filters implied by the caps: a candidate (va, vb) of
  /// an interior point (l, s0, s1, r) is valid iff va in p_[pair(l)][s0]
  /// and vb in q_[pair(r)][s1] (end blocks drop the side that faces the
  /// path end).
  void derive_filters(const AggregateCaps& caps) {
    for (std::size_t i = 0; i < n_pairs_; ++i) {
      const auto [k, krev] = pairs_[i];
      for (Label s = 0; s < alpha_; ++s) {
        p_[i][s] = caps.accept[k][s];
        q_[i][s] = caps.emit[k];
        if (!directed_) {
          p_[i][s] &= caps.emit[krev];
          q_[i][s] &= caps.accept[krev][s];
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
          p_[i][s0].multiply_into(cand_[s0][s1], xb_[i][s0][s1]);
          q_[i][s1].multiply_into(cand_t_[s0][s1], ya_[i][s0][s1]);
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
          const BitVector& xb = xb_[l][s0][s1];
          for (std::size_t r = 0; r < n_pairs_; ++r) {
            if (!xb.intersects(q_[r][s1])) return false;  // interior died
          }
        }
        if (cycle_) continue;
        for (std::size_t l = 0; l < n_cls_; ++l) {
          const BitVector& lb = lend_b_[l][s0][s1];
          for (std::size_t r = 0; r < n_pairs_; ++r) {
            if (!lb.intersects(q_[r][s1])) return false;  // left end died
          }
        }
        for (std::size_t r = 0; r < n_cls_; ++r) {
          const BitVector& ra = rend_a_[r][s0][s1];
          for (std::size_t l = 0; l < n_pairs_; ++l) {
            if (!ra.intersects(p_[l][s0])) return false;  // right end died
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
          all_b_[s1] |= xb_[i][s0][s1];
          all_a_[s0] |= ya_[i][s0][s1];
        }
        if (!cycle_) {
          for (std::size_t k = 0; k < n_cls_; ++k) {
            all_b_[s1] |= lend_b_[k][s0][s1];
            all_a_[s0] |= rend_a_[k][s0][s1];
          }
        }
      }
    }

    // New caps = union of valid contributions over every context of a
    // class, grouped by (class, rev class) pairs; always a subset of the
    // old caps.
    for (std::size_t k = 0; k < n_cls_; ++k) {
      new_emit_[k].clear();
      for (Label s0 = 0; s0 < alpha_; ++s0) new_accept_[k][s0].clear();
    }
    for (std::size_t i = 0; i < n_pairs_; ++i) {
      const std::size_t k = pairs_[i].first;
      for (Label s1 = 0; s1 < alpha_; ++s1) new_emit_[k] |= q_[i][s1] & all_b_[s1];
      for (Label s0 = 0; s0 < alpha_; ++s0) {
        new_accept_[k][s0] |= p_[i][s0] & all_a_[s0];
        if (!directed_) {
          // Contributions routed through reversed points: the a-symbol of
          // a right-role point lands in emit(rev(left)), the b-symbol of a
          // left-role point in accept(rev(right), s1); seen from class k
          // these are the reversed pair's filters.
          new_emit_[k] |= p_[rev_pair_[i]][s0] & all_a_[s0];
          new_accept_[k][s0] |= q_[rev_pair_[i]][s0] & all_b_[s0];
        }
      }
    }
    for (std::size_t k = 0; k < n_cls_; ++k) {
      if (!(new_emit_[k] == caps.emit[k])) {
        changed = true;
        caps.emit[k] = new_emit_[k];
      }
      if (!new_emit_[k].any()) return false;
      for (Label s0 = 0; s0 < alpha_; ++s0) {
        if (!(new_accept_[k][s0] == caps.accept[k][s0])) {
          changed = true;
          caps.accept[k][s0] = new_accept_[k][s0];
        }
        if (!new_accept_[k][s0].any()) return false;
      }
    }
    return true;
  }

  /// Dense support pruning over the glue tables: an emitted symbol whose
  /// glue row misses an accept cap entirely can never be used (some
  /// accepting point would die), and an accepted symbol no emitted symbol
  /// of some context glues with is equally dead. Returns false when a cap
  /// empties; sets `changed` on any prune.
  bool glue_prune_pass(AggregateCaps& caps, bool& changed) {
    BitVector& row = row_scratch_;
    BitVector& support = mask_scratch_;
    for (std::size_t c1 = 0; c1 < n_cls_; ++c1) {
      for (std::size_t c2 = 0; c2 < n_cls_; ++c2) {
        for (Label s0 = 0; s0 < alpha_; ++s0) {
          budget_checkpoint(budget_);
          BitVector& acc = caps.accept[c2][s0];
          support.clear();
          for (Label sym1 = 0; sym1 < beta_; ++sym1) {
            if (!caps.emit[c1].get(sym1)) continue;
            row_[c1][sym1].multiply_into(head_[c2][s0], row);
            if (!row.intersects(acc)) {
              caps.emit[c1].set(sym1, false);
              changed = true;
              if (!caps.emit[c1].any()) return false;
              continue;
            }
            support |= row;
          }
          if (!acc.subset_of(support)) {
            acc &= support;
            changed = true;
            if (!acc.any()) return false;
          }
        }
      }
    }
    return true;
  }

  /// Runs shrink and glue passes to a joint fixpoint. False = dead end.
  bool propagate(AggregateCaps& caps) {
    while (true) {
      bool changed = false;
      if (!shrink_pass(caps, changed)) return false;
      if (changed) continue;  // the cheap pass first, to its own fixpoint
      if (!glue_prune_pass(caps, changed)) return false;
      if (!changed) return true;
    }
  }

  /// Scans for the first gluing violation left at the fixpoint, in
  /// deterministic (c1, c2, s0, sym2, sym1) order.
  bool first_conflict(const AggregateCaps& caps, GlueConflict& out) {
    BitVector& row = row_scratch_;
    BitVector& glued_by_all = mask_scratch_;
    for (std::size_t c1 = 0; c1 < n_cls_; ++c1) {
      for (std::size_t c2 = 0; c2 < n_cls_; ++c2) {
        for (Label s0 = 0; s0 < alpha_; ++s0) {
          budget_checkpoint(budget_);
          const BitVector& acc = caps.accept[c2][s0];
          glued_by_all = BitVector::ones(beta_);
          for (Label sym1 = 0; sym1 < beta_; ++sym1) {
            if (!caps.emit[c1].get(sym1)) continue;
            row_[c1][sym1].multiply_into(head_[c2][s0], row);
            glued_by_all &= row;
          }
          if (acc.subset_of(glued_by_all)) continue;
          BitVector bad = acc;
          bad.remove(glued_by_all);
          const Label sym2 = static_cast<Label>(bad.first_set());
          for (Label sym1 = 0; sym1 < beta_; ++sym1) {
            if (!caps.emit[c1].get(sym1)) continue;
            row_[c1][sym1].multiply_into(head_[c2][s0], row);
            if (!row.get(sym2)) {
              out = GlueConflict{c1, c2, s0, sym1, sym2};
              return true;
            }
          }
        }
      }
    }
    return false;
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
    fn->ctx_pos.reserve(n_ctx_);
    for (std::size_t c = 0; c < n_ctx_; ++c) fn->ctx_pos.emplace(fn->contexts[c], c);
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
