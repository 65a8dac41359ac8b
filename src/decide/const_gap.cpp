#include "decide/const_gap.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <utility>

#include "core/id_slots.hpp"

namespace lclpath {

namespace {

/// A deduplicated signature: the row/column reachability vectors that
/// fully determine a periodic labeling's gluing behavior.
struct Signature {
  BitVector row;  ///< e_{c.last} * N(w)^L
  BitVector col;  ///< (N(w)^L * A(w0)) restricted to column c.first

  bool operator==(const Signature&) const = default;
  std::size_t hash() const { return hash_mix(row.hash(), col.hash()); }
};

/// A valid periodic boundary of one element with its signature ids.
struct Candidate {
  PeriodicChoice pair;
  std::size_t sig = 0;      ///< forward signature id
  std::size_t sig_rev = 0;  ///< signature of the reversed placement (undirected)

  bool same_sigs(const Candidate& other) const {
    return sig == other.sig && sig_rev == other.sig_rev;
  }
};

/// Per monoid element: the pumped tables the checks read, the path
/// endpoint filters, its candidate range and its profile.
struct ElementTables {
  BitMatrix pow_l_a;  ///< N(w)^L * A(first)
  BitMatrix fwd_t;    ///< fwd(w)^T
  /// Paths only. allowed_left[x] = for every gap element u (and the empty
  /// gap), a path prefix can reach label x at the start of the fixed
  /// region of a pattern-e component; right_ok[y] = from last label y, the
  /// pumped buffer and every end gap (including the empty one) complete.
  BitVector allowed_left;
  BitVector right_ok;
  std::size_t cand_begin = 0;  ///< candidates[cand_begin, cand_end)
  std::size_t cand_end = 0;
  std::size_t profile = kNoId;  ///< orbit representatives only
};

/// Compacts vectors[begin, end) in place to its inclusion-minimal members,
/// each once. A vector meets every member of the range iff it meets every
/// kept one, and the AND of v * M over the range equals the AND over the
/// kept ones: a subset's product is a subset of its superset's product.
void keep_minimal(std::vector<BitVector>& vectors, std::size_t begin,
                  const ExecutionBudget* budget) {
  const auto first = vectors.begin() + static_cast<std::ptrdiff_t>(begin);
  std::sort(first, vectors.end(),
            [](const BitVector& a, const BitVector& b) { return a.count() < b.count(); });
  // Ascending size: a vector is dropped iff some kept one is contained in
  // it (that covers duplicates and every earlier, smaller subset).
  std::size_t kept = begin;
  for (std::size_t i = begin; i < vectors.size(); ++i) {
    budget_checkpoint(budget);
    const auto below = [&](const BitVector& m) { return m.subset_of(vectors[i]); };
    if (std::any_of(first, vectors.begin() + static_cast<std::ptrdiff_t>(kept), below)) {
      continue;
    }
    if (kept != i) vectors[kept] = std::move(vectors[i]);
    ++kept;
  }
  vectors.resize(kept);
}

bool meets_all(const BitVector& v, std::span<const BitVector> targets) {
  return std::all_of(targets.begin(), targets.end(),
                     [&](const BitVector& t) { return v.intersects(t); });
}

}  // namespace

ConstGapCertificate decide_const_gap(const Monoid& monoid,
                                     const ExecutionBudget* budget) {
  ConstGapCertificate cert;
  const TransitionSystem& ts = monoid.transitions();
  const PairwiseProblem& problem = ts.problem();
  const bool cycle = is_cycle(problem.topology());
  const bool directed = is_directed(problem.topology());
  const std::size_t beta = ts.num_outputs();
  const std::size_t n_elems = monoid.size();

  cert.ell_ctx = monoid.size() + 5;
  const std::uint64_t L = cert.ell_ctx;

  // Pumped-power tables per element. The per-element loops do O(log L)
  // dense products per iteration, so they read the clock every iteration:
  // an amortized checkpoint would read it once per 4096 elements —
  // seconds apart at beta ~ 200. row_of[e * beta + y] = e_y * N^L, the
  // row vector per (element, last label).
  std::vector<ElementTables> elements(n_elems);
  std::vector<BitVector> row_of(n_elems * beta);
  for (std::size_t e = 0; e < n_elems; ++e) {
    budget_check(budget);
    const MonoidElement& elem = monoid.element(e);
    ElementTables& tables = elements[e];
    const BitMatrix pow_l_minus_1 = elem.fwd.power(L - 1);  // L = |M| + 5 >= 2
    const BitMatrix pow_l = pow_l_minus_1 * elem.fwd;
    for (Label y = 0; y < beta; ++y) {
      row_of[e * beta + y] = BitVector::unit(beta, y).multiplied(pow_l);
    }
    tables.pow_l_a = pow_l * ts.step(elem.first);
    tables.fwd_t = elem.fwd.transposed();
    if (!cycle) {
      // pvec * N^(L-1) * A(first): a component whose buffer starts at the
      // path's first node (empty gap). The loop below ANDs the rest in.
      tables.allowed_left =
          elem.pvec.multiplied(pow_l_minus_1).multiplied(ts.step(elem.first));
    }
  }

  // Every "for each gap/middle element u" condition below sees u only
  // through one vector it generates — the prefix vector pvec(u), or
  // fwd(u) * v^T for a fixed v, since (r * fwd(u)) * v^T =
  // r * (v * fwd(u)^T)^T — so it is checked against the distinct,
  // inclusion-minimal such vectors (at most min(|monoid|, 2^beta)),
  // computed once instead of once per element, label and signature.

  if (!cycle) {
    // One table: the minimal prefix vectors, then the minimal end vectors.
    // A row completes through end gap u iff it meets fwd(u) * last^T; the
    // empty end gap needs it to meet last itself.
    const BitVector& last = ts.last_mask();
    std::vector<BitVector> targets;
    targets.reserve(2 * n_elems + 1);
    for (std::size_t u = 0; u < n_elems; ++u) targets.push_back(monoid.element(u).pvec);
    keep_minimal(targets, 0, budget);
    const std::size_t n_prefixes = targets.size();
    targets.push_back(last);
    for (std::size_t u = 0; u < n_elems; ++u) {
      targets.push_back(last.multiplied(elements[u].fwd_t));
    }
    keep_minimal(targets, n_prefixes, budget);
    const std::span<const BitVector> prefixes(targets.data(), n_prefixes);
    const std::span<const BitVector> ends(targets.data() + n_prefixes,
                                          targets.size() - n_prefixes);

    for (std::size_t e = 0; e < n_elems; ++e) {
      budget_check(budget);
      ElementTables& tables = elements[e];
      BitVector allowed = BitVector::ones(beta);
      for (const BitVector& prefix : prefixes) {
        allowed &= prefix.multiplied(tables.pow_l_a);
        if (!allowed.any()) break;
      }
      tables.allowed_left &= allowed;

      tables.right_ok = BitVector(beta);
      for (Label y = 0; y < beta; ++y) {
        budget_check(budget);
        if (meets_all(row_of[e * beta + y], ends)) tables.right_ok.set(y, true);
      }
    }
  }

  // Candidate periodic boundaries per element: anchored chain x -> y plus
  // the wrap edge (y, x), and on paths the end filters — for the reversed
  // placement too on undirected paths. Counted first so the flat
  // candidate table is allocated once.
  const auto valid_pair = [&](std::size_t e, std::size_t erev, Label x, Label y) {
    if (!monoid.element(e).anchored.get(x, y) || !problem.edge_ok(y, x)) return false;
    if (cycle) return true;
    if (!elements[e].allowed_left.get(x) || !elements[e].right_ok.get(y)) return false;
    return directed || (elements[erev].allowed_left.get(y) && elements[erev].right_ok.get(x));
  };
  std::size_t n_candidates = 0;
  for (std::size_t e = 0; e < n_elems; ++e) {
    const std::size_t erev = monoid.reversed_index(e);
    for (Label x = 0; x < beta; ++x) {
      budget_checkpoint(budget);
      for (Label y = 0; y < beta; ++y) n_candidates += valid_pair(e, erev, x, y) ? 1 : 0;
    }
  }

  // Signatures in first-seen order (forward, then reversed, per candidate).
  std::vector<Candidate> candidates;
  candidates.reserve(n_candidates);
  const std::size_t max_sigs = directed ? n_candidates : 2 * n_candidates;
  std::vector<Signature> signatures;
  signatures.reserve(max_sigs);
  std::vector<std::size_t> slots;  // first-seen id lookup (core/id_slots.hpp)
  reset_id_slots(slots, max_sigs);
  const auto make_sig = [&](std::size_t e, Label first, Label last) {
    Signature s;
    s.row = row_of[e * beta + last];
    s.col = BitVector(beta);
    for (Label x = 0; x < beta; ++x) s.col.set(x, elements[e].pow_l_a.get(x, first));
    const std::size_t id = find_or_add_id(slots, s.hash(), signatures.size(),
                                          [&](std::size_t t) { return signatures[t] == s; });
    if (id == signatures.size()) signatures.push_back(std::move(s));
    return id;
  };
  for (std::size_t e = 0; e < n_elems; ++e) {
    const std::size_t erev = monoid.reversed_index(e);
    elements[e].cand_begin = candidates.size();
    for (Label x = 0; x < beta; ++x) {
      budget_checkpoint(budget);
      for (Label y = 0; y < beta; ++y) {
        if (!valid_pair(e, erev, x, y)) continue;
        Candidate c;
        c.pair = PeriodicChoice{x, y};
        c.sig = make_sig(e, x, y);
        c.sig_rev = directed ? c.sig : make_sig(erev, y, x);
        candidates.push_back(c);
      }
    }
    elements[e].cand_end = candidates.size();
    if (elements[e].cand_begin == elements[e].cand_end) {
      return cert;  // no periodic labeling: infeasible
    }
  }
  const auto candidates_of = [&](std::size_t e) {
    return std::span<const Candidate>(candidates.data() + elements[e].cand_begin,
                                      elements[e].cand_end - elements[e].cand_begin);
  };

  // Signature compatibility: sig1 placed left, sig2 placed right, across
  // every reachable middle element and the empty middle. row(s1) glues to
  // col(s2) iff it meets every vector of back(col(s2)) = {col(s2)} ∪
  // {col(s2) * fwd(u)^T}, built once per distinct column; a signature
  // whose column was seen before copies that signature's compat column.
  // compat[s1 * n_sigs + s2].
  const std::size_t n_sigs = signatures.size();
  std::vector<char> compat(n_sigs * n_sigs, 0);
  {
    std::vector<BitVector> back;
    back.reserve(n_elems + 1);
    reset_id_slots(slots, n_sigs);
    for (std::size_t s2 = 0; s2 < n_sigs; ++s2) {
      budget_check(budget);
      const BitVector& col = signatures[s2].col;
      const std::size_t seen = find_or_add_id(
          slots, col.hash(), s2, [&](std::size_t t) { return signatures[t].col == col; });
      if (seen != s2) {
        for (std::size_t s1 = 0; s1 < n_sigs; ++s1) {
          compat[s1 * n_sigs + s2] = compat[s1 * n_sigs + seen];
        }
        continue;
      }
      back.clear();
      back.push_back(col);
      for (std::size_t u = 0; u < n_elems; ++u) back.push_back(col.multiplied(elements[u].fwd_t));
      keep_minimal(back, 0, budget);
      for (std::size_t s1 = 0; s1 < n_sigs; ++s1) {
        budget_checkpoint(budget);
        compat[s1 * n_sigs + s2] = meets_all(signatures[s1].row, back) ? 1 : 0;
      }
    }
  }
  const auto glues = [&](std::size_t s1, std::size_t s2) {
    return compat[s1 * n_sigs + s2] != 0;
  };

  // Variables: orbits {e, rev(e)}. Directed problems have no reversed
  // placements (sig_rev == sig): every element is its own variable.
  // Undirected problems choose per orbit with the reversed labeling tied
  // to the forward one. Each candidate contributes the oriented signature
  // set {sig, sig_rev}; a selection is feasible iff the union of chosen
  // oriented signatures is pairwise compatible (ordered, including
  // self-pairs). Orbit representatives with equal candidate signature
  // lists share one profile, in first-seen order; profile_rep[i] is the
  // first representative of profile i.
  const auto is_rep = [&](std::size_t e) {
    return directed || monoid.reversed_index(e) >= e;
  };
  std::vector<std::size_t> profile_rep;
  reset_id_slots(slots, n_elems);
  for (std::size_t rep = 0; rep < n_elems; ++rep) {
    if (!is_rep(rep)) continue;
    const std::span<const Candidate> options = candidates_of(rep);
    std::size_t h = hash_mix(0x9A, options.size());
    for (const Candidate& c : options) h = hash_mix(hash_mix(h, c.sig), c.sig_rev);
    const std::size_t profile =
        find_or_add_id(slots, h, profile_rep.size(), [&](std::size_t i) {
          return std::ranges::equal(candidates_of(profile_rep[i]), options,
                                    &Candidate::same_sigs);
        });
    if (profile == profile_rep.size()) profile_rep.push_back(rep);
    elements[rep].profile = profile;
  }

  // Backtracking over profiles: maintain the set of chosen signature ids;
  // a new candidate is admissible if its oriented signatures are
  // compatible with themselves and with everything chosen.
  const std::size_t n_profiles = profile_rep.size();
  std::vector<std::size_t> profile_choice(n_profiles, 0);
  std::vector<std::size_t> chosen_sigs;
  chosen_sigs.reserve(2 * n_profiles);
  const auto sig_fits = [&](std::size_t s) {
    if (!glues(s, s)) return false;
    return std::ranges::all_of(chosen_sigs,
                               [&](std::size_t t) { return glues(s, t) && glues(t, s); });
  };
  const auto try_profiles = [&](auto&& self, std::size_t i) -> bool {
    if (i == n_profiles) return true;
    const std::span<const Candidate> options = candidates_of(profile_rep[i]);
    for (std::size_t k = 0; k < options.size(); ++k) {
      budget_checkpoint(budget);
      const std::size_t sf = options[k].sig;
      const std::size_t sr = options[k].sig_rev;
      if (!sig_fits(sf)) continue;
      const std::size_t saved = chosen_sigs.size();
      chosen_sigs.push_back(sf);
      const bool ok = sr == sf || (sig_fits(sr) && glues(sf, sr) && glues(sr, sf));
      if (ok && sr != sf) chosen_sigs.push_back(sr);
      if (ok && self(self, i + 1)) {
        profile_choice[i] = k;
        return true;
      }
      chosen_sigs.resize(saved);
    }
    return false;
  };
  if (!try_profiles(try_profiles, 0)) return cert;

  // Materialize the per-element choices. Profile members share the chosen
  // *signature*, but each element realizes it with its own boundary pair;
  // the reversed element of an undirected orbit takes the reversed pair.
  cert.feasible = true;
  cert.choice_per_element.assign(n_elems, PeriodicChoice{});
  for (std::size_t rep = 0; rep < n_elems; ++rep) {
    if (!is_rep(rep)) continue;
    const std::size_t i = elements[rep].profile;
    const Candidate& chosen = candidates_of(profile_rep[i])[profile_choice[i]];
    const std::span<const Candidate> own = candidates_of(rep);
    const auto it = std::ranges::find_if(
        own, [&](const Candidate& c) { return c.same_sigs(chosen); });
    if (it == own.end()) {
      throw std::logic_error("decide_const_gap: profile member lacks the chosen sig");
    }
    cert.choice_per_element[rep] = it->pair;
    const std::size_t rev = monoid.reversed_index(rep);
    if (!directed && rev != rep) {
      cert.choice_per_element[rev] = PeriodicChoice{it->pair.last, it->pair.first};
    }
  }
  return cert;
}

}  // namespace lclpath
