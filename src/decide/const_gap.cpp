#include "decide/const_gap.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

namespace lclpath {

namespace {

/// A deduplicated signature: the row/column reachability vectors that
/// fully determine a periodic labeling's gluing behavior.
struct Signature {
  BitVector row;  ///< e_{c.last} * N(w)^L
  BitVector col;  ///< (N(w)^L * A(w0)) restricted to column c.first

  bool operator==(const Signature&) const = default;
};

struct SignatureHash {
  std::size_t operator()(const Signature& s) const {
    return hash_mix(s.row.hash(), s.col.hash());
  }
};

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

  // Pumped-power matrices per element. The per-element loops below do
  // O(log L) dense products or O(|monoid|) vector products per iteration,
  // so they read the clock every iteration: an amortized checkpoint would
  // read it once per 4096 elements — seconds apart at beta ~ 200.
  std::vector<BitMatrix> pow_l(n_elems);
  std::vector<BitMatrix> pow_l_a(n_elems);  // N^L * A(first)
  for (std::size_t e = 0; e < n_elems; ++e) {
    budget_check(budget);
    pow_l[e] = monoid.element(e).fwd.power(L);
    pow_l_a[e] = pow_l[e] * ts.step(monoid.element(e).first);
  }

  // Path-endpoint aggregates (only used for path topologies).
  // allowed_left[e][x] = for every gap element u (and the empty gap), a
  // path prefix can reach the label x at the start of the fixed region of
  // a pattern-e component; computed as an AND of reachability vectors.
  std::vector<BitVector> allowed_left;
  // right_ok[e][y] = from last label y, the pumped buffer and every
  // possible end gap (including the empty one) can be completed.
  std::vector<std::vector<char>> right_ok;
  // row vectors per (element, last label): e_y * N^L.
  std::vector<std::vector<BitVector>> row_of(n_elems);
  for (std::size_t e = 0; e < n_elems; ++e) {
    row_of[e].reserve(beta);
    for (Label y = 0; y < beta; ++y) {
      row_of[e].push_back(BitVector::unit(beta, y).multiplied(pow_l[e]));
    }
  }

  if (!cycle) {
    allowed_left.resize(n_elems);
    right_ok.assign(n_elems, std::vector<char>(beta, 1));
    for (std::size_t e = 0; e < n_elems; ++e) {
      budget_check(budget);
      BitVector allowed = BitVector::ones(beta);
      for (std::size_t u = 0; u < n_elems; ++u) {
        allowed = allowed & monoid.element(u).pvec.multiplied(pow_l_a[e]);
        if (!allowed.any()) break;
      }
      // Empty gap: the component's buffer starts at the path's first node.
      BitVector empty_gap = monoid.element(e).pvec;  // prefix vector of one period
      if (L >= 2) empty_gap = empty_gap.multiplied(monoid.element(e).fwd.power(L - 1));
      empty_gap = empty_gap.multiplied(ts.step(monoid.element(e).first));
      allowed_left[e] = allowed & empty_gap;

      for (Label y = 0; y < beta; ++y) {
        budget_check(budget);
        const BitVector& row = row_of[e][y];
        const BitVector& last = ts.last_mask();
        bool ok = (row & last).any();  // empty end gap
        for (std::size_t u = 0; u < n_elems && ok; ++u) {
          ok = (row.multiplied(monoid.element(u).fwd) & last).any();
        }
        right_ok[e][y] = ok ? 1 : 0;
      }
    }
  }

  // Candidate periodic boundaries and their signatures per element.
  struct Candidate {
    PeriodicChoice pair;
    std::size_t sig = 0;      ///< forward signature id
    std::size_t sig_rev = 0;  ///< signature of the reversed placement (undirected)
  };
  std::vector<Signature> signatures;
  std::unordered_map<Signature, std::size_t, SignatureHash> sig_index;
  auto intern_sig = [&](Signature&& s) {
    auto it = sig_index.find(s);
    if (it != sig_index.end()) return it->second;
    const std::size_t id = signatures.size();
    sig_index.emplace(s, id);
    signatures.push_back(std::move(s));
    return id;
  };

  auto make_sig = [&](std::size_t e, Label first, Label last) {
    Signature s;
    s.row = row_of[e][last];
    BitVector col(beta);
    for (Label x = 0; x < beta; ++x) col.set(x, pow_l_a[e].get(x, first));
    s.col = std::move(col);
    return intern_sig(std::move(s));
  };

  std::vector<std::vector<Candidate>> candidates(n_elems);
  for (std::size_t e = 0; e < n_elems; ++e) {
    const MonoidElement& elem = monoid.element(e);
    const std::size_t erev = monoid.reversed_index(e);
    for (Label x = 0; x < beta; ++x) {
      budget_checkpoint(budget);
      for (Label y = 0; y < beta; ++y) {
        // Valid periodic labeling boundary: anchored chain x -> y plus the
        // wrap edge (y, x).
        if (!elem.anchored.get(x, y)) continue;
        if (!problem.edge_ok(y, x)) continue;
        if (!cycle) {
          if (!allowed_left[e].get(x)) continue;
          if (!right_ok[e][y]) continue;
          // The reversed placement faces the path ends too.
          if (!directed) {
            if (!allowed_left[erev].get(y)) continue;
            if (!right_ok[erev][x]) continue;
          }
        }
        Candidate c;
        c.pair = PeriodicChoice{x, y};
        c.sig = make_sig(e, x, y);
        c.sig_rev = directed ? c.sig : make_sig(erev, y, x);
        candidates[e].push_back(c);
      }
    }
    if (candidates[e].empty()) return cert;  // no periodic labeling: infeasible
  }

  // Signature compatibility: sig1 placed left, sig2 placed right, across
  // every reachable middle element and the empty middle.
  const std::size_t n_sigs = signatures.size();
  // reach[s][u] = row(s) * fwd(u), cached.
  std::vector<std::vector<BitVector>> reach(n_sigs);
  for (std::size_t s = 0; s < n_sigs; ++s) {
    budget_check(budget);
    reach[s].reserve(n_elems);
    for (std::size_t u = 0; u < n_elems; ++u) {
      reach[s].push_back(signatures[s].row.multiplied(monoid.element(u).fwd));
    }
  }
  std::vector<std::vector<char>> compat(n_sigs, std::vector<char>(n_sigs, 0));
  for (std::size_t s1 = 0; s1 < n_sigs; ++s1) {
    for (std::size_t s2 = 0; s2 < n_sigs; ++s2) {
      budget_checkpoint(budget);
      bool ok = signatures[s1].row.intersects(signatures[s2].col);  // empty middle
      for (std::size_t u = 0; u < n_elems && ok; ++u) {
        ok = reach[s1][u].intersects(signatures[s2].col);
      }
      compat[s1][s2] = ok ? 1 : 0;
    }
  }

  // Variables: orbits {e, rev(e)} (directed problems: orbits are
  // singletons in effect since sig_rev == sig). Each candidate contributes
  // the oriented signature set {sig, sig_rev}; a selection is feasible iff
  // the union of chosen oriented signatures is pairwise compatible
  // (ordered, including self-pairs).
  // Directed problems have no reversed placements: every element is its
  // own variable. Undirected problems choose per {e, rev(e)} orbit with
  // the reversed labeling tied to the forward one.
  std::vector<std::size_t> orbit_reps;
  for (std::size_t e = 0; e < n_elems; ++e) {
    if (directed || monoid.reversed_index(e) >= e) orbit_reps.push_back(e);
  }
  // Deduplicate orbits by their candidate signature-set profile.
  struct Profile {
    std::vector<std::pair<std::size_t, std::size_t>> options;  // (sig, sig_rev)
    std::vector<std::size_t> members;                          // orbit reps sharing it
    std::vector<PeriodicChoice> pairs;                         // parallel to options
  };
  std::vector<Profile> profiles;
  {
    std::unordered_map<std::size_t, std::vector<std::size_t>> by_hash;
    for (std::size_t rep : orbit_reps) {
      std::vector<std::pair<std::size_t, std::size_t>> options;
      std::vector<PeriodicChoice> pairs;
      for (const Candidate& c : candidates[rep]) {
        options.emplace_back(c.sig, c.sig_rev);
        pairs.push_back(c.pair);
      }
      std::size_t h = hash_mix(0x9A, options.size());
      for (auto& [a, b] : options) h = hash_mix(hash_mix(h, a), b);
      bool merged = false;
      for (std::size_t idx : by_hash[h]) {
        if (profiles[idx].options == options) {
          profiles[idx].members.push_back(rep);
          merged = true;
          break;
        }
      }
      if (!merged) {
        by_hash[h].push_back(profiles.size());
        profiles.push_back(Profile{std::move(options), {rep}, std::move(pairs)});
      }
    }
  }

  // Backtracking over profiles: maintain the set of chosen signature ids;
  // a new candidate is admissible if its oriented signatures are
  // compatible with themselves and with everything chosen.
  std::vector<int> profile_choice(profiles.size(), -1);
  std::vector<std::size_t> chosen_sigs;
  auto sig_fits = [&](std::size_t s) {
    if (!compat[s][s]) return false;
    for (std::size_t t : chosen_sigs) {
      if (!compat[s][t] || !compat[t][s]) return false;
    }
    return true;
  };
  const auto try_profiles = [&](auto&& self, std::size_t i) -> bool {
    if (i == profiles.size()) return true;
    for (std::size_t k = 0; k < profiles[i].options.size(); ++k) {
      budget_checkpoint(budget);
      const auto [sf, sr] = profiles[i].options[k];
      if (!sig_fits(sf)) continue;
      const std::size_t saved = chosen_sigs.size();
      chosen_sigs.push_back(sf);
      bool ok = sr == sf || (sig_fits(sr) && compat[sf][sr] && compat[sr][sf]);
      if (ok && sr != sf) chosen_sigs.push_back(sr);
      if (ok && self(self, i + 1)) {
        profile_choice[i] = static_cast<int>(k);
        return true;
      }
      chosen_sigs.resize(saved);
    }
    return false;
  };
  if (!try_profiles(try_profiles, 0)) return cert;

  // Materialize the per-element choices. Profile members share the chosen
  // *signature*, but each element realizes it with its own boundary pair.
  cert.feasible = true;
  cert.choice_per_element.assign(n_elems, PeriodicChoice{});
  std::vector<char> assigned(n_elems, 0);
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const auto chosen_sig = profiles[i].options[static_cast<std::size_t>(profile_choice[i])];
    for (std::size_t rep : profiles[i].members) {
      PeriodicChoice pair{};
      bool found = false;
      for (const Candidate& c : candidates[rep]) {
        if (std::pair(c.sig, c.sig_rev) == chosen_sig) {
          pair = c.pair;
          found = true;
          break;
        }
      }
      if (!found) {
        throw std::logic_error("decide_const_gap: profile member lacks the chosen sig");
      }
      cert.choice_per_element[rep] = pair;
      assigned[rep] = 1;
      if (!directed) {
        const std::size_t rev = monoid.reversed_index(rep);
        if (!assigned[rev]) {
          cert.choice_per_element[rev] = PeriodicChoice{pair.last, pair.first};
          assigned[rev] = 1;
        }
      }
    }
  }
  return cert;
}

}  // namespace lclpath
