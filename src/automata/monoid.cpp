#include "automata/monoid.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <unordered_map>

namespace lclpath {

namespace {

constexpr std::size_t kNoParent = std::numeric_limits<std::size_t>::max();

/// data_hash() decomposed over component hashes, so the reversal map can
/// combine already-computed component hashes instead of re-hashing (or
/// re-materializing) any element. Must stay in sync with
/// MonoidElement::data_hash().
std::size_t combine_hashes(Label first, Label last, std::size_t fwd_h, std::size_t rev_h,
                           std::size_t anchored_h, std::size_t anchored_rev_h,
                           std::size_t pvec_h, std::size_t pvec_rev_h) {
  std::size_t h = hash_mix(first, last);
  h = hash_mix(h, fwd_h);
  h = hash_mix(h, rev_h);
  h = hash_mix(h, anchored_h);
  h = hash_mix(h, anchored_rev_h);
  h = hash_mix(h, pvec_h);
  h = hash_mix(h, pvec_rev_h);
  return h;
}

/// True iff `candidate` carries exactly the data of `e` reversed.
bool same_data_reversed(const MonoidElement& candidate, const MonoidElement& e) {
  return candidate.first == e.last && candidate.last == e.first &&
         candidate.fwd == e.rev && candidate.rev == e.fwd &&
         candidate.anchored == e.anchored_rev && candidate.anchored_rev == e.anchored &&
         candidate.pvec == e.pvec_rev && candidate.pvec_rev == e.pvec;
}

}  // namespace

void throw_monoid_budget_overflow(std::size_t max_elements) {
  throw MonoidBudgetError(max_elements);
}

bool MonoidElement::same_data(const MonoidElement& other) const {
  return first == other.first && last == other.last && fwd == other.fwd &&
         rev == other.rev && anchored == other.anchored &&
         anchored_rev == other.anchored_rev && pvec == other.pvec &&
         pvec_rev == other.pvec_rev;
}

std::size_t MonoidElement::data_hash() const {
  return combine_hashes(first, last, fwd.hash(), rev.hash(), anchored.hash(),
                        anchored_rev.hash(), pvec.hash(), pvec_rev.hash());
}

Monoid Monoid::enumerate(const TransitionSystem& ts, std::size_t max_elements,
                         const ExecutionBudget* budget) {
  Monoid monoid;
  monoid.ts_ = ts;
  const std::size_t num_inputs = ts.num_inputs();
  const std::size_t beta = ts.num_outputs();

  // Per-element storage charged against a memory-limited budget: the
  // element itself, plus the heap words of its four beta x beta bit
  // matrices (only beyond 8 outputs) and two beta bit vectors (only beyond
  // 64); smaller ones live inline.
  const std::size_t words_per_row = (beta + 63) / 64;
  const std::size_t element_bytes =
      sizeof(MonoidElement) + (beta > 8 ? 4 * beta * words_per_row * 8 : 0) +
      (beta > 64 ? 2 * words_per_row * 8 : 0);

  // Reversed-data hash of each element (combined from the same component
  // hashes as the forward hash, at intern time); consumed by the reversal
  // pass below and discarded afterwards.
  std::vector<std::size_t> rev_hash;
  // data_hash() -> element indices, for interning; also discarded once the
  // reversal map is built, so a cached monoid does not carry it.
  std::unordered_map<std::size_t, std::vector<std::size_t>> by_hash;

  // One scratch element holds every probe; only *fresh* probes are moved
  // into elements_ (and the scratch re-allocated), so the ~|M| x |Sigma|
  // duplicate probes of the BFS cost zero allocations.
  auto make_scratch = [beta] {
    MonoidElement e;
    e.fwd = BitMatrix(beta);
    e.rev = BitMatrix(beta);
    e.anchored = BitMatrix(beta);
    e.anchored_rev = BitMatrix(beta);
    e.pvec = BitVector(beta);
    e.pvec_rev = BitVector(beta);
    return e;
  };
  MonoidElement probe = make_scratch();

  // Looks up `probe` under its precomputed hash; on a miss interns it
  // (recording hashes and the BFS parent link) and resets the scratch.
  auto intern = [&](std::size_t hash, std::size_t reversed_hash, std::size_t parent,
                    Label sigma) -> std::pair<std::size_t, bool> {
    auto it = by_hash.find(hash);
    if (it != by_hash.end()) {
      for (std::size_t index : it->second) {
        if (monoid.elements_[index].same_data(probe)) return {index, false};
      }
    }
    const std::size_t index = monoid.elements_.size();
    by_hash[hash].push_back(index);
    rev_hash.push_back(reversed_hash);
    monoid.parent_.emplace_back(parent, sigma);
    monoid.elements_.push_back(std::move(probe));
    probe = make_scratch();
    if (monoid.elements_.size() > max_elements) {
      throw_monoid_budget_overflow(max_elements);
    }
    budget_charge_memory(budget, element_bytes);
    return {index, true};
  };

  auto hash_probe = [&probe](std::size_t& forward, std::size_t& reversed) {
    const std::size_t fwd_h = probe.fwd.hash();
    const std::size_t rev_h = probe.rev.hash();
    const std::size_t anchored_h = probe.anchored.hash();
    const std::size_t anchored_rev_h = probe.anchored_rev.hash();
    const std::size_t pvec_h = probe.pvec.hash();
    const std::size_t pvec_rev_h = probe.pvec_rev.hash();
    forward = combine_hashes(probe.first, probe.last, fwd_h, rev_h, anchored_h,
                             anchored_rev_h, pvec_h, pvec_rev_h);
    reversed = combine_hashes(probe.last, probe.first, rev_h, fwd_h, anchored_rev_h,
                              anchored_h, pvec_rev_h, pvec_h);
  };

  monoid.symbol_index_.assign(num_inputs, 0);
  for (Label sigma = 0; sigma < num_inputs; ++sigma) {
    probe.fwd = ts.step(sigma);
    probe.rev = ts.step(sigma);
    probe.anchored = ts.anchored(sigma);
    probe.anchored_rev = ts.anchored(sigma);
    probe.pvec = ts.start_first(sigma);
    probe.pvec_rev = ts.start_first(sigma);
    probe.first = sigma;
    probe.last = sigma;
    std::size_t h = 0;
    std::size_t rh = 0;
    hash_probe(h, rh);
    monoid.symbol_index_[sigma] = intern(h, rh, kNoParent, sigma).first;
  }

  // BFS. Elements are interned (and therefore queued) in index order, so
  // the pop sequence is 0, 1, 2, ... and the extend table — whose entries
  // are exactly the intern results of the probes — is appended row by row
  // in the same sweep; no second pass re-multiplies anything.
  monoid.extend_table_.reserve(monoid.elements_.size() * num_inputs);
  for (std::size_t index = 0; index < monoid.elements_.size(); ++index) {
    for (Label sigma = 0; sigma < num_inputs; ++sigma) {
      budget_checkpoint(budget);
      // Reads of src complete before intern() may grow elements_.
      const MonoidElement& src = monoid.elements_[index];
      src.fwd.multiply_into(ts.step(sigma), probe.fwd);
      ts.step(sigma).multiply_into(src.rev, probe.rev);  // N((w s)^R) = A(s) N(w^R)
      src.anchored.multiply_into(ts.step(sigma), probe.anchored);
      ts.anchored(sigma).multiply_into(src.rev, probe.anchored_rev);
      src.pvec.multiply_into(ts.step(sigma), probe.pvec);
      // prefix of (w sigma)^R
      ts.start_first(sigma).multiply_into(src.rev, probe.pvec_rev);
      probe.first = src.first;
      probe.last = sigma;
      std::size_t h = 0;
      std::size_t rh = 0;
      hash_probe(h, rh);
      monoid.extend_table_.push_back(intern(h, rh, index, sigma).first);
    }
  }

  // Reversal map, from the cached reversed-data hashes: the reverse of a
  // reachable word is reachable, so every bucket probe must land.
  monoid.reversed_.assign(monoid.elements_.size(), 0);
  for (std::size_t index = 0; index < monoid.elements_.size(); ++index) {
    const MonoidElement& e = monoid.elements_[index];
    bool found = false;
    auto it = by_hash.find(rev_hash[index]);
    if (it != by_hash.end()) {
      for (std::size_t candidate : it->second) {
        if (same_data_reversed(monoid.elements_[candidate], e)) {
          monoid.reversed_[index] = candidate;
          found = true;
          break;
        }
      }
    }
    if (!found) {
      throw std::logic_error("Monoid::enumerate: reversal map hit an unknown element");
    }
  }
  // The BFS grew these one element at a time; monoids live on in caches.
  monoid.elements_.shrink_to_fit();
  monoid.parent_.shrink_to_fit();
  return monoid;
}

std::size_t Monoid::extend(std::size_t element, Label sigma) const {
  return extend_table_[element * ts_.num_inputs() + sigma];
}

std::size_t Monoid::of_symbol(Label sigma) const { return symbol_index_[sigma]; }

std::size_t Monoid::of_word(const Word& w) const {
  if (w.empty()) throw std::invalid_argument("Monoid::of_word: empty word");
  std::size_t index = of_symbol(w[0]);
  for (std::size_t i = 1; i < w.size(); ++i) index = extend(index, w[i]);
  return index;
}

Word Monoid::witness(std::size_t element) const {
  Word w;
  std::size_t index = element;
  while (true) {
    w.push_back(parent_[index].second);
    if (parent_[index].first == kNoParent) break;
    index = parent_[index].first;
  }
  std::reverse(w.begin(), w.end());
  return w;
}

std::size_t Monoid::reversed_index(std::size_t element) const { return reversed_[element]; }

std::vector<std::size_t> Monoid::layer_at(std::size_t length) const {
  if (length == 0) throw std::invalid_argument("Monoid::layer_at: length must be >= 1");
  // The layer-set sequence S_1, S_2, ... evolves by a deterministic map on
  // subsets, so it is eventually periodic; memoize sets until a repeat.
  auto step_layer = [this](const std::vector<std::size_t>& layer) {
    std::vector<char> seen(elements_.size(), 0);
    std::vector<std::size_t> next;
    for (std::size_t index : layer) {
      for (Label sigma = 0; sigma < ts_.num_inputs(); ++sigma) {
        const std::size_t extended = extend(index, sigma);
        if (!seen[extended]) {
          seen[extended] = 1;
          next.push_back(extended);
        }
      }
    }
    std::sort(next.begin(), next.end());
    return next;
  };
  auto hash_layer = [](const std::vector<std::size_t>& layer) {
    std::size_t h = hash_mix(0x77, layer.size());
    for (std::size_t index : layer) h = hash_mix(h, index);
    return h;
  };

  std::vector<std::size_t> current;
  for (Label sigma = 0; sigma < ts_.num_inputs(); ++sigma) current.push_back(of_symbol(sigma));
  std::sort(current.begin(), current.end());
  current.erase(std::unique(current.begin(), current.end()), current.end());

  std::vector<std::vector<std::size_t>> history = {current};
  std::unordered_map<std::size_t, std::vector<std::size_t>> seen_at;  // hash -> indices
  seen_at[hash_layer(current)].push_back(0);

  for (std::size_t l = 1; l < length; ++l) {
    current = step_layer(current);
    // Repeat detection.
    const std::size_t h = hash_layer(current);
    auto it = seen_at.find(h);
    if (it != seen_at.end()) {
      for (std::size_t prev : it->second) {
        if (history[prev] == current) {
          // Sequence cycles: history[i] holds the layer of length i+1,
          // and the (not yet stored) current layer of length l+1 equals
          // history[prev].
          const std::size_t target = length - 1;  // history index wanted
          if (target == l) return current;
          if (target < l) return history[target];
          const std::size_t period = l - prev;
          return history[prev + ((target - prev) % period)];
        }
      }
    }
    history.push_back(current);
    seen_at[h].push_back(l);
  }
  return history[length - 1];
}

std::size_t Monoid::layer_stabilization() const {
  // Same deterministic subset walk as layer_at, run to its first repeat:
  // history[i] = layer of length i + 1, with history[l] == history[prev]
  // establishing preperiod `prev` and period `l - prev`. The answer only
  // needs indices up to prev + period + 2, all resolvable through the
  // modular fold.
  auto step_layer = [this](const std::vector<std::size_t>& layer) {
    std::vector<char> seen(elements_.size(), 0);
    std::vector<std::size_t> next;
    for (std::size_t index : layer) {
      for (Label sigma = 0; sigma < ts_.num_inputs(); ++sigma) {
        const std::size_t extended = extend(index, sigma);
        if (!seen[extended]) {
          seen[extended] = 1;
          next.push_back(extended);
        }
      }
    }
    std::sort(next.begin(), next.end());
    return next;
  };

  std::vector<std::size_t> current;
  for (Label sigma = 0; sigma < ts_.num_inputs(); ++sigma) current.push_back(of_symbol(sigma));
  std::sort(current.begin(), current.end());
  current.erase(std::unique(current.begin(), current.end()), current.end());

  std::vector<std::vector<std::size_t>> history = {current};
  std::size_t prev = 0;
  std::size_t period = 0;
  while (period == 0) {
    current = step_layer(current);
    for (std::size_t i = 0; i < history.size(); ++i) {
      if (history[i] == current) {
        prev = i;
        period = history.size() - i;
        break;
      }
    }
    if (period == 0) history.push_back(current);
  }
  auto layer_of = [&](std::size_t length) -> const std::vector<std::size_t>& {
    const std::size_t index = length - 1;
    if (index < history.size()) return history[index];
    return history[prev + ((index - prev) % period)];
  };
  for (std::size_t k = 1; k <= prev + period; ++k) {
    if (layer_of(k) == layer_of(k + 2)) return k;
  }
  return static_cast<std::size_t>(-1);  // cycle longer than 2
}

std::vector<std::pair<std::size_t, Word>> Monoid::layer_witnesses(std::size_t length) const {
  // BFS over (element) per layer, keeping one witness word of each exact
  // length. Lengths used by callers are bounded by the feasibility
  // machinery's context length; for very large lengths, build a witness by
  // pumping instead (callers use pump_to_length).
  std::vector<std::pair<std::size_t, Word>> layer;
  for (Label sigma = 0; sigma < ts_.num_inputs(); ++sigma) {
    layer.emplace_back(of_symbol(sigma), Word{sigma});
  }
  {
    std::vector<char> seen(elements_.size(), 0);
    std::vector<std::pair<std::size_t, Word>> dedup;
    for (auto& [e, w] : layer) {
      if (!seen[e]) {
        seen[e] = 1;
        dedup.emplace_back(e, std::move(w));
      }
    }
    layer = std::move(dedup);
  }
  for (std::size_t l = 2; l <= length; ++l) {
    std::vector<char> seen(elements_.size(), 0);
    std::vector<std::pair<std::size_t, Word>> next;
    for (const auto& [e, w] : layer) {
      for (Label sigma = 0; sigma < ts_.num_inputs(); ++sigma) {
        const std::size_t extended = extend(e, sigma);
        if (!seen[extended]) {
          seen[extended] = 1;
          Word nw = w;
          nw.push_back(sigma);
          next.emplace_back(extended, std::move(nw));
        }
      }
    }
    layer = std::move(next);
  }
  return layer;
}

std::vector<std::vector<std::size_t>> Monoid::layers(std::size_t max_length) const {
  std::vector<std::vector<std::size_t>> layers;
  layers.reserve(max_length);
  std::vector<char> in_layer(elements_.size(), 0);

  std::vector<std::size_t> current;
  for (Label sigma = 0; sigma < ts_.num_inputs(); ++sigma) {
    const std::size_t index = of_symbol(sigma);
    if (!in_layer[index]) {
      in_layer[index] = 1;
      current.push_back(index);
    }
  }
  for (std::size_t index : current) in_layer[index] = 0;
  layers.push_back(current);

  for (std::size_t length = 2; length <= max_length; ++length) {
    std::vector<std::size_t> next;
    for (std::size_t index : layers.back()) {
      for (Label sigma = 0; sigma < ts_.num_inputs(); ++sigma) {
        const std::size_t extended = extend(index, sigma);
        if (!in_layer[extended]) {
          in_layer[extended] = 1;
          next.push_back(extended);
        }
      }
    }
    for (std::size_t index : next) in_layer[index] = 0;
    layers.push_back(std::move(next));
  }
  return layers;
}

}  // namespace lclpath
