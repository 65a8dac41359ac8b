#include "automata/monoid.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <unordered_map>

namespace lclpath {

namespace {

constexpr std::size_t kNoIndex = std::numeric_limits<std::size_t>::max();

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

  // The intern index, discarded once the reversal map is built (a cached
  // monoid does not carry it): data_hash() -> newest element with that
  // hash, and per element links[e] = (reversed-data hash of e, next older
  // element with e's data hash or kNoIndex). Equal data is never interned
  // twice, so at most one element of a hash chain matches a probe.
  std::unordered_map<std::size_t, std::size_t> newest_with_hash;
  std::vector<std::pair<std::size_t, std::size_t>> links;

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
    const std::size_t index = monoid.elements_.size();
    auto [it, fresh] = newest_with_hash.try_emplace(hash, index);
    const std::size_t older = fresh ? kNoIndex : it->second;
    for (std::size_t other = older; other != kNoIndex; other = links[other].second) {
      if (monoid.elements_[other].same_data(probe)) return {other, false};
    }
    it->second = index;
    links.emplace_back(reversed_hash, older);
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
    monoid.symbol_index_[sigma] = intern(h, rh, kNoIndex, sigma).first;
  }

  // Each BFS probe charges the budget in proportion to its six matrix
  // products (beta rows of ceil(beta / 64) words each), so the amortized
  // checkpoint still reads the clock every few probes on wide alphabets.
  const std::size_t probe_cost = std::max<std::size_t>(6 * beta * words_per_row, 1);
  const auto probe_ticks = static_cast<std::uint32_t>(
      std::min<std::size_t>(probe_cost, std::numeric_limits<std::uint32_t>::max()));

  // BFS. Elements are interned (and therefore queued) in index order, so
  // the pop sequence is 0, 1, 2, ... and the extend table — whose entries
  // are exactly the intern results of the probes — is appended row by row
  // in the same sweep; no second pass re-multiplies anything.
  monoid.extend_table_.reserve(monoid.elements_.size() * num_inputs);
  for (std::size_t index = 0; index < monoid.elements_.size(); ++index) {
    for (Label sigma = 0; sigma < num_inputs; ++sigma) {
      budget_checkpoint(budget, probe_ticks);
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
    auto it = newest_with_hash.find(links[index].first);
    std::size_t candidate = it != newest_with_hash.end() ? it->second : kNoIndex;
    while (candidate != kNoIndex && !same_data_reversed(monoid.elements_[candidate], e)) {
      candidate = links[candidate].second;
    }
    if (candidate == kNoIndex) {
      throw std::logic_error("Monoid::enumerate: reversal map hit an unknown element");
    }
    monoid.reversed_[index] = candidate;
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

std::size_t Monoid::of_word(std::span<const Label> w) const {
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
    if (parent_[index].first == kNoIndex) break;
    index = parent_[index].first;
  }
  std::reverse(w.begin(), w.end());
  return w;
}

std::size_t Monoid::reversed_index(std::size_t element) const { return reversed_[element]; }

LayerCycle Monoid::layer_cycle() const {
  // S_{L+1} is a function of S_L, so the walk memoizes layers until one
  // repeats. The newest layer occupies elements[begin, end) and is
  // compared only against stored layers with its hash, chained
  // newest-first.
  LayerCycle cycle;
  std::vector<std::size_t>& all = cycle.elements;
  std::vector<char> seen(elements_.size(), 0);
  std::unordered_map<std::size_t, std::size_t> newest_with_hash;
  std::vector<std::size_t> same_hash_next;  // [layer] -> older layer with its hash
  for (Label sigma = 0; sigma < ts_.num_inputs(); ++sigma) {
    const std::size_t index = of_symbol(sigma);
    if (!seen[index]) {
      seen[index] = 1;
      all.push_back(index);
    }
  }
  std::size_t begin = 0;
  while (true) {
    const std::size_t end = all.size();
    for (std::size_t i = begin; i < end; ++i) seen[all[i]] = 0;
    std::sort(all.begin() + static_cast<std::ptrdiff_t>(begin), all.end());
    std::size_t h = hash_mix(0x77, end - begin);
    for (std::size_t i = begin; i < end; ++i) h = hash_mix(h, all[i]);
    const std::size_t layer = cycle.starts.size();
    auto [it, fresh] = newest_with_hash.try_emplace(h, layer);
    const std::size_t older = fresh ? kNoIndex : it->second;
    for (std::size_t prev = older; prev != kNoIndex; prev = same_hash_next[prev]) {
      const std::size_t prev_end = prev + 1 < layer ? cycle.starts[prev + 1] : begin;
      if (std::equal(all.begin() + static_cast<std::ptrdiff_t>(cycle.starts[prev]),
                     all.begin() + static_cast<std::ptrdiff_t>(prev_end),
                     all.begin() + static_cast<std::ptrdiff_t>(begin), all.end())) {
        all.resize(begin);
        cycle.preperiod = prev;
        cycle.period = layer - prev;
        cycle.starts.push_back(begin);  // end of the last stored layer
        return cycle;
      }
    }
    it->second = layer;
    same_hash_next.push_back(older);
    cycle.starts.push_back(begin);
    for (std::size_t i = begin; i < end; ++i) {
      for (Label sigma = 0; sigma < ts_.num_inputs(); ++sigma) {
        const std::size_t extended = extend(all[i], sigma);
        if (!seen[extended]) {
          seen[extended] = 1;
          all.push_back(extended);
        }
      }
    }
    begin = end;
  }
}

std::span<const std::size_t> LayerCycle::at(std::size_t length) const {
  if (length == 0) throw std::invalid_argument("LayerCycle::at: length must be >= 1");
  std::size_t index = length - 1;
  if (index >= preperiod + period) index = preperiod + (index - preperiod) % period;
  const std::span<const std::size_t> all(elements);
  return all.subspan(starts[index], starts[index + 1] - starts[index]);
}

std::size_t LayerCycle::stabilization() const {
  for (std::size_t k = 1; k <= preperiod + period; ++k) {
    if (std::ranges::equal(at(k), at(k + 2))) return k;
  }
  return static_cast<std::size_t>(-1);  // period longer than 2
}

}  // namespace lclpath
