#include "local/partition.hpp"

#include <algorithm>
#include <stdexcept>

namespace lclpath {

std::vector<char> irregular_independent_set(const Word& inputs, std::size_t gamma,
                                            std::size_t l) {
  const std::size_t n = inputs.size();
  if (n < l) return std::vector<char>(n, 0);
  const auto all = [](std::size_t) { return true; };
  std::vector<char> member = window_maxima(n - l + 1, gamma, all, window_less(inputs, l));
  member.resize(n, 0);
  return member;
}

void claim_periodic_runs(std::span<const Label> in, std::size_t max_period, bool wrap,
                         const ClaimRule& rule, std::vector<PeriodicRun>& claim) {
  const std::size_t n = in.size();
  claim.assign(n, PeriodicRun{});
  Word doubled;
  if (wrap) {
    doubled.assign(in.begin(), in.end());
    doubled.insert(doubled.end(), in.begin(), in.end());
  }
  const std::span<const Label> text = wrap ? std::span<const Label>(doubled) : in;
  const std::size_t limit = text.size();
  // Once every position is claimed, longer periods can change nothing.
  std::size_t unclaimed = n;
  for (std::size_t q = 1; q <= max_period && unclaimed != 0; ++q) {
    std::size_t i = 0;
    while (i + q < limit) {
      if (text[i] != text[i + q]) {
        ++i;
        continue;
      }
      std::size_t j = i;
      while (j + q < limit && text[j] == text[j + q]) ++j;
      const std::size_t begin = i;
      const std::size_t end = j + q;  // exclusive
      if (const std::optional<std::size_t> margin = rule(q, begin, end)) {
        for (std::size_t k = begin; k < end && k < begin + n; ++k) {
          PeriodicRun& c = claim[k < n ? k : k - n];
          if (c.period == 0) {
            c = PeriodicRun{q, begin, end, *margin};
            --unclaimed;
          }
        }
      }
      i = j + 1;
      if (wrap && begin == 0 && end == limit) break;  // fully periodic cycle
    }
  }
}

std::vector<PeriodicRun> claim_periodic_runs(const Word& in, std::size_t max_period, bool wrap,
                                             const ClaimRule& rule) {
  std::vector<PeriodicRun> claim;
  claim_periodic_runs(in, max_period, wrap, rule, claim);
  return claim;
}

std::size_t least_rotation(std::span<const Label> w) {
  const std::size_t q = w.size();
  std::size_t best = 0;  // shift of the least rotation found so far
  for (std::size_t s = 1; s < q; ++s) {
    for (std::size_t k = 0; k < q; ++k) {
      const Label a = w[(s + k) % q];
      const Label b = w[(best + k) % q];
      if (a != b) {
        if (a < b) best = s;
        break;
      }
    }
  }
  return best;
}

Word canonical_rotation(const Word& w, std::size_t* phase0) {
  const std::size_t q = w.size();
  const std::size_t best = least_rotation(w);
  Word canon;
  canon.reserve(q);
  for (std::size_t k = 0; k < q; ++k) canon.push_back(w[(best + k) % q]);
  // w[0] = canon[(q - best) % q].
  *phase0 = (q - best) % q;
  return canon;
}

Partition partition(const Instance& instance, const PartitionParams& params) {
  if (params.l_pattern < params.l_width) {
    throw std::invalid_argument("partition: l_pattern must be >= l_width");
  }
  const std::size_t n = instance.size();
  const bool wrap = instance.cycle();
  Partition out;
  out.component_of.assign(n, 0);

  const std::vector<PeriodicRun> claim = claim_periodic_runs(
      instance.inputs, params.l_pattern, wrap,
      [&](std::size_t q, std::size_t begin, std::size_t end) -> std::optional<std::size_t> {
        if (end - begin < (params.l_count + 2 * params.l_width) * q) return std::nullopt;
        return params.l_width * q - 1;  // trimmed from each end of the run
      });

  // Whole-cycle periodic special case.
  if (wrap) {
    bool all = true;
    for (std::size_t v = 0; v < n && all; ++v) all = claim[v].period != 0;
    if (all) {
      // One long component spanning the cycle if a single run covers it.
      const PeriodicRun& c0 = claim[0];
      if (c0.end - c0.begin >= n) {
        PartitionComponent comp;
        comp.long_component = true;
        comp.begin = 0;
        comp.size = n;
        Word w(instance.inputs.begin(),
               instance.inputs.begin() + static_cast<std::ptrdiff_t>(c0.period));
        comp.pattern = canonical_rotation(w, &comp.phase0);
        out.components.push_back(comp);
        out.whole_cycle_periodic = true;
        return out;
      }
    }
  }

  // Long components: contiguous nodes sharing a claim run, trimmed by the
  // run's margin (l_width * period - 1) at each open end.
  std::vector<long> long_of(n, -1);
  std::vector<PartitionComponent> longs;
  for (std::size_t v = 0; v < n; ++v) {
    if (claim[v].period == 0 || long_of[v] >= 0) continue;
    const PeriodicRun& c = claim[v];
    const std::size_t begin = c.begin + c.margin;
    const std::size_t end = c.end > c.margin ? c.end - c.margin : 0;
    if (end <= begin) continue;
    PartitionComponent comp;
    comp.long_component = true;
    comp.begin = begin % n;
    comp.size = end - begin;
    Word w;
    for (std::size_t k = 0; k < c.period; ++k) w.push_back(instance.inputs[(begin + k) % n]);
    comp.pattern = canonical_rotation(w, &comp.phase0);
    const std::size_t index = longs.size();
    longs.push_back(comp);
    for (std::size_t k = begin; k < end; ++k) {
      if (long_of[k % n] < 0) long_of[k % n] = static_cast<long>(index);
    }
  }

  // Short stretches: chop with the irregularity-based independent set.
  const std::size_t gamma = params.l_pattern;
  const std::size_t l = (params.l_count + 2 * params.l_width) * params.l_pattern;
  std::vector<long> comp_of(n, -1);
  for (std::size_t i = 0; i < longs.size(); ++i) {
    const PartitionComponent& c = longs[i];
    out.components.push_back(c);
    for (std::size_t k = 0; k < c.size; ++k) {
      comp_of[(c.begin + k) % n] = static_cast<long>(out.components.size() - 1);
    }
  }
  std::size_t v0 = 0;
  if (wrap) {
    while (v0 < n && comp_of[v0] < 0) ++v0;
    if (v0 == n) v0 = 0;  // fully short cycle: start anywhere (position 0)
  }
  std::size_t scanned = 0;
  std::size_t v = v0;
  while (scanned < n) {
    if (comp_of[v] >= 0) {
      v = (v + 1) % n;
      ++scanned;
      continue;
    }
    // Maximal short stretch starting at v.
    std::size_t length = 0;
    while (length < n && comp_of[(v + length) % n] < 0) ++length;
    Word stretch;
    stretch.reserve(length);
    for (std::size_t k = 0; k < length; ++k) stretch.push_back(instance.inputs[(v + k) % n]);
    // Chop at independent-set members (plus a fallback grid when the
    // stretch is regular enough that no member exists — bounded anyway).
    std::vector<char> cut = irregular_independent_set(stretch, gamma, l);
    std::vector<std::size_t> cuts;
    for (std::size_t k = 0; k < length; ++k) {
      if (cut[k]) cuts.push_back(k);
    }
    std::vector<std::pair<std::size_t, std::size_t>> pieces;  // (offset, size)
    std::size_t start = 0;
    for (std::size_t cpos : cuts) {
      if (cpos > start) pieces.emplace_back(start, cpos - start);
      start = cpos;
    }
    pieces.emplace_back(start, length - start);
    for (auto [offset, size] : pieces) {
      PartitionComponent comp;
      comp.long_component = false;
      comp.begin = (v + offset) % n;
      comp.size = size;
      out.components.push_back(comp);
      for (std::size_t k = 0; k < size; ++k) {
        comp_of[(v + offset + k) % n] = static_cast<long>(out.components.size() - 1);
      }
    }
    v = (v + length) % n;
    scanned += length;
  }
  for (std::size_t i = 0; i < n; ++i) {
    out.component_of[i] = static_cast<std::size_t>(comp_of[i]);
  }
  return out;
}

std::optional<std::string> check_partition(const Instance& instance,
                                           const PartitionParams& params,
                                           const Partition& partition) {
  const std::size_t n = instance.size();
  if (partition.component_of.size() != n && !partition.whole_cycle_periodic) {
    return "component_of size mismatch";
  }
  std::vector<char> covered(n, 0);
  for (const PartitionComponent& c : partition.components) {
    if (c.size == 0) return "empty component";
    for (std::size_t k = 0; k < c.size; ++k) {
      std::size_t v = (c.begin + k) % n;
      if (covered[v]) return "node " + std::to_string(v) + " covered twice";
      covered[v] = 1;
    }
    if (c.long_component) {
      if (c.pattern.empty() || c.pattern.size() > params.l_pattern) {
        return "long component pattern size out of range";
      }
      if (!is_primitive(c.pattern)) return "long component pattern not primitive";
      if (c.size < params.l_count * c.pattern.size()) {
        return "long component too short: " + std::to_string(c.size);
      }
      for (std::size_t k = 0; k < c.size; ++k) {
        const Label expect = c.pattern[(c.phase0 + k) % c.pattern.size()];
        if (instance.inputs[(c.begin + k) % n] != expect) {
          return "long component input does not match pattern at offset " +
                 std::to_string(k);
        }
      }
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (!covered[v]) return "node " + std::to_string(v) + " uncovered";
  }
  return std::nullopt;
}

}  // namespace lclpath
