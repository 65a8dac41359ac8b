#include "automata/pumping.hpp"

#include <unordered_map>

namespace lclpath {

Word PumpDecomposition::pumped(std::size_t i) const {
  Word out = x;
  for (std::size_t k = 0; k < i; ++k) out.insert(out.end(), y.begin(), y.end());
  out.insert(out.end(), z.begin(), z.end());
  return out;
}

std::optional<std::pair<std::size_t, std::size_t>> pump_split(
    const Monoid& monoid, std::span<const Label> w, std::vector<std::size_t>& first_seen) {
  // Walk prefixes w[0..p) for p = 1..|w|, recording the monoid element of
  // each. A repeat at prefixes p1 < p2 yields y = w[p1..p2). To keep the
  // type's boundary inputs intact we only accept repeats with p1 >= 2 and
  // p2 <= |w| - 2.
  if (w.size() < 5) return std::nullopt;
  std::optional<std::pair<std::size_t, std::size_t>> split;
  std::size_t element = monoid.of_symbol(w[0]);
  std::size_t p = 2;
  for (; p <= w.size() - 2; ++p) {
    element = monoid.extend(element, w[p - 1]);
    if (first_seen[element] != kNotSeen) {
      split.emplace(first_seen[element], p);
      break;
    }
    first_seen[element] = p;
  }
  // Restore the scratch: exactly the prefixes walked recorded an entry.
  element = monoid.of_symbol(w[0]);
  for (std::size_t k = 2; k < p; ++k) {
    element = monoid.extend(element, w[k - 1]);
    first_seen[element] = kNotSeen;
  }
  return split;
}

std::optional<PumpDecomposition> pump_decomposition(const Monoid& monoid, const Word& w) {
  std::vector<std::size_t> first_seen(monoid.size(), kNotSeen);
  const auto split = pump_split(monoid, w, first_seen);
  if (!split) return std::nullopt;
  const auto [p1, p2] = *split;
  PumpDecomposition d;
  d.x = Word(w.begin(), w.begin() + static_cast<std::ptrdiff_t>(p1));
  d.y = Word(w.begin() + static_cast<std::ptrdiff_t>(p1),
             w.begin() + static_cast<std::ptrdiff_t>(p2));
  d.z = Word(w.begin() + static_cast<std::ptrdiff_t>(p2), w.end());
  return d;
}

std::optional<Word> pump_to_length(const Monoid& monoid, const Word& w,
                                   std::size_t min_length) {
  if (w.size() >= min_length) return w;
  auto decomposition = pump_decomposition(monoid, w);
  if (!decomposition) return std::nullopt;
  const std::size_t deficit = min_length - w.size();
  const std::size_t extra = (deficit + decomposition->y.size() - 1) / decomposition->y.size();
  return decomposition->pumped(1 + extra);
}

PowerPump power_pump(const Monoid& monoid, const Word& w) {
  const std::size_t base = monoid.of_word(w);
  std::unordered_map<std::size_t, std::size_t> first_seen;  // element -> exponent
  std::size_t element = base;
  std::size_t exponent = 1;
  while (true) {
    auto [it, inserted] = first_seen.emplace(element, exponent);
    if (!inserted) {
      PowerPump pump;
      pump.a = it->second;
      pump.b = exponent - it->second;
      return pump;
    }
    // element(w^{e+1}) = element(w^e) extended by w.
    for (Label sigma : w) element = monoid.extend(element, sigma);
    ++exponent;
  }
}

}  // namespace lclpath
