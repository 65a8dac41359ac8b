// The seeded mutation corpus for the problem parser: valid catalog
// serializations, each hit by one to four byte-level mutations (flips,
// deleted spans, duplicated prefixes, truncation, hostile bytes, swaps).
// serialize_fuzz_test requires the parser to be total on it;
// serialize_diff_test requires the parser to agree with its iostream
// oracle on it.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "lcl/catalog.hpp"
#include "lcl/serialize.hpp"

namespace lclpath::testing {

inline std::vector<std::string> mutation_corpus() {
  std::vector<std::string> texts;
  for (const PairwiseProblem& problem :
       {catalog::coloring(3), catalog::constant_output(),
        catalog::maximal_independent_set(), catalog::agreement(),
        catalog::prefix_parity(), catalog::two_coloring(),
        catalog::shift_input(), catalog::input_gated_coloring()}) {
    texts.push_back(serialize(problem));
  }
  return texts;
}

/// The 4000 mutated texts, the same on every run.
inline std::vector<std::string> seeded_mutations() {
  const std::vector<std::string> texts = mutation_corpus();
  Rng rng(0xf0220dull);
  constexpr int kIterations = 4000;
  // Built piecewise: a "\0..." literal would truncate at the NUL.
  const std::string garbage =
      std::string(1, '\0') + "\t\x7f lcl topology node edge end # 9999999999";
  std::vector<std::string> mutated;
  mutated.reserve(kIterations);
  for (int iter = 0; iter < kIterations; ++iter) {
    std::string text = texts[rng.next_below(texts.size())];
    const int mutations = 1 + static_cast<int>(rng.next_below(4));
    for (int m = 0; m < mutations; ++m) {
      if (text.empty()) break;
      switch (rng.next_below(6)) {
        case 0:  // flip a byte
          text[rng.next_below(text.size())] =
              static_cast<char>(rng.next_below(256));
          break;
        case 1:  // delete a span
          text.erase(rng.next_below(text.size()),
                     1 + rng.next_below(8));
          break;
        case 2:  // duplicate a prefix of a line somewhere
          text.insert(rng.next_below(text.size()),
                      text.substr(0, rng.next_below(text.size())));
          break;
        case 3:  // truncate (lost 'end', mid-line cuts)
          text.resize(rng.next_below(text.size()));
          break;
        case 4:  // splice in hostile bytes
          text.insert(rng.next_below(text.size()), garbage);
          break;
        case 5:  // swap two lines' worth of bytes crudely
          std::swap(text[rng.next_below(text.size())],
                    text[rng.next_below(text.size())]);
          break;
      }
    }
    mutated.push_back(std::move(text));
  }
  return mutated;
}

}  // namespace lclpath::testing
