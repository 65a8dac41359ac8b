#include "lcl/catalog.hpp"

namespace lclpath {

std::string to_string(ComplexityClass c) {
  switch (c) {
    case ComplexityClass::kUnsolvable: return "UNSOLVABLE";
    case ComplexityClass::kConstant: return "O(1)";
    case ComplexityClass::kLogStar: return "Theta(log* n)";
    case ComplexityClass::kLinear: return "Theta(n)";
  }
  return "?";
}

namespace catalog {

PairwiseProblem coloring(std::size_t k, Topology topology) {
  Alphabet in({"_"});
  Alphabet out;
  for (std::size_t i = 0; i < k; ++i) out.add(std::string("c").append(std::to_string(i)));
  PairwiseProblem p(std::to_string(k) + "-coloring", in, out, topology);
  for (Label c = 0; c < k; ++c) p.allow_node(Label{0}, c);
  for (Label a = 0; a < k; ++a)
    for (Label b = 0; b < k; ++b)
      if (a != b) p.allow_edge(a, b);
  return p;
}

PairwiseProblem maximal_independent_set() {
  Alphabet in({"_"});
  Alphabet out({"I", "A", "B"});
  PairwiseProblem p("maximal-independent-set", in, out, Topology::kDirectedCycle);
  for (Label o = 0; o < 3; ++o) p.allow_node(Label{0}, o);
  // Allowed successor patterns: I A, I B (then I), A I, A B, B I.
  p.allow_edge("I", "A");
  p.allow_edge("I", "B");
  p.allow_edge("A", "I");
  p.allow_edge("A", "B");
  p.allow_edge("B", "I");
  return p;
}

PairwiseProblem constant_output(Topology topology) {
  Alphabet in({"_"});
  Alphabet out({"x"});
  PairwiseProblem p("constant-output", in, out, topology);
  p.allow_node("_", "x");
  p.allow_edge("x", "x");
  return p;
}

PairwiseProblem copy_input(Topology topology) {
  Alphabet in({"0", "1"});
  Alphabet out({"o0", "o1"});
  PairwiseProblem p("copy-input", in, out, topology);
  p.allow_node("0", "o0");
  p.allow_node("1", "o1");
  for (Label a = 0; a < 2; ++a)
    for (Label b = 0; b < 2; ++b) p.allow_edge(a, b);
  return p;
}

PairwiseProblem two_coloring(Topology topology) {
  PairwiseProblem p = coloring(2, topology);
  p.set_name("2-coloring");
  return p;
}

PairwiseProblem prefix_parity(Topology topology) {
  Alphabet in({"0", "1"});
  // An edge constraint cannot read the successor's input directly, so
  // outputs carry (parity, my input bit) and the edge rule reads the bit
  // from the successor's output label.
  Alphabet out4({"e0", "e1", "o0", "o1"});  // (parity, input bit)
  PairwiseProblem q("prefix-parity", in, out4, topology);
  q.allow_node("0", "e0");
  q.allow_node("0", "o0");
  q.allow_node("1", "e1");
  q.allow_node("1", "o1");
  // parity(v) = parity(pred) XOR input(v); the input bit is readable from
  // the successor's output label.
  auto parity_of = [](std::string_view name) { return name[0]; };
  auto bit_of = [](std::string_view name) { return name[1]; };
  for (const char* from : {"e0", "e1", "o0", "o1"}) {
    for (const char* to : {"e0", "e1", "o0", "o1"}) {
      const bool flip = bit_of(to) == '1';
      const bool parity_matches =
          flip ? parity_of(from) != parity_of(to) : parity_of(from) == parity_of(to);
      if (parity_matches) q.allow_edge(from, to);
    }
  }
  return q;
}

PairwiseProblem empty_problem(Topology topology) {
  Alphabet in({"_"});
  Alphabet out({"x"});
  PairwiseProblem p("empty-problem", in, out, topology);
  // No node constraint allowed: nothing is ever valid.
  p.allow_edge("x", "x");
  return p;
}

PairwiseProblem agreement(Topology topology) {
  Alphabet in({"sa", "sb", "0"});
  Alphabet out({"Sa", "Sb", "A", "B", "E"});
  PairwiseProblem p("secret-agreement", in, out, topology);
  p.allow_node("sa", "Sa");
  p.allow_node("sb", "Sb");
  p.allow_node("0", "A");
  p.allow_node("0", "B");
  p.allow_node("0", "E");
  // A marker starts its secret; the secret letter repeats until the next
  // marker; E forms unanchored all-E labelings (only possible with no
  // markers anywhere, since E has no edge to or from any other label).
  p.allow_edge("Sa", "A");
  p.allow_edge("Sb", "B");
  p.allow_edge("A", "A");
  p.allow_edge("B", "B");
  p.allow_edge("A", "Sa");
  p.allow_edge("A", "Sb");
  p.allow_edge("B", "Sa");
  p.allow_edge("B", "Sb");
  // Adjacent markers (no plain node between them) must chain too.
  p.allow_edge("Sa", "Sa");
  p.allow_edge("Sa", "Sb");
  p.allow_edge("Sb", "Sa");
  p.allow_edge("Sb", "Sb");
  p.allow_edge("E", "E");
  return p;
}

PairwiseProblem shift_input(Topology topology) {
  Alphabet in({"0", "1"});
  Alphabet out({"i0g0", "i0g1", "i1g0", "i1g1"});  // (my input, my guess)
  PairwiseProblem p("shift-input", in, out, topology);
  p.allow_node("0", "i0g0");
  p.allow_node("0", "i0g1");
  p.allow_node("1", "i1g0");
  p.allow_node("1", "i1g1");
  // Predecessor's guess must equal my input (first character after 'i').
  auto guess_of = [](std::string_view name) { return name[3]; };
  auto input_of = [](std::string_view name) { return name[1]; };
  for (const char* from : {"i0g0", "i0g1", "i1g0", "i1g1"}) {
    for (const char* to : {"i0g0", "i0g1", "i1g0", "i1g1"}) {
      if (guess_of(from) == input_of(to)) p.allow_edge(from, to);
    }
  }
  return p;
}

PairwiseProblem input_gated_coloring(Topology topology) {
  Alphabet in({"0", "1"});
  Alphabet out;
  for (int c = 0; c < 3; ++c)
    for (int f = 0; f < 2; ++f) {
      std::string name("c");
      name.append(std::to_string(c)).append("f").append(std::to_string(f));
      out.add(name);
    }
  PairwiseProblem p("input-gated-coloring", in, out, topology);
  auto color_of = [](std::string_view name) { return name[1]; };
  auto flag_of = [](std::string_view name) { return name[3]; };
  for (const std::string& o : p.outputs().names()) {
    // flag must equal the input bit
    p.allow_node(flag_of(o) == '0' ? "0" : "1", o);
  }
  for (const std::string& a : p.outputs().names()) {
    for (const std::string& b : p.outputs().names()) {
      const bool strict = flag_of(b) == '1';
      if (!strict || color_of(a) != color_of(b)) p.allow_edge(a, b);
    }
  }
  return p;
}

PairwiseProblem always_accept(Topology topology) {
  Alphabet in({"_"});
  Alphabet out({"x", "y"});
  PairwiseProblem p("always-accept", in, out, topology);
  p.allow_node("_", "x");
  p.allow_node("_", "y");
  for (Label a = 0; a < 2; ++a)
    for (Label b = 0; b < 2; ++b) p.allow_edge(a, b);
  return p;
}

std::vector<CatalogEntry> validation_catalog() {
  std::vector<CatalogEntry> entries;
  entries.push_back({coloring(3), ComplexityClass::kLogStar, "classic 3-coloring"});
  entries.push_back({coloring(4), ComplexityClass::kLogStar, "4-coloring"});
  entries.push_back({maximal_independent_set(), ComplexityClass::kLogStar, "MIS"});
  entries.push_back({constant_output(), ComplexityClass::kConstant, "trivial"});
  entries.push_back({copy_input(), ComplexityClass::kConstant, "0 rounds, inputs"});
  entries.push_back({shift_input(), ComplexityClass::kConstant, "1 round, inputs"});
  entries.push_back({always_accept(), ComplexityClass::kConstant, "everything allowed"});
  entries.push_back(
      {two_coloring(), ComplexityClass::kUnsolvable, "odd cycles have no 2-coloring"});
  entries.push_back({two_coloring(Topology::kDirectedPath), ComplexityClass::kLinear,
                     "2-coloring a path needs parity of the position"});
  entries.push_back({empty_problem(), ComplexityClass::kUnsolvable, "empty constraints"});
  entries.push_back({prefix_parity(Topology::kDirectedPath), ComplexityClass::kLinear,
                     "global parity propagation"});
  entries.push_back({prefix_parity(Topology::kDirectedCycle), ComplexityClass::kUnsolvable,
                     "odd-parity cycles unsolvable"});
  entries.push_back({agreement(), ComplexityClass::kLinear,
                     "paper Section 3.2 Start(phi) secret, miniature"});
  entries.push_back({agreement(Topology::kDirectedPath), ComplexityClass::kLinear,
                     "secret agreement on paths"});
  entries.push_back(
      {input_gated_coloring(), ComplexityClass::kLogStar, "inputs gate the coloring"});
  return entries;
}

}  // namespace catalog
}  // namespace lclpath
