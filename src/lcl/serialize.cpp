#include "lcl/serialize.hpp"

#include <algorithm>
#include <istream>
#include <iterator>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "lcl/text_scan.hpp"

namespace lclpath {

namespace {

using text::next_line;
using text::next_token;

struct TopologyName {
  std::string_view name;
  Topology topology;
};

constexpr TopologyName kTopologyNames[] = {
    {"directed-path", Topology::kDirectedPath},
    {"directed-cycle", Topology::kDirectedCycle},
    {"undirected-path", Topology::kUndirectedPath},
    {"undirected-cycle", Topology::kUndirectedCycle},
};

std::string_view topology_keyword(Topology t) {
  for (const TopologyName& entry : kTopologyNames) {
    if (entry.topology == t) return entry.name;
  }
  return "directed-cycle";
}

/// Blank, or a comment — '#' as the first character that is not one of
/// " \t\r" (a '\v' or '\f' before the '#' makes the line a token line).
bool is_blank_or_comment(std::string_view line) {
  const std::size_t first = line.find_first_not_of(" \t\r");
  return first == std::string_view::npos || line[first] == '#';
}

/// The keyword of a line parse_problem reads; empty for blank lines and
/// comments. `rest` is left at the keyword's arguments.
std::string_view keyword_of(std::string_view line, std::string_view& rest) {
  rest = line;
  return is_blank_or_comment(line) ? std::string_view() : next_token(rest);
}

[[noreturn]] void fail(std::size_t line_no, const std::string& why) {
  throw std::invalid_argument("parse_problem: line " + std::to_string(line_no) + ": " + why);
}

std::string quoted(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out.push_back('\'');
  out.append(text);
  out.push_back('\'');
  return out;
}

/// Alphabets beyond this are rejected as malformed rather than honored:
/// every downstream structure is at least quadratic in alphabet size (the
/// transition system alone is |Sigma_out|^2 bits per element), so a hostile
/// "inputs" line with millions of labels would turn the parser's caller
/// into an allocation bomb before any budget checkpoint runs.
constexpr std::size_t kMaxAlphabetSize = 4096;

/// The "lcl <name>" line. parse_problem must read the name back, so a name
/// without a visible character is written as "unnamed" (the parser's
/// default) and the line-breaking characters in a name as spaces. Names
/// are cosmetic: operator== and canonical_key() ignore them.
template <typename Put>
void write_name_line(const PairwiseProblem& problem, Put& put) {
  std::string_view name = problem.name();
  put("lcl ");
  if (std::find_if_not(name.begin(), name.end(), text::is_space) == name.end()) {
    name = "unnamed";
  }
  for (std::size_t at = 0; at < name.size();) {
    const std::size_t end = std::min(name.size(), name.find_first_of("\n\r\v\f", at));
    put(name.substr(at, end - at));
    if (end < name.size()) put(" ");
    at = end + 1;
  }
  put("\n");
}

/// Everything serialize() writes after the name line, i.e. the canonical
/// key. `put` receives the text piecewise (see exact_text()).
template <typename Put>
void write_body(const PairwiseProblem& problem, Put& put) {
  const Alphabet& inputs = problem.inputs();
  const Alphabet& outputs = problem.outputs();
  put("topology ");
  put(topology_keyword(problem.topology()));
  put("\ninputs");
  for (const std::string& name : inputs.names()) {
    put(" ");
    put(name);
  }
  put("\noutputs");
  for (const std::string& name : outputs.names()) {
    put(" ");
    put(name);
  }
  put("\n");
  const auto pair_line = [&put](std::string_view keyword, std::string_view a,
                                std::string_view b) {
    put(keyword);
    put(a);
    put(" ");
    put(b);
    put("\n");
  };
  for (Label in = 0; in < problem.num_inputs(); ++in) {
    for (Label o = 0; o < problem.num_outputs(); ++o) {
      if (problem.node_ok(in, o)) pair_line("node ", inputs.name(in), outputs.name(o));
    }
  }
  for (Label a = 0; a < problem.num_outputs(); ++a) {
    for (Label b = 0; b < problem.num_outputs(); ++b) {
      if (problem.edge_ok(a, b)) pair_line("edge ", outputs.name(a), outputs.name(b));
    }
  }
  if (problem.has_first_constraint()) {
    for (Label in = 0; in < problem.num_inputs(); ++in) {
      for (Label o = 0; o < problem.num_outputs(); ++o) {
        if (problem.node_first_ok(in, o)) {
          pair_line("first ", inputs.name(in), outputs.name(o));
        }
      }
    }
  }
  if (problem.last_mask().dim() != 0) {
    put("last");
    for (Label o = 0; o < problem.num_outputs(); ++o) {
      if (problem.last_ok(o)) {
        put(" ");
        put(outputs.name(o));
      }
    }
    put("\n");
  }
  put("end\n");
}

/// Copies the pieces it is given into a stack buffer while it has room,
/// and counts every byte either way: one pass yields the text or its size.
class BufferedSink {
 public:
  void operator()(std::string_view piece) {
    if (size_ + piece.size() <= kCapacity) piece.copy(buffer_ + size_, piece.size());
    size_ += piece.size();
  }
  std::size_t size() const { return size_; }
  bool fits() const { return size_ <= kCapacity; }
  std::string_view text() const { return {buffer_, size_}; }

 private:
  static constexpr std::size_t kCapacity = 2048;
  char buffer_[kCapacity];
  std::size_t size_ = 0;
};

/// The text `write(put)` produces, allocated once at its exact size. Texts
/// that fit the stack buffer take one pass; longer ones a second pass that
/// appends into a string reserved at the size the first pass counted.
template <typename Write>
std::string exact_text(const Write& write) {
  BufferedSink buffered;
  write(buffered);
  if (buffered.fits()) return std::string(buffered.text());
  std::string text;
  text.reserve(buffered.size());
  auto append = [&text](std::string_view piece) { text.append(piece); };
  write(append);
  return text;
}

}  // namespace

void serialize(const PairwiseProblem& problem, std::string& out) {
  auto append = [&out](std::string_view piece) { out.append(piece); };
  write_name_line(problem, append);
  write_body(problem, append);
}

std::string serialize(const PairwiseProblem& problem) {
  return exact_text([&problem](auto& put) {
    write_name_line(problem, put);
    write_body(problem, put);
  });
}

void serialize(const PairwiseProblem& problem, std::ostream& out) {
  out << serialize(problem);
}

PairwiseProblem parse_problem(std::string_view text) {
  std::string name = "unnamed";
  Topology topology = Topology::kDirectedCycle;
  bool saw_name = false;
  bool saw_topology = false;
  std::optional<Alphabet> inputs;
  std::optional<Alphabet> outputs;
  enum class PairKind : std::uint8_t { kNode, kEdge, kFirst };
  struct Pair {
    PairKind kind;
    std::string_view a, b;
    std::size_t line;
  };
  std::vector<Pair> pairs;
  // A pair takes a line of at least 9 bytes ("node a b\n"): one allocation.
  const auto lines = static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
  pairs.reserve(std::min(lines, text.size() / 9) + 1);
  std::vector<std::string_view> last_labels;
  bool saw_last = false;
  std::size_t last_line = 0;
  bool saw_end = false;

  std::string_view rest = text;
  std::string_view line;
  std::size_t line_no = 0;
  while (next_line(rest, line)) {
    ++line_no;
    std::string_view args;
    const std::string_view keyword = keyword_of(line, args);
    if (keyword.empty()) continue;
    if (keyword == "lcl") {
      std::string_view token = next_token(args);
      if (token.empty()) fail(line_no, "'lcl' needs a name");
      if (saw_name) fail(line_no, "duplicate 'lcl' line");
      saw_name = true;
      name.assign(token);
      while (!(token = next_token(args)).empty()) {
        name.push_back(' ');
        name.append(token);
      }
    } else if (keyword == "topology") {
      const std::string_view word = next_token(args);
      if (word.empty() || !next_token(args).empty()) {
        fail(line_no, "'topology' needs one keyword");
      }
      if (saw_topology) fail(line_no, "duplicate 'topology' line");
      saw_topology = true;
      const auto* entry =
          std::find_if(std::begin(kTopologyNames), std::end(kTopologyNames),
                       [word](const TopologyName& t) { return t.name == word; });
      if (entry == std::end(kTopologyNames)) fail(line_no, "unknown topology " + quoted(word));
      topology = entry->topology;
    } else if (keyword == "inputs" || keyword == "outputs") {
      std::optional<Alphabet>& declared = keyword == "inputs" ? inputs : outputs;
      std::size_t count = 0;
      for (std::string_view counting = args; !next_token(counting).empty();) ++count;
      if (count == 0) fail(line_no, quoted(keyword) + " needs at least one label");
      if (declared) fail(line_no, "duplicate " + quoted(keyword) + " line");
      if (count > kMaxAlphabetSize) {
        fail(line_no, quoted(keyword) + " declares " + std::to_string(count) +
                          " labels; the limit is " + std::to_string(kMaxAlphabetSize));
      }
      Alphabet alphabet;
      alphabet.reserve(count);
      for (std::string_view label; !(label = next_token(args)).empty();) {
        if (alphabet.contains(label)) fail(line_no, "duplicate label " + quoted(label));
        alphabet.add(std::string(label));
      }
      declared = std::move(alphabet);
    } else if (keyword == "node" || keyword == "edge" || keyword == "first") {
      const std::string_view a = next_token(args);
      const std::string_view b = next_token(args);
      if (b.empty() || !next_token(args).empty()) {
        fail(line_no, quoted(keyword) + " needs two labels");
      }
      const PairKind kind = keyword == "node"   ? PairKind::kNode
                            : keyword == "edge" ? PairKind::kEdge
                                                : PairKind::kFirst;
      pairs.push_back({kind, a, b, line_no});
    } else if (keyword == "last") {
      // Multiple `last` lines accumulate (union), like node/edge/first.
      saw_last = true;
      for (std::string_view label; !(label = next_token(args)).empty();) {
        last_labels.push_back(label);
      }
      last_line = line_no;
    } else if (keyword == "end") {
      saw_end = true;
      break;
    } else {
      fail(line_no, "unknown keyword " + quoted(keyword));
    }
  }
  if (!saw_end) fail(line_no, "missing 'end'");
  if (!inputs) fail(line_no, "missing 'inputs'");
  if (!outputs) fail(line_no, "missing 'outputs'");

  PairwiseProblem problem(std::move(name), std::move(*inputs), std::move(*outputs), topology);
  const auto input = [&problem](std::size_t line, std::string_view label) {
    const std::optional<Label> found = problem.inputs().find(label);
    if (!found) fail(line, "unknown input label " + quoted(label));
    return *found;
  };
  const auto output = [&problem](std::size_t line, std::string_view label) {
    const std::optional<Label> found = problem.outputs().find(label);
    if (!found) fail(line, "unknown output label " + quoted(label));
    return *found;
  };
  // Kinds resolve in this order so the first bad label reported is the
  // one a node-, then edge-, then first-ordered check meets first.
  for (const PairKind kind : {PairKind::kNode, PairKind::kEdge, PairKind::kFirst}) {
    for (const Pair& p : pairs) {
      if (p.kind != kind) continue;
      if (kind == PairKind::kEdge) {
        const Label from = output(p.line, p.a);
        problem.allow_edge(from, output(p.line, p.b));
        continue;
      }
      const Label in = input(p.line, p.a);
      const Label out = output(p.line, p.b);
      if (kind == PairKind::kNode) {
        problem.allow_node(in, out);
      } else {
        problem.allow_node_first(in, out);
      }
    }
  }
  if (saw_last) {
    BitVector allowed(problem.num_outputs());
    for (const std::string_view label : last_labels) {
      allowed.set(output(last_line, label), true);
    }
    problem.restrict_last(allowed);
  }
  return problem;
}

std::vector<PairwiseProblem> parse_problems(std::string_view text) {
  std::vector<PairwiseProblem> problems;
  std::string_view rest = text;
  std::string_view line;
  std::size_t block_at = 0;
  bool block_has_content = false;
  while (next_line(rest, line)) {
    std::string_view args;
    const std::string_view keyword = keyword_of(line, args);
    if (keyword.empty()) continue;
    block_has_content = true;
    if (keyword == "end") {
      const std::size_t block_end = text.size() - rest.size();
      problems.push_back(parse_problem(text.substr(block_at, block_end - block_at)));
      block_at = block_end;
      block_has_content = false;
    }
  }
  // Trailing lines after the final `end` must form a complete block.
  if (block_has_content) problems.push_back(parse_problem(text.substr(block_at)));
  return problems;
}

std::vector<PairwiseProblem> parse_problems(std::istream& in) {
  const std::string text{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  return parse_problems(std::string_view(text));
}

std::string canonical_key(const PairwiseProblem& problem) {
  // The name line is left out: names don't affect semantics (operator==
  // ignores them) and must not split the memo cache.
  return exact_text([&problem](auto& put) { write_body(problem, put); });
}

std::uint64_t canonical_hash(std::string_view canonical_key) {
  std::uint64_t hash = 1469598103934665603ull;  // FNV-1a 64-bit offset basis
  for (const char c : canonical_key) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;  // FNV-1a 64-bit prime
  }
  return hash;
}

std::uint64_t canonical_hash(const PairwiseProblem& problem) {
  return canonical_hash(canonical_key(problem));
}

}  // namespace lclpath
