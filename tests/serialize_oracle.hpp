// The iostream form of the problem and shard codecs: the differential
// oracle for lcl/serialize.cpp and store/shard.cpp.
//
// parse_problem tokenizes every line with an istringstream, serialize
// streams into an ostringstream, canonical_key cuts the name line off a
// full serialization with substr, and decode_shard copies each problem
// block into its own string before parsing it. The library's codec scans
// string_views and appends to one string instead; serialize_diff_test
// requires the two to agree on every accept/reject decision, every error
// text (line numbers included), every parsed problem and every byte
// written. The oracle writes problem names as they are; the library
// rewrites names parse_problem would not read back, so the diff inputs
// use ordinary names.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "lcl/serialize.hpp"
#include "store/shard.hpp"

namespace lclpath::testing::oracle {

namespace detail {

inline const std::map<std::string, Topology>& topology_names() {
  static const std::map<std::string, Topology> names = {
      {"directed-path", Topology::kDirectedPath},
      {"directed-cycle", Topology::kDirectedCycle},
      {"undirected-path", Topology::kUndirectedPath},
      {"undirected-cycle", Topology::kUndirectedCycle},
  };
  return names;
}

inline std::string topology_keyword(Topology t) {
  for (const auto& [name, topo] : topology_names()) {
    if (topo == t) return name;
  }
  return "directed-cycle";
}

inline std::vector<std::string> tokens_of(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream stream(line);
  std::string token;
  while (stream >> token) tokens.push_back(token);
  return tokens;
}

/// Blank, or a comment — '#' as the first non-whitespace character.
inline bool is_blank_or_comment(const std::string& line) {
  const std::size_t first = line.find_first_not_of(" \t\r");
  return first == std::string::npos || line[first] == '#';
}

[[noreturn]] inline void fail(std::size_t line_no, const std::string& why) {
  throw std::invalid_argument("parse_problem: line " + std::to_string(line_no) + ": " + why);
}

constexpr std::size_t kMaxAlphabetSize = 4096;

inline const char* class_word(ComplexityClass c) {
  switch (c) {
    case ComplexityClass::kUnsolvable: return "unsolvable";
    case ComplexityClass::kConstant: return "constant";
    case ComplexityClass::kLogStar: return "log-star";
    case ComplexityClass::kLinear: return "linear";
  }
  return "linear";
}

inline bool parse_class(const std::string& word, ComplexityClass* out) {
  if (word == "unsolvable") return *out = ComplexityClass::kUnsolvable, true;
  if (word == "constant") return *out = ComplexityClass::kConstant, true;
  if (word == "log-star") return *out = ComplexityClass::kLogStar, true;
  if (word == "linear") return *out = ComplexityClass::kLinear, true;
  return false;
}

inline bool parse_error_kind(const std::string& word, BatchErrorKind* out) {
  for (std::size_t k = 0; k < kNumBatchErrorKinds; ++k) {
    const auto kind = static_cast<BatchErrorKind>(k);
    if (word == to_string(kind)) return *out = kind, true;
  }
  return false;
}

inline std::string checksum_hex(std::uint64_t checksum) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(checksum));
  return buffer;
}

inline std::string flatten(std::string message) {
  for (char& c : message) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return message;
}

inline store::ShardLoadResult dirty(std::string why) {
  store::ShardLoadResult result;
  result.ok = false;
  result.error = std::move(why);
  return result;
}

}  // namespace detail

inline void serialize(const PairwiseProblem& problem, std::ostream& out) {
  using detail::topology_keyword;
  out << "lcl " << problem.name() << "\n";
  out << "topology " << topology_keyword(problem.topology()) << "\n";
  out << "inputs";
  for (const std::string& name : problem.inputs().names()) out << " " << name;
  out << "\noutputs";
  for (const std::string& name : problem.outputs().names()) out << " " << name;
  out << "\n";
  for (Label in = 0; in < problem.num_inputs(); ++in) {
    for (Label o = 0; o < problem.num_outputs(); ++o) {
      if (problem.node_ok(in, o)) {
        out << "node " << problem.inputs().name(in) << " " << problem.outputs().name(o)
            << "\n";
      }
    }
  }
  for (Label a = 0; a < problem.num_outputs(); ++a) {
    for (Label b = 0; b < problem.num_outputs(); ++b) {
      if (problem.edge_ok(a, b)) {
        out << "edge " << problem.outputs().name(a) << " " << problem.outputs().name(b)
            << "\n";
      }
    }
  }
  if (problem.has_first_constraint()) {
    for (Label in = 0; in < problem.num_inputs(); ++in) {
      for (Label o = 0; o < problem.num_outputs(); ++o) {
        if (problem.node_first_ok(in, o)) {
          out << "first " << problem.inputs().name(in) << " "
              << problem.outputs().name(o) << "\n";
        }
      }
    }
  }
  if (problem.last_mask().dim() != 0) {
    out << "last";
    for (Label o = 0; o < problem.num_outputs(); ++o) {
      if (problem.last_ok(o)) out << " " << problem.outputs().name(o);
    }
    out << "\n";
  }
  out << "end\n";
}

inline std::string serialize(const PairwiseProblem& problem) {
  std::ostringstream out;
  oracle::serialize(problem, out);
  return out.str();
}

inline PairwiseProblem parse_problem(std::istream& in) {
  using detail::fail;
  using detail::is_blank_or_comment;
  using detail::kMaxAlphabetSize;
  using detail::tokens_of;
  using detail::topology_names;
  std::string name = "unnamed";
  Topology topology = Topology::kDirectedCycle;
  bool saw_name = false;
  bool saw_topology = false;
  std::optional<Alphabet> inputs;
  std::optional<Alphabet> outputs;
  struct Pair {
    std::string a, b;
    std::size_t line;
  };
  std::vector<Pair> node_pairs;
  std::vector<Pair> edge_pairs;
  std::vector<Pair> first_pairs;
  std::optional<std::vector<std::string>> last_labels;
  std::size_t last_line = 0;
  bool saw_end = false;

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (is_blank_or_comment(line)) continue;
    const std::vector<std::string> tokens = tokens_of(line);
    if (tokens.empty()) continue;
    const std::string& keyword = tokens[0];
    if (keyword == "lcl") {
      if (tokens.size() < 2) fail(line_no, "'lcl' needs a name");
      if (saw_name) fail(line_no, "duplicate 'lcl' line");
      saw_name = true;
      name = tokens[1];
      for (std::size_t i = 2; i < tokens.size(); ++i) name += " " + tokens[i];
    } else if (keyword == "topology") {
      if (tokens.size() != 2) fail(line_no, "'topology' needs one keyword");
      if (saw_topology) fail(line_no, "duplicate 'topology' line");
      saw_topology = true;
      auto it = topology_names().find(tokens[1]);
      if (it == topology_names().end()) fail(line_no, "unknown topology '" + tokens[1] + "'");
      topology = it->second;
    } else if (keyword == "inputs" || keyword == "outputs") {
      if (tokens.size() < 2) fail(line_no, "'" + keyword + "' needs at least one label");
      if (keyword == "inputs" ? inputs.has_value() : outputs.has_value()) {
        fail(line_no, "duplicate '" + keyword + "' line");
      }
      if (tokens.size() - 1 > kMaxAlphabetSize) {
        fail(line_no, "'" + keyword + "' declares " + std::to_string(tokens.size() - 1) +
                          " labels; the limit is " + std::to_string(kMaxAlphabetSize));
      }
      Alphabet alphabet;
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        if (alphabet.contains(tokens[i])) fail(line_no, "duplicate label '" + tokens[i] + "'");
        alphabet.add(tokens[i]);
      }
      (keyword == "inputs" ? inputs : outputs) = std::move(alphabet);
    } else if (keyword == "node" || keyword == "edge" || keyword == "first") {
      if (tokens.size() != 3) fail(line_no, "'" + keyword + "' needs two labels");
      auto& pairs = keyword == "node" ? node_pairs
                    : keyword == "edge" ? edge_pairs
                                        : first_pairs;
      pairs.push_back({tokens[1], tokens[2], line_no});
    } else if (keyword == "last") {
      // Multiple `last` lines accumulate (union), like node/edge/first.
      if (!last_labels) last_labels.emplace();
      last_labels->insert(last_labels->end(), tokens.begin() + 1, tokens.end());
      last_line = line_no;
    } else if (keyword == "end") {
      saw_end = true;
      break;
    } else {
      fail(line_no, "unknown keyword '" + keyword + "'");
    }
  }
  if (!saw_end) fail(line_no, "missing 'end'");
  if (!inputs) fail(line_no, "missing 'inputs'");
  if (!outputs) fail(line_no, "missing 'outputs'");

  PairwiseProblem problem(name, *inputs, *outputs, topology);
  for (const Pair& p : node_pairs) {
    if (!inputs->contains(p.a)) fail(p.line, "unknown input label '" + p.a + "'");
    if (!outputs->contains(p.b)) fail(p.line, "unknown output label '" + p.b + "'");
    problem.allow_node(p.a, p.b);
  }
  for (const Pair& p : edge_pairs) {
    if (!outputs->contains(p.a)) fail(p.line, "unknown output label '" + p.a + "'");
    if (!outputs->contains(p.b)) fail(p.line, "unknown output label '" + p.b + "'");
    problem.allow_edge(p.a, p.b);
  }
  for (const Pair& p : first_pairs) {
    if (!inputs->contains(p.a)) fail(p.line, "unknown input label '" + p.a + "'");
    if (!outputs->contains(p.b)) fail(p.line, "unknown output label '" + p.b + "'");
    problem.allow_node_first(p.a, p.b);
  }
  if (last_labels) {
    BitVector allowed(outputs->size());
    for (const std::string& label : *last_labels) {
      if (!outputs->contains(label)) {
        fail(last_line, "unknown output label '" + label + "'");
      }
      allowed.set(outputs->at(label), true);
    }
    problem.restrict_last(allowed);
  }
  return problem;
}

inline PairwiseProblem parse_problem(const std::string& text) {
  std::istringstream stream(text);
  return parse_problem(stream);
}

inline std::string canonical_key(const PairwiseProblem& problem) {
  std::string text = oracle::serialize(problem);
  const std::size_t newline = text.find('\n');
  return newline == std::string::npos ? std::string() : text.substr(newline + 1);
}

inline std::string encode_shard(const std::vector<store::StoreRecord>& records) {
  std::ostringstream payload;
  for (const store::StoreRecord& record : records) {
    payload << "record";
    if (record.ok()) {
      payload << " class " << detail::class_word(*record.classified) << "\n";
    } else {
      const BatchError& error =
          record.observation ? *record.observation
                             : BatchError{BatchErrorKind::kInternal, "missing"};
      payload << " error " << to_string(error.kind) << "\n";
      payload << "message " << detail::flatten(error.message) << "\n";
    }
    oracle::serialize(record.problem, payload);
  }
  const std::string body = payload.str();
  std::ostringstream out;
  out << "lclshard " << store::kShardFormatVersion << " " << records.size() << " "
      << detail::checksum_hex(canonical_hash(body)) << "\n"
      << body;
  return out.str();
}

inline store::ShardLoadResult decode_shard(const std::string& bytes) {
  using detail::dirty;
  using store::ShardLoadResult;
  using store::StoreRecord;
  const std::size_t header_end = bytes.find('\n');
  if (header_end == std::string::npos) return dirty("missing header line");
  std::istringstream header(bytes.substr(0, header_end));
  std::string magic;
  std::uint32_t version = 0;
  std::size_t declared = 0;
  std::string checksum_text;
  if (!(header >> magic >> version >> declared >> checksum_text) ||
      magic != "lclshard") {
    return dirty("bad magic/header");
  }
  ShardLoadResult result;
  result.version = version;
  result.declared_records = declared;
  if (version != store::kShardFormatVersion) {
    ShardLoadResult other = dirty("unsupported format version " + std::to_string(version));
    other.version = version;
    return other;
  }
  char* end = nullptr;
  result.checksum = std::strtoull(checksum_text.c_str(), &end, 16);
  if (end == checksum_text.c_str() || *end != '\0' || checksum_text.size() != 16) {
    return dirty("malformed checksum field");
  }
  const std::string_view payload(bytes.data() + header_end + 1,
                                 bytes.size() - header_end - 1);
  if (canonical_hash(payload) != result.checksum) {
    return dirty("checksum mismatch (torn or corrupted payload)");
  }

  try {
    std::istringstream in{std::string(payload)};
    std::string line;
    std::size_t line_no = 1;
    while (std::getline(in, line)) {
      ++line_no;
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      std::string keyword;
      fields >> keyword;
      if (keyword != "record") {
        return dirty("line " + std::to_string(line_no) + ": expected 'record', got '" +
                     keyword + "'");
      }
      StoreRecord record;
      std::string outcome_keyword, outcome_word;
      if (!(fields >> outcome_keyword >> outcome_word)) {
        return dirty("line " + std::to_string(line_no) + ": malformed record header");
      }
      if (outcome_keyword == "class") {
        ComplexityClass c;
        if (!detail::parse_class(outcome_word, &c)) {
          return dirty("line " + std::to_string(line_no) + ": unknown class '" +
                       outcome_word + "'");
        }
        record.classified = c;
      } else if (outcome_keyword == "error") {
        BatchError error;
        if (!detail::parse_error_kind(outcome_word, &error.kind)) {
          return dirty("line " + std::to_string(line_no) + ": unknown error kind '" +
                       outcome_word + "'");
        }
        if (!std::getline(in, line)) {
          return dirty("line " + std::to_string(line_no) + ": truncated error record");
        }
        ++line_no;
        if (line.rfind("message", 0) != 0) {
          return dirty("line " + std::to_string(line_no) + ": expected 'message' line");
        }
        error.message = line.size() > 8 ? line.substr(8) : std::string();
        record.observation = std::move(error);
      } else {
        return dirty("line " + std::to_string(line_no) + ": expected 'class' or 'error'");
      }

      std::string block;
      bool saw_end = false;
      while (std::getline(in, line)) {
        ++line_no;
        block += line;
        block += '\n';
        std::istringstream block_fields(line);
        std::string first;
        if (block_fields >> first && first == "end") {
          saw_end = true;
          break;
        }
      }
      if (!saw_end) {
        return dirty("line " + std::to_string(line_no) + ": truncated problem block");
      }
      record.problem = oracle::parse_problem(block);
      result.records.push_back(std::move(record));
    }
  } catch (const std::exception& e) {
    return dirty(std::string("payload parse failure: ") + e.what());
  }
  if (result.records.size() != declared) {
    return dirty("record count mismatch: header declares " + std::to_string(declared) +
                 ", payload holds " + std::to_string(result.records.size()));
  }
  result.ok = true;
  return result;
}

}  // namespace lclpath::testing::oracle
