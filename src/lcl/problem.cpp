#include "lcl/problem.hpp"

#include <sstream>
#include <stdexcept>

namespace lclpath {

std::string to_string(Topology topology) {
  switch (topology) {
    case Topology::kDirectedPath: return "directed path";
    case Topology::kDirectedCycle: return "directed cycle";
    case Topology::kUndirectedPath: return "undirected path";
    case Topology::kUndirectedCycle: return "undirected cycle";
  }
  return "?";
}

bool is_cycle(Topology topology) {
  return topology == Topology::kDirectedCycle || topology == Topology::kUndirectedCycle;
}

bool is_directed(Topology topology) {
  return topology == Topology::kDirectedPath || topology == Topology::kDirectedCycle;
}

PairwiseProblem::PairwiseProblem(std::string name, Alphabet inputs, Alphabet outputs,
                                 Topology topology)
    : name_(std::move(name)),
      inputs_(std::move(inputs)),
      outputs_(std::move(outputs)),
      topology_(topology),
      node_allowed_(inputs_.size(), BitVector(outputs_.size())),
      edge_matrix_(outputs_.size()) {}

void PairwiseProblem::allow_node(Label input, Label output) {
  if (input >= inputs_.size() || output >= outputs_.size()) {
    throw std::out_of_range("PairwiseProblem::allow_node: label out of range");
  }
  node_allowed_[input].set(output, true);
}

void PairwiseProblem::allow_node(std::string_view input, std::string_view output) {
  allow_node(inputs_.at(input), outputs_.at(output));
}

void PairwiseProblem::allow_edge(Label from_output, Label to_output) {
  if (from_output >= outputs_.size() || to_output >= outputs_.size()) {
    throw std::out_of_range("PairwiseProblem::allow_edge: label out of range");
  }
  edge_matrix_.set(from_output, to_output, true);
}

void PairwiseProblem::allow_edge(std::string_view from_output, std::string_view to_output) {
  allow_edge(outputs_.at(from_output), outputs_.at(to_output));
}

void PairwiseProblem::forbid_edge(Label from_output, Label to_output) {
  edge_matrix_.set(from_output, to_output, false);
}

void PairwiseProblem::allow_node_first(Label input, Label output) {
  if (input >= inputs_.size() || output >= outputs_.size()) {
    throw std::out_of_range("PairwiseProblem::allow_node_first: label out of range");
  }
  if (node_first_.empty()) {
    node_first_.assign(inputs_.size(), BitVector(outputs_.size()));
  }
  node_first_[input].set(output, true);
}

void PairwiseProblem::allow_node_first(std::string_view input, std::string_view output) {
  allow_node_first(inputs_.at(input), outputs_.at(output));
}

const BitVector& PairwiseProblem::outputs_for_first(Label input) const {
  if (node_first_.empty()) return outputs_for(input);
  if (input >= node_first_.size()) {
    throw std::out_of_range("PairwiseProblem::outputs_for_first: bad input label");
  }
  return node_first_[input];
}

void PairwiseProblem::restrict_last(const BitVector& allowed) {
  if (allowed.dim() != outputs_.size()) {
    throw std::invalid_argument("PairwiseProblem::restrict_last: dimension mismatch");
  }
  last_mask_ = allowed;
}

void PairwiseProblem::forbid_last(Label output) {
  if (last_mask_.dim() == 0) last_mask_ = BitVector::ones(outputs_.size());
  last_mask_.set(output, false);
}

const BitVector& PairwiseProblem::last_mask() const {
  static const BitVector kEmpty;
  if (last_mask_.dim() == 0) {
    // Callers should check dim() == 0 as "no restriction"; returning the
    // stored (empty) mask keeps the accessor allocation-free.
    return kEmpty;
  }
  return last_mask_;
}

const BitVector& PairwiseProblem::outputs_for(Label input) const {
  if (input >= node_allowed_.size()) {
    throw std::out_of_range("PairwiseProblem::outputs_for: bad input label");
  }
  return node_allowed_[input];
}

bool PairwiseProblem::is_orientation_symmetric() const {
  return edge_matrix_ == edge_matrix_.transposed();
}

PairwiseProblem PairwiseProblem::reversed() const {
  PairwiseProblem rev = *this;
  rev.edge_matrix_ = edge_matrix_.transposed();
  rev.name_ = name_ + " (reversed)";
  return rev;
}

std::string PairwiseProblem::describe() const {
  std::ostringstream out;
  out << "LCL '" << name_ << "' on " << to_string(topology_) << "\n";
  out << "  Sigma_in  = " << inputs_.to_string() << "\n";
  out << "  Sigma_out = " << outputs_.to_string() << "\n";
  out << "  C_node:";
  for (Label in = 0; in < inputs_.size(); ++in) {
    for (Label o = 0; o < outputs_.size(); ++o) {
      if (node_ok(in, o)) out << " (" << inputs_.name(in) << "," << outputs_.name(o) << ")";
    }
  }
  out << "\n  C_edge:";
  for (Label a = 0; a < outputs_.size(); ++a) {
    for (Label b = 0; b < outputs_.size(); ++b) {
      if (edge_ok(a, b)) out << " (" << outputs_.name(a) << "->" << outputs_.name(b) << ")";
    }
  }
  out << "\n";
  return out.str();
}

bool PairwiseProblem::operator==(const PairwiseProblem& other) const {
  if (!(inputs_ == other.inputs_) || !(outputs_ == other.outputs_)) return false;
  if (topology_ != other.topology_) return false;
  if (!(edge_matrix_ == other.edge_matrix_)) return false;
  if (node_first_ != other.node_first_ || !(last_mask_ == other.last_mask_)) return false;
  return node_allowed_ == other.node_allowed_;
}

GeneralProblem::GeneralProblem(std::string name, Alphabet inputs, Alphabet outputs,
                               std::size_t radius, Topology topology)
    : name_(std::move(name)),
      inputs_(std::move(inputs)),
      outputs_(std::move(outputs)),
      radius_(radius),
      topology_(topology) {
  if (radius_ == 0) throw std::invalid_argument("GeneralProblem: radius must be >= 1");
}

void GeneralProblem::allow(WindowConstraint window) {
  if (window.inputs.size() != window.outputs.size()) {
    throw std::invalid_argument("GeneralProblem::allow: input/output size mismatch");
  }
  if (window.center >= window.inputs.size()) {
    throw std::invalid_argument("GeneralProblem::allow: center out of window");
  }
  windows_.push_back(std::move(window));
}

void GeneralProblem::allow_where(
    const std::function<bool(const WindowConstraint&)>& predicate) {
  const std::size_t full = 2 * radius_ + 1;
  // Window shapes: full windows (center = radius) always; when the topology
  // is a path, also truncated ones missing a prefix (center < radius) or a
  // suffix (window shorter on the right).
  struct Shape {
    std::size_t width;
    std::size_t center;
  };
  std::vector<Shape> shapes;
  shapes.push_back({full, radius_});
  if (!is_cycle(topology_)) {
    for (std::size_t missing_left = 1; missing_left <= radius_; ++missing_left) {
      for (std::size_t missing_right = 0; missing_right <= radius_; ++missing_right) {
        const std::size_t width = full - missing_left - missing_right;
        shapes.push_back({width, radius_ - missing_left});
      }
    }
    for (std::size_t missing_right = 1; missing_right <= radius_; ++missing_right) {
      shapes.push_back({full - missing_right, radius_});
    }
  }
  for (const Shape& shape : shapes) {
    for_each_word(inputs_.size(), shape.width, [&](const Word& in) {
      for_each_word(outputs_.size(), shape.width, [&](const Word& out) {
        WindowConstraint window{in, out, shape.center};
        if (predicate(window)) windows_.push_back(window);
      });
    });
  }
}

bool GeneralProblem::accepts(const WindowConstraint& window) const {
  for (const WindowConstraint& w : windows_) {
    if (w == window) return true;
  }
  return false;
}

}  // namespace lclpath
