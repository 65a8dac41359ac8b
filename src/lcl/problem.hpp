// LCL problem representations.
//
// The paper (Section 2) defines an LCL by (Sigma_in, Sigma_out, r, C) where
// C is a finite set of acceptable labeled radius-r neighborhoods, and a
// "beta-normalized" special case whose verifier only checks (input, output)
// pairs per node plus (output, output) pairs per directed edge. We keep both:
//
//  * PairwiseProblem — the beta-normalized shape generalized to arbitrary
//    alphabet sizes: node constraint C_node subset Sigma_in x Sigma_out and
//    edge constraint C_edge subset Sigma_out x Sigma_out, checked along the
//    direction of the path (predecessor -> node). All of Section 4's
//    decidability machinery operates on this form.
//
//  * GeneralProblem — radius-r window constraints, compiled down to a
//    PairwiseProblem by lcl/compile.hpp (window construction).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/alphabet.hpp"
#include "core/bitmatrix.hpp"

namespace lclpath {

/// Which graph family an instance/problem lives on. Directed means a
/// globally consistent orientation is part of the input (every node knows
/// its predecessor); undirected problems must be orientation-symmetric.
enum class Topology : std::uint8_t {
  kDirectedPath,
  kDirectedCycle,
  kUndirectedPath,
  kUndirectedCycle,
};

std::string to_string(Topology topology);
bool is_cycle(Topology topology);
bool is_directed(Topology topology);

/// The beta-normalized LCL form (paper Section 2, "beta-normalized LCLs",
/// alphabet sizes generalized). Semantics on a directed path p0 -> p1 -> ...:
///   * every node v must satisfy node_ok(in(v), out(v));
///   * every node v with a predecessor u must satisfy edge_ok(out(u), out(v)).
/// On cycles every node has a predecessor. On undirected topologies the
/// problem must satisfy is_orientation_symmetric(); validity is then
/// orientation-independent and the verifier checks each edge once.
class PairwiseProblem {
 public:
  PairwiseProblem() = default;
  PairwiseProblem(std::string name, Alphabet inputs, Alphabet outputs, Topology topology);

  const std::string& name() const { return name_; }
  const Alphabet& inputs() const { return inputs_; }
  const Alphabet& outputs() const { return outputs_; }
  Topology topology() const { return topology_; }
  void set_topology(Topology t) { topology_ = t; }
  void set_name(std::string n) { name_ = std::move(n); }

  std::size_t num_inputs() const { return inputs_.size(); }
  std::size_t num_outputs() const { return outputs_.size(); }

  /// Constraint mutation (by dense indices or by names).
  void allow_node(Label input, Label output);
  void allow_node(std::string_view input, std::string_view output);
  void allow_edge(Label from_output, Label to_output);
  void allow_edge(std::string_view from_output, std::string_view to_output);
  void forbid_edge(Label from_output, Label to_output);

  bool node_ok(Label input, Label output) const { return node_allowed_[input].get(output); }
  bool edge_ok(Label from_output, Label to_output) const {
    return edge_matrix_.get(from_output, to_output);
  }

  /// Path topologies only: a distinct node constraint for the *first* node
  /// (the one with no predecessor) and an allowed-output mask for the
  /// *last* node. The paper encodes degree-1 behavior through these
  /// (Section 4's opening remark; Lemma 3's Er rule needs the last-node
  /// mask). Defaults: first nodes use C_node; last nodes allow everything.
  void allow_node_first(Label input, Label output);
  void allow_node_first(std::string_view input, std::string_view output);
  bool node_first_ok(Label input, Label output) const {
    if (node_first_.empty()) return node_ok(input, output);
    return node_first_[input].get(output);
  }
  bool has_first_constraint() const { return !node_first_.empty(); }
  const BitVector& outputs_for_first(Label input) const;

  void restrict_last(const BitVector& allowed);
  void forbid_last(Label output);
  bool last_ok(Label output) const { return last_mask_.dim() == 0 || last_mask_.get(output); }
  const BitVector& last_mask() const;

  /// Drop the endpoint rules again (first nodes fall back to C_node, last
  /// nodes allow everything). The synthesized path algorithms complete
  /// *interior* sub-words by DP, where the endpoint rules must not fire;
  /// they run those completions on a stripped copy of the problem.
  void clear_first_constraint() { node_first_.clear(); }
  void clear_last_mask() { last_mask_ = BitVector(); }

  /// The edge constraint as a boolean matrix (row = predecessor's output).
  const BitMatrix& edge_matrix() const { return edge_matrix_; }

  /// Set of outputs allowed for a given input, as a row bit vector.
  const BitVector& outputs_for(Label input) const;

  /// True if C_edge is symmetric; required for undirected topologies where
  /// "predecessor" is not well defined.
  bool is_orientation_symmetric() const;

  /// The problem with every edge constraint reversed (out,out') -> (out',out).
  /// Running the reversed problem on the reversed path is equivalent to the
  /// original; used by the undirected gap deciders.
  PairwiseProblem reversed() const;

  /// Human-readable multi-line description.
  std::string describe() const;

  bool operator==(const PairwiseProblem& other) const;

 private:
  std::string name_;
  Alphabet inputs_;
  Alphabet outputs_;
  Topology topology_ = Topology::kDirectedCycle;
  std::vector<BitVector> node_allowed_;  // indexed by input label
  BitMatrix edge_matrix_;
  // First-node constraint (empty = same as node_allowed_).
  std::vector<BitVector> node_first_;
  // Last-node allowed outputs (empty bits-dim-0 = everything allowed).
  BitVector last_mask_;
};

/// A radius-r LCL with window constraints: the set of acceptable
/// (inputs, outputs) windows of width 2r+1 centered on each node.
/// For nodes closer than r to a path endpoint, the window is truncated;
/// windows carry the offset of the center to disambiguate.
struct WindowConstraint {
  /// Inputs / outputs of the window, in path order. Sizes are equal and in
  /// [r+1, 2r+1] (truncation only at path endpoints).
  Word inputs;
  Word outputs;
  /// Index of the center node within the window (r except near endpoints).
  std::size_t center = 0;

  bool operator==(const WindowConstraint& other) const = default;
};

class GeneralProblem {
 public:
  GeneralProblem() = default;
  GeneralProblem(std::string name, Alphabet inputs, Alphabet outputs, std::size_t radius,
                 Topology topology);

  const std::string& name() const { return name_; }
  const Alphabet& inputs() const { return inputs_; }
  const Alphabet& outputs() const { return outputs_; }
  std::size_t radius() const { return radius_; }
  Topology topology() const { return topology_; }

  /// Declares a window acceptable.
  void allow(WindowConstraint window);
  /// Convenience: declares every full window accepted by `predicate`
  /// acceptable (enumerates |Sigma_in|^(2r+1) x |Sigma_out|^(2r+1) windows;
  /// fine for the small alphabets the paper deals in). Truncated endpoint
  /// windows are enumerated as well when the topology is a path.
  void allow_where(
      const std::function<bool(const WindowConstraint&)>& predicate);

  const std::vector<WindowConstraint>& windows() const { return windows_; }
  bool accepts(const WindowConstraint& window) const;

 private:
  std::string name_;
  Alphabet inputs_;
  Alphabet outputs_;
  std::size_t radius_ = 1;
  Topology topology_ = Topology::kDirectedCycle;
  std::vector<WindowConstraint> windows_;
};

}  // namespace lclpath
