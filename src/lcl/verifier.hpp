// Centralized verifiers for LCL labelings on paths and cycles.
//
// The paper's verifier taxonomy (Section 3.5): V_in-out checks each node's
// (input, output) pair, V_out-out checks each directed edge's (output,
// output) pair, and V_in,in-out,out sees both nodes of an edge in full.
// PairwiseProblem bundles the first two; GeneralProblem carries radius-r
// window constraints. These functions evaluate them over whole instances
// (words of inputs/outputs) and also expose per-node "locally consistent
// at v" checks, which Section 4's extendibility machinery is defined from.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "lcl/problem.hpp"

namespace lclpath {

class ExecutionBudget;
class ThreadPool;

/// Outcome of verification; on failure, identifies the first offending node
/// and a human-readable reason (for test diagnostics).
struct VerifyResult {
  bool ok = true;
  std::size_t failed_at = 0;
  std::string reason;

  static VerifyResult success() { return {}; }
  static VerifyResult failure(std::size_t at, std::string why) {
    return {false, at, std::move(why)};
  }
};

/// Checks a complete labeling of a directed path/cycle against a pairwise
/// problem. `inputs` and `outputs` must have equal, nonzero size. For
/// cycles, the edge (last -> first) is checked too. For undirected
/// topologies the problem must be orientation-symmetric and the same check
/// applies (symmetry makes the orientation choice irrelevant).
VerifyResult verify_pairwise(const PairwiseProblem& problem, const Word& inputs,
                             const Word& outputs);

/// A single verifier failure located in verify_pairwise's fixed phase order:
///   phase 0  per-node (input, output) checks, nodes ascending
///   phase 1  path-end check (last_ok), at node n-1
///   phase 2  internal edge checks (u -> u+1), reported at node u+1 ascending
///   phase 3  cycle wrap edge (n-1 -> 0, or the n == 1 self-loop), at node 0
/// verify_pairwise reports the failure that is smallest under lexicographic
/// (phase, at) order; the streaming verifier reproduces that exactly by
/// tracking per-chunk minima and merging.
struct PairwiseFailure {
  int phase = 0;
  std::size_t at = 0;
  std::string reason;

  friend bool operator<(const PairwiseFailure& a, const PairwiseFailure& b) {
    return a.phase != b.phase ? a.phase < b.phase : a.at < b.at;
  }
};

/// Everything the chunk-merge step needs from one verified chunk: its node
/// range, the boundary outputs (for the seam edge to the neighbouring chunks
/// and the cycle wrap edge), and the best (phase, at)-minimal failure the
/// chunk saw internally, if any.
struct ChunkVerdict {
  std::size_t begin = 0;
  std::size_t end = 0;  // exclusive
  Label first_output = 0;
  Label last_output = 0;
  std::optional<PairwiseFailure> failure;
};

/// Streaming verifier for one contiguous chunk [begin, end) of an n-node
/// instance. Feed (input, output) pairs for nodes begin, begin+1, ... in
/// order via push(); the verifier holds O(1) state (previous output, first
/// output, best failure) so huge runs never need the full output Word.
/// Checks performed here: phase 0 node checks (with the first-of-path rule
/// when begin == 0), the phase 1 path-end check when the chunk contains node
/// n-1, and phase 2 edges *internal* to the chunk. Seam edges between chunks
/// and the cycle wrap edge belong to finish_chunked_verify.
///
/// Throws std::logic_error for undirected topologies whose edge constraint
/// is not orientation-symmetric, mirroring verify_pairwise.
class PairwiseChunkVerifier {
 public:
  PairwiseChunkVerifier(const PairwiseProblem& problem, std::size_t n,
                        std::size_t begin, std::size_t end);

  /// Consume the next node's (input, output) pair. Must be called exactly
  /// end - begin times.
  void push(Label input, Label output);

  /// The chunk summary; valid once all end - begin nodes were pushed.
  ChunkVerdict verdict() const;

 private:
  const PairwiseProblem& problem_;
  std::size_t n_;
  std::size_t begin_;
  std::size_t end_;
  bool path_;  // the topology is a path: first-node rule and last mask apply
  std::size_t count_ = 0;
  Label first_output_ = 0;
  Label prev_output_ = 0;
  bool node_failed_ = false;  // phase 0 minima are found in push order,
  bool edge_failed_ = false;  // so later checks of the same phase can stop
  std::optional<PairwiseFailure> best_;
};

/// Merge per-chunk verdicts into the whole-instance verdict. `verdicts` must
/// cover [0, n) contiguously in index order (chunk i+1 begins where chunk i
/// ends). Adds the phase 2 seam edge between consecutive chunks and the
/// phase 3 cycle wrap edge, then returns the (phase, at)-minimal failure —
/// bit-identical to verify_pairwise on the concatenated outputs.
VerifyResult finish_chunked_verify(const PairwiseProblem& problem,
                                   const std::vector<ChunkVerdict>& verdicts);

/// Paper Section 4 "locally consistent at v" for the pairwise (r = 1) form:
/// node v's own (input, output) pair is allowed, and — if v has a
/// predecessor (v > 0, or any v on a cycle) — the incoming edge pair is
/// allowed. `cycle` controls whether index 0 wraps to the last node.
bool locally_consistent_at(const PairwiseProblem& problem, const Word& inputs,
                           const Word& outputs, std::size_t v, bool cycle);

/// Checks a complete labeling against a radius-r general problem: every
/// node's (possibly truncated) window must be among the accepted ones.
VerifyResult verify_general(const GeneralProblem& problem, const Word& inputs,
                            const Word& outputs);

/// Exhaustively searches for a valid output labeling of the given inputs
/// under a pairwise problem (dynamic programming over the path / cycle).
/// Returns std::nullopt if none exists. Deterministic: returns the
/// lexicographically smallest valid labeling. This is the Theta(n) baseline
/// ("gather everything and solve locally") and the ground truth oracle for
/// all decidability tests.
///
/// Cost: two passes over the word after the candidate pass. A backward
/// pass narrows every node's candidates in place to the labels that extend
/// to a valid suffix; a greedy read then takes, front to back, the lowest
/// of those that follows the label before it. A cycle conditions the
/// backward pass on the first label (the last node must close the wrap
/// edge to it). Two kernels run these passes, chosen by beta and n alone:
///   - words of at least PathDp::kChunkedMinNodes nodes over beta <= 8
///     labels keep one byte per node and read set images and next labels
///     off byte-indexed tables, in one chunk, or in one chunk per worker
///     when PathDp::complete gets a pool; a cycle finds its first label
///     from the composed chunk maps instead of retrying;
///   - every other word (the synthesized algorithms' gap completions, and
///     beta > 8) keeps masks of W = ceil(beta / 64) machine words per node,
///     ORs one edge-matrix row per label of a set, and on a cycle repeats
///     the backward pass for each candidate first label in ascending order
///     until one closes.
/// Besides the result a call makes two allocations, the problem's tables
/// and the per-node scratch, and the chunked kernel a third for its chunk
/// records.
///
/// An input label outside the input alphabet throws std::out_of_range (the
/// message of PairwiseProblem::outputs_for, or outputs_for_first at a
/// path's node 0), unless an earlier node has no candidate output at all,
/// which returns std::nullopt first.
std::optional<Word> solve_by_dp(const PairwiseProblem& problem, const Word& inputs);

/// Like solve_by_dp but with some positions pre-assigned (fixed[i] set).
/// Returns the lexicographically smallest completion consistent with the
/// pairwise constraints at *all* nodes, or nullopt; also nullopt when
/// fixed.size() != inputs.size(). Same cost and input-label rule as
/// solve_by_dp; a pinned label outside [0, num_outputs()) throws
/// std::out_of_range before any node is read.
std::optional<Word> complete_by_dp(const PairwiseProblem& problem, const Word& inputs,
                                   const std::vector<std::optional<Label>>& fixed);

/// The DP of solve_by_dp and complete_by_dp with the problem's tables built
/// once, for callers that complete many words against one problem (the
/// synthesized algorithms' gap completions, the simulator's full-view
/// solve). The per-node scratch is reused from call to call and grows only
/// with the longest word seen, so a PathDp serves one thread at a time
/// (a chunked call hands its chunks to the pool and waits for them).
class PathDp {
 public:
  /// Words this long or longer over at most 8 output labels take the
  /// byte-per-node chunked kernel; shorter ones stay on the word-mask one.
  static constexpr std::size_t kChunkedMinNodes = std::size_t{1} << 16;

  explicit PathDp(const PairwiseProblem& problem);

  /// complete_by_dp(problem, inputs, pins) into `out`: true with the
  /// lexicographically smallest completion (pins empty = solve_by_dp),
  /// false where those return nullopt. Same input-label and pin rules.
  /// `out` is resized to inputs.size(); its contents are unspecified
  /// after a false return. With a pool, a word that takes the chunked
  /// kernel is cut into one chunk per pool worker; `budget` (nullable) is
  /// checked before each of its phases and charged nothing.
  bool complete(std::span<const Label> inputs, std::span<const std::optional<Label>> pins,
                Word& out, ThreadPool* pool = nullptr,
                const ExecutionBudget* budget = nullptr);

  /// The chunked kernel complete() takes for long words, on exactly
  /// min(chunks, n) contiguous chunks whatever the length (beta > 8 runs
  /// the word-mask kernel instead). Each phase runs its chunks on `pool`,
  /// or inline when it is null: the candidates and one backward sweep per
  /// chunk (laned, one lane per singleton boundary set, where the chunk's
  /// boundary is not yet known), a scan over the chunk boundaries, the
  /// backward pass proper and the greedy read (laned per previous label
  /// for every chunk but the first), a scan, and the remaining reads.
  /// Same result as complete().
  bool complete_chunked(std::span<const Label> inputs,
                        std::span<const std::optional<Label>> pins, Word& out,
                        std::size_t chunks, ThreadPool* pool = nullptr,
                        const ExecutionBudget* budget = nullptr);

 private:
  /// One chunk [begin, end) of the byte kernel and what its sweeps leave
  /// for the boundary scans.
  struct ByteChunk {
    std::size_t begin = 0;
    std::size_t end = 0;
    /// The first bad input label or empty candidate set, or end.
    std::size_t event_at = 0;
    /// The backward pass proper has run (a path's last chunk, in phase 1).
    bool reached = false;
    /// The set the backward pass enters node end - 1 with.
    std::uint8_t boundary = 0;
    /// Backward lanes: head[b] = the set at node begin when {b} enters.
    std::uint8_t head[8] = {};
    /// Read lanes: tail[p] = the label at node end - 1 when p precedes.
    std::uint8_t tail[8] = {};
    /// The label before node begin, once the scan has fixed it.
    Label before = 0;
  };

  template <std::size_t kW>
  bool run(std::span<const Label> inputs, std::span<const std::optional<Label>> pins,
           Word& out);
  bool run_bytes(std::span<const Label> inputs, std::span<const std::optional<Label>> pins,
                 Word& out, std::size_t chunks, ThreadPool* pool,
                 const ExecutionBudget* budget);
  void build_byte_tables();
  void check_pins(std::span<const std::optional<Label>> pins) const;
  [[noreturn]] void throw_bad_input(std::span<const Label> inputs, std::size_t v) const;

  const PairwiseProblem* problem_;
  std::size_t w_;  ///< words per label set
  bool cycle_;
  bool first_rule_;
  std::size_t pred_at_ = 0, cand_at_ = 0, first_at_ = 0, last_at_ = 0, node0_at_ = 0;
  std::vector<std::uint64_t> tab_;
  std::vector<std::uint64_t> reach_;
  /// The byte kernel's tables, built on its first run: the union of pred
  /// rows over each byte-wide set, and next_label_[256 * a + s] = the
  /// lowest label of s & succ[a] (label 7 when there is none).
  bool byte_tables_ = false;
  std::uint8_t pred_image_[256] = {};
  std::uint8_t next_label_[8 * 256] = {};
  std::vector<std::uint8_t> sets_;
  std::vector<ByteChunk> chunks_;
};

}  // namespace lclpath
