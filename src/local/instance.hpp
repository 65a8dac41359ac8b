// Concrete path/cycle instances for the LOCAL model simulator.
//
// An instance is a topology, a word of input labels, and a vector of
// globally unique identifiers (the paper's O(log n)-bit IDs). Generators
// produce the workloads used by the tests and benchmarks: uniform random
// inputs, periodic inputs, adversarial ID assignments.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/alphabet.hpp"
#include "core/rng.hpp"
#include "lcl/problem.hpp"

namespace lclpath {

class ThreadPool;

using NodeId = std::uint64_t;

struct Instance {
  Topology topology = Topology::kDirectedCycle;
  Word inputs;
  std::vector<NodeId> ids;

  std::size_t size() const { return inputs.size(); }
  bool cycle() const { return is_cycle(topology); }

  /// Successor/predecessor index with wraparound on cycles; on paths the
  /// caller must respect the ends (checked in debug builds).
  std::size_t succ(std::size_t v) const;
  std::size_t pred(std::size_t v) const;

  /// Throws std::invalid_argument when sizes mismatch, IDs collide, or the
  /// instance is empty. Single pass over a reusable bitmap scratch for
  /// compact IDs (the sequential / permutation generators); falls back to
  /// a sort for sparse assignments (e.g. adversarial bit-reversed IDs).
  /// With a pool of several workers, up to four of them first mark their
  /// slices of the IDs in private n-bit bitmaps (together no larger than
  /// the serial scan's), which are then merged by word range; a duplicate
  /// or an ID of n or more sends the call to the serial scan, so the
  /// outcome and the message are the serial ones. The engine calls this
  /// once per simulate() run, on the run's pool, never per chunk.
  void validate(ThreadPool* pool = nullptr) const;
};

/// Instance with sequential IDs 0..n-1 and the given inputs.
Instance make_instance(Topology topology, Word inputs);

/// Uniform random inputs over an alphabet of the given size; IDs are a
/// random permutation of 0..n-1 (so adversarial-ish but compact).
Instance random_instance(Topology topology, std::size_t n, std::size_t num_inputs, Rng& rng);

/// Inputs = pattern repeated to length n (truncated); random IDs.
Instance periodic_instance(Topology topology, std::size_t n, const Word& pattern, Rng& rng);

/// Worst-case Cole–Vishkin ID assignment: ids[v] = bitreverse64(v) XOR salt.
/// Consecutive nodes v, v+1 differ exactly in bits 63 - k for k = 0 ..
/// trailing_ones(v), so the lowest differing bit consecutive IDs disagree
/// on follows the ruler sequence *from the top of the word*: a CV halving
/// step sees near-maximal colors (about 2*63) instead of the O(log n)
/// colors sequential or permutation IDs give it. XOR-ing the salt
/// preserves every pairwise difference, so the CV trajectory is unchanged
/// while the raw ID values vary per instance. The map is a bijection on
/// 64-bit words, so IDs stay globally unique (but sparse: validate() takes
/// its sort path on these).
std::vector<NodeId> adversarial_ids(std::size_t n, NodeId salt = 0);

/// Uniform random inputs over an alphabet of the given size; IDs are an
/// adversarial_ids assignment salted from the RNG. The worst-case
/// counterpart of random_instance for benchmarking ID-sensitive
/// (Cole–Vishkin-based) algorithms.
Instance adversarial_instance(Topology topology, std::size_t n, std::size_t num_inputs,
                              Rng& rng);

}  // namespace lclpath
