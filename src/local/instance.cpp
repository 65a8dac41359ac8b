#include "local/instance.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <stdexcept>

#include "core/thread_pool.hpp"

namespace lclpath {

namespace {

/// Bitmap scratch for validate()'s compact-ID fast path, reused across
/// calls so repeated engine runs do not reallocate.
thread_local std::vector<std::uint64_t> validate_scratch;

[[noreturn]] void throw_duplicate(NodeId id) {
  throw std::invalid_argument("Instance: duplicate node ID " + std::to_string(id));
}

std::uint64_t bit_reverse64(std::uint64_t x) {
  x = ((x & 0x5555555555555555ull) << 1) | ((x >> 1) & 0x5555555555555555ull);
  x = ((x & 0x3333333333333333ull) << 2) | ((x >> 2) & 0x3333333333333333ull);
  x = ((x & 0x0f0f0f0f0f0f0f0full) << 4) | ((x >> 4) & 0x0f0f0f0f0f0f0f0full);
  x = ((x & 0x00ff00ff00ff00ffull) << 8) | ((x >> 8) & 0x00ff00ff00ff00ffull);
  x = ((x & 0x0000ffff0000ffffull) << 16) | ((x >> 16) & 0x0000ffff0000ffffull);
  return (x << 32) | (x >> 32);
}

}  // namespace

std::size_t Instance::succ(std::size_t v) const {
  assert(v < size());
  if (v + 1 < size()) return v + 1;
  assert(cycle());
  return 0;
}

std::size_t Instance::pred(std::size_t v) const {
  assert(v < size());
  if (v > 0) return v - 1;
  assert(cycle());
  return size() - 1;
}

namespace {

// The two loops of the pooled check take their bounds by value: a 64-bit
// store may alias any std::size_t a lambda captures by reference.

/// Marks ids[begin, end) in `bitmap`; false at an ID at or above `bound`
/// or one marked already.
bool mark_ids(const NodeId* ids, std::size_t begin, std::size_t end, NodeId bound,
              std::uint64_t* bitmap) {
  for (std::size_t v = begin; v < end; ++v) {
    const NodeId id = ids[v];
    if (id >= bound) return false;
    std::uint64_t& word = bitmap[static_cast<std::size_t>(id >> 6)];
    const std::uint64_t bit = std::uint64_t{1} << (id & 63);
    if (word & bit) return false;
    word |= bit;
  }
  return true;
}

/// False when some bit of words [begin, end) is set in two of the `count`
/// bitmaps laid `stride` words apart.
bool disjoint_words(const std::uint64_t* bitmaps, std::size_t count, std::size_t stride,
                    std::size_t begin, std::size_t end) {
  for (std::size_t w = begin; w < end; ++w) {
    std::uint64_t seen = 0;
    for (std::size_t t = 0; t < count; ++t) {
      const std::uint64_t bits = bitmaps[t * stride + w];
      if (seen & bits) return false;
      seen |= bits;
    }
  }
  return true;
}

/// True when the IDs are distinct and all below n, as sequential and
/// permutation IDs are. Worker k of W marks the k-th of W slices of the
/// IDs in its own n-bit bitmap (side by side in `scratch`), then checks
/// the k-th of W word ranges of all W bitmaps for a bit set twice. W is
/// at most 4, so the bitmaps never take more than the serial scan's 4n
/// bits. A duplicate or an ID of n or more ends it with false.
bool pooled_ids_distinct(const std::vector<NodeId>& ids, ThreadPool& pool,
                         std::vector<std::uint64_t>& scratch) {
  const std::size_t n = ids.size();
  const std::size_t W = std::min<std::size_t>(pool.size(), 4);
  const std::size_t words = (n + 63) / 64;
  if (scratch.size() < W * words) scratch.resize(W * words);
  std::vector<char> clean(W, 1);
  parallel_for(&pool, W, [&](std::size_t k) {
    std::uint64_t* bitmap = scratch.data() + k * words;
    std::fill_n(bitmap, words, 0);
    clean[k] = mark_ids(ids.data(), n * k / W, n * (k + 1) / W, n, bitmap);
  });
  if (std::find(clean.begin(), clean.end(), 0) != clean.end()) return false;
  parallel_for(&pool, W, [&](std::size_t k) {
    clean[k] = disjoint_words(scratch.data(), W, words, words * k / W, words * (k + 1) / W);
  });
  return std::find(clean.begin(), clean.end(), 0) == clean.end();
}

}  // namespace

void Instance::validate(ThreadPool* pool) const {
  if (inputs.empty()) throw std::invalid_argument("Instance: empty");
  if (inputs.size() != ids.size()) {
    throw std::invalid_argument("Instance: inputs/ids size mismatch");
  }
  if (pool != nullptr && pool->size() > 1 &&
      pooled_ids_distinct(ids, *pool, validate_scratch)) {
    return;
  }
  const std::size_t n = ids.size();
  // Compact-ID fast path: one pass marking a bitmap. Sequential and
  // permutation IDs (every generator except the adversarial one) land
  // here; the 4n bound keeps the scratch proportional to the instance.
  const NodeId bound = static_cast<NodeId>(4) * static_cast<NodeId>(n);
  validate_scratch.assign((static_cast<std::size_t>(bound) + 63) / 64, 0);
  bool sparse = false;
  for (NodeId id : ids) {
    if (id >= bound) {
      sparse = true;
      break;
    }
    std::uint64_t& word = validate_scratch[static_cast<std::size_t>(id >> 6)];
    const std::uint64_t bit = std::uint64_t{1} << (id & 63);
    if (word & bit) throw_duplicate(id);
    word |= bit;
  }
  if (!sparse) return;
  // Sparse IDs (adversarial bit-reversed assignments): sort a copy and
  // look for an adjacent repeat.
  std::vector<NodeId> sorted(ids);
  std::sort(sorted.begin(), sorted.end());
  const auto dup = std::adjacent_find(sorted.begin(), sorted.end());
  if (dup != sorted.end()) throw_duplicate(*dup);
}

Instance make_instance(Topology topology, Word inputs) {
  Instance instance;
  instance.topology = topology;
  instance.inputs = std::move(inputs);
  instance.ids.resize(instance.inputs.size());
  for (std::size_t v = 0; v < instance.ids.size(); ++v) instance.ids[v] = v;
  return instance;
}

Instance random_instance(Topology topology, std::size_t n, std::size_t num_inputs,
                         Rng& rng) {
  Instance instance;
  instance.topology = topology;
  instance.inputs.reserve(n);
  for (std::size_t v = 0; v < n; ++v) {
    instance.inputs.push_back(static_cast<Label>(rng.next_below(num_inputs)));
  }
  for (std::size_t id : rng.permutation(n)) instance.ids.push_back(id);
  return instance;
}

std::vector<NodeId> adversarial_ids(std::size_t n, NodeId salt) {
  std::vector<NodeId> ids;
  ids.reserve(n);
  for (std::size_t v = 0; v < n; ++v) {
    ids.push_back(bit_reverse64(static_cast<std::uint64_t>(v)) ^ salt);
  }
  return ids;
}

Instance adversarial_instance(Topology topology, std::size_t n, std::size_t num_inputs,
                              Rng& rng) {
  Instance instance;
  instance.topology = topology;
  instance.inputs.reserve(n);
  for (std::size_t v = 0; v < n; ++v) {
    instance.inputs.push_back(static_cast<Label>(rng.next_below(num_inputs)));
  }
  instance.ids = adversarial_ids(n, static_cast<NodeId>(rng.next_u64()));
  return instance;
}

Instance periodic_instance(Topology topology, std::size_t n, const Word& pattern, Rng& rng) {
  if (pattern.empty()) throw std::invalid_argument("periodic_instance: empty pattern");
  Instance instance;
  instance.topology = topology;
  instance.inputs.reserve(n);
  for (std::size_t v = 0; v < n; ++v) instance.inputs.push_back(pattern[v % pattern.size()]);
  for (std::size_t id : rng.permutation(n)) instance.ids.push_back(id);
  return instance;
}

}  // namespace lclpath
