// Boolean square matrices over the output alphabet.
//
// These are the workhorse of the decidability engine (Section 4 of the
// paper): the "type" of an input-labeled path (Lemma 12/13) is represented
// by a reachability matrix over output labels, and path concatenation is
// boolean matrix multiplication. Matrices are small (dimension = |Sigma_out|,
// mostly <= 8; a few hundred after the normalization and lifts) but
// multiplied millions of times during monoid enumeration, so they are
// bit-packed in one of two storage kinds:
//
// - dim <= 8: the whole matrix is one inline 64-bit word, entry (i, j) at
//   bit 8i + j. Every kernel (products, powers, transpose, hashing) works
//   on that single word and never allocates.
// - dim > 8: an owned heap array of dim rows of ceil(dim / 64) words each.
//
// BitVector (below) makes the same split at 64 bits.
//
// The one-word kind is what nearly every problem uses (the deciders' hot
// loops run at beta <= 5), so its paths are defined inline in this header:
// get/set, copy and assignment, the bitwise operators, any, count,
// intersects, subset_of, next_set, ==, hash, the vector * matrix product
// and the packed matrix product. Each of them tests the storage kind once;
// get and set address a heap word inline too, every other member calls an
// out-of-line *_heap twin in bitmatrix.cpp for a heap object. Heap
// allocation, the heap loops, powers, transposes, stabilization and the
// factories (identity, ones, unit) stay in bitmatrix.cpp.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstddef>
#include <functional>
#include <string>

namespace lclpath {

/// 64-bit mixing for composing hashes (splitmix64 finalizer).
inline std::size_t hash_mix(std::size_t seed, std::size_t value) {
  std::uint64_t x = static_cast<std::uint64_t>(seed) * 0x9E3779B97F4A7C15ull +
                    static_cast<std::uint64_t>(value);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return static_cast<std::size_t>(x);
}

/// Dense boolean square matrix with bit-packed rows.
///
/// Invariant: all bits outside the dim() x dim() entries are zero, which
/// makes operator== and hashing well defined on the raw words.
class BitMatrix {
 public:
  BitMatrix() = default;
  explicit BitMatrix(std::size_t dim) : dim_(dim) {
    if (!is_inline()) allocate_heap();
  }
  BitMatrix(const BitMatrix& other) : dim_(other.dim_) {
    if (is_inline()) {
      word_ = other.word_;
    } else {
      copy_heap(other);
    }
  }
  BitMatrix(BitMatrix&& other) noexcept { steal(other); }
  BitMatrix& operator=(const BitMatrix& other) {
    if (!is_inline() || !other.is_inline()) return assign_heap(other);
    dim_ = other.dim_;
    word_ = other.word_;
    return *this;
  }
  BitMatrix& operator=(BitMatrix&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }
  ~BitMatrix() { release(); }

  /// Identity matrix of the given dimension.
  static BitMatrix identity(std::size_t dim);
  /// All-zero matrix of the given dimension.
  static BitMatrix zero(std::size_t dim);
  /// All-ones matrix of the given dimension.
  static BitMatrix ones(std::size_t dim);

  std::size_t dim() const { return dim_; }

  bool get(std::size_t row, std::size_t col) const {
    assert(row < dim_ && col < dim_);
    if (is_inline()) return (word_ >> (8 * row + col)) & 1u;
    return (heap_row(row)[col / kWordBits] >> (col % kWordBits)) & 1u;
  }
  void set(std::size_t row, std::size_t col, bool value) {
    assert(row < dim_ && col < dim_);
    std::uint64_t& w =
        is_inline() ? word_ : heap_[row * words_per_row() + col / kWordBits];
    const std::uint64_t bit = std::uint64_t{1}
                              << (is_inline() ? 8 * row + col : col % kWordBits);
    if (value) {
      w |= bit;
    } else {
      w &= ~bit;
    }
  }

  /// Boolean matrix product: (a*b)[i][j] = OR_k a[i][k] AND b[k][j].
  BitMatrix operator*(const BitMatrix& other) const {
    BitMatrix result(dim_);
    multiply_into(other, result);
    return result;
  }
  BitMatrix& operator*=(const BitMatrix& other) {
    assert(dim_ == other.dim_);
    if (!is_inline()) return *this = *this * other;
    word_ = packed_product(word_, other.word_, dim_);
    return *this;
  }
  /// this * other written into `out` (same dim, distinct object), reusing
  /// its storage — for hot loops (monoid enumeration probes) that cannot
  /// afford an allocation per product.
  void multiply_into(const BitMatrix& other, BitMatrix& out) const {
    assert(dim_ == other.dim_ && out.dim_ == dim_);
    assert(&out != this && &out != &other);  // out is cleared before reads
    if (is_inline()) {
      out.word_ = packed_product(word_, other.word_, dim_);
    } else {
      multiply_heap(other, out);
    }
  }

  /// Element-wise OR / AND.
  BitMatrix operator|(const BitMatrix& other) const;
  BitMatrix operator&(const BitMatrix& other) const;

  BitMatrix transposed() const;

  /// k-th boolean power (k >= 0; power(0) == identity).
  BitMatrix power(std::uint64_t k) const;

  /// Boolean powers of a matrix are eventually periodic; this finds the
  /// repeat structure (Lemma 15's workhorse): exponents (first, period)
  /// with power(first) == power(first + period).
  struct Stabilization;
  Stabilization stabilize() const;

  bool any() const { return is_inline() ? word_ != 0 : any_heap(); }
  /// True if some diagonal entry is set.
  bool any_diagonal() const;
  std::size_t count() const {
    return is_inline() ? static_cast<std::size_t>(std::popcount(word_)) : count_heap();
  }

  bool operator==(const BitMatrix& other) const {
    if (dim_ != other.dim_) return false;
    return is_inline() ? word_ == other.word_ : equal_heap(other);
  }

  /// Multi-line ASCII art (for debugging and golden tests).
  std::string to_string() const;

  std::size_t hash() const {
    if (!is_inline()) return hash_heap();
    return hash_mix(hash_mix(0x1234, dim_), static_cast<std::size_t>(word_));
  }

 private:
  friend class BitVector;  // reads rows for vector * matrix products

  static constexpr std::size_t kInlineDim = 8;
  static constexpr std::size_t kWordBits = 64;
  static constexpr std::uint64_t kByteLowBits = 0x0101010101010101ull;

  /// Packed product: row i of a*b is the OR of rows k of b over the set
  /// bits k of row i of a. Column k of a, spread to the low bit of each
  /// row byte, times row k of b places that row in exactly the bytes whose
  /// rows have bit k set; the terms occupy disjoint bytes, so the sum
  /// never carries.
  static std::uint64_t packed_product(std::uint64_t a, std::uint64_t b, std::size_t dim) {
    std::uint64_t out = 0;
    for (std::size_t k = 0; k < dim; ++k) {
      out |= ((a >> k) & kByteLowBits) * ((b >> (8 * k)) & 0xFF);
    }
    return out;
  }

  bool is_inline() const { return dim_ <= kInlineDim; }
  std::size_t words_per_row() const { return (dim_ + kWordBits - 1) / kWordBits; }
  std::size_t num_words() const { return dim_ * words_per_row(); }
  /// Row `row` of a heap matrix, words_per_row() words.
  const std::uint64_t* heap_row(std::size_t row) const {
    return heap_ + row * words_per_row();
  }
  /// Row `row` of an inline matrix, in the low dim() bits.
  std::uint64_t inline_row(std::size_t row) const { return (word_ >> (8 * row)) & 0xFF; }

  void release() {
    if (!is_inline()) delete[] heap_;
  }
  // Heap-kind twins of the inline members above (bitmatrix.cpp).
  void allocate_heap();
  void copy_heap(const BitMatrix& other);
  BitMatrix& assign_heap(const BitMatrix& other);
  void multiply_heap(const BitMatrix& other, BitMatrix& out) const;
  bool any_heap() const;
  std::size_t count_heap() const;
  bool equal_heap(const BitMatrix& other) const;
  std::size_t hash_heap() const;

  /// Takes other's bits, leaving it the empty matrix. *this must own no
  /// heap words (freshly constructed or just released).
  void steal(BitMatrix& other) {
    dim_ = other.dim_;
    if (is_inline()) {
      word_ = other.word_;
    } else {
      heap_ = other.heap_;
    }
    other.dim_ = 0;
    other.word_ = 0;
  }

  std::size_t dim_ = 0;
  union {
    std::uint64_t word_ = 0;  ///< the entries, while dim_ <= 8
    std::uint64_t* heap_;     ///< num_words() owned words, while dim_ > 8
  };
};
static_assert(sizeof(BitMatrix) <= 2 * sizeof(std::uint64_t),
              "BitMatrix is its dimension plus one word or one pointer");

/// Bit-packed boolean row vector of fixed dimension, used for
/// reachability sweeps (vector * matrix).
///
/// Output alphabets are almost always small, so a vector of dim() <= 64
/// keeps its bits in one inline word and never allocates; only a wider
/// vector owns a heap array of ceil(dim() / 64) words. Invariant: all bits
/// at indices >= dim() are zero, which makes operator== and hashing well
/// defined on the raw words.
class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(std::size_t dim) : dim_(dim) {
    if (!is_inline()) allocate_heap();
  }
  BitVector(const BitVector& other) : dim_(other.dim_) {
    if (is_inline()) {
      word_ = other.word_;
    } else {
      copy_heap(other);
    }
  }
  BitVector(BitVector&& other) noexcept { steal(other); }
  BitVector& operator=(const BitVector& other) {
    if (!is_inline() || !other.is_inline()) return assign_heap(other);
    dim_ = other.dim_;
    word_ = other.word_;
    return *this;
  }
  BitVector& operator=(BitVector&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }
  ~BitVector() { release(); }

  static BitVector unit(std::size_t dim, std::size_t index);
  static BitVector ones(std::size_t dim);

  std::size_t dim() const { return dim_; }
  bool get(std::size_t index) const {
    assert(index < dim_);
    if (is_inline()) return (word_ >> index) & 1u;
    return (heap_[index / kInlineBits] >> (index % kInlineBits)) & 1u;
  }
  void set(std::size_t index, bool value) {
    assert(index < dim_);
    std::uint64_t& w = is_inline() ? word_ : heap_[index / kInlineBits];
    const std::uint64_t bit = std::uint64_t{1} << (index % kInlineBits);
    if (value) {
      w |= bit;
    } else {
      w &= ~bit;
    }
  }
  bool any() const { return is_inline() ? word_ != 0 : any_heap(); }
  std::size_t count() const {
    return is_inline() ? static_cast<std::size_t>(std::popcount(word_)) : count_heap();
  }

  /// v * M (boolean): result[j] = OR_i v[i] AND M[i][j].
  BitVector multiplied(const BitMatrix& m) const {
    BitVector result(dim_);
    multiply_into(m, result);
    return result;
  }
  /// v * M written into `out` (same dim), reusing its storage — for hot
  /// loops that cannot afford an allocation per product.
  void multiply_into(const BitMatrix& m, BitVector& out) const {
    assert(dim_ == m.dim() && out.dim_ == dim_);
    assert(&out != this);  // out is cleared before this is read
    if (!m.is_inline()) return multiply_heap(m, out);
    std::uint64_t acc = 0;
    for (std::uint64_t bits = word_; bits != 0; bits &= bits - 1) {
      acc |= m.inline_row(static_cast<std::size_t>(std::countr_zero(bits)));
    }
    out.word_ = acc;
  }

  /// Inner product: OR_i a[i] AND b[i].
  bool intersects(const BitVector& other) const {
    assert(dim_ == other.dim_);
    return is_inline() ? (word_ & other.word_) != 0 : intersects_heap(other);
  }
  /// True if every set bit of *this is set in `other`.
  bool subset_of(const BitVector& other) const {
    assert(dim_ == other.dim_);
    return is_inline() ? (word_ & ~other.word_) == 0 : subset_of_heap(other);
  }
  /// Index of the lowest set bit, or dim() if none.
  std::size_t first_set() const { return next_set(0); }
  /// Index of the lowest set bit at or above `from`, or dim() if none.
  std::size_t next_set(std::size_t from) const {
    if (!is_inline()) return next_set_heap(from);
    if (from >= dim_) return dim_;
    const std::uint64_t bits = word_ & (~std::uint64_t{0} << from);
    return bits != 0 ? static_cast<std::size_t>(std::countr_zero(bits)) : dim_;
  }

  BitVector operator|(const BitVector& other) const {
    BitVector result = *this;
    result |= other;
    return result;
  }
  BitVector operator&(const BitVector& other) const {
    BitVector result = *this;
    result &= other;
    return result;
  }
  BitVector& operator|=(const BitVector& other) {
    assert(dim_ == other.dim_);
    if (!is_inline()) return or_heap(other);
    word_ |= other.word_;
    return *this;
  }
  BitVector& operator&=(const BitVector& other) {
    assert(dim_ == other.dim_);
    if (!is_inline()) return and_heap(other);
    word_ &= other.word_;
    return *this;
  }
  /// Clears the bits set in `other` (this &= ~other, within dim()).
  BitVector& remove(const BitVector& other) {
    assert(dim_ == other.dim_);
    if (!is_inline()) return remove_heap(other);
    word_ &= ~other.word_;
    return *this;
  }
  /// Zeroes every bit, keeping the dimension.
  void clear() {
    if (is_inline()) {
      word_ = 0;
    } else {
      clear_heap();
    }
  }

  bool operator==(const BitVector& other) const {
    if (dim_ != other.dim_) return false;
    return is_inline() ? word_ == other.word_ : equal_heap(other);
  }
  std::size_t hash() const {
    if (!is_inline()) return hash_heap();
    return hash_mix(hash_mix(0x5678, dim_), static_cast<std::size_t>(word_));
  }
  std::string to_string() const;

 private:
  static constexpr std::size_t kInlineBits = 64;

  bool is_inline() const { return dim_ <= kInlineBits; }
  std::size_t num_words() const { return (dim_ + kInlineBits - 1) / kInlineBits; }

  void release() {
    if (!is_inline()) delete[] heap_;
  }
  // Heap-kind twins of the inline members above (bitmatrix.cpp).
  void allocate_heap();
  void copy_heap(const BitVector& other);
  BitVector& assign_heap(const BitVector& other);
  void multiply_heap(const BitMatrix& m, BitVector& out) const;
  bool any_heap() const;
  std::size_t count_heap() const;
  bool intersects_heap(const BitVector& other) const;
  bool subset_of_heap(const BitVector& other) const;
  std::size_t next_set_heap(std::size_t from) const;
  BitVector& or_heap(const BitVector& other);
  BitVector& and_heap(const BitVector& other);
  BitVector& remove_heap(const BitVector& other);
  void clear_heap();
  bool equal_heap(const BitVector& other) const;
  std::size_t hash_heap() const;

  /// Takes other's bits, leaving it the empty vector. *this must own no
  /// heap words (freshly constructed or just released).
  void steal(BitVector& other) {
    dim_ = other.dim_;
    if (is_inline()) {
      word_ = other.word_;
    } else {
      heap_ = other.heap_;
    }
    other.dim_ = 0;
    other.word_ = 0;
  }

  std::size_t dim_ = 0;
  union {
    std::uint64_t word_ = 0;  ///< the bits, while dim_ <= 64
    std::uint64_t* heap_;     ///< num_words() owned words, while dim_ > 64
  };
};
static_assert(sizeof(BitVector) <= 2 * sizeof(std::uint64_t),
              "BitVector is its dimension plus one word or one pointer");

struct BitMatrix::Stabilization {
  BitMatrix stable_power;   ///< M^first (== M^{first + period})
  std::uint64_t first = 0;  ///< smallest exponent where the cycle starts
  std::uint64_t period = 1; ///< cycle length of the power sequence
};

struct BitMatrixHash {
  std::size_t operator()(const BitMatrix& m) const { return m.hash(); }
};
struct BitVectorHash {
  std::size_t operator()(const BitVector& v) const { return v.hash(); }
};

}  // namespace lclpath
