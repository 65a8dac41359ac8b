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
#pragma once

#include <cstdint>
#include <cstddef>
#include <functional>
#include <string>

namespace lclpath {

/// Dense boolean square matrix with bit-packed rows.
///
/// Invariant: all bits outside the dim() x dim() entries are zero, which
/// makes operator== and hashing well defined on the raw words.
class BitMatrix {
 public:
  BitMatrix() = default;
  explicit BitMatrix(std::size_t dim);
  BitMatrix(const BitMatrix& other);
  BitMatrix(BitMatrix&& other) noexcept { steal(other); }
  BitMatrix& operator=(const BitMatrix& other);
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

  bool get(std::size_t row, std::size_t col) const;
  void set(std::size_t row, std::size_t col, bool value);

  /// Boolean matrix product: (a*b)[i][j] = OR_k a[i][k] AND b[k][j].
  BitMatrix operator*(const BitMatrix& other) const;
  BitMatrix& operator*=(const BitMatrix& other);
  /// this * other written into `out` (same dim, distinct object), reusing
  /// its storage — for hot loops (monoid enumeration probes) that cannot
  /// afford an allocation per product.
  void multiply_into(const BitMatrix& other, BitMatrix& out) const;

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

  bool any() const;
  /// True if some diagonal entry is set.
  bool any_diagonal() const;
  std::size_t count() const;

  bool operator==(const BitMatrix& other) const;

  /// Multi-line ASCII art (for debugging and golden tests).
  std::string to_string() const;

  std::size_t hash() const;

 private:
  friend class BitVector;  // reads rows for vector * matrix products

  static constexpr std::size_t kInlineDim = 8;
  static constexpr std::size_t kWordBits = 64;

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
  explicit BitVector(std::size_t dim);
  BitVector(const BitVector& other);
  BitVector(BitVector&& other) noexcept { steal(other); }
  BitVector& operator=(const BitVector& other);
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
  bool get(std::size_t index) const;
  void set(std::size_t index, bool value);
  bool any() const;
  std::size_t count() const;

  /// v * M (boolean): result[j] = OR_i v[i] AND M[i][j].
  BitVector multiplied(const BitMatrix& m) const;
  /// v * M written into `out` (same dim), reusing its storage — for hot
  /// loops that cannot afford an allocation per product.
  void multiply_into(const BitMatrix& m, BitVector& out) const;

  /// Inner product: OR_i a[i] AND b[i].
  bool intersects(const BitVector& other) const;
  /// True if every set bit of *this is set in `other`.
  bool subset_of(const BitVector& other) const;
  /// Index of the lowest set bit, or dim() if none.
  std::size_t first_set() const { return next_set(0); }
  /// Index of the lowest set bit at or above `from`, or dim() if none.
  std::size_t next_set(std::size_t from) const;

  BitVector operator|(const BitVector& other) const;
  BitVector operator&(const BitVector& other) const;
  BitVector& operator|=(const BitVector& other);
  BitVector& operator&=(const BitVector& other);
  /// Clears the bits set in `other` (this &= ~other, within dim()).
  BitVector& remove(const BitVector& other);
  /// Zeroes every bit, keeping the dimension.
  void clear();

  bool operator==(const BitVector& other) const;
  std::size_t hash() const;
  std::string to_string() const;

 private:
  static constexpr std::size_t kInlineBits = 64;

  bool is_inline() const { return dim_ <= kInlineBits; }
  std::size_t num_words() const { return (dim_ + kInlineBits - 1) / kInlineBits; }
  std::uint64_t* words() { return is_inline() ? &word_ : heap_; }
  const std::uint64_t* words() const { return is_inline() ? &word_ : heap_; }

  void release() {
    if (!is_inline()) delete[] heap_;
  }
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

}  // namespace lclpath
