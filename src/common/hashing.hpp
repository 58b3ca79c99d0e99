#pragma once
// Canonical value identity for configuration objects.
//
// A `CanonicalWords` is the flattened, order-significant word stream of a
// configuration's observable fields. Two configs are value-equal iff their
// word streams are identical — exact deep equality, no collision risk — and
// the stream folds into a stable 64-bit key for hashing/logging. The
// feasibility-query service (src/serve/) uses both: the word stream as the
// exact LRU key, the folded key as its hash.
//
// Storage: the first `kInlineWords` words live in a fixed array inside the
// object, so building, copying and comparing a key of that length touches
// no heap. Every analytic key the service builds for a pattern of up to 11
// slots fits; a longer stream (a StackConfig, a long TDD period) moves to
// the heap on its first word past the array and stays there.
//
// Stability contract: the fold is a pure function of the words (SplitMix64
// finalizer chain, no pointers, no addresses, no iteration-order
// dependence), so keys are identical across runs, platforms with the same
// field values, and thread counts. Doubles participate by bit pattern
// (canonical identity is *bitwise* field identity: -0.0 != +0.0, and any
// NaN payload is itself).

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace u5g {

/// One SplitMix64 finalizer step (same mixer as sim/runner.hpp's
/// `splitmix64`, restated here so u5g_common stays a leaf library).
[[nodiscard]] constexpr std::uint64_t hash_mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class CanonicalWords {
 public:
  /// Words held without a heap allocation. The longest analytic key in the
  /// repository's tests is 19 words: the tag, a 2 ms mu=2 pattern (4
  /// scalars + 4 direction-map words) and 10 query words
  /// (serve/feasibility_service.cpp).
  static constexpr std::size_t kInlineWords = 20;

  /// Pre-sizes the heap copy of a stream that will outgrow the array.
  void reserve(std::size_t n) {
    if (n > kInlineWords) spill_.reserve(n);
  }
  void add(std::uint64_t w) {
    if (spill_.empty() && inline_size_ < kInlineWords) {
      inline_[inline_size_++] = w;
      return;
    }
    if (spill_.empty()) spill_.assign(inline_.begin(), inline_.end());
    spill_.push_back(w);
  }
  void add_signed(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add_bool(bool b) { add(b ? 1 : 0); }
  /// Bit pattern of `d` — bitwise identity, see the header comment.
  void add_double(double d) { add(std::bit_cast<std::uint64_t>(d)); }
  /// Length-prefixed so "ab","c" and "a","bc" cannot collide.
  void add_string(std::string_view s) {
    add(s.size());
    std::uint64_t w = 0;
    int n = 0;
    for (unsigned char c : s) {
      w = (w << 8) | c;
      if (++n == 8) {
        add(w);
        w = 0;
        n = 0;
      }
    }
    if (n > 0) add(w);
  }

  /// The stream; the view dies with the next add() or assignment.
  [[nodiscard]] std::span<const std::uint64_t> words() const {
    if (!spill_.empty()) return spill_;
    return {inline_.data(), inline_size_};
  }
  [[nodiscard]] std::size_t size() const { return words().size(); }

  /// Stable 64-bit fold of the stream (length-seeded SplitMix64 chain).
  [[nodiscard]] std::uint64_t hash() const {
    const std::span<const std::uint64_t> ws = words();
    std::uint64_t h = hash_mix64(ws.size());
    for (std::uint64_t w : ws) h = hash_mix64(h ^ w);
    return h;
  }

  friend bool operator==(const CanonicalWords& a, const CanonicalWords& b) {
    return std::ranges::equal(a.words(), b.words());
  }

 private:
  /// The stream while it fits; a stream that outgrew it lives in `spill_`
  /// whole, and a non-empty `spill_` is what says so.
  std::array<std::uint64_t, kInlineWords> inline_{};
  std::size_t inline_size_ = 0;
  std::vector<std::uint64_t> spill_;
};

/// Hash functor for using CanonicalWords as an unordered-map key.
struct CanonicalWordsHash {
  [[nodiscard]] std::size_t operator()(const CanonicalWords& k) const {
    return static_cast<std::size_t>(k.hash());
  }
};

}  // namespace u5g
