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
// Stability contract: the fold is a pure function of the words (SplitMix64
// finalizer chain, no pointers, no addresses, no iteration-order
// dependence), so keys are identical across runs, platforms with the same
// field values, and thread counts. Doubles participate by bit pattern
// (canonical identity is *bitwise* field identity: -0.0 != +0.0, and any
// NaN payload is itself).

#include <bit>
#include <cstdint>
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
  void reserve(std::size_t n) { words_.reserve(n); }
  void add(std::uint64_t w) { words_.push_back(w); }
  void add_signed(std::int64_t v) { words_.push_back(static_cast<std::uint64_t>(v)); }
  void add_bool(bool b) { words_.push_back(b ? 1 : 0); }
  /// Bit pattern of `d` — bitwise identity, see the header comment.
  void add_double(double d) { words_.push_back(std::bit_cast<std::uint64_t>(d)); }
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

  [[nodiscard]] const std::vector<std::uint64_t>& words() const { return words_; }
  [[nodiscard]] std::size_t size() const { return words_.size(); }

  /// Stable 64-bit fold of the stream (length-seeded SplitMix64 chain).
  [[nodiscard]] std::uint64_t hash() const {
    std::uint64_t h = hash_mix64(words_.size());
    for (std::uint64_t w : words_) h = hash_mix64(h ^ w);
    return h;
  }

  friend bool operator==(const CanonicalWords&, const CanonicalWords&) = default;

 private:
  std::vector<std::uint64_t> words_;
};

/// Hash functor for using CanonicalWords as an unordered-map key.
struct CanonicalWordsHash {
  [[nodiscard]] std::size_t operator()(const CanonicalWords& k) const {
    return static_cast<std::size_t>(k.hash());
  }
};

}  // namespace u5g
