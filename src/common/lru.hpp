#pragma once
// Bounded least-recently-used cache.
//
// The feasibility-query service memoizes analytic worst-case results and
// fixed-seed sim replication sets keyed on canonical config identity
// (common/hashing.hpp). The cache is exact: keys compare by full value, the
// hash only places and filters — an eviction can cost a recomputation but
// can never change an answer. Not thread-safe; callers that share one cache
// across threads hold their own lock (the service serialises cache access
// and runs the expensive compute outside the lock).
//
// Layout, flat so that a full cache neither allocates nor frees:
//   - Entries live in one slab of nodes that grows up to `capacity` and
//     never shrinks. The recency list links them by uint32_t prev/next
//     indices (head = most recently used).
//   - The index is an open-addressed, linearly probed table of node
//     indices, each stored beside a 32-bit scramble of its key's hash. The
//     scramble picks the home slot and filters probes before any key
//     compare. The table doubles to keep its load at or below 1/2, and an
//     erase shifts the rest of its run back, so it holds no tombstones.
//   - Once the slab is full, an insert evicts the LRU tail and reuses its
//     node in place. A Key or Value that owns heap memory still copies it.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

namespace u5g {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    [[nodiscard]] double hit_rate() const {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    }
  };

  /// A zero capacity degenerates to "cache nothing" (every find misses).
  /// Throws std::length_error past 2^30 entries, where the index would
  /// outgrow what uint32_t node indices and 32-bit scrambles address.
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {
    if (capacity_ > kMaxCapacity) throw std::length_error{"LruCache: capacity above 2^30"};
  }

  /// Lookup; a hit promotes the entry to most-recently-used. The returned
  /// pointer is invalidated by the next insert().
  [[nodiscard]] const Value* find(const Key& key) {
    const std::uint32_t n = lookup(key, scramble(key));
    if (n == kNil) {
      ++stats_.misses;
      return nullptr;
    }
    ++stats_.hits;
    promote(n);
    return &nodes_[n].value;
  }

  /// Insert (or overwrite) as most-recently-used, evicting the LRU entry
  /// when full.
  void insert(const Key& key, Value value) {
    const std::uint32_t fp = scramble(key);
    if (const std::uint32_t n = lookup(key, fp); n != kNil) {
      nodes_[n].value = std::move(value);
      promote(n);
      return;
    }
    if (capacity_ == 0) return;
    std::uint32_t n = tail_;
    if (nodes_.size() < capacity_) {
      if (2 * (nodes_.size() + 1) > slots_.size()) grow_index();
      if (nodes_.size() == nodes_.capacity()) {
        nodes_.reserve(std::min(capacity_, 2 * nodes_.size() + 1));
      }
      n = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back(Node{key, std::move(value)});
    } else {
      unlink(n);
      erase_slot(n);
      nodes_[n].key = key;
      nodes_[n].value = std::move(value);
      ++stats_.evictions;
    }
    nodes_[n].fp = fp;
    link_front(n);
    place(n, fp);
  }

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  static constexpr std::uint32_t kNil = 0xFFFF'FFFF;
  static constexpr std::size_t kMaxCapacity = std::size_t{1} << 30;

  struct Node {
    Key key;
    Value value;
    std::uint32_t fp = 0;  ///< scramble(key), to find the node's slot again
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };
  struct Slot {
    std::uint32_t node = kNil;  ///< kNil = empty
    std::uint32_t fp = 0;
  };

  /// Fibonacci scramble of the key's hash: its top bits choose the home
  /// slot, so hashes that differ only in their high bits (or an identity
  /// std::hash) still spread.
  [[nodiscard]] std::uint32_t scramble(const Key& key) const {
    return static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(hash_(key)) * 0x9e3779b97f4a7c15ULL) >> 32);
  }
  [[nodiscard]] std::size_t home(std::uint32_t fp) const { return fp >> shift_; }
  [[nodiscard]] std::size_t mask() const { return slots_.size() - 1; }

  /// The node holding `key`, or kNil.
  [[nodiscard]] std::uint32_t lookup(const Key& key, std::uint32_t fp) const {
    if (slots_.empty()) return kNil;
    for (std::size_t i = home(fp);; i = (i + 1) & mask()) {
      const Slot& s = slots_[i];
      if (s.node == kNil) return kNil;
      if (s.fp == fp && nodes_[s.node].key == key) return s.node;
    }
  }

  /// Index node `n` (known absent) in the first empty slot of its run.
  void place(std::uint32_t n, std::uint32_t fp) {
    std::size_t i = home(fp);
    while (slots_[i].node != kNil) i = (i + 1) & mask();
    slots_[i] = Slot{n, fp};
  }

  /// Remove node `n` from the index by backward shift: each later entry of
  /// the run whose home does not lie after the hole moves into it.
  void erase_slot(std::uint32_t n) {
    std::size_t i = home(nodes_[n].fp);
    while (slots_[i].node != n) i = (i + 1) & mask();
    for (std::size_t j = (i + 1) & mask(); slots_[j].node != kNil; j = (j + 1) & mask()) {
      if (((j - home(slots_[j].fp)) & mask()) >= ((j - i) & mask())) {
        slots_[i] = slots_[j];
        i = j;
      }
    }
    slots_[i] = Slot{};
  }

  void grow_index() {
    const std::size_t size = std::max<std::size_t>(16, 2 * slots_.size());
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(size));
    shift_ = 32 - std::countr_zero(size);
    for (const Slot& s : old) {
      if (s.node != kNil) place(s.node, s.fp);
    }
  }

  void unlink(std::uint32_t n) {
    Node& node = nodes_[n];
    (node.prev == kNil ? head_ : nodes_[node.prev].next) = node.next;
    (node.next == kNil ? tail_ : nodes_[node.next].prev) = node.prev;
  }

  void link_front(std::uint32_t n) {
    Node& node = nodes_[n];
    node.prev = kNil;
    node.next = head_;
    (head_ == kNil ? tail_ : nodes_[head_].prev) = n;
    head_ = n;
  }

  void promote(std::uint32_t n) {
    if (n == head_) return;
    unlink(n);
    link_front(n);
  }

  std::size_t capacity_;
  [[no_unique_address]] Hash hash_;
  std::vector<Node> nodes_;  ///< the slab; size() = entries
  std::vector<Slot> slots_;  ///< the index; empty or a power of two
  int shift_ = 32;           ///< home(fp) = fp >> shift_
  std::uint32_t head_ = kNil;
  std::uint32_t tail_ = kNil;
  Stats stats_;
};

}  // namespace u5g
