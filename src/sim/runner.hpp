#pragma once
// Parallel Monte-Carlo replication harness.
//
// Tail reliability (99.999 % at a 0.5 ms deadline, §6) is sample-hungry:
// every bench runs many independent E2eSystem replications. The harness fans
// those replications across a Crew (common/crew.hpp) — worker w runs the
// contiguous index slice [n·w/W, n·(w+1)/W) — with deterministic
// per-replication seeds derived from one root seed (a SplitMix64 stream), and
// collects results into index-ordered storage so the merged statistics are
// bitwise-independent of the thread count: running at T=1, T=2, or T=8
// produces byte-identical output for the same root seed.
//
// Determinism contract:
//   * replication i always receives `replication_seed(root, i)`, regardless
//     of which worker executes it or in which order replications finish;
//   * results are returned (and therefore merged by the caller) in
//     replication-index order, never completion order;
//   * replication bodies share no mutable state (each builds its own
//     E2eSystem / Rng from the seed it is handed).

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/crew.hpp"

namespace u5g {

/// SplitMix64 output for state `x` (one mix step, no stream advance).
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seed of replication `index` in the SplitMix64 stream rooted at `root`.
/// Distinct (root, index) pairs give independent, well-mixed seeds.
[[nodiscard]] constexpr std::uint64_t replication_seed(std::uint64_t root, std::uint64_t index) {
  return splitmix64(root + index * 0x9e3779b97f4a7c15ULL);
}

struct RunnerOptions {
  int threads = 0;  ///< worker count; 0 = hardware concurrency
};

/// Resolve a requested thread count: values >= 1 pass through, anything else
/// maps to the hardware concurrency.
[[nodiscard]] int resolve_threads(int requested);

/// Run `fn(index, seed)` for every index in [0, n) with seeds drawn from the
/// SplitMix64 stream rooted at `root_seed`, fanning across `opt.threads`
/// workers. Returns results in replication-index order. `fn` must be
/// invocable concurrently from multiple threads (share nothing mutable);
/// its result type must be default-constructible and movable. With one
/// worker (or n <= 1) everything runs on the calling thread. A replication's
/// exception propagates after every slice has finished, first in index order.
template <typename Fn>
auto run_replications(int n, std::uint64_t root_seed, Fn&& fn, RunnerOptions opt = {})
    -> std::vector<std::invoke_result_t<Fn&, int, std::uint64_t>> {
  using Result = std::invoke_result_t<Fn&, int, std::uint64_t>;
  static_assert(std::is_default_constructible_v<Result>,
                "run_replications: result type must be default-constructible");
  if (n <= 0) return {};
  std::vector<Result> out(static_cast<std::size_t>(n));
  Crew crew(std::min(resolve_threads(opt.threads), n));
  crew.parallel_for(out.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      out[i] = fn(static_cast<int>(i), replication_seed(root_seed, i));
    }
  });
  return out;
}

/// Fold index-ordered replication results with `T::merge`. The left fold in
/// index order is part of the determinism contract: merging {r0, r1, r2} is
/// always r0.merge(r1).merge(r2), whatever the thread count was.
template <typename T>
[[nodiscard]] T merge_replications(std::vector<T> parts) {
  if (parts.empty()) return T{};
  T acc = std::move(parts.front());
  for (std::size_t i = 1; i < parts.size(); ++i) acc.merge(parts[i]);
  return acc;
}

/// Split `total` work items into `parts` near-equal chunks; chunk i gets
/// `split_evenly(total, parts, i)` items and the sum over i is exactly total.
[[nodiscard]] constexpr int split_evenly(int total, int parts, int index) {
  if (parts <= 0) return total;
  return total / parts + (index < total % parts ? 1 : 0);
}

}  // namespace u5g
