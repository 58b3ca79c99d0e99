#pragma once
// Memoized transport-block sizes for the standard MCS table.
//
// `transport_block_size_bits` is pure in (MCS, n_symbols, n_prb) for the
// default single-layer/one-DMRS-symbol allocation, and monotone
// non-decreasing in n_prb (REs grow linearly, the quantisation rounds down
// consistently). The scheduler and PRB-sizing paths call it with the same
// handful of (MCS, symbol) pairs for every packet, so this table computes
// all 29 MCS × 14 symbol-counts × 273 PRBs once and turns `prbs_needed`
// from an O(max_prb) rescan into a binary search over a monotone row.

#include <array>
#include <cstdint>

#include "phy/modulation.hpp"

namespace u5g {

/// Precomputed TBS values for default allocations (n_layers = 1,
/// dmrs_overhead_re = 12), indexed by standard MCS index and symbol count.
class TbsTable {
 public:
  static constexpr int kMaxPrb = 273;      ///< widest FR1 carrier (100 MHz @ 30 kHz)
  static constexpr int kMaxSymbols = 14;   ///< one slot
  static constexpr int kMcsCount = 29;

  /// The lazily built process-wide table (immutable after construction).
  [[nodiscard]] static const TbsTable& instance();

  /// True when (`mcs`, `n_symbols`) falls inside the memoized domain: a
  /// standard table row (index *and* contents must match — callers may pass
  /// hand-built McsEntry values) and an in-slot symbol count.
  [[nodiscard]] static bool covers(const McsEntry& mcs, int n_symbols);

  /// Smallest PRB count in [1, max_prb] with TBS >= `need_bits`, or 0 —
  /// binary search over the monotone row. `max_prb` may exceed kMaxPrb;
  /// the overflow range is scanned directly.
  [[nodiscard]] int prbs_needed(int need_bits, const McsEntry& mcs, int n_symbols,
                                int max_prb) const;

 private:
  TbsTable();

  using Row = std::array<std::int32_t, kMaxPrb>;
  [[nodiscard]] const Row& row(int mcs_index, int n_symbols) const {
    return rows_[static_cast<std::size_t>(mcs_index) * kMaxSymbols +
                 static_cast<std::size_t>(n_symbols - 1)];
  }

  std::array<Row, static_cast<std::size_t>(kMcsCount) * kMaxSymbols> rows_;
};

}  // namespace u5g
