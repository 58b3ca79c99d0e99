#pragma once
// Configured grants — grant-free uplink (TS 38.331 ConfiguredGrantConfig;
// paper §5). Resources are pre-allocated to a UE so it can transmit without
// the SR/grant handshake, cutting one full TDD period off the uplink latency
// (§7, Fig 6a vs 6b) at the cost of scalability: occasions reserved for a UE
// are wasted when it has nothing to send (§9 "URLLC Scalability").

#include <optional>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "mac/grant.hpp"
#include "tdd/opportunity.hpp"

namespace u5g {

struct ConfiguredGrantConfig {
  /// Spacing of configured occasions. Zero = an occasion may start at any
  /// uplink-capable symbol (the §5 idealisation).
  Nanos periodicity{};
  int tx_symbols = 2;        ///< symbols per occasion
  std::size_t tb_bytes = 128;  ///< transport block reserved per occasion
  /// Time-domain offset within the period (the standard's timeDomainOffset):
  /// staggers multiple UEs' occasions so their pre-allocations do not
  /// collide. Ignored when periodicity is zero.
  Nanos offset{};

  static ConfiguredGrantConfig every_symbol(std::size_t tb = 128, int symbols = 2) {
    return {Nanos::zero(), symbols, tb, Nanos::zero()};
  }
  static ConfiguredGrantConfig periodic(Nanos period, std::size_t tb = 128, int symbols = 2,
                                        Nanos offset = Nanos::zero()) {
    return {period, symbols, tb, offset};
  }

  [[nodiscard]] ConfiguredGrantConfig with_offset(Nanos o) const {
    ConfiguredGrantConfig c = *this;
    c.offset = o;
    return c;
  }
};

/// Per-UE configured-grant schedule.
class ConfiguredGrant {
 public:
  ConfiguredGrant(UeId ue, ConfiguredGrantConfig cfg) : ue_(ue), cfg_(cfg) {}

  /// Earliest configured occasion whose transmission starts at or after `t`.
  /// With a positive periodicity there is one occasion per grid period: the
  /// first UL window at or after the grid point (the standard's
  /// timeDomainAllocation anchors the occasion within the period; the grid
  /// point and the UL region need not coincide). Zero periodicity means
  /// occasions are dense: any UL window qualifies.
  [[nodiscard]] std::optional<UlGrant> next_occasion(const DuplexConfig& duplex, Nanos t) const {
    Nanos from = t;
    if (cfg_.periodicity > Nanos::zero()) {
      // The occasion for the current grid period starts at the first UL
      // window after the period's (offset-shifted) grid point; if `t` is
      // already past that window's start, the next period's occasion applies.
      const Nanos this_grid = align_down(t, cfg_.periodicity, cfg_.offset);
      const auto w = next_ul_tx(duplex, this_grid, cfg_.tx_symbols);
      if (w && w->start >= t) {
        return UlGrant{ue_, w->start, w->end, cfg_.tb_bytes, HarqId{0}, true};
      }
      from = align_up(t, cfg_.periodicity, cfg_.offset);
      if (from == t) from = t + cfg_.periodicity;  // t exactly on grid but window passed
    }
    const auto w = next_ul_tx(duplex, from, cfg_.tx_symbols);
    if (!w) return std::nullopt;
    return UlGrant{ue_, w->start, w->end, cfg_.tb_bytes, HarqId{0}, true};
  }

  /// Occasions per second this configuration reserves — the §9 waste metric.
  [[nodiscard]] double occasions_per_second(const DuplexConfig& duplex) const;

 private:
  UeId ue_;
  ConfiguredGrantConfig cfg_;
};

}  // namespace u5g
