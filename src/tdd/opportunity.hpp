#pragma once
// Transmission-opportunity queries over a DuplexConfig.
//
// These primitives encode the protocol-latency semantics of §4/§5:
//
//  * UL transmissions (SR or data on pre-allocated/granted resources) may
//    start at any *symbol* boundary inside an uplink-capable region — the
//    paper's footnote 2: "any UE can send SR (one bit) at any time during
//    the UL slot".
//  * DL data and DL control ride *granules* (slots, or mini-slots for the
//    Mini-Slot configuration): control information goes out once per granule
//    (§2), so the gNB can only serve data in a granule whose start lies at
//    or after the moment the data is ready — a packet that misses a granule
//    boundary waits for the next one.
//
// Both the closed-form worst-case engine (src/core/latency_model) and the
// event-driven MAC are built on exactly these queries, which is what makes
// the analytic-vs-simulated agreement tests meaningful.
//
// The scans read the configuration one slot at a time through its 14-bit
// direction masks (DuplexConfig::dl_mask / ul_mask): UL runs are found with
// bit counts over the slot word and carried across slot boundaries, and DL
// granules are the granule-start bits of the slot's DL mask. The answers are
// exactly those of a symbol-by-symbol walk, search_limit cut-offs included.

#include <optional>

#include "common/time.hpp"
#include "tdd/duplex_config.hpp"

namespace u5g {

/// A transmission window: [start, end) on the air.
struct TxWindow {
  Nanos start;
  Nanos end;
  [[nodiscard]] Nanos duration() const { return end - start; }
};

/// Earliest window of `n_symbols` consecutive uplink-capable symbols whose
/// start is at or after `t`. Consecutive across slot boundaries counts
/// (symbol 13 of slot s abuts symbol 0 of slot s+1), so a window may span
/// several slots. Returns nullopt unless the window's last symbol starts
/// before t + `search_limit`.
[[nodiscard]] std::optional<TxWindow> next_ul_tx(const DuplexConfig& cfg, Nanos t, int n_symbols,
                                                 Nanos search_limit = Nanos{40'000'000});

/// Earliest control transmission at or after `t`: the first granule boundary
/// >= t whose opening symbol is downlink-capable. The window covers the
/// control symbols (PDCCH); `end` is when a UE has received the control.
/// Returns nullopt unless that boundary lies before t + `search_limit`.
[[nodiscard]] std::optional<TxWindow> next_dl_control(const DuplexConfig& cfg, Nanos t,
                                                      Nanos search_limit = Nanos{40'000'000});

/// Earliest DL *data* service at or after `t`: the first granule boundary
/// >= t whose granule opens with a downlink-capable run longer than the
/// control overhead. `start` is the granule boundary (when the scheduling
/// decision takes effect); `end` is the end of that downlink run — the
/// worst-case completion of data served in the granule. Returns nullopt
/// unless that boundary lies before t + `search_limit`.
[[nodiscard]] std::optional<TxWindow> next_dl_data(const DuplexConfig& cfg, Nanos t,
                                                   Nanos search_limit = Nanos{40'000'000});

/// Next scheduler run at or after `t`: granule boundaries are where the
/// per-slot (or per-mini-slot) scheduling decision happens.
[[nodiscard]] Nanos next_scheduler_run(const DuplexConfig& cfg, Nanos t);

/// Start time of the granule boundary at or after `t`.
[[nodiscard]] Nanos next_granule_boundary(const DuplexConfig& cfg, Nanos t);

}  // namespace u5g
