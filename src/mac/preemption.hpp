#pragma once
// DL preemption ledger (flexible-TDD URLLC puncturing, arXiv 1909.11305).
//
// Tracks the DL transport blocks the gNB has staged towards the air: each
// (re)transmission registers its assignment window before the radio pipeline
// starts, and a URLLC arrival may *puncture* the earliest eMBB entry whose
// window it can still make — the URLLC TB takes the victim's air window, the
// victim re-enters HARQ like a lost transmission. Every puncture is
// therefore accounted as a HARQ re-entry, never silent loss: the PR-5
// identity `offered == delivered + harq_dropped + stranded + upf_drops`
// stays exact, with `punctured_retx` counting the re-entries on the side.
//
// Plain deterministic bookkeeping: no RNG, entries expire as the simulation
// clock passes their windows, lookups scan the (short) live window list.

#include <cstdint>
#include <optional>
#include <vector>

#include "common/time.hpp"

namespace u5g {

class PreemptionLedger {
 public:
  struct Entry {
    std::uint64_t token = 0;
    int ue_index = 0;
    Nanos tx_start{};
    Nanos tx_end{};
    bool punctured = false;
  };

  /// Register a staged DL transmission; returns its token (never 0).
  std::uint64_t register_tx(int ue_index, Nanos tx_start, Nanos tx_end) {
    Entry e;
    e.token = ++next_token_;
    e.ue_index = ue_index;
    e.tx_start = tx_start;
    e.tx_end = tx_end;
    entries_.push_back(e);
    return e.token;
  }

  /// Mark the earliest un-punctured entry of a UE other than `urllc_ue`
  /// whose window starts at or after `earliest` and strictly before
  /// `better_than`. Returns the victim's window when a puncture happened.
  std::optional<Entry> puncture_earliest(int urllc_ue, Nanos earliest, Nanos better_than) {
    Entry* victim = nullptr;
    for (Entry& e : entries_) {
      if (e.punctured || e.ue_index == urllc_ue) continue;
      if (e.tx_start < earliest || e.tx_start >= better_than) continue;
      if (victim == nullptr || e.tx_start < victim->tx_start) victim = &e;
    }
    if (victim == nullptr) return std::nullopt;
    victim->punctured = true;
    return *victim;
  }

  /// Was `token`'s window punctured? Consumes the entry either way once its
  /// transmission is resolved.
  bool consume(std::uint64_t token) {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].token != token) continue;
      const bool punctured = entries_[i].punctured;
      entries_[i] = entries_.back();
      entries_.pop_back();
      return punctured;
    }
    return false;
  }

  /// Entries whose air window has not completed by `now` — the DL in-flight
  /// signal the dynamic-format policy reads.
  [[nodiscard]] std::uint32_t inflight_at(Nanos now) const {
    std::uint32_t n = 0;
    for (const Entry& e : entries_) {
      if (e.tx_end > now) ++n;
    }
    return n;
  }

 private:
  std::vector<Entry> entries_;
  std::uint64_t next_token_ = 0;
};

}  // namespace u5g
