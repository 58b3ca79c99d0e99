#pragma once
// PDCP layer (TS 38.323): sequence numbering, ciphering, integrity
// protection, and receive-side reordering with in-order delivery.
//
// In the ping journey (§3) PDCP is "the encryption layer". For latency it
// matters twice: its processing time (Table 2: 8.29 µs mean at the gNB) and
// — under loss — its reordering wait, which trades latency for in-order
// delivery exactly as §6 describes for reliability mechanisms.

#include <cstdint>
#include <map>
#include <optional>
#include <span>

#include "common/bytes.hpp"
#include "common/delivery.hpp"
#include "pdcp/cipher.hpp"

namespace u5g {

/// PDCP configuration: 12-bit (default) or 18-bit sequence numbers.
struct PdcpConfig {
  int sn_bits = 12;
  bool integrity_enabled = true;
  CipherContext security{};

  [[nodiscard]] std::uint32_t sn_modulus() const { return 1u << sn_bits; }
  [[nodiscard]] std::size_t header_bytes() const { return sn_bits == 12 ? 2 : 3; }
};

/// Transmit-side PDCP: assigns COUNTs, ciphers, tags.
class PdcpTx {
 public:
  explicit PdcpTx(PdcpConfig cfg = {}) : cfg_(cfg) {}

  /// Protect `sdu` in place: cipher payload, append MAC-I, prepend header.
  void protect(ByteBuffer& sdu);

  /// Protect a batch of SDUs, running the cipher and integrity kernels four
  /// packets per inner loop (see cipher.hpp). Exactly equivalent to calling
  /// protect() on each SDU in order — COUNT assignment and every output
  /// byte are bit-identical; tests assert this against the scalar oracle.
  void protect_batch(std::span<ByteBuffer*> sdus);

  [[nodiscard]] std::uint32_t next_count() const { return next_count_; }

 private:
  PdcpConfig cfg_;
  std::uint32_t next_count_ = 0;
};

/// Receive-side PDCP: deciphers, verifies, reorders, delivers in order.
class PdcpRx {
 public:
  /// Callback receives each SDU exactly once, in COUNT order, with
  /// `PacketMeta::count` set. Non-owning: invoked synchronously before
  /// receive()/flush() return.
  using Deliver = DeliveryFn;

  explicit PdcpRx(PdcpConfig cfg = {}) : cfg_(cfg) {}

  /// Process one PDU. Returns false if the PDU was discarded (bad integrity,
  /// duplicate, or stale). In-order SDUs (and any consecutive run they
  /// unblock) are handed to `deliver`.
  bool receive(ByteBuffer&& pdu, Deliver deliver);

  /// Process a batch of PDUs. Behaviourally identical to calling receive()
  /// on each PDU in order (same deliveries, same state, same counters);
  /// returns how many PDUs were accepted. When the whole batch is the
  /// loss-free in-order steady state it verifies and deciphers with the
  /// four-lane batch kernels; any deviation (gap, duplicate, bad tag,
  /// buffered reordering state) falls back to the scalar path for the whole
  /// batch, which stays the oracle.
  std::size_t receive_batch(std::span<ByteBuffer> pdus, Deliver deliver);

  /// Force-deliver everything buffered (t-Reordering expiry): skips gaps.
  void flush(Deliver deliver);

  [[nodiscard]] std::size_t held_count() const { return held_.size(); }
  [[nodiscard]] std::uint32_t expected_count() const { return expected_; }
  [[nodiscard]] std::uint64_t integrity_failures() const { return integrity_failures_; }

 private:
  /// Reconstruct the full COUNT from a received SN (TS 38.323 §5.2.2).
  [[nodiscard]] std::uint32_t infer_count(std::uint32_t sn) const;
  [[nodiscard]] std::uint32_t infer_count_from(std::uint32_t expected, std::uint32_t sn) const;

  PdcpConfig cfg_;
  std::uint32_t expected_ = 0;             ///< next COUNT to deliver
  std::map<std::uint32_t, ByteBuffer> held_;  ///< out-of-order stash
  std::uint64_t integrity_failures_ = 0;
};

}  // namespace u5g
