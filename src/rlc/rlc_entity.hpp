#pragma once
// RLC entities (TS 38.322), unacknowledged mode: segmentation on transmit,
// reassembly on receive. HARQ below the bearer is the retransmission loop
// the paper studies, so no RLC ARQ runs on top of it.
//
// Latency-wise RLC plays two roles in the paper:
//  * Its *processing* time is small (Table 2: 4.12 µs mean), but
//  * its *queue* is where data waits for the per-slot MAC scheduler — the
//    RLC-q row of Table 2 (484 µs mean), by far the largest gNB component.
// The TX side therefore timestamps every SDU at enqueue so the harness can
// measure queuing delay exactly as the paper does.

#include <cstdint>
#include <map>
#include <optional>

#include "common/bytes.hpp"
#include "common/delivery.hpp"
#include "common/ring.hpp"
#include "common/time.hpp"
#include "rlc/rlc_pdu.hpp"

namespace u5g {

/// The entities' one mode. It stays a named value (rather than a default
/// constructor) because external benchmark code constructs entities as
/// `RlcTx(RlcMode::UM)`.
enum class RlcMode { UM };

/// One PDU pulled from the TX entity, with the enqueue timestamp of the SDU
/// it (partially) carries — the RLC-q measurement hook.
struct RlcTxPdu {
  ByteBuffer pdu;
  Nanos sdu_enqueued_at;
  std::uint16_t sn = 0;
};

/// Transmit-side RLC.
class RlcTx {
 public:
  explicit RlcTx(RlcMode) {}

  /// Queue an SDU (timestamped by the caller's clock).
  void enqueue(ByteBuffer&& sdu, Nanos now);

  /// Build the next PDU of at most `max_bytes` (header included). Segments
  /// when the head SDU does not fit. Returns nullopt when nothing is
  /// pending or `max_bytes` cannot fit a header plus at least one payload
  /// byte.
  [[nodiscard]] std::optional<RlcTxPdu> pull(std::size_t max_bytes);

  /// Drop the head-of-line SDU (the MAC gave up on it). A head already
  /// partly segmented gives up its SN, so the next SDU never shares an SN
  /// with the orphaned segments. Returns false when nothing was queued.
  bool discard_head();

  [[nodiscard]] std::size_t queued_sdus() const { return queue_.size(); }
  [[nodiscard]] std::size_t queued_bytes() const;
  [[nodiscard]] bool has_data() const { return !queue_.empty(); }

 private:
  struct QueuedSdu {
    ByteBuffer sdu;
    Nanos enqueued_at;
    std::size_t offset = 0;  ///< bytes already sent (segmentation progress)
  };

  std::uint16_t next_sn_ = 0;
  RingDeque<QueuedSdu> queue_;  ///< ring: a warm steady-state queue never allocates
};

/// Receive-side RLC: reassembles segments, delivers SDUs.
class RlcRx {
 public:
  /// Non-owning delivery callback, invoked synchronously inside receive()
  /// with `PacketMeta::sn` set to the SDU's sequence number.
  using Deliver = DeliveryFn;

  explicit RlcRx(RlcMode) {}

  /// Process one PDU; complete SDUs go to `deliver`. Returns the decoded
  /// header, or nullopt if malformed.
  std::optional<RlcHeader> receive(ByteBuffer&& pdu, Deliver deliver);

  [[nodiscard]] std::size_t pending_reassemblies() const { return partial_.size(); }

 private:
  struct Partial {
    std::map<std::uint16_t, ByteBuffer> segments;  ///< keyed by SO
    bool have_last = false;
    std::size_t last_end = 0;
  };

  void try_reassemble(std::uint16_t sn, Deliver deliver);

  std::map<std::uint16_t, Partial> partial_;
};

}  // namespace u5g
