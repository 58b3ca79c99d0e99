#pragma once
// RLC entities (TS 38.322): TM passthrough, UM with segmentation/reassembly,
// AM adding ARQ (retransmission on NACK).
//
// Latency-wise RLC plays two roles in the paper:
//  * Its *processing* time is small (Table 2: 4.12 µs mean), but
//  * its *queue* is where data waits for the per-slot MAC scheduler — the
//    RLC-q row of Table 2 (484 µs mean), by far the largest gNB component.
// The TX side therefore timestamps every SDU at enqueue so the harness can
// measure queuing delay exactly as the paper does.

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/delivery.hpp"
#include "common/ring.hpp"
#include "common/time.hpp"
#include "rlc/rlc_pdu.hpp"

namespace u5g {

enum class RlcMode { TM, UM, AM };

/// One PDU pulled from the TX entity, with the enqueue timestamp of the SDU
/// it (partially) carries — the RLC-q measurement hook.
struct RlcTxPdu {
  ByteBuffer pdu;
  Nanos sdu_enqueued_at;
  std::uint16_t sn = 0;
  bool is_retransmission = false;
};

/// Transmit-side RLC.
class RlcTx {
 public:
  explicit RlcTx(RlcMode mode, int poll_every = 8) : mode_(mode), poll_every_(poll_every) {}

  /// Queue an SDU (timestamped by the caller's clock).
  void enqueue(ByteBuffer&& sdu, Nanos now);

  /// Build the next PDU of at most `max_bytes` (header included). Segments
  /// when the head SDU does not fit. Retransmissions (AM) take priority.
  /// Returns nullopt when nothing is pending or `max_bytes` cannot fit a
  /// header plus at least one payload byte.
  [[nodiscard]] std::optional<RlcTxPdu> pull(std::size_t max_bytes);

  /// Drop the head-of-line SDU (the MAC gave up on it). A head already
  /// partly segmented gives up its SN, so the next SDU never shares an SN
  /// with the orphaned segments. Returns false when nothing was queued.
  bool discard_head();

  /// AM only: process a status report — ACKed SNs leave the retransmission
  /// buffer, NACKed SNs are queued for retransmission.
  void on_status(std::uint16_t ack_sn, const std::vector<std::uint16_t>& nack_sns);

  /// AM only: t-PollRetransmit expiry (TS 38.322 §5.3.3.4) — the sender has
  /// unacknowledged PDUs the receiver may never have seen (so no NACK will
  /// ever name them); re-queue every buffered PDU not already scheduled.
  /// Returns how many PDUs were (re)queued.
  std::size_t retransmit_unacked();

  [[nodiscard]] std::size_t queued_sdus() const { return queue_.size(); }
  [[nodiscard]] std::size_t queued_bytes() const;
  [[nodiscard]] bool has_data() const { return !queue_.empty() || !retx_.empty(); }
  [[nodiscard]] RlcMode mode() const { return mode_; }
  [[nodiscard]] std::size_t unacked_pdus() const { return sent_.size(); }

  /// Enqueue time of the oldest queued SDU, if any (for BSR/margin logic).
  [[nodiscard]] std::optional<Nanos> head_enqueued_at() const;

 private:
  struct QueuedSdu {
    ByteBuffer sdu;
    Nanos enqueued_at;
    std::size_t offset = 0;  ///< bytes already sent (segmentation progress)
  };
  struct SentPdu {            // AM retransmission buffer entry
    ByteBuffer pdu;           ///< fully formed PDU (header included)
    Nanos sdu_enqueued_at;
  };
  /// Retransmission-buffer key: segments of one SDU share an SN but differ
  /// in segment offset, and every one of them must be individually
  /// retransmittable (a NACKed SN re-sends all of its segments).
  using SnSo = std::pair<std::uint16_t, std::uint16_t>;

  RlcMode mode_;
  int poll_every_;
  int pdus_since_poll_ = 0;
  std::uint16_t next_sn_ = 0;
  RingDeque<QueuedSdu> queue_;  ///< ring: a warm steady-state queue never allocates
  std::map<SnSo, SentPdu> sent_;                       ///< AM: awaiting ACK
  std::deque<SnSo> retx_;                              ///< AM: NACKed, to resend
};

/// Receive-side RLC: reassembles segments, delivers SDUs.
class RlcRx {
 public:
  /// Non-owning delivery callback, invoked synchronously inside receive()
  /// with `PacketMeta::sn` set to the SDU's sequence number.
  using Deliver = DeliveryFn;

  explicit RlcRx(RlcMode mode) : mode_(mode) {}

  /// Process one PDU; complete SDUs go to `deliver`. Returns the decoded
  /// header (for AM status generation), or nullopt if malformed.
  std::optional<RlcHeader> receive(ByteBuffer&& pdu, Deliver deliver);

  /// AM: build a status report: cumulative ACK_SN (next expected) plus the
  /// NACK list of missing SNs below the highest seen.
  struct Status {
    std::uint16_t ack_sn = 0;
    std::vector<std::uint16_t> nacks;
  };
  [[nodiscard]] Status build_status() const;

  [[nodiscard]] std::size_t pending_reassemblies() const { return partial_.size(); }

 private:
  struct Partial {
    std::map<std::uint16_t, ByteBuffer> segments;  ///< keyed by SO
    bool have_last = false;
    std::size_t total_bytes = 0;
    std::size_t last_end = 0;
  };

  void try_reassemble(std::uint16_t sn, Deliver deliver);

  RlcMode mode_;
  std::map<std::uint16_t, Partial> partial_;
  std::uint16_t highest_sn_seen_ = 0;
  bool any_seen_ = false;
  /// AM only: SN -> fully received, feeds build_status(). TM/UM never build
  /// status reports, so they skip this bookkeeping (a map node per packet).
  std::map<std::uint16_t, bool> received_;
};

}  // namespace u5g
