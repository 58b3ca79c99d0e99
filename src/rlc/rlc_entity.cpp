#include "rlc/rlc_entity.hpp"

#include <algorithm>

namespace u5g {

// ---------------------------------------------------------------------------
// RlcTx

void RlcTx::enqueue(ByteBuffer&& sdu, Nanos now) {
  queue_.push_back(QueuedSdu{std::move(sdu), now, 0});
}

std::size_t RlcTx::queued_bytes() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < queue_.size(); ++i) n += queue_[i].sdu.size() - queue_[i].offset;
  return n;
}

std::optional<RlcTxPdu> RlcTx::pull(std::size_t max_bytes) {
  if (queue_.empty()) return std::nullopt;
  if (max_bytes < kMaxRlcHeader + 1) return std::nullopt;

  QueuedSdu& head = queue_.front();
  const std::size_t remaining = head.sdu.size() - head.offset;
  const bool is_first_piece = head.offset == 0;

  RlcHeader h;
  h.sn = next_sn_;
  h.so = static_cast<std::uint16_t>(head.offset);

  std::size_t payload;
  bool sdu_finished;
  // Fits completely (with the 2-byte no-SO header)?
  if (is_first_piece && remaining + 2 <= max_bytes) {
    h.si = SegmentInfo::Complete;
    payload = remaining;
    sdu_finished = true;
  } else {
    h.si = is_first_piece ? SegmentInfo::First
                          : (remaining + h.encoded_size() <= max_bytes ? SegmentInfo::Last
                                                                       : SegmentInfo::Middle);
    // Recompute: First has no SO (2 bytes), Middle/Last have SO (4 bytes).
    const std::size_t hdr = (h.si == SegmentInfo::First) ? 2u : 4u;
    payload = std::min(remaining, max_bytes - hdr);
    sdu_finished = payload == remaining && h.si != SegmentInfo::First;
    if (h.si == SegmentInfo::Last && !sdu_finished) h.si = SegmentInfo::Middle;
  }

  const Nanos enq = head.enqueued_at;
  ByteBuffer pdu;
  if (h.si == SegmentInfo::Complete) {
    // Complete SDU: move the queued buffer out and prepend the header into
    // its headroom. The payload copy (and its pool round-trip) only ever
    // paid for segmentation, which a Complete PDU does not need.
    pdu = std::move(head.sdu);
    h.encode(pdu);
    queue_.pop_front();
  } else {
    pdu = ByteBuffer::uninitialized(payload);
    const auto src = head.sdu.bytes().subspan(head.offset, payload);
    std::copy(src.begin(), src.end(), pdu.bytes().begin());
    h.encode(pdu);
    head.offset += payload;
    if (head.offset >= head.sdu.size()) queue_.pop_front();
  }

  const std::uint16_t sn = next_sn_;
  // The SN advances per SDU completion (segments share the SN).
  if (sdu_finished) next_sn_ = static_cast<std::uint16_t>((next_sn_ + 1) & 0x0FFF);
  return RlcTxPdu{std::move(pdu), enq, sn};
}

bool RlcTx::discard_head() {
  if (queue_.empty()) return false;
  if (queue_.front().offset > 0) {
    next_sn_ = static_cast<std::uint16_t>((next_sn_ + 1) & 0x0FFF);
  }
  queue_.pop_front();
  return true;
}

// ---------------------------------------------------------------------------
// RlcRx

std::optional<RlcHeader> RlcRx::receive(ByteBuffer&& pdu, Deliver deliver) {
  auto h = RlcHeader::decode(pdu);
  if (!h) return std::nullopt;

  if (h->si == SegmentInfo::Complete) {
    PacketMeta meta;
    meta.sn = h->sn;
    deliver(std::move(pdu), meta);
    return h;
  }

  // Segment path: stash by offset, reassemble when last seen and contiguous.
  Partial& part = partial_[h->sn];
  const std::uint16_t so = h->si == SegmentInfo::First ? 0 : h->so;
  if (!part.segments.contains(so)) {
    if (h->si == SegmentInfo::Last) {
      part.have_last = true;
      part.last_end = so + pdu.size();
    }
    part.segments.emplace(so, std::move(pdu));
  }
  try_reassemble(h->sn, deliver);
  return h;
}

void RlcRx::try_reassemble(std::uint16_t sn, Deliver deliver) {
  const auto it = partial_.find(sn);
  if (it == partial_.end()) return;
  Partial& part = it->second;
  if (!part.have_last) return;

  // Contiguity check: offsets must tile [0, last_end).
  std::size_t expect = 0;
  for (const auto& [so, seg] : part.segments) {
    if (so != expect) return;
    expect += seg.size();
  }
  if (expect != part.last_end) return;

  ByteBuffer sdu = ByteBuffer::uninitialized(part.last_end);
  std::size_t off = 0;
  for (auto& [so, seg] : part.segments) {
    const auto b = seg.bytes();
    std::copy(b.begin(), b.end(), sdu.bytes().begin() + static_cast<std::ptrdiff_t>(off));
    off += b.size();
  }
  partial_.erase(it);
  PacketMeta meta;
  meta.sn = sn;
  deliver(std::move(sdu), meta);
}

}  // namespace u5g
