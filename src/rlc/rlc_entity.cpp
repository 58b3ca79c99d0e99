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

std::optional<Nanos> RlcTx::head_enqueued_at() const {
  if (queue_.empty()) return std::nullopt;
  return queue_.front().enqueued_at;
}

std::optional<RlcTxPdu> RlcTx::pull(std::size_t max_bytes) {
  // AM retransmissions first: they already carry their headers.
  while (mode_ == RlcMode::AM && !retx_.empty()) {
    const SnSo key = retx_.front();
    const auto it = sent_.find(key);
    if (it == sent_.end()) {  // ACKed while queued for retx
      retx_.pop_front();
      continue;
    }
    if (it->second.pdu.size() > max_bytes) return std::nullopt;  // doesn't fit this grant
    retx_.pop_front();
    ByteBuffer copy = it->second.pdu;  // keep the buffered copy until ACKed
    return RlcTxPdu{std::move(copy), it->second.sdu_enqueued_at, key.first, true};
  }

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

  if (mode_ == RlcMode::AM) {
    ++pdus_since_poll_;
    if (pdus_since_poll_ >= poll_every_ || (sdu_finished && queue_.size() == 1)) {
      h.poll = true;
      pdus_since_poll_ = 0;
    }
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
  // TM reuses SN 0; UM/AM advance per SDU completion (segments share the SN).
  if (mode_ != RlcMode::TM && sdu_finished) next_sn_ = static_cast<std::uint16_t>((next_sn_ + 1) & 0x0FFF);

  if (mode_ == RlcMode::AM) {
    // Keyed by (SN, SO): every segment of an SDU is retransmittable.
    sent_.insert_or_assign(SnSo{sn, h.so}, SentPdu{pdu, enq});
  }
  return RlcTxPdu{std::move(pdu), enq, sn, false};
}

bool RlcTx::discard_head() {
  if (queue_.empty()) return false;
  if (queue_.front().offset > 0 && mode_ != RlcMode::TM) {
    next_sn_ = static_cast<std::uint16_t>((next_sn_ + 1) & 0x0FFF);
  }
  queue_.pop_front();
  return true;
}

void RlcTx::on_status(std::uint16_t ack_sn, const std::vector<std::uint16_t>& nack_sns) {
  if (mode_ != RlcMode::AM) return;
  // Cumulative ACK: everything below ack_sn that is not NACKed is delivered.
  for (auto it = sent_.begin(); it != sent_.end();) {
    const bool below = it->first.first < ack_sn;
    const bool nacked = std::ranges::find(nack_sns, it->first.first) != nack_sns.end();
    if (below && !nacked) {
      it = sent_.erase(it);
    } else {
      ++it;
    }
  }
  // A NACKed SN re-queues every buffered segment of that SDU.
  for (std::uint16_t sn : nack_sns) {
    for (const auto& [key, pdu] : sent_) {
      if (key.first != sn) continue;
      if (std::ranges::find(retx_, key) == retx_.end()) retx_.push_back(key);
    }
  }
}

std::size_t RlcTx::retransmit_unacked() {
  if (mode_ != RlcMode::AM) return 0;
  std::size_t queued = 0;
  for (const auto& [key, pdu] : sent_) {
    if (std::ranges::find(retx_, key) == retx_.end()) {
      retx_.push_back(key);
      ++queued;
    }
  }
  return queued;
}

// ---------------------------------------------------------------------------
// RlcRx

std::optional<RlcHeader> RlcRx::receive(ByteBuffer&& pdu, Deliver deliver) {
  auto h = RlcHeader::decode(pdu);
  if (!h) return std::nullopt;

  if (!any_seen_ || h->sn > highest_sn_seen_) {
    highest_sn_seen_ = h->sn;
    any_seen_ = true;
  }

  if (h->si == SegmentInfo::Complete) {
    if (mode_ == RlcMode::AM) received_[h->sn] = true;
    PacketMeta meta;
    meta.sn = h->sn;
    deliver(std::move(pdu), meta);
    return h;
  }

  // Segment path: stash by offset, reassemble when last seen and contiguous.
  Partial& part = partial_[h->sn];
  const std::uint16_t so = h->si == SegmentInfo::First ? 0 : h->so;
  if (!part.segments.contains(so)) {
    part.total_bytes += pdu.size();
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
  if (mode_ == RlcMode::AM) received_[sn] = true;
  PacketMeta meta;
  meta.sn = sn;
  deliver(std::move(sdu), meta);
}

RlcRx::Status RlcRx::build_status() const {
  Status st;
  if (!any_seen_) return st;
  st.ack_sn = static_cast<std::uint16_t>(highest_sn_seen_ + 1);
  for (std::uint16_t sn = 0; sn <= highest_sn_seen_; ++sn) {
    if (!received_.contains(sn) || !received_.at(sn)) st.nacks.push_back(sn);
  }
  return st;
}

}  // namespace u5g
