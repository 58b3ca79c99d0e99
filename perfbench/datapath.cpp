// datapath_imix: warm SDAP -> PDCP -> RLC -> MAC-PDU round trips over a
// seeded 64/256/1250 B mix (7:4:1), one transport block per slot.
//
// Packets arrive as a Poisson process. At the end of each 250 us slot the
// slot's arrivals are SDAP-encapsulated and protected by PDCP as one batch,
// queued in RLC UM, and one fixed-size transport block is filled from the
// RLC queue (segmenting the SDU that does not fit), built, parsed,
// reassembled, verified and decapsulated. A packet is delivered at the end
// of the slot that carries its last segment, which gives every packet a
// simulated one-way latency; the load keeps the queue stable but lets
// bursts of 1250 B packets push some past the deadline.
//
// An op is one offered packet. A step is 16 slots, a block 64 slots,
// counting the packets that arrived in them. The work per packet is
// dominated by per-packet overhead at 64 B and by PDCP crypto at 1250 B.
// Every delivered packet must match what was sent, bit for bit.

#include <array>
#include <cstring>
#include <memory>

#include "bench.hpp"
#include "common/rng.hpp"
#include "mac/mac_pdu.hpp"
#include "pdcp/pdcp_entity.hpp"
#include "rlc/rlc_entity.hpp"
#include "sdap/qos.hpp"
#include "sdap/sdap_entity.hpp"

namespace pb {
namespace {

using namespace u5g;

constexpr Nanos kSlot{250'000};
constexpr std::size_t kTbBytes = 1024;
constexpr double kPacketsPerSlot = 3.2;  ///< ~75% of the transport block
constexpr std::size_t kSizes[] = {64, 256, 1250};
constexpr std::uint32_t kSizeWeights[] = {7, 4, 1};
constexpr std::size_t kSlotsPerPass = 100'000;
constexpr std::size_t kWarmupSlots = 2'000;
constexpr std::size_t kSlotsPerStep = 16;
constexpr std::size_t kStepsPerBlock = 4;
constexpr std::uint8_t kQfi = 5;

struct Inputs {
  std::vector<std::uint32_t> slot_first;  ///< index of each slot's first packet; size slots+1
  std::vector<std::uint16_t> size;
  std::vector<std::uint32_t> offset_ns;  ///< arrival offset within its slot
  std::array<std::uint8_t, 1250> pattern{};

  [[nodiscard]] std::size_t slots() const { return slot_first.size() - 1; }
};

Inputs make_inputs(std::uint64_t seed, std::size_t slots) {
  Inputs in;
  Rng rng(seed ^ 0xda7aULL);
  for (std::uint8_t& b : in.pattern) b = static_cast<std::uint8_t>(rng.next_u64());
  double t = rng.exponential(static_cast<double>(kSlot.count()) / kPacketsPerSlot);
  const double horizon = static_cast<double>(kSlot.count()) * static_cast<double>(slots);
  in.slot_first.assign(slots + 1, 0);
  while (t < horizon) {
    const auto slot = static_cast<std::size_t>(t / static_cast<double>(kSlot.count()));
    ++in.slot_first[slot + 1];
    const std::uint64_t w = rng.uniform_int(12);
    in.size.push_back(static_cast<std::uint16_t>(w < kSizeWeights[0] ? kSizes[0]
                                                 : w < kSizeWeights[0] + kSizeWeights[1]
                                                     ? kSizes[1]
                                                     : kSizes[2]));
    in.offset_ns.push_back(
        static_cast<std::uint32_t>(t - static_cast<double>(slot) * static_cast<double>(kSlot.count())));
    t += rng.exponential(static_cast<double>(kSlot.count()) / kPacketsPerSlot);
  }
  for (std::size_t s = 0; s < slots; ++s) in.slot_first[s + 1] += in.slot_first[s];
  return in;
}

PdcpConfig pdcp_config() {
  return PdcpConfig{.sn_bits = 12,
                    .integrity_enabled = true,
                    .security = CipherContext{.key = 0x5deece66d2b4a1c9ULL, .bearer = 1,
                                              .downlink = true}};
}

/// Accumulated self time of each layer over the traced passes.
struct LayerNs {
  double sdap = 0, protect = 0, rlc_tx = 0, build = 0, parse = 0, rlc_rx = 0, verify = 0;
  [[nodiscard]] double sum() const { return sdap + protect + rlc_tx + build + parse + rlc_rx + verify; }
};

/// The entity chain, fresh for each pass.
class Datapath {
 public:
  Datapath(Spans& spans, LayerNs& layer)
      : spans_(spans), layer_(layer), pdcp_tx_(pdcp_config()), pdcp_rx_(pdcp_config()), rlc_tx_(RlcMode::UM),
        rlc_rx_(RlcMode::UM) {
    sdap_.configure_flow(kQfi, BearerId{1}, urllc_five_qi());
    sent_.reserve(64);
    ptrs_.reserve(64);
    sub_.reserve(64);
    staged_.reserve(64);
    plain_.reserve(64);
  }

  /// One slot: slot `s` of `in` enters the stack (nothing when `s` is past
  /// its end, as in a drain) and one transport block leaves it.
  template <bool kTraced>
  void slot(const Inputs& in, std::size_t s, std::size_t abs_slot) {
    // Input (the benchmark's side): packet id in the first 4 bytes, the
    // seeded pattern after it.
    const std::uint32_t first = s < in.slots() ? in.slot_first[s] : 0;
    const std::uint32_t last = s < in.slots() ? in.slot_first[s + 1] : 0;
    if (arrival_slot_.size() < in.size.size()) arrival_slot_.resize(in.size.size());
    sent_.clear();
    for (std::uint32_t id = first; id < last; ++id) {
      ByteBuffer b = ByteBuffer::uninitialized(in.size[id]);
      std::memcpy(b.bytes().data(), &id, sizeof id);
      std::memcpy(b.bytes().data() + sizeof id, in.pattern.data() + sizeof id,
                  in.size[id] - sizeof id);
      arrival_slot_[id] = abs_slot;
      sent_.push_back(std::move(b));
    }

    Clock::time_point t[9];
    if constexpr (kTraced) t[0] = Clock::now();
    for (ByteBuffer& b : sent_) sdap_.encapsulate(b, kQfi);
    if constexpr (kTraced) t[1] = Clock::now();
    ptrs_.clear();
    for (ByteBuffer& b : sent_) ptrs_.push_back(&b);
    pdcp_tx_.protect_batch({ptrs_.data(), ptrs_.size()});
    if constexpr (kTraced) t[2] = Clock::now();
    for (ByteBuffer& b : sent_) rlc_tx_.enqueue(std::move(b), Nanos::zero());
    sub_.clear();
    std::size_t used = 0;
    while (used + kMacSubheaderBytes < kTbBytes) {
      auto pulled = rlc_tx_.pull(kTbBytes - used - kMacSubheaderBytes);
      if (!pulled) break;
      used += kMacSubheaderBytes + pulled->pdu.size();
      sub_.push_back(MacSubPdu{Lcid::Drb1, std::move(pulled->pdu)});
    }
    if constexpr (kTraced) t[3] = Clock::now();
    ByteBuffer tb = build_mac_pdu({sub_.data(), sub_.size()}, kTbBytes);
    if constexpr (kTraced) t[4] = Clock::now();
    staged_.clear();
    const bool parsed = parse_mac_pdu_to(std::move(tb), [&](ByteBuffer&& p, const PacketMeta& m) {
      if (m.lcid == static_cast<std::uint8_t>(Lcid::Drb1)) staged_.push_back(std::move(p));
    });
    if (!parsed) ++bad_;
    if constexpr (kTraced) t[5] = Clock::now();
    sdus_.clear();
    for (ByteBuffer& p : staged_) {
      rlc_rx_.receive(std::move(p),
                      [&](ByteBuffer&& sdu, const PacketMeta&) { sdus_.push_back(std::move(sdu)); });
    }
    if constexpr (kTraced) t[6] = Clock::now();
    plain_.clear();
    pdcp_rx_.receive_batch({sdus_.data(), sdus_.size()},
                           [&](ByteBuffer&& p, const PacketMeta&) { plain_.push_back(std::move(p)); });
    if constexpr (kTraced) t[7] = Clock::now();
    for (ByteBuffer& p : plain_) (void)sdap_.decapsulate(p);
    if constexpr (kTraced) {
      t[8] = Clock::now();
      const auto ns = [&](int i) { return seconds_between(t[i], t[i + 1]) * 1e9; };
      layer_.sdap += ns(0) + ns(7);
      layer_.protect += ns(1);
      layer_.rlc_tx += ns(2);
      layer_.build += ns(3);
      layer_.parse += ns(4);
      layer_.rlc_rx += ns(5);
      layer_.verify += ns(6);
      static const char* const kNames[] = {"sdap.encapsulate", "pdcp.protect_batch",
                                           "rlc.tx",           "mac.build_mac_pdu",
                                           "mac.parse_mac_pdu_to", "rlc.receive",
                                           "pdcp.receive_batch", "sdap.decapsulate"};
      for (int i = 0; i < 8; ++i) {
        spans_.add(kNames[i], static_cast<std::int32_t>(abs_slot), t[i], t[i + 1]);
      }
    }

    // Output check (the benchmark's side): bit-identical payload, and the
    // latency from arrival to the end of the slot that carried it.
    for (const ByteBuffer& p : plain_) {
      std::uint32_t id = 0;
      const auto bytes = p.bytes();
      if (bytes.size() >= sizeof id) std::memcpy(&id, bytes.data(), sizeof id);
      if (bytes.size() < sizeof id || id >= in.size.size() || bytes.size() != in.size[id] ||
          std::memcmp(bytes.data() + sizeof id, in.pattern.data() + sizeof id,
                      bytes.size() - sizeof id) != 0) {
        ++bad_;
        continue;
      }
      const Nanos arrival = kSlot * static_cast<std::int64_t>(arrival_slot_[id]) +
                            Nanos{static_cast<std::int64_t>(in.offset_ns[id])};
      latencies_.push_back((kSlot * static_cast<std::int64_t>(abs_slot + 2) - arrival).count());
    }
  }

  [[nodiscard]] bool idle() const { return !rlc_tx_.has_data(); }

  /// Forgets the warm-up's deliveries: latencies and failures restart.
  void begin_pass() {
    latencies_.clear();
    bad_ = 0;
  }
  [[nodiscard]] const std::vector<std::int64_t>& latencies() const { return latencies_; }
  [[nodiscard]] std::uint64_t bad() const { return bad_; }

 private:
  Spans& spans_;
  LayerNs& layer_;
  SdapEntity sdap_;
  PdcpTx pdcp_tx_;
  PdcpRx pdcp_rx_;
  RlcTx rlc_tx_;
  RlcRx rlc_rx_;
  std::vector<std::size_t> arrival_slot_;
  std::vector<ByteBuffer> sent_;
  std::vector<ByteBuffer*> ptrs_;
  std::vector<MacSubPdu> sub_;
  std::vector<ByteBuffer> staged_;
  std::vector<ByteBuffer> sdus_;
  std::vector<ByteBuffer> plain_;
  std::vector<std::int64_t> latencies_;
  std::uint64_t bad_ = 0;
};

/// Sends empty slots, untimed and untraced, until the RLC queue is empty;
/// returns the next absolute slot.
std::size_t drain(Datapath& dp, const Inputs& in, std::size_t abs_slot) {
  for (std::size_t guard = 0; !dp.idle() && guard < 100'000; ++guard) {
    dp.slot<false>(in, in.slots(), abs_slot++);
  }
  return abs_slot;
}

class Imix final : public Workload {
 public:
  Imix(const Options& opt, Spans& spans)
      : opt_(opt), spans_(spans), in_(make_inputs(opt.seed, kSlotsPerPass)),
        warm_(make_inputs(opt.seed ^ 0x3a2bULL, kWarmupSlots)) {}

  /// Construction plus a warm-up that fills buffer pools, RLC and PDCP
  /// state past their high-water marks.
  double setup() override {
    dp_.reset();
    const auto t0 = Clock::now();
    dp_ = std::make_unique<Datapath>(spans_, layer_);
    abs_slot_ = 0;
    for (std::size_t s = 0; s < warm_.slots(); ++s) dp_->slot<false>(warm_, s, abs_slot_++);
    abs_slot_ = drain(*dp_, warm_, abs_slot_);
    return seconds_between(t0, Clock::now());
  }

  void run_pass(Timer& timer) override {
    warm_bad_ = dp_->bad();
    dp_->begin_pass();
    if (spans_.on()) {
      run_blocks<true>(timer);
    } else {
      run_blocks<false>(timer);
    }
  }

  PassOutcome finish_pass(Report& r, std::uint64_t /*pass_ops*/) override {
    abs_slot_ = drain(*dp_, in_, abs_slot_ + in_.slots());
    if (warm_bad_ != 0) r.fail("datapath_imix: warm-up packet did not round-trip", warm_bad_);
    const std::uint64_t offered = in_.size.size();
    const std::uint64_t delivered = dp_->latencies().size();
    if (dp_->bad() != 0 || delivered != offered) {
      r.fail("datapath_imix: packets lost or altered",
             dp_->bad() + (offered > delivered ? offered - delivered : 0));
    }
    return {sim_outcome(dp_->latencies(), offered, opt_.deadline), 0};
  }

  void report_layers(const Phase& ph, Report& r) override {
    const LayerNs& l = layer_;
    const auto pkts = static_cast<double>(ph.traced.ops());
    r.add("sdap.ns_per_pkt", l.sdap / pkts, "ns");
    r.add("pdcp.protect_ns_per_pkt", l.protect / pkts, "ns");
    r.add("pdcp.verify_ns_per_pkt", l.verify / pkts, "ns");
    r.add("rlc.tx_ns_per_pkt", l.rlc_tx / pkts, "ns");
    r.add("rlc.rx_ns_per_pkt", l.rlc_rx / pkts, "ns");
    r.add("mac.pdu_build_ns_per_pkt", l.build / pkts, "ns");
    r.add("mac.pdu_parse_ns_per_pkt", l.parse / pkts, "ns");
    r.add("common.allocs_per_pkt", static_cast<double>(traced_allocs_) / pkts, "count");
    // End to end is the whole traced step time per packet, the benchmark's
    // own input and output handling included; the layers must explain it.
    r.add("datapath.layer_closure", l.sum() / (ph.traced.measured_seconds() * 1e9), "ratio");
  }

 private:
  /// The pass's slots in timed blocks, numbered on from the warm-up.
  template <bool kTraced>
  void run_blocks(Timer& timer) {
    for (std::size_t s = 0; s < in_.slots();) {
      const std::size_t block_end = std::min(s + kSlotsPerStep * kStepsPerBlock, in_.slots());
      const std::uint64_t ops = in_.slot_first[block_end] - in_.slot_first[s];
      timer.begin_block();
      while (s < block_end) {
        const std::size_t step_end = std::min(s + kSlotsPerStep, block_end);
        const std::uint64_t allocs0 = allocations();
        const auto a = Clock::now();
        for (; s < step_end; ++s) dp_->slot<kTraced>(in_, s, abs_slot_ + s);
        const auto b = Clock::now();
        if constexpr (kTraced) traced_allocs_ += allocations() - allocs0;
        timer.add_step(a, b);
      }
      timer.end_block(ops);
    }
  }

  const Options& opt_;
  Spans& spans_;
  const Inputs in_;
  const Inputs warm_;
  std::unique_ptr<Datapath> dp_;
  std::size_t abs_slot_ = 0;
  std::uint64_t warm_bad_ = 0;
  std::uint64_t traced_allocs_ = 0;  ///< heap allocations in traced steps
  LayerNs layer_;
};

}  // namespace

std::unique_ptr<Workload> make_datapath(const Options& opt, Spans& spans) {
  return std::make_unique<Imix>(opt, spans);
}

}  // namespace pb
