#include "core/e2e_system.hpp"

#include <algorithm>
#include <bit>
#include <deque>
#include <functional>
#include <optional>
#include <utility>

#include "common/bytes.hpp"
#include "common/delivery.hpp"
#include "common/taxonomy.hpp"
#include "mac/bsr.hpp"
#include "mac/mac_pdu.hpp"
#include "mac/preemption.hpp"
#include "node/pipeline.hpp"
#include "phy/transport_block.hpp"
#include "tdd/dynamic_format.hpp"
#include "tdd/opportunity.hpp"

namespace u5g {

namespace {

constexpr std::uint8_t kQfi = 5;
constexpr std::uint32_t kTeidBase = 0x1000;

/// Payload layout: 4-byte sequence number, rest filler. The sequence number
/// survives the round trip through cipher/segmentation and identifies the
/// packet record at delivery.
ByteBuffer make_payload(int seq, std::size_t bytes) {
  ByteBuffer b(std::max<std::size_t>(bytes, 4), 0xA5);
  put_be32(b.bytes().subspan(0, 4), static_cast<std::uint32_t>(seq));
  return b;
}

int read_seq(const ByteBuffer& b) {
  if (b.size() < 4) return -1;
  return static_cast<int>(get_be32(b.bytes().subspan(0, 4)));
}

/// Tracer span names for per-layer traversal observers, indexed by Layer.
/// Static literals: TraceSpan holds string_views.
constexpr std::array<const char*, 6> kGnbLayerSpan = {"gNB SDAP", "gNB PDCP", "gNB RLC",
                                                      "gNB MAC",  "gNB PHY",  "gNB APP"};
constexpr std::array<const char*, 6> kUeLayerSpan = {"UE SDAP", "UE PDCP", "UE RLC",
                                                     "UE MAC",  "UE PHY",  "UE APP"};

/// Cross-link RNG streams live beside — never inside — the main stream:
/// seeded from seed ^ salt so enabling the dynamic policy with zero
/// interference perturbs no tracked draw ("crosslnk" in ASCII).
constexpr std::uint64_t kCrosslinkSalt = 0x63726f'73736c'6e6bULL;

/// LBT gate stream salt ("nru-lbt" in ASCII): the gate's streams derive from
/// seed ^ salt, so enabling channel access perturbs no existing draw — and a
/// disabled config never constructs the gate at all.
constexpr std::uint64_t kLbtSalt = 0x6e'7275'2d6c'6274ULL;

}  // namespace

// ===========================================================================

struct E2eSystem::Impl {
  /// Per-UE context: its own stack (matching security contexts with the
  /// gNB's chain of the same index), SR state, configured-grant schedule,
  /// and HARQ retransmission buffer.
  struct UeCtx {
    UeCtx(int idx, const StackConfig& cfg, Rng rng)
        : index(idx),
          id(static_cast<std::uint32_t>(idx + 1)),
          stack(cfg.ue_proc, cfg.ue_radio, cfg.phy, cfg.rlc_mode, rng.fork(), 1,
                static_cast<std::uint32_t>(idx + 1)),
          sr(cfg.sr),
          // Stagger periodic configured grants so pre-allocations do not
          // collide (TDM within the UL region); dense (periodicity-0) grants
          // are assumed frequency-multiplexed and may overlap in time.
          cg(UeId{static_cast<std::uint32_t>(idx + 1)},
             cfg.cg.periodicity > Nanos::zero()
                 ? cfg.cg.with_offset(cfg.cg.offset +
                                      cfg.duplex->numerology().symbol_duration() *
                                          (cfg.cg.tx_symbols * idx))
                 : cfg.cg) {}

    int index;
    UeId id;
    NodeStack stack;
    SrProcedure sr;
    ConfiguredGrant cg;
    bool sr_pending = false;        ///< a grant cycle is in flight
    bool cg_scheduled = false;      ///< a configured-grant service is queued
    bool ul_reorder_armed = false;  ///< gNB-side t-Reordering for this UE's UL
    bool dl_reorder_armed = false;  ///< UE-side t-Reordering for DL
    /// Tracing follows the most recently injected packet per UE and
    /// direction (-1 = none); overlapping packets on one UE attribute
    /// best-effort to the newest, the tiling invariant still holds.
    std::int32_t ul_trace = -1;
    std::int32_t dl_trace = -1;

    struct RetxTb {
      ByteBuffer tb;
      int attempt;
      int stranded_retries = 0;  ///< opportunity-search retries while queued
    };
    /// Lost TBs awaiting retransmission, oldest first (ordered by first
    /// transmission): a re-lost TB re-enters at the *front* so an old
    /// packet's recovery never queues behind newer ones.
    std::deque<RetxTb> retx_queue;

    [[nodiscard]] std::uint32_t teid() const {
      return kTeidBase + static_cast<std::uint32_t>(index);
    }
  };

  /// Re-arm attempts for a TB with no retransmission opportunity before it
  /// is dropped as stranded (satellite of the HARQ loss-recovery fix): one
  /// retry per slot, so the cap bounds the search to ~kStrandedRetryCap
  /// slots of scheduler starvation.
  static constexpr int kStrandedRetryCap = 64;

  StackConfig cfg;
  E2eSystem& owner;
  /// Non-null iff cfg.dynamic_tdd.enabled: the overlay wrapper swapped into
  /// cfg.duplex before any other member binds to the duplex map, so the
  /// scheduler, SR and configured-grant machinery all see committed upgrades
  /// through the one shared handle.
  std::shared_ptr<DynamicDuplexConfig> dyn;
  Simulator sim;
  Rng rng;
  NodeStack gnb;
  std::vector<std::unique_ptr<UeCtx>> ues;
  Upf upf;
  MacScheduler sched;
  FaultInjector faults;
  Nanos slot_dur;

  // Per-layer gNB processing stats across all traversals (Table 2).
  std::array<RunningStats, 6> gnb_layer_stats;
  RunningStats rlc_q_stats_us;
  std::uint64_t missed_grants = 0;
  std::uint64_t harq_dropped = 0;   ///< TBs dropped: HARQ budget exhausted
  std::uint64_t stranded_drops = 0; ///< TBs/SDUs dropped: no opportunity in cap
  std::uint64_t pdcp_discards = 0;  ///< PDUs PDCP refused: stale/duplicate/integrity
  std::uint64_t radio_deadline_misses = 0;  ///< DL sample buffers late for their slot

  // -- Dynamic TDD state (all inert when cfg.dynamic_tdd.enabled is false) --
  std::optional<DynamicFormatPolicy> policy;  ///< engaged iff dynamic enabled
  PreemptionLedger ledger;                    ///< staged DL TBs (preemption on)
  Rng xlink_rng;                              ///< dedicated cross-link stream
  double xlink_activity = 0.0;       ///< aggregate neighbour DL-upgrade activity
  double dl_upgrade_activity = 0.0;  ///< own latest committed slot's added-DL fraction
  std::uint64_t punctured_retx = 0;  ///< eMBB TBs re-entered via puncture
  std::uint64_t xlink_losses = 0;    ///< UL transmissions lost to cross-link

  // -- NR-U channel access (inert when cfg.lbt.enabled is false) ------------
  /// Engaged iff cfg.lbt.enabled: the cell's shared-channel CAT4 gate.
  /// UL and DL data blocks both clear it; SR/PDCCH/HARQ feedback ride the
  /// short-control-signalling exemption.
  std::optional<LbtGate> lbt;

  // In-flight accounting for the scale-out load signal (sim/sharded.hpp).
  std::array<std::uint64_t, 2> packets_started{};  ///< indexed by Direction
  std::uint64_t packets_delivered = 0;
  std::uint64_t harq_retx = 0;  ///< retransmissions behind delivered packets

  // -- Observability --------------------------------------------------------
  // The tracer records spans iff enabled; every hook starts with one
  // predicted branch. Each tally above has exactly one source of truth:
  // publish_counters() copies them into the named counters at the end of
  // every run_until(). Only the histograms record live; their handles are
  // resolved once here and stay null when metrics are off.
  Tracer tracer;
  MetricsRegistry metrics;
  /// Published counter names, in tallies() order. The last two exist only
  /// when the dynamic-TDD policy is enabled.
  static constexpr std::array<const char*, 15> kCounterNames = {
      "packets.ul_sent",        "packets.dl_sent",        "packets.delivered",
      "packets.harq_retransmissions",                     "harq.dropped_tbs",
      "harq.stranded_drops",    "radio.deadline_misses",  "mac.missed_grants",
      "fault.burst_losses",     "fault.os_jitter_storms", "fault.radio_bus_stalls",
      "fault.upf_drops",        "fault.upf_delays",       "harq.punctured_retx",
      "xlink.ul_losses"};
  /// Resolved once (registry nodes are stable), so publishing never
  /// allocates; empty when metrics are off.
  std::vector<std::reference_wrapper<Counter>> counters;
  struct Histograms {
    LatencyHistogram* ul_latency = nullptr;
    LatencyHistogram* dl_latency = nullptr;
    LatencyHistogram* rlc_q = nullptr;
    std::array<LatencyHistogram*, 6> gnb_layer{};
  } m;

  /// Wraps the static duplex in the dynamic overlay (and swaps the handle)
  /// when the policy is enabled; runs during member init, before `sched`
  /// binds its reference.
  static std::shared_ptr<DynamicDuplexConfig> wrap_dynamic(StackConfig& cfg) {
    if (!cfg.dynamic_tdd.enabled) return nullptr;
    auto wrapped = std::make_shared<DynamicDuplexConfig>(cfg.duplex);
    cfg.duplex = wrapped;
    return wrapped;
  }

  Impl(StackConfig c, E2eSystem& own)
      : cfg(std::move(c)),
        owner(own),
        dyn(wrap_dynamic(cfg)),
        rng(cfg.seed),
        gnb(cfg.gnb_proc, cfg.gnb_radio, cfg.phy, cfg.rlc_mode, rng.fork(), cfg.num_ues),
        upf(cfg.upf, rng.fork()),
        sched(*cfg.duplex, cfg.sched),
        // Fault streams derive from (seed, scenario index) via a dedicated
        // seeder — NOT from `rng` — so configuring faults perturbs no
        // existing draw sequence (golden-file equivalence when disabled).
        faults(cfg.faults, cfg.seed),
        slot_dur(cfg.duplex->numerology().slot_duration()),
        xlink_rng(hash_mix64(cfg.seed ^ kCrosslinkSalt)) {
    const FiveQi qos = urllc_five_qi();
    gnb.compute.sdap.configure_flow(kQfi, BearerId{1}, qos);
    for (int i = 0; i < cfg.num_ues; ++i) {
      ues.push_back(std::make_unique<UeCtx>(i, cfg, rng.fork()));
      ues.back()->stack.compute.sdap.configure_flow(kQfi, BearerId{1}, qos);
      upf.bind_session(ues.back()->teid(), ues.back()->id.value());
    }
    // §7: "higher number of UEs might increase the processing times
    // noticeably" — scale the gNB's processing with attached load.
    gnb.compute.proc.set_scale(1.0 + cfg.gnb_load_factor_per_ue *
                                         static_cast<double>(ues.size() - 1));
    if (cfg.blockage) blockage.emplace(*cfg.blockage, rng.fork());
    // Channel-access gate seeded from (seed, salt) — NOT from `rng` — so
    // enabling LBT perturbs no existing draw sequence, and disabling it
    // leaves every run bitwise identical (no gate, no streams, no events).
    if (cfg.lbt.enabled) lbt.emplace(cfg.lbt, hash_mix64(cfg.seed ^ kLbtSalt));

    tracer.enable(cfg.trace.spans_on());
    if (cfg.trace.metrics_on()) {
      const std::size_t published = kCounterNames.size() - (cfg.dynamic_tdd.enabled ? 0 : 2);
      for (std::size_t i = 0; i < published; ++i) {
        counters.emplace_back(metrics.counter(kCounterNames[i]));
      }
      m.ul_latency = &metrics.histogram("latency.ul_ns");
      m.dl_latency = &metrics.histogram("latency.dl_ns");
      m.rlc_q = &metrics.histogram("gnb.rlc_queue_wait_ns");
      for (std::size_t i = 0; i < m.gnb_layer.size(); ++i) {
        m.gnb_layer[i] = &metrics.histogram(
            std::string("gnb.layer_ns.") + std::string(to_string(static_cast<Layer>(i))));
      }
    }
    if (cfg.dynamic_tdd.enabled) {
      policy.emplace(dyn->base(), cfg.dynamic_tdd);
      sim.schedule_at(Nanos::zero(), [this] { dynamic_tick(); });
    }
    publish_counters();
  }

  /// Every published counter's one source, in kCounterNames order.
  [[nodiscard]] std::array<std::uint64_t, kCounterNames.size()> tallies() const {
    const FaultInjector::Counters& f = faults.counters();
    return {packets_started[0], packets_started[1], packets_delivered, harq_retx,
            harq_dropped,       stranded_drops,     radio_deadline_misses,
            missed_grants,      f.burst_losses,     f.storm_spikes,
            f.bus_stalls,       f.upf_drops,        f.upf_delays,
            punctured_retx,     xlink_losses};
  }

  void publish_counters() {
    const auto values = tallies();
    for (std::size_t i = 0; i < counters.size(); ++i) counters[i].get().set(values[i]);
  }

  // -- Dynamic TDD ----------------------------------------------------------

  [[nodiscard]] bool preemption_on() const {
    return cfg.dynamic_tdd.enabled && cfg.dynamic_tdd.preemption;
  }

  /// MAC-observable queue state at a slot boundary. Pure reads: gathering it
  /// draws nothing and mutates nothing, so the decision tick is invisible
  /// when it commits no upgrade.
  [[nodiscard]] TddQueueState gather_queue_state() {
    TddQueueState q;
    for (const auto& ue : ues) {
      q.sr_pending += ue->sr_pending ? 1 : 0;
      q.cg_armed += ue->cg_scheduled ? 1 : 0;
      q.ul_retx_tbs += static_cast<std::uint32_t>(ue->retx_queue.size());
      q.ul_queued_sdus +=
          static_cast<std::uint32_t>(ue->stack.uplink().rlc_tx.queued_sdus());
      q.dl_queued_sdus += static_cast<std::uint32_t>(
          gnb.downlink(static_cast<std::size_t>(ue->index)).rlc_tx.queued_sdus());
    }
    q.dl_inflight_tbs = ledger.inflight_at(sim.now());
    return q;
  }

  /// The per-slot decision event: observe at the boundary of slot k, commit
  /// slot k + guard. Self-rescheduling; only ever armed when the policy is
  /// enabled, so disabled runs schedule zero extra events.
  void dynamic_tick() {
    const SlotClock clk = cfg.duplex->clock();
    const SlotIndex k = clk.slot_at(sim.now());
    const DecidedFormat f = policy->decide(k, gather_queue_state());
    dyn->commit(k + policy->config().guard_slots, f);
    dl_upgrade_activity =
        static_cast<double>(std::popcount(f.added_dl)) / static_cast<double>(kSymbolsPerSlot);
    sim.schedule_at(clk.slot_start(k + 1), [this] { dynamic_tick(); });
  }

  /// Extra UL loss from neighbouring cells' DL-upgraded slots. Zero draws
  /// unless both the knob and the exchanged activity are non-zero, keeping
  /// single-cell runs and disabled configs bitwise identical.
  bool crosslink_ul_lost() {
    const double p = cfg.dynamic_tdd.xlink_ul_bler * xlink_activity;
    if (p <= 0.0) return false;
    if (!xlink_rng.bernoulli(std::min(p, 1.0))) return false;
    ++xlink_losses;
    return true;
  }

  PacketRecord& rec(std::size_t idx) { return owner.records_[idx]; }

  std::int64_t samples_of(const RadioHead& rh, Nanos dur) const {
    return std::max<std::int64_t>(rh.sample_rate().samples_in(dur), 64);
  }

  std::optional<MmWaveBlockage> blockage;

  bool channel_lost() {
    // A BurstLoss scenario replaces the i.i.d. knob: the Gilbert–Elliott
    // chain (own stream) decides, and i.i.d. is its degenerate single-state
    // case (GilbertElliott::Params::iid).
    const bool lost = faults.models_channel_loss()
                          ? faults.channel_lost(sim.now())
                          : cfg.channel_loss > 0.0 && rng.bernoulli(cfg.channel_loss);
    return lost || (blockage && !blockage->transmit_ok(sim.now()));
  }

  struct AirOutcome {
    Nanos deferral{};  ///< CAT4 channel-access delay shifting the air window
    bool lost = false;
  };

  /// The one air outcome of a data burst nominally occupying [start, end),
  /// UL or DL, first transmission or retransmission. Four fixed gates in a
  /// fixed draw order: NR-U channel access, the channel (burst / i.i.d. /
  /// blockage), cross-link interference from neighbouring DL-upgraded slots
  /// (UL only), and the hidden collision the energy detector could not see.
  /// The caller's trace cursor sits at `start`, so the deferral span tiles
  /// exactly between the slot wait and the over-the-air span.
  AirOutcome air_attempt(std::int32_t tseq, Nanos start, Nanos end, bool uplink) {
    LbtGate::Access access{};
    if (lbt) {
      access = lbt->acquire(start, end - start, sim.now());
      if (access.deferral > Nanos::zero()) {
        tracer.span_to(tseq, "LBT deferral (CAT4 backoff)", LatencyCategory::ChannelAccess,
                       start + access.deferral);
      }
    }
    const bool lost = channel_lost() || (uplink && crosslink_ul_lost()) || access.collided;
    if (lbt) lbt->on_harq_feedback(lost);
    return {access.deferral, lost};
  }

  // -- Fault-injection hooks -------------------------------------------------
  // All zero-cost when `cfg.faults` is empty: one `empty()` branch per hook.
  // The injector tallies every event itself (FaultInjector::counters()).

  /// Added radio-bus transfer latency at `now`.
  Nanos fault_bus_stall() {
    return faults.empty() ? Nanos::zero() : faults.bus_stall(sim.now());
  }

  /// A UPF outage at `now`, shared by the UL exit and the DL entry: nullopt
  /// when it drops the packet (trace `tseq` is abandoned), else the extra
  /// delay it adds (traced).
  std::optional<Nanos> upf_outage(std::int32_t tseq) {
    if (faults.empty()) return Nanos::zero();
    if (faults.upf_dropped(sim.now())) {
      tracer.abandon(tseq);
      return std::nullopt;
    }
    const Nanos extra = faults.upf_extra_delay(sim.now());
    if (extra > Nanos::zero()) {
      tracer.span_for(tseq, "fault: UPF outage delay", LatencyCategory::Protocol, extra);
    }
    return extra;
  }

  /// Deliver `air` worth of samples through `radio`'s RX chain — plus any
  /// bus stall, traced as its own Radio span — then run `next`.
  template <typename Next>
  void radio_rx(RadioHead& radio, const char* span, std::int32_t tseq, Nanos air, Next next) {
    const Nanos rx = radio.rx_delivery_latency(samples_of(radio, air));
    tracer.span_for(tseq, span, LatencyCategory::Radio, rx);
    const Nanos stall = fault_bus_stall();
    if (stall > Nanos::zero()) {
      tracer.span_for(tseq, "fault: radio-bus stall", LatencyCategory::Radio, stall);
    }
    sim.schedule_after(rx + stall, std::move(next));
  }

  /// Wrap a traversal continuation so an active OS-jitter storm adds one
  /// extra (traced) delay between the layer chain and `done` — the Fig 5
  /// preemption spike landing mid-traversal.
  template <typename Done>
  auto storm_wrapped(std::int32_t tseq, Done done) {
    return [this, tseq, done = std::move(done)](Nanos end) mutable {
      const Nanos storm = faults.empty() ? Nanos::zero() : faults.processing_jitter(sim.now());
      if (storm <= Nanos::zero()) {
        done(end);
        return;
      }
      tracer.span_for(tseq, "fault: OS-jitter storm", LatencyCategory::Processing, storm);
      sim.schedule_after(storm, [this, done = std::move(done)]() mutable { done(sim.now()); });
    };
  }

  /// Account a terminal loss in `bucket` (harq_dropped or stranded_drops).
  /// `tseq` is the per-UE trace cursor for the affected direction; the
  /// traced packet is abandoned (its spans stay, it never closes).
  void drop(std::uint64_t& bucket, std::int32_t& tseq) {
    ++bucket;
    tracer.abandon(tseq);
    tseq = -1;
  }

  /// The one stranded-retry rule, shared by the UL retransmission, DL
  /// service and DL re-plan paths. The planner found no opportunity inside
  /// its search horizon (a starved or reconfigured era) for a TB/SDU already
  /// re-armed `retries` times. Below kStrandedRetryCap, count one more
  /// re-arm and call `retry(retries)` one slot later, then return true. At
  /// the cap return false: the caller drops it into `stranded_drops`, or it
  /// would wait forever, uncounted, silently inflating reliability.
  template <typename Retry>
  bool rearm_stranded(int& retries, Retry retry) {
    if (retries >= kStrandedRetryCap) return false;
    ++retries;
    sim.schedule_at(sim.now() + slot_dur,
                    [retry = std::move(retry), n = retries]() mutable { retry(n); });
    return true;
  }

  /// After an UL drop the grant cycle that carried the TB is over; without
  /// this, `sr_pending` stayed latched and every later packet on the UE
  /// silently starved (part of the stranded-retransmission fix). Drain any
  /// remaining lost TBs first, then restart the access flow for backlog.
  void resume_ul_after_drop(UeCtx& ue) {
    if (!ue.retx_queue.empty()) {
      retransmit_ul(ue);
      return;
    }
    if (cfg.grant_free) {
      if (ue.stack.uplink().rlc_tx.has_data()) schedule_cg_service(ue);
    } else {
      ue.sr_pending = false;
      if (ue.stack.uplink().rlc_tx.has_data()) trigger_sr(ue);
    }
  }

  /// Hand one SDU to PDCP-rx. A refused PDU (stale behind a t-Reordering
  /// flush, duplicate, or integrity-failed) is a terminal loss for its
  /// packet: count it, or reliability silently inflates when recovery
  /// outlasts the flush timer. Then arm PDCP t-Reordering (TS 38.323
  /// §5.2.2.2): when a PDU is held waiting for a missing COUNT, a timer
  /// bounds the wait; on expiry the held run is flushed past the gap.
  /// Without it, one HARQ-exhausted loss would stall in-order delivery
  /// forever. `deliver` is copied into the timer event — PdcpRx::Deliver
  /// itself is a non-owning FunctionRef — so the early-out (the loss-free
  /// common case) pays nothing for the owning copy.
  template <typename DeliverFn>
  void pdcp_receive(PdcpRx& rx, bool& armed, ByteBuffer&& sdu, const DeliverFn& deliver) {
    if (!rx.receive(std::move(sdu), deliver)) ++pdcp_discards;
    if (rx.held_count() == 0 || armed) return;
    armed = true;
    sim.schedule_after(cfg.pdcp_t_reordering, [this, &rx, &armed, deliver] {
      armed = false;
      rx.flush(deliver);
    });
  }

  /// One gNB layer processing draw into the Table 2 stats and histogram.
  void record_gnb_layer(Layer l, Nanos dt) {
    const auto li = static_cast<std::size_t>(l);
    gnb_layer_stats[li].add(dt.us());
    if (m.gnb_layer[li] != nullptr) m.gnb_layer[li]->record(dt);
  }

  /// Traverse gNB layers, recording draws into the global Table 2 stats,
  /// (when `ridx` is valid) the packet record, and (when tracing) packet
  /// `tseq`'s waterfall as Processing spans.
  template <typename Done>
  void gnb_traverse(std::initializer_list<Layer> layers, std::optional<std::size_t> ridx,
                    std::int32_t tseq, Done done) {
    traverse_layers(
        sim, gnb.compute.proc, layers,
        [this, ridx, tseq](Layer l, Nanos dt) {
          const auto li = static_cast<std::size_t>(l);
          record_gnb_layer(l, dt);
          if (ridx) rec(*ridx).gnb_layer_time[li] += dt;
          tracer.span_for(tseq, kGnbLayerSpan[li], LatencyCategory::Processing, dt);
        },
        storm_wrapped(tseq, std::move(done)));
  }

  template <typename Done>
  void ue_traverse(UeCtx& ue, std::initializer_list<Layer> layers, std::int32_t tseq, Done done) {
    traverse_layers(
        sim, ue.stack.compute.proc, layers,
        [this, tseq](Layer l, Nanos dt) {
          tracer.span_for(tseq, kUeLayerSpan[static_cast<std::size_t>(l)],
                          LatencyCategory::Processing, dt);
        },
        storm_wrapped(tseq, std::move(done)));
  }

  /// One injected packet's first event: open its trace, count it, and
  /// start its direction's journey.
  void start_packet(std::size_t ridx) {
    const PacketRecord& r = rec(ridx);
    UeCtx& ue = *ues[static_cast<std::size_t>(r.ue)];
    const bool uplink = r.dir == Direction::Uplink;
    if (tracer.enabled()) {
      std::int32_t& tseq = uplink ? ue.ul_trace : ue.dl_trace;
      tseq = r.seq;
      tracer.open(tseq, sim.now());
    }
    ++packets_started[static_cast<std::size_t>(r.dir)];
    if (uplink) {
      start_uplink(ue, ridx);
    } else {
      start_downlink(ue, ridx);
    }
  }

  // =========================================================================
  // Uplink

  void start_uplink(UeCtx& ue, std::size_t ridx) {
    // UE application creates the packet; APP down to RLC.
    ue_traverse(ue, {Layer::APP, Layer::SDAP, Layer::PDCP, Layer::RLC}, ue.ul_trace,
                [this, ridx, &ue](Nanos end) {
                  const PacketRecord& r = rec(ridx);
                  ByteBuffer pkt = make_payload(r.seq, cfg.payload_bytes);
                  ue.stack.compute.sdap.encapsulate(pkt, kQfi);
                  ue.stack.uplink().pdcp_tx.protect(pkt);
                  ue.stack.uplink().rlc_tx.enqueue(std::move(pkt), end);
                  if (cfg.grant_free) {
                    schedule_cg_service(ue);
                  } else {
                    trigger_sr(ue);
                  }
                });
  }

  void trigger_sr(UeCtx& ue) {
    if (ue.sr_pending) return;  // a grant cycle is already in flight
    ue.sr_pending = true;
    // The UE's MAC stages the SR; it goes out at the next SR opportunity.
    const Nanos mac_delay = ue.stack.compute.proc.sample(Layer::MAC);
    const auto op = ue.sr.next_sr_opportunity(*cfg.duplex, sim.now() + mac_delay);
    if (!op) {
      ue.sr_pending = false;
      return;
    }
    tracer.span_for(ue.ul_trace, "UE MAC SR staging", LatencyCategory::Processing, mac_delay);
    tracer.span_to(ue.ul_trace, "wait for SR opportunity", LatencyCategory::Protocol, op->start);
    tracer.span_to(ue.ul_trace, "SR over the air", LatencyCategory::Protocol, op->end);
    sim.schedule_at(op->end, [this, &ue] {
      // gNB side: radio delivery of the SR samples, then PHY decode.
      radio_rx(gnb.compute.radio, "gNB radio RX chain", ue.ul_trace,
               cfg.duplex->numerology().symbol_duration(), [this, &ue] {
                 gnb_traverse({Layer::PHY}, std::nullopt, ue.ul_trace,
                              [this, &ue](Nanos aware) { grant_or_release(ue, aware); });
               });
    });
  }

  /// Plan a UL grant from `t` and send it. When the planner finds no
  /// opportunity inside its search horizon the grant cycle ends: the SR
  /// latch is released so the UE's next packet can request again (a latch
  /// left set silently starved every later packet on the UE).
  void grant_or_release(UeCtx& ue, Nanos t) {
    if (const auto plan = sched.plan_ul_grant(ue.id, t)) {
      deliver_grant(ue, *plan);
    } else {
      ue.sr_pending = false;
    }
  }

  void deliver_grant(UeCtx& ue, const UlGrantPlan& plan) {
    const UlGrant grant = plan.grant;
    tracer.span_to(ue.ul_trace, "gNB scheduler + wait for DL control", LatencyCategory::Protocol,
                   plan.control.start);
    tracer.span_to(ue.ul_trace, "UL grant over the air", LatencyCategory::Protocol,
                   plan.control.end);
    sim.schedule_at(plan.control.end, [this, &ue, grant] {
      // UE decodes the DCI: radio + PHY + MAC.
      radio_rx(ue.stack.compute.radio, "UE radio RX chain", ue.ul_trace,
               cfg.duplex->numerology().symbol_duration(), [this, &ue, grant] {
        ue_traverse(ue, {Layer::PHY, Layer::MAC}, ue.ul_trace, [this, &ue, grant](Nanos decoded) {
          if (decoded > grant.tx_start) {
            // Missed the granted window (§4's interdependency hazard):
            // the scheduler re-grants from the moment the UE was ready.
            ++missed_grants;
            grant_or_release(ue, decoded);
            return;
          }
          tracer.span_to(ue.ul_trace, "wait for granted UL window", LatencyCategory::Protocol,
                         grant.tx_start);
          sim.schedule_at(grant.tx_start, [this, &ue, grant] { serve_ul_grant(ue, grant); });
        });
      });
    });
  }

  void schedule_cg_service(UeCtx& ue) {
    if (ue.cg_scheduled) return;
    // UE staging lead before a configured occasion: PHY encode + radio.
    const Nanos encode =
        ue.stack.compute.phy.encode_time(static_cast<int>(cfg.cg.tb_bytes * 8));
    const Nanos radio = ue.stack.compute.radio.nominal_tx_latency(
        samples_of(ue.stack.compute.radio,
                   cfg.duplex->numerology().symbol_duration() * cfg.cg.tx_symbols));
    const auto occ = ue.cg.next_occasion(*cfg.duplex, sim.now() + encode + radio);
    if (!occ) return;
    ue.cg_scheduled = true;
    const UlGrant grant = *occ;
    tracer.span_for(ue.ul_trace, "UE PHY encode", LatencyCategory::Processing, encode);
    tracer.span_for(ue.ul_trace, "UE radio TX chain", LatencyCategory::Radio, radio);
    tracer.span_to(ue.ul_trace, "wait for UL occasion", LatencyCategory::Protocol, grant.tx_start);
    sim.schedule_at(grant.tx_start, [this, &ue, grant] {
      ue.cg_scheduled = false;
      serve_ul_grant(ue, grant);
    });
  }

  void serve_ul_grant(UeCtx& ue, const UlGrant& grant) {
    // Fill the transport block: BSR CE first, then as many RLC PDUs as fit.
    // The CE's single payload byte is written after the pulls, once the
    // remaining backlog is known.
    MacSubPdus sub;
    sub.emplace_back(MacSubPdu{Lcid::ShortBsr, ByteBuffer(1)});
    std::size_t used = kMacSubheaderBytes + 1;  // BSR CE slot
    bool any = false;
    RlcTx& rlc = ue.stack.uplink().rlc_tx;
    while (used + kMacSubheaderBytes + kMaxRlcHeader + 1 <= grant.tb_bytes) {
      auto pulled = rlc.pull(grant.tb_bytes - used - kMacSubheaderBytes);
      if (!pulled) break;
      used += kMacSubheaderBytes + pulled->pdu.size();
      sub.push_back(MacSubPdu{Lcid::Drb1, std::move(pulled->pdu)});
      any = true;
    }
    if (!any) {
      // Nothing to send: a wasted occasion/grant (§9's grant-free waste).
      if (!cfg.grant_free) ue.sr_pending = false;
      return;
    }
    // Short BSR CE reports the remaining backlog (drives follow-up grants).
    sub[0].payload.bytes()[0] = ShortBsr::for_bytes(rlc.queued_bytes()).encode();
    ByteBuffer tb = build_mac_pdu(sub, grant.tb_bytes);

    // Grant-free UEs keep their pre-allocated occasions: arm the next one
    // right away when backlog remains (it need not wait for the gNB).
    if (cfg.grant_free && rlc.has_data()) schedule_cg_service(ue);
    transmit_ul(ue, grant, std::move(tb), 1);
  }

  /// Send one UL TB in `grant`'s window: a new TB (attempt 1) or a HARQ
  /// retransmission (AM-mode RLC would additionally recover via status
  /// reports; HARQ is the first line of defence). NR-U deferral shifts the
  /// whole air window — the grid slot is a scheduling opportunity, the
  /// channel decides when the burst actually starts.
  void transmit_ul(UeCtx& ue, const UlGrant& grant, ByteBuffer tb, int attempt) {
    const AirOutcome air = air_attempt(ue.ul_trace, grant.tx_start, grant.tx_end, true);
    const Nanos air_end = grant.tx_end + air.deferral;
    if (air.lost && attempt < cfg.harq_max_tx) {
      // NACK path: keep the TB, and after the feedback delay retransmit on
      // the next opportunity of the same access mode.
      tracer.span_to(ue.ul_trace, "UL data over the air (lost)", LatencyCategory::Protocol,
                     air_end);
      tracer.span_to(ue.ul_trace, "HARQ feedback wait", LatencyCategory::Protocol,
                     air_end + cfg.harq_feedback_delay);
      // The queue is ordered by first transmission: a new loss joins the
      // back, a re-lost TB returns to the *front*, so no newer loss can
      // overtake (and unboundedly delay) an older packet's recovery.
      UeCtx::RetxTb entry{std::move(tb), attempt + 1};
      if (attempt == 1) {
        ue.retx_queue.push_back(std::move(entry));
      } else {
        ue.retx_queue.push_front(std::move(entry));
      }
      sim.schedule_at(air_end + cfg.harq_feedback_delay, [this, &ue] { retransmit_ul(ue); });
      return;
    }
    if (air.lost) {
      // HARQ budget exhausted: account it, then keep serving any other lost
      // TBs and restart the access flow for backlog.
      drop(harq_dropped, ue.ul_trace);
      resume_ul_after_drop(ue);
      return;
    }
    tracer.span_to(ue.ul_trace, "UL data over the air", LatencyCategory::Protocol, air_end);
    sim.schedule_at(air_end, [this, &ue, tb = std::move(tb), attempt]() mutable {
      radio_rx(gnb.compute.radio, "gNB radio RX chain", ue.ul_trace, Nanos{100'000},
               [this, &ue, tb = std::move(tb), attempt]() mutable {
                 gnb_rx_ul(ue, std::move(tb), attempt);
               });
    });
    // A retransmission chains the next opportunity for any other lost TBs.
    if (attempt > 1 && !ue.retx_queue.empty()) retransmit_ul(ue);
  }

  /// Acquire a fresh opportunity of the same access mode and re-send the
  /// oldest lost TB.
  void retransmit_ul(UeCtx& ue) {
    if (ue.retx_queue.empty()) return;
    std::optional<UlGrant> opportunity;
    if (cfg.grant_free) {
      opportunity = ue.cg.next_occasion(*cfg.duplex, sim.now());
    } else {
      const auto plan = sched.plan_ul_grant(ue.id, sim.now());
      if (plan) opportunity = plan->grant;
    }
    if (!opportunity) {
      // The count rides on the queued TB: a re-lost TB pushed in front
      // starts its own.
      if (rearm_stranded(ue.retx_queue.front().stranded_retries,
                         [this, &ue](int) { retransmit_ul(ue); })) {
        tracer.span_to(ue.ul_trace, "stranded retransmission wait", LatencyCategory::Protocol,
                       sim.now() + slot_dur);
        return;
      }
      ue.retx_queue.pop_front();
      drop(stranded_drops, ue.ul_trace);
      resume_ul_after_drop(ue);
      return;
    }
    const UlGrant g = *opportunity;
    tracer.span_to(ue.ul_trace, "wait for retransmission occasion", LatencyCategory::Protocol,
                   g.tx_start);
    sim.schedule_at(g.tx_start, [this, &ue, g] {
      if (ue.retx_queue.empty()) return;
      UeCtx::RetxTb entry = std::move(ue.retx_queue.front());
      ue.retx_queue.pop_front();
      transmit_ul(ue, g, std::move(entry.tb), entry.attempt);
    });
  }

  void gnb_rx_ul(UeCtx& ue, ByteBuffer tb, int attempt) {
    gnb_traverse({Layer::PHY, Layer::MAC}, std::nullopt, ue.ul_trace,
                 [this, &ue, tb = std::move(tb), attempt](Nanos) mutable {
      auto subpdus = parse_mac_pdu(std::move(tb));
      if (!subpdus) return;
      bool more_data = false;
      for (MacSubPdu& sp : *subpdus) {
        if (sp.lcid == Lcid::ShortBsr) {
          more_data = bsr_bucket_bytes(ShortBsr::decode(sp.payload.bytes()[0]).index) > 0;
        } else if (sp.lcid == Lcid::Drb1) {
          process_ul_rlc_pdu(ue, std::move(sp.payload), attempt);
        }
      }
      if (!cfg.grant_free) {
        if (more_data || ue.stack.uplink().rlc_tx.has_data()) {
          grant_or_release(ue, sim.now());
        } else {
          ue.sr_pending = false;
        }
      } else if (ue.stack.uplink().rlc_tx.has_data()) {
        schedule_cg_service(ue);
      }
    });
  }

  void process_ul_rlc_pdu(UeCtx& ue, ByteBuffer&& pdu, int attempt) {
    const std::size_t chain = static_cast<std::size_t>(ue.index);
    gnb.uplink(chain).rlc_rx.receive(
        std::move(pdu), [this, &ue, chain, attempt](ByteBuffer&& sdu, const PacketMeta&) {
          gnb_traverse({Layer::RLC, Layer::PDCP, Layer::SDAP}, std::nullopt, ue.ul_trace,
                       [this, &ue, chain, sdu = std::move(sdu), attempt](Nanos) mutable {
                         pdcp_receive(gnb.uplink(chain).pdcp_rx, ue.ul_reorder_armed,
                                      std::move(sdu),
                                      [this, &ue, attempt](ByteBuffer&& plain, const PacketMeta&) {
                                        deliver_ul(ue, std::move(plain), attempt);
                                      });
                       });
        });
  }

  void deliver_ul(UeCtx& ue, ByteBuffer&& sdu, int attempt) {
    (void)gnb.compute.sdap.decapsulate(sdu);
    gtpu_encapsulate(sdu, ue.teid());
    // The UPF routes (and strips the tunnel of) its own copy; the original
    // stays encapsulated for the sequence read below. Pool-backed copies:
    // one block acquire + memcpy, no heap traffic.
    ByteBuffer routed = sdu;
    const Nanos upf_latency = upf.process_uplink(routed).value_or(Nanos::zero());
    const int seq = [&] {
      (void)gtpu_decapsulate(sdu);
      return read_seq(sdu);
    }();
    // A UPF outage may eat the packet after the whole radio journey — the
    // §6 point that reliability is end-to-end, not an air-interface property.
    const std::optional<Nanos> upf_extra = upf_outage(seq);
    if (ue.ul_trace == seq) ue.ul_trace = -1;
    if (!upf_extra) return;
    tracer.span_for(seq, "core network (UPF + backhaul)", LatencyCategory::Protocol,
                    upf.backhaul() + upf_latency);
    sim.schedule_after(upf.backhaul() + upf_latency + *upf_extra,
                       [this, seq, attempt] { finalize(seq, attempt); });
  }

  // =========================================================================
  // Downlink

  void start_downlink(UeCtx& ue, std::size_t ridx) {
    // Packet enters at the UPF from the data network.
    ByteBuffer pkt = make_payload(rec(ridx).seq, cfg.payload_bytes);
    // DL packets meet the UPF first: an outage drops or delays them before
    // the radio stack ever sees a byte.
    const std::optional<Nanos> upf_extra = upf_outage(ue.dl_trace);
    if (!upf_extra) {
      ue.dl_trace = -1;
      return;
    }
    const Nanos upf_latency = upf.process_downlink(pkt, ue.teid()) + *upf_extra;
    tracer.span_for(ue.dl_trace, "core network (UPF + backhaul)", LatencyCategory::Protocol,
                    upf_latency + upf.backhaul());
    sim.schedule_after(upf_latency + upf.backhaul(),
                       [this, pkt = std::move(pkt), ridx, &ue]() mutable {
                         gnb_dl_ingress(ue, std::move(pkt), ridx);
                       });
  }

  void gnb_dl_ingress(UeCtx& ue, ByteBuffer pkt, std::size_t ridx) {
    if (!gtpu_decapsulate(pkt)) return;
    gnb_traverse({Layer::SDAP, Layer::PDCP, Layer::RLC}, ridx, ue.dl_trace,
                 [this, &ue, pkt = std::move(pkt)](Nanos end) mutable {
                   const std::size_t chain = static_cast<std::size_t>(ue.index);
                   gnb.compute.sdap.encapsulate(pkt, kQfi);
                   gnb.downlink(chain).pdcp_tx.protect(pkt);
                   gnb.downlink(chain).rlc_tx.enqueue(std::move(pkt), end);
                   schedule_dl_service(ue, end);
                 });
  }

  /// Bytes one DL window can physically carry: the §2 resource grid at a
  /// typical private-5G allocation (100 PRB, MCS 19). Large SDUs therefore
  /// segment across windows, exactly as RLC would on hardware. The TBS
  /// arithmetic is memoized per symbol count inside the scheduler.
  [[nodiscard]] std::size_t window_capacity_bytes(const DlAssignment& a) {
    const auto symbols = static_cast<int>((a.tx_end - a.tx_start) /
                                          cfg.duplex->numerology().symbol_duration());
    return sched.dl_window_capacity_bytes(symbols);
  }

  /// Run `serve` at DL assignment `a`'s pull time: radio_lead ahead of its
  /// air window, or now when that has already passed.
  template <typename Serve>
  void at_dl_pull(const DlAssignment& a, Serve serve) {
    sim.schedule_at(std::max(sim.now(), a.tx_start - sched.params().radio_lead), std::move(serve));
  }

  void schedule_dl_service(UeCtx& ue, Nanos ready, int stranded_retries = 0) {
    const std::size_t tb = cfg.payload_bytes + cfg.dl_tb_slack;
    const auto plan = sched.plan_dl(ue.id, ready, tb);
    // URLLC preemption (UE 0 is the URLLC bearer by convention): if an
    // in-flight eMBB TB holds an air window the URLLC data can still make —
    // and it beats the scheduler's natural assignment — puncture it. The
    // victim's transmission resolves as a deterministic loss and re-enters
    // HARQ (see transmit_dl); the URLLC TB takes the stolen window.
    if (preemption_on() && ue.index == 0) {
      // Stealable: any staged window that has not started transmitting by
      // the time the URLLC data is ready. (Staging happens radio_lead ahead
      // of the air window, so `ready + total_lead` would always overshoot
      // every registered entry — the preemption gain *is* skipping that
      // staging lead via the puncturing indication.)
      const Nanos natural = plan ? plan->tx_start : Nanos::max();
      const auto victim = ledger.puncture_earliest(0, ready, natural);
      if (victim) {
        const DlAssignment a{ue.id, victim->tx_start, victim->tx_end, tb, HarqId{0}};
        tracer.span_to(ue.dl_trace, "URLLC preemption: stolen DL window",
                       LatencyCategory::Protocol, sim.now());
        at_dl_pull(a, [this, &ue, a] { serve_dl(ue, a, /*stolen=*/true); });
        return;
      }
    }
    if (!plan) {
      // Stranded past the cap: discard the head-of-line SDU as well, so a
      // later service call cannot deliver a packet already counted as lost.
      if (!rearm_stranded(stranded_retries,
                          [this, &ue](int n) { schedule_dl_service(ue, sim.now(), n); }) &&
          gnb.downlink(static_cast<std::size_t>(ue.index)).rlc_tx.discard_head()) {
        drop(stranded_drops, ue.dl_trace);
      }
      return;
    }
    const DlAssignment a = *plan;
    at_dl_pull(a, [this, &ue, a] { serve_dl(ue, a); });
  }

  void serve_dl(UeCtx& ue, const DlAssignment& original, bool stolen = false) {
    DlAssignment a = original;
    a.tb_bytes = std::min(a.tb_bytes, window_capacity_bytes(a));
    const std::size_t chain = static_cast<std::size_t>(ue.index);
    auto pulled = gnb.downlink(chain).rlc_tx.pull(a.tb_bytes - kMacSubheaderBytes - 1);
    if (!pulled) return;

    // Table 2's RLC-q: how long the SDU waited in the RLC queue for the
    // per-slot scheduler to serve it.
    const Nanos q_wait = sim.now() - pulled->sdu_enqueued_at;
    rlc_q_stats_us.add(q_wait.us());
    if (m.rlc_q != nullptr) m.rlc_q->record(q_wait);
    tracer.span_to(ue.dl_trace, "RLC queue wait (slot scheduler)", LatencyCategory::Protocol,
                   sim.now());

    MacSubPdus sub;
    sub.push_back(MacSubPdu{Lcid::Drb1, std::move(pulled->pdu)});
    ByteBuffer tb = build_mac_pdu(sub, a.tb_bytes);

    // If segmentation left data behind, plan the remainder immediately.
    if (gnb.downlink(chain).rlc_tx.has_data()) schedule_dl_service(ue, sim.now());

    // Only the stochastic PHY draw feeds the Table 2 PHY statistics; the
    // size-dependent encode cost is the deterministic pipeline part.
    const Nanos phy_draw = gnb.compute.proc.sample(Layer::PHY);
    record_gnb_layer(Layer::PHY, phy_draw);
    stage_dl(ue, a, std::move(tb), 1, phy_draw, stolen);
  }

  /// Re-plan a DL transport block whose slot was missed or lost.
  void requeue_dl_tb(UeCtx& ue, ByteBuffer tb, Nanos ready, int attempt,
                     int stranded_retries = 0) {
    const std::size_t bytes = tb.size();
    const auto plan = sched.plan_dl(ue.id, ready, bytes);
    if (!plan) {
      if (!rearm_stranded(stranded_retries,
                          [this, &ue, tb = std::move(tb), attempt](int n) mutable {
                            requeue_dl_tb(ue, std::move(tb), sim.now(), attempt, n);
                          })) {
        drop(stranded_drops, ue.dl_trace);
      }
      return;
    }
    const DlAssignment a = *plan;
    at_dl_pull(a, [this, &ue, a, attempt, tb = std::move(tb)]() mutable {
      tracer.span_to(ue.dl_trace, "wait for re-planned DL slot", LatencyCategory::Protocol,
                     sim.now());
      stage_dl(ue, a, std::move(tb), attempt, Nanos::zero(), /*stolen=*/false);
    });
  }

  /// Stage DL TB `tb` for `a`'s air window, first transmission or HARQ
  /// re-entry: register it in the preemption ledger (from here until its
  /// air window completes, a URLLC arrival may steal it), PHY-encode it
  /// (plus `phy_draw`), then race the radio staging pipeline against the
  /// air deadline (§4's margin).
  void stage_dl(UeCtx& ue, const DlAssignment& a, ByteBuffer tb, int attempt, Nanos phy_draw,
                bool stolen) {
    const std::uint64_t token =
        preemption_on() ? ledger.register_tx(ue.index, a.tx_start, a.tx_end) : 0;
    const Nanos encode =
        gnb.compute.phy.encode_time(static_cast<int>(a.tb_bytes * 8)) + phy_draw;
    tracer.span_for(ue.dl_trace, "gNB PHY encode", LatencyCategory::Processing, encode);
    sim.schedule_after(encode, [this, &ue, a, attempt, token, stolen,
                                tb = std::move(tb)]() mutable {
      // A stolen (punctured) window skips the radio staging pipeline: the
      // victim's sample buffer already sits at the radio head on time, and
      // the puncture overwrites its resource elements in place at line rate
      // (the TS 38.214 §5.1.4 preemption-indication mechanism). Only the
      // PHY encode must still beat the air deadline.
      TxPreparation prep{};
      if (stolen) {
        prep.ready_at = sim.now();
        prep.on_time = sim.now() <= a.tx_start;
        if (prep.on_time) {
          tracer.span_to(ue.dl_trace, "PHY puncture overwrite (in place)",
                         LatencyCategory::Radio, sim.now());
        }
      } else {
        const auto n_samples = samples_of(gnb.compute.radio, a.tx_end - a.tx_start);
        prep = gnb.compute.radio.prepare_tx(sim.now(), n_samples, a.tx_start);
        // A bus stall extends the sample transfer: it erodes the §4 margin
        // and can push the buffer past the air deadline.
        prep.ready_at += fault_bus_stall();
        prep.on_time = prep.ready_at <= a.tx_start;
      }
      if (!prep.on_time) {
        // Samples missed the slot: corrupted signal (§4). Count it and treat
        // as a lost transmission — retransmit if budget remains.
        ++radio_deadline_misses;
        const bool punctured = token != 0 && ledger.consume(token);
        if (attempt < cfg.harq_max_tx) {
          if (punctured) ++punctured_retx;
          requeue_dl_tb(ue, std::move(tb), prep.ready_at, attempt + 1);
        } else {
          drop(harq_dropped, ue.dl_trace);  // budget exhausted on deadline misses
        }
        return;
      }
      tracer.span_to(ue.dl_trace, "gNB radio TX chain", LatencyCategory::Radio,
                     std::min(prep.ready_at, a.tx_start));
      tracer.span_to(ue.dl_trace, "wait for DL slot", LatencyCategory::Protocol, a.tx_start);
      transmit_dl(ue, a, std::move(tb), attempt, token);
    });
  }

  void transmit_dl(UeCtx& ue, const DlAssignment& assigned, ByteBuffer tb, int attempt,
                   std::uint64_t token) {
    // NR-U: the gNB clears CAT4 before the burst; the whole assignment
    // window shifts by the deferral.
    const AirOutcome air = air_attempt(ue.dl_trace, assigned.tx_start, assigned.tx_end, false);
    DlAssignment a = assigned;
    a.tx_start += air.deferral;
    a.tx_end += air.deferral;
    if (air.lost) {
      if (attempt < cfg.harq_max_tx) {
        nack_dl(ue, std::move(tb), attempt, token, a.tx_end, "DL data over the air (lost)");
      } else {
        if (token != 0) (void)ledger.consume(token);
        drop(harq_dropped, ue.dl_trace);  // budget exhausted
      }
      return;
    }
    tracer.span_to(ue.dl_trace, "DL data over the air", LatencyCategory::Protocol, a.tx_end);
    sim.schedule_at(a.tx_end, [this, &ue, a, tb = std::move(tb), attempt, token]() mutable {
      if (token != 0 && ledger.consume(token)) {
        // A URLLC arrival stole this TB's air window: the transmission
        // behaves exactly like a lost one and re-enters HARQ.
        if (attempt < cfg.harq_max_tx) {
          ++punctured_retx;
          nack_dl(ue, std::move(tb), attempt, /*token=*/0, a.tx_end, "DL TB punctured by URLLC");
        } else {
          drop(harq_dropped, ue.dl_trace);  // punctured with no budget left
        }
        return;
      }
      radio_rx(ue.stack.compute.radio, "UE radio RX chain", ue.dl_trace, a.tx_end - a.tx_start,
               [this, &ue, tb = std::move(tb), attempt]() mutable {
                 ue_rx_dl(ue, std::move(tb), attempt);
               });
    });
  }

  /// HARQ NACK for a DL TB whose air window ended at `air_end` (`what`
  /// names the failed window): wait for the feedback, then re-plan the TB.
  /// A puncture of `token`'s window found by then resolves as the same
  /// single re-entry.
  void nack_dl(UeCtx& ue, ByteBuffer tb, int attempt, std::uint64_t token, Nanos air_end,
               const char* what) {
    tracer.span_to(ue.dl_trace, what, LatencyCategory::Protocol, air_end);
    tracer.span_to(ue.dl_trace, "HARQ feedback wait", LatencyCategory::Protocol,
                   air_end + cfg.harq_feedback_delay);
    sim.schedule_at(air_end + cfg.harq_feedback_delay,
                    [this, &ue, tb = std::move(tb), attempt, token]() mutable {
                      if (token != 0 && ledger.consume(token)) ++punctured_retx;
                      requeue_dl_tb(ue, std::move(tb), sim.now(), attempt + 1);
                    });
  }

  void ue_rx_dl(UeCtx& ue, ByteBuffer tb, int attempt) {
    ue_traverse(ue, {Layer::PHY, Layer::MAC}, ue.dl_trace,
                [this, &ue, tb = std::move(tb), attempt](Nanos) mutable {
      auto subpdus = parse_mac_pdu(std::move(tb));
      if (!subpdus) return;
      for (MacSubPdu& sp : *subpdus) {
        if (sp.lcid != Lcid::Drb1) continue;
        ue.stack.downlink().rlc_rx.receive(
            std::move(sp.payload), [this, &ue, attempt](ByteBuffer&& sdu, const PacketMeta&) {
              ue_traverse(ue, {Layer::RLC, Layer::PDCP, Layer::SDAP, Layer::APP}, ue.dl_trace,
                          [this, &ue, sdu = std::move(sdu), attempt](Nanos) mutable {
                            pdcp_receive(ue.stack.downlink().pdcp_rx, ue.dl_reorder_armed,
                                         std::move(sdu),
                                         [this, &ue, attempt](ByteBuffer&& plain,
                                                              const PacketMeta&) {
                                           (void)ue.stack.compute.sdap.decapsulate(plain);
                                           const int seq = read_seq(plain);
                                           if (ue.dl_trace == seq) ue.dl_trace = -1;
                                           finalize(seq, attempt);
                                         });
                          });
            });
      }
    });
  }

  // =========================================================================

  void finalize(int seq, int attempt) {
    if (seq < 0 || static_cast<std::size_t>(seq) >= owner.records_.size()) return;
    PacketRecord& r = owner.records_[static_cast<std::size_t>(seq)];
    if (r.ok) return;
    r.delivered = sim.now();
    r.ok = true;
    r.harq_transmissions = attempt;
    ++packets_delivered;
    harq_retx += static_cast<std::uint64_t>(attempt - 1);
    tracer.close(seq, sim.now());
    if (LatencyHistogram* h = r.dir == Direction::Uplink ? m.ul_latency : m.dl_latency) {
      h->record(r.latency());
    }
  }

  /// Record a packet offered at `at` and schedule its injection.
  void inject(Direction dir, Nanos at, int ue) {
    if (ue < 0 || static_cast<std::size_t>(ue) >= ues.size())
      throw std::out_of_range{"E2eSystem: UE index out of range"};
    const std::size_t idx = owner.records_.size();
    PacketRecord& r = owner.records_.emplace_back();
    r.seq = static_cast<int>(idx);
    r.ue = ue;
    r.dir = dir;
    r.created = at;
    sim.schedule_at(at, [this, idx] { start_packet(idx); });
  }
};

// ===========================================================================

E2eSystem::E2eSystem(StackConfig cfg) {
  cfg.validate();
  impl_ = std::make_unique<Impl>(std::move(cfg), *this);
}

E2eSystem::~E2eSystem() = default;

Simulator& E2eSystem::simulator() { return impl_->sim; }
const Simulator& E2eSystem::simulator() const { return impl_->sim; }

Tracer& E2eSystem::tracer() { return impl_->tracer; }
const Tracer& E2eSystem::tracer() const { return impl_->tracer; }
MetricsRegistry& E2eSystem::metrics() { return impl_->metrics; }
const MetricsRegistry& E2eSystem::metrics() const { return impl_->metrics; }

void E2eSystem::send_uplink_at(Nanos at, int ue) { impl_->inject(Direction::Uplink, at, ue); }
void E2eSystem::send_downlink_at(Nanos at, int ue) { impl_->inject(Direction::Downlink, at, ue); }

void E2eSystem::run_until(Nanos until) {
  impl_->sim.run_until(until);
  if (impl_->cfg.trace.metrics_on()) impl_->publish_counters();
}

std::uint64_t E2eSystem::packets_started() const {
  return impl_->packets_started[0] + impl_->packets_started[1];
}
std::uint64_t E2eSystem::packets_delivered() const { return impl_->packets_delivered; }

std::uint64_t E2eSystem::radio_deadline_misses() const { return impl_->radio_deadline_misses; }
std::uint64_t E2eSystem::missed_grants() const { return impl_->missed_grants; }
std::uint64_t E2eSystem::harq_dropped_tbs() const { return impl_->harq_dropped; }
std::uint64_t E2eSystem::stranded_drops() const { return impl_->stranded_drops; }
std::uint64_t E2eSystem::pdcp_discards() const { return impl_->pdcp_discards; }
std::uint64_t E2eSystem::punctured_retx() const { return impl_->punctured_retx; }
std::uint64_t E2eSystem::crosslink_ul_losses() const { return impl_->xlink_losses; }

const DuplexConfig& E2eSystem::effective_duplex() const { return *impl_->cfg.duplex; }

std::uint64_t E2eSystem::dynamic_upgraded_slots() const {
  return impl_->policy ? impl_->policy->upgraded_slots() : 0;
}

double E2eSystem::dl_upgrade_activity() const { return impl_->dl_upgrade_activity; }

void E2eSystem::set_crosslink_dl_activity(double aggregate_activity) {
  impl_->xlink_activity = aggregate_activity;
}

LbtGate::Stats E2eSystem::lbt_stats() const {
  return impl_->lbt ? impl_->lbt->stats() : LbtGate::Stats{};
}

Nanos E2eSystem::wifi_busy_until(Nanos horizon) {
  return impl_->lbt ? impl_->lbt->wifi_busy_until(horizon) : Nanos{};
}

E2eSystem::MacBacklog E2eSystem::mac_backlog() const {
  MacBacklog b;
  for (const auto& ue : impl_->ues) {
    b.sr_pending += ue->sr_pending ? 1 : 0;
    b.cg_armed += ue->cg_scheduled ? 1 : 0;
    b.retx_ues += ue->retx_queue.empty() ? 0 : 1;
    b.retx_tbs += ue->retx_queue.size();
  }
  return b;
}
FaultInjector::Counters E2eSystem::fault_counters() const { return impl_->faults.counters(); }

void E2eSystem::set_external_load_ues(double extra_ues) {
  impl_->gnb.compute.proc.set_scale(
      1.0 + impl_->cfg.gnb_load_factor_per_ue *
                (static_cast<double>(impl_->ues.size() - 1) + extra_ues));
}

SampleSet E2eSystem::latency_samples_us(Direction dir) const {
  SampleSet s;
  for (const PacketRecord& r : records_) {
    if (r.dir == dir && r.ok) s.add(r.latency().us());
  }
  return s;
}

RunningStats E2eSystem::gnb_layer_stats_us(Layer layer) const {
  return impl_->gnb_layer_stats[static_cast<std::size_t>(layer)];
}

RunningStats E2eSystem::rlc_queue_stats_us() const { return impl_->rlc_q_stats_us; }

double E2eSystem::reliability_at(Direction dir, Nanos deadline) const {
  std::size_t total = 0;
  std::size_t within = 0;
  for (const PacketRecord& r : records_) {
    if (r.dir != dir) continue;
    ++total;
    if (r.ok && r.latency() <= deadline) ++within;
  }
  return total == 0 ? 0.0 : static_cast<double>(within) / static_cast<double>(total);
}

}  // namespace u5g
