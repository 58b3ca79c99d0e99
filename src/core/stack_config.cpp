#include "core/stack_config.hpp"

#include <stdexcept>

#include "tdd/common_config.hpp"

namespace u5g {

namespace {

StackConfig testbed_base(std::uint64_t seed) {
  StackConfig c;
  c.duplex = std::make_shared<TddCommonConfig>(TddCommonConfig::dddu(kMu1));
  c.sr = SrConfig::per_slot(kMu1);
  c.cg = ConfiguredGrantConfig::periodic(kMu1.slot_duration(), 256, 4);
  c.sched.radio_lead = kMu1.slot_duration();  // §7: delay one slot for the RH
  c.sched.margin = Nanos{100'000};
  c.sched.ue_min_prep = Nanos{300'000};
  c.sched.ul_tx_symbols = 4;
  c.sched.ul_tb_bytes = 256;
  c.gnb_radio = RadioHeadParams::usrp_b210_usb2();
  c.ue_radio = RadioHeadParams::pcie_sdr();
  c.harq_feedback_delay = kMu1.slot_duration();
  c.seed = seed;
  return c;
}

}  // namespace

StackConfig StackConfig::testbed_grant_based(std::uint64_t seed) {
  StackConfig c = testbed_base(seed);
  c.grant_free = false;
  return c;
}

StackConfig StackConfig::testbed_grant_free(std::uint64_t seed) {
  StackConfig c = testbed_base(seed);
  c.grant_free = true;
  return c;
}

namespace {

void append(CanonicalWords& w, Nanos t) { w.add_signed(t.count()); }

void append(CanonicalWords& w, const LayerTime& t) {
  w.add_double(t.mean_us);
  w.add_double(t.std_us);
}

void append(CanonicalWords& w, const ProcessingProfile& p) {
  for (const LayerTime* t : {&p.sdap, &p.pdcp, &p.rlc, &p.mac, &p.phy, &p.app}) append(w, *t);
  w.add_double(p.scale);
}

void append(CanonicalWords& w, const JitterParams& j) {
  append(w, j.noise_mean);
  append(w, j.noise_std);
  w.add_double(j.spike_prob);
  append(w, j.spike_mean);
  append(w, j.spike_cap);
}

void append(CanonicalWords& w, const RadioHeadParams& r) {
  w.add_string(r.bus.name);
  append(w, r.bus.base_overhead);
  append(w, r.bus.per_sample);
  append(w, r.bus.jitter);
  w.add_signed(r.sample_rate.samples_per_second);
  w.add_signed(r.sample_rate.bytes_per_sample);
  append(w, r.dac_adc_latency);
  append(w, r.rx_chain_latency);
  append(w, r.rx_base);
}

void append(CanonicalWords& w, const FaultScenario& s) {
  w.add_signed(static_cast<int>(s.kind));
  append(w, s.window.start);
  append(w, s.window.duration);
  append(w, s.window.period);
  w.add_double(s.ge.p_good_loss);
  w.add_double(s.ge.p_bad_loss);
  w.add_double(s.ge.p_good_to_bad);
  w.add_double(s.ge.p_bad_to_good);
  append(w, s.storm);
  append(w, s.bus_stall);
  w.add_double(s.upf_drop_prob);
  append(w, s.upf_extra_delay);
}

}  // namespace

void StackConfig::append_canonical_words(CanonicalWords& w) const {
  // Field order is the identity contract: append-only, never reorder —
  // a stored canonical_key stays comparable across builds that do not add
  // knobs. New fields go at the end.
  w.add_bool(duplex != nullptr);
  if (duplex) duplex->append_value_words(w);
  w.add_bool(grant_free);
  append(w, sr.periodicity);
  w.add_signed(sr.sr_symbols);
  w.add_signed(sr.max_transmissions);
  append(w, cg.periodicity);
  w.add_signed(cg.tx_symbols);
  w.add(cg.tb_bytes);
  append(w, cg.offset);
  append(w, sched.radio_lead);
  append(w, sched.margin);
  append(w, sched.ue_min_prep);
  w.add_signed(sched.ul_tx_symbols);
  w.add(sched.ul_tb_bytes);
  w.add_signed(sched.dl_prbs);
  w.add_signed(sched.dl_mcs_index);
  w.add_signed(num_ues);
  w.add_double(gnb_load_factor_per_ue);
  w.add_signed(num_cells);
  w.add_double(intercell_load_coupling);
  w.add_signed(population.background_ues);
  append(w, population.mean_interarrival);
  w.add_bool(population.periodic);
  w.add_bool(population.aggregate);
  w.add_double(population.loss);
  w.add_signed(population.harq_max_tx);
  w.add_signed(population.grants_per_slot);
  w.add_signed(population.queue_capacity);
  w.add_double(population.load_factor);
  append(w, gnb_proc);
  append(w, ue_proc);
  append(w, gnb_radio);
  append(w, ue_radio);
  append(w, phy.encode_base);
  append(w, phy.encode_per_cb);
  append(w, phy.decode_base);
  append(w, phy.decode_per_cb);
  w.add_signed(phy.decode_harq_extra_pct);
  append(w, upf.forwarding_latency);
  append(w, upf.backhaul_latency);
  w.add_double(upf.embb_load);
  append(w, upf.embb_queue_mean);
  w.add_signed(static_cast<int>(rlc_mode));
  w.add_double(channel_loss);
  append(w, pdcp_t_reordering);
  w.add_bool(blockage.has_value());
  if (blockage) {
    append(w, blockage->mean_los);
    append(w, blockage->mean_blocked);
    w.add_double(blockage->blocked_loss_prob);
  }
  append(w, harq_feedback_delay);
  w.add_signed(harq_max_tx);
  w.add(payload_bytes);
  w.add(dl_tb_slack);
  w.add(seed);
  w.add(faults.size());
  for (const FaultScenario& s : faults) append(w, s);
  w.add_bool(trace.enabled);
  w.add_bool(trace.spans);
  w.add_bool(trace.metrics);
  w.add_bool(dynamic_tdd.enabled);
  w.add_signed(dynamic_tdd.guard_slots);
  w.add_signed(dynamic_tdd.hold_slots);
  w.add_signed(dynamic_tdd.ul_guard_slots);
  w.add_bool(dynamic_tdd.preemption);
  w.add_double(dynamic_tdd.xlink_ul_bler);
  w.add_bool(lbt.enabled);
  w.add_signed(lbt.cw_min);
  w.add_signed(lbt.cw_max);
  append(w, lbt.defer);
  append(w, lbt.ed_slot);
  w.add_double(lbt.ed_threshold_dbm);
  w.add_double(lbt.wifi_energy_min_dbm);
  w.add_double(lbt.wifi_energy_max_dbm);
  w.add_double(lbt.hidden_collision_loss);
  w.add_double(lbt.nack_ratio_threshold);
  w.add_signed(lbt.min_feedback);
  append(w, lbt.wifi_busy_mean);
  append(w, lbt.wifi_idle_mean);
  append(w, lbt.tx_gap);
}

CanonicalWords StackConfig::canonical_words() const {
  CanonicalWords w;
  append_canonical_words(w);
  return w;
}

std::uint64_t StackConfig::canonical_key() const { return canonical_words().hash(); }

void StackConfig::validate() const {
  if (!duplex) throw std::invalid_argument{"StackConfig: duplex config required"};
  if (num_ues < 1) throw std::invalid_argument{"StackConfig: num_ues must be >= 1"};
  if (harq_max_tx < 1) throw std::invalid_argument{"StackConfig: harq_max_tx must be >= 1"};
  if (num_cells < 1) throw std::invalid_argument{"StackConfig: num_cells must be >= 1"};
  if (!(channel_loss >= 0.0 && channel_loss <= 1.0)) {
    throw std::invalid_argument{"StackConfig: channel_loss must lie in [0, 1]"};
  }
}

bool operator==(const StackConfig& a, const StackConfig& b) {
  return a.canonical_words() == b.canonical_words();
}

StackConfig StackConfig::urllc_design(std::uint64_t seed) {
  StackConfig c;
  c.duplex = std::make_shared<TddCommonConfig>(TddCommonConfig::dm(kMu2));
  c.grant_free = true;
  c.cg = ConfiguredGrantConfig::every_symbol(256, 2);
  // The staging lead must cover PHY encode (incl. the Table 2 draw's tail),
  // the PCIe submission and the DAC chain — §4's interdependency, tuned.
  c.sched.radio_lead = Nanos{150'000};
  c.sched.margin = Nanos{50'000};
  c.sched.ue_min_prep = Nanos{100'000};
  c.sched.ul_tx_symbols = 2;
  c.sched.ul_tb_bytes = 256;
  c.gnb_radio = RadioHeadParams::pcie_sdr();
  c.gnb_radio.bus = c.gnb_radio.bus.with_rt_kernel();
  c.ue_radio = RadioHeadParams::pcie_sdr();
  c.ue_radio.bus = c.ue_radio.bus.with_rt_kernel();
  c.gnb_proc = ProcessingProfile::gnb_i7();
  c.ue_proc = ProcessingProfile::gnb_i7();  // software UE, not a modem black box
  c.harq_feedback_delay = kMu2.slot_duration();
  c.seed = seed;
  return c;
}

}  // namespace u5g
