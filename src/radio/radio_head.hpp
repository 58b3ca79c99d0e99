#pragma once
// Radio head (RH) model: the SDR front end between PHY and the antenna.
//
// §4's "radio latency" = RF chain (DAC/ADC), interface-bus queuing and
// transfer. §7 observes the USRP B210's USB path adds ≈500 µs, forcing the
// gNB to delay every transmission by one slot so samples are at the radio
// on time — and §4 warns that a scheduler without enough margin produces a
// radio that is not ready, i.e. a corrupted signal. `prepare_tx` models
// exactly that: samples submitted for an air-time deadline either make it
// (ready_at <= deadline) or the slot is corrupted.

#include <cstdint>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "phy/samples.hpp"
#include "radio/bus.hpp"

namespace u5g {

struct RadioHeadParams {
  BusParams bus = BusParams::usb2();
  SampleRate sample_rate{};
  Nanos dac_adc_latency{25'000};   ///< RF chain group delay + FPGA buffering
  Nanos rx_chain_latency{30'000};  ///< ADC + host transfer setup on receive
  Nanos rx_base{20'000};           ///< host-side receive buffering floor

  /// The §7 testbed radio: USRP B210 on USB. Total TX-side latency lands
  /// near the paper's "around 500 µs" for slot-sized buffers at 0.5 ms slots.
  static RadioHeadParams usrp_b210_usb2() { return {}; }
  static RadioHeadParams usrp_b210_usb3() {
    return {BusParams::usb3(), SampleRate{}, Nanos{25'000}, Nanos{30'000}};
  }
  /// PCIe-attached SDR with a hardware-timed pipeline.
  static RadioHeadParams pcie_sdr() {
    return {BusParams::pcie(), SampleRate{}, Nanos{8'000}, Nanos{10'000}};
  }
  /// Idealised zero-latency radio path (differential analytic-vs-sim tests):
  /// free bus, no RF chain delay, no receive floor.
  static RadioHeadParams ideal() {
    return {BusParams{"free", Nanos::zero(), Nanos::zero(), JitterParams::none()}, SampleRate{},
            Nanos::zero(), Nanos::zero(), Nanos::zero()};
  }
};

/// Outcome of staging samples for an over-the-air deadline.
struct TxPreparation {
  Nanos ready_at;     ///< when the radio can start emitting the buffer
  bool on_time;       ///< ready_at <= air deadline?
  Nanos bus_latency;  ///< the (jittered) submission cost, for accounting
};

class RadioHead {
 public:
  RadioHead(RadioHeadParams params, Rng rng)
      : p_(params), bus_(p_.bus, rng) {}

  /// Stage `n_samples` at time `submit_at` for transmission at `air_deadline`.
  TxPreparation prepare_tx(Nanos submit_at, std::int64_t n_samples, Nanos air_deadline) {
    const Nanos bus = bus_.submit_latency(n_samples);
    const Nanos ready = submit_at + bus + p_.dac_adc_latency;
    return {ready, ready <= air_deadline, bus};
  }

  /// Delay from end of an over-the-air reception until the PHY has the
  /// samples in host memory.
  [[nodiscard]] Nanos rx_delivery_latency(std::int64_t n_samples) {
    return bus_.submit_latency(n_samples) - bus_.params().base_overhead + p_.rx_chain_latency +
           p_.rx_base;
  }

  /// Deterministic one-way radio latency for accounting/margins.
  [[nodiscard]] Nanos nominal_tx_latency(std::int64_t n_samples) const {
    return bus_.deterministic_latency(n_samples) + p_.dac_adc_latency;
  }

  [[nodiscard]] const SampleRate& sample_rate() const { return p_.sample_rate; }

 private:
  RadioHeadParams p_;
  BusModel bus_;
};

}  // namespace u5g
