// Unit tests for src/radio (bus + radio head) and src/os (jitter +
// processing-time calibration).

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "common/stats.hpp"
#include "os/jitter.hpp"
#include "os/proc_time.hpp"
#include "radio/bus.hpp"
#include "radio/radio_head.hpp"

namespace u5g {
namespace {

using namespace u5g::literals;

// ---------------------------------------------------------------------------
// Bus

TEST(BusTest, DeterministicLatencyIsAffine) {
  const BusModel bus{BusParams::usb2(), Rng{1}};
  const Nanos l0 = bus.deterministic_latency(0);
  const Nanos l1 = bus.deterministic_latency(1000);
  const Nanos l2 = bus.deterministic_latency(2000);
  EXPECT_EQ(l0, BusParams::usb2().base_overhead);
  EXPECT_EQ(l2 - l1, l1 - l0);  // constant slope
}

TEST(BusTest, Usb3FlatterThanUsb2) {
  const BusModel u2{BusParams::usb2(), Rng{1}};
  const BusModel u3{BusParams::usb3(), Rng{1}};
  const auto slope = [](const BusModel& b) {
    return (b.deterministic_latency(20'000) - b.deterministic_latency(2'000)).count();
  };
  EXPECT_LT(slope(u3), slope(u2));
  EXPECT_LT(u3.deterministic_latency(20'000), u2.deterministic_latency(20'000));
}

TEST(BusTest, PcieFastestEthernetBetween) {
  const BusModel pcie{BusParams::pcie(), Rng{1}};
  const BusModel eth{BusParams::ethernet_ecpri(), Rng{1}};
  const BusModel usb2{BusParams::usb2(), Rng{1}};
  const std::int64_t n = 10'000;
  EXPECT_LT(pcie.deterministic_latency(n), eth.deterministic_latency(n));
  EXPECT_LT(eth.deterministic_latency(n), usb2.deterministic_latency(n));
}

TEST(BusTest, SubmissionAlwaysAtLeastDeterministic) {
  BusModel bus{BusParams::usb2(), Rng{2}};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(bus.submit_latency(5'000), bus.deterministic_latency(5'000));
  }
}

TEST(BusTest, Fig5Ranges) {
  // Calibration guard: the Fig 5 envelope (2000-20000 samples).
  const BusModel u2{BusParams::usb2(), Rng{1}};
  EXPECT_GT(u2.deterministic_latency(2'000), 150_us);
  EXPECT_LT(u2.deterministic_latency(2'000), 220_us);
  EXPECT_GT(u2.deterministic_latency(20'000), 350_us);
  EXPECT_LT(u2.deterministic_latency(20'000), 450_us);
}

// ---------------------------------------------------------------------------
// OS jitter

TEST(JitterTest, NoneIsExactlyZero) {
  OsJitterModel j{JitterParams::none(), Rng{3}};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(j.sample(), Nanos::zero());
}

TEST(JitterTest, GenericKernelSpikes) {
  OsJitterModel j{JitterParams::generic_kernel(), Rng{4}};
  int spikes = 0;
  constexpr int kN = 20'000;
  for (int i = 0; i < kN; ++i) {
    const Nanos v = j.sample();
    EXPECT_GE(v, Nanos::zero());
    if (v > 30_us) ++spikes;
  }
  // ~2 % spike probability with a 60 µs mean tail.
  EXPECT_GT(spikes, kN / 200);
  EXPECT_LT(spikes, kN / 20);
}

TEST(JitterTest, RtKernelBoundsSpikes) {
  OsJitterModel generic{JitterParams::generic_kernel(), Rng{5}};
  OsJitterModel rt{JitterParams::realtime_kernel(), Rng{5}};
  Nanos generic_max = Nanos::zero();
  Nanos rt_max = Nanos::zero();
  for (int i = 0; i < 50'000; ++i) {
    generic_max = std::max(generic_max, generic.sample());
    rt_max = std::max(rt_max, rt.sample());
  }
  EXPECT_GT(generic_max, 100_us);
  EXPECT_LT(rt_max, 60_us);  // capped at 30 µs spike + noise
}

TEST(JitterTest, SpikeCapHolds) {
  JitterParams p = JitterParams::generic_kernel();
  p.spike_prob = 1.0;  // every call spikes
  OsJitterModel j{p, Rng{6}};
  for (int i = 0; i < 5'000; ++i) {
    EXPECT_LE(j.sample(), p.spike_cap + 60_us);  // cap + generous noise bound
  }
}

// ---------------------------------------------------------------------------
// Radio head

TEST(RadioHeadTest, PrepareTxDeadline) {
  RadioHead rh{RadioHeadParams::usrp_b210_usb2(), Rng{7}};
  const std::int64_t slot_samples = 11'520;
  // Generous deadline: on time.
  const auto ok = rh.prepare_tx(Nanos{0}, slot_samples, 2_ms);
  EXPECT_TRUE(ok.on_time);
  EXPECT_LE(ok.ready_at, 2_ms);
  // Impossible deadline: late.
  const auto late = rh.prepare_tx(Nanos{0}, slot_samples, 100_us);
  EXPECT_FALSE(late.on_time);
  EXPECT_GT(late.ready_at, 100_us);
}

TEST(RadioHeadTest, NominalLatencyNearPaperB210Figure) {
  // §7: "the RH in use introduces around 500 µs latency" for slot-sized
  // buffers at 0.5 ms slots.
  RadioHead rh{RadioHeadParams::usrp_b210_usb2(), Rng{8}};
  const Nanos nominal = rh.nominal_tx_latency(rh.sample_rate().samples_in(kMu1.slot_duration()));
  EXPECT_GT(nominal, 280_us);
  EXPECT_LT(nominal, 600_us);
}

TEST(RadioHeadTest, PcieMuchFasterThanUsb) {
  RadioHead usb{RadioHeadParams::usrp_b210_usb2(), Rng{9}};
  RadioHead pcie{RadioHeadParams::pcie_sdr(), Rng{9}};
  const std::int64_t n = 11'520;
  EXPECT_LT(pcie.nominal_tx_latency(n) * 3, usb.nominal_tx_latency(n));
}

TEST(RadioHeadTest, RxDeliveryPositive) {
  RadioHead rh{RadioHeadParams::usrp_b210_usb2(), Rng{10}};
  for (int i = 0; i < 100; ++i) {
    EXPECT_GT(rh.rx_delivery_latency(1'000), Nanos::zero());
  }
}

// ---------------------------------------------------------------------------
// Processing-time calibration (Table 2)

struct LayerCase {
  Layer layer;
  double mean_us;
  double std_us;
};

/// The parameter as gtest prints it into the ctest name (the default
/// printer shows raw bytes, padding included).
void PrintTo(const LayerCase& c, std::ostream* os) {
  *os << to_string(c.layer) << " mean " << c.mean_us << " us std " << c.std_us << " us";
}

class ProcessingCalibrationTest : public ::testing::TestWithParam<LayerCase> {};

TEST_P(ProcessingCalibrationTest, MatchesTable2Moments) {
  const auto& c = GetParam();
  ProcessingModel m{ProcessingProfile::gnb_i7(), Rng{11}};
  RunningStats s;
  for (int i = 0; i < 100'000; ++i) s.add(m.sample(c.layer).us());
  EXPECT_NEAR(s.mean(), c.mean_us, 0.05 * c.mean_us);
  EXPECT_NEAR(s.stddev(), c.std_us, 0.10 * c.std_us);
}

INSTANTIATE_TEST_SUITE_P(Table2, ProcessingCalibrationTest,
                         ::testing::Values(LayerCase{Layer::SDAP, 4.65, 6.71},
                                           LayerCase{Layer::PDCP, 8.29, 8.99},
                                           LayerCase{Layer::RLC, 4.12, 8.37},
                                           LayerCase{Layer::MAC, 55.21, 16.31},
                                           LayerCase{Layer::PHY, 41.55, 10.83}),
                         [](const auto& info) { return std::string{to_string(info.param.layer)}; });

TEST(ProcessingModelTest, ZeroProfileIsZero) {
  ProcessingModel m{ProcessingProfile::zero(), Rng{12}};
  for (Layer l : {Layer::SDAP, Layer::PDCP, Layer::RLC, Layer::MAC, Layer::PHY, Layer::APP}) {
    EXPECT_EQ(m.sample(l), Nanos::zero());
  }
}

TEST(ProcessingModelTest, ScaleMultipliesDraws) {
  // §7: "higher number of UEs might increase the processing times noticeably".
  ProcessingModel base{ProcessingProfile::gnb_i7(), Rng{13}};
  ProcessingModel loaded{ProcessingProfile::gnb_i7(), Rng{13}};
  loaded.set_scale(4.0);
  RunningStats b, l;
  for (int i = 0; i < 20'000; ++i) {
    b.add(base.sample(Layer::MAC).us());
    l.add(loaded.sample(Layer::MAC).us());
  }
  EXPECT_NEAR(l.mean() / b.mean(), 4.0, 0.2);
}

TEST(ProcessingModelTest, UeModemSlowerThanGnb) {
  const ProcessingProfile gnb = ProcessingProfile::gnb_i7();
  const ProcessingProfile ue = ProcessingProfile::ue_modem();
  for (Layer l : {Layer::SDAP, Layer::PDCP, Layer::RLC, Layer::MAC, Layer::PHY}) {
    EXPECT_GT(ue.layer(l).mean_us, gnb.layer(l).mean_us) << to_string(l);
  }
}

TEST(ProcessingModelTest, AsicOrderOfMagnitudeFaster) {
  const ProcessingProfile sw = ProcessingProfile::gnb_i7();
  const ProcessingProfile hw = ProcessingProfile::asic();
  EXPECT_LT(hw.mac.mean_us * 5, sw.mac.mean_us);
  EXPECT_LT(hw.phy.mean_us * 5, sw.phy.mean_us);
}

}  // namespace
}  // namespace u5g
