// Unit tests for src/common: time arithmetic, RNG, statistics, buffers,
// table rendering.

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <set>
#include <string>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/time.hpp"

namespace u5g {
namespace {

using namespace u5g::literals;

// ---------------------------------------------------------------------------
// Nanos

TEST(NanosTest, LiteralsAndAccessors) {
  EXPECT_EQ((1_ms).count(), 1'000'000);
  EXPECT_EQ((1_us).count(), 1'000);
  EXPECT_DOUBLE_EQ((500_us).ms(), 0.5);
  EXPECT_DOUBLE_EQ((3_us).us(), 3.0);
}

TEST(NanosTest, Arithmetic) {
  EXPECT_EQ(2_ms + 500_us, Nanos{2'500'000});
  EXPECT_EQ(2_ms - 500_us, Nanos{1'500'000});
  EXPECT_EQ(2_ms * 3, Nanos{6'000'000});
  EXPECT_EQ(3 * (2_ms), Nanos{6'000'000});
  EXPECT_EQ(2_ms / 4, 500_us);
  EXPECT_EQ((5_ms) / (2_ms), 2);  // dimensionless
  EXPECT_EQ((5_ms) % (2_ms), 1_ms);
}

TEST(NanosTest, CompoundAssignment) {
  Nanos t = 1_ms;
  t += 1_us;
  EXPECT_EQ(t, Nanos{1'001'000});
  t -= 2_us;
  EXPECT_EQ(t, Nanos{999'000});
}

TEST(NanosTest, Comparisons) {
  EXPECT_LT(1_us, 1_ms);
  EXPECT_GT(Nanos::max(), 100'000_ms);
  EXPECT_EQ(Nanos::zero(), Nanos{0});
}

TEST(NanosTest, FromFloating) {
  EXPECT_EQ(from_us(1.5), Nanos{1'500});
  EXPECT_EQ(from_us(0.0004), Nanos{0});  // rounds
  EXPECT_EQ(from_us(0.0006), Nanos{1});
}

TEST(NanosTest, ToStringPicksScale) {
  EXPECT_EQ(to_string(Nanos{5}), "5ns");
  EXPECT_EQ(to_string(Nanos{1'500}), "1.500us");
  EXPECT_EQ(to_string(Nanos{2'500'000}), "2.500ms");
  EXPECT_EQ(to_string(2'000_ms), "2.000s");
}

struct AlignCase {
  std::int64_t t, step, origin, up, down;
};

/// "t<t>_step<step>_origin<origin>", with "m" for a minus sign: the ctest
/// name and gtest's printout of the parameter.
std::string align_case_name(const AlignCase& c) {
  const auto num = [](std::int64_t v) {
    return (v < 0 ? "m" : "") + std::to_string(v < 0 ? -v : v);
  };
  return "t" + num(c.t) + "_step" + num(c.step) + "_origin" + num(c.origin);
}
void PrintTo(const AlignCase& c, std::ostream* os) { *os << align_case_name(c); }

class AlignTest : public ::testing::TestWithParam<AlignCase> {};

TEST_P(AlignTest, UpAndDown) {
  const auto& c = GetParam();
  EXPECT_EQ(align_up(Nanos{c.t}, Nanos{c.step}, Nanos{c.origin}).count(), c.up);
  EXPECT_EQ(align_down(Nanos{c.t}, Nanos{c.step}, Nanos{c.origin}).count(), c.down);
}

INSTANTIATE_TEST_SUITE_P(Grid, AlignTest,
                         ::testing::Values(AlignCase{0, 10, 0, 0, 0},        // exact
                                           AlignCase{1, 10, 0, 10, 0},      // interior
                                           AlignCase{9, 10, 0, 10, 0},
                                           AlignCase{10, 10, 0, 10, 10},    // exact multiple
                                           AlignCase{11, 10, 0, 20, 10},
                                           AlignCase{-1, 10, 0, 0, -10},    // negative
                                           AlignCase{-10, 10, 0, -10, -10},
                                           AlignCase{-11, 10, 0, -10, -20},
                                           AlignCase{7, 10, 3, 13, 3},      // phased grid
                                           AlignCase{13, 10, 3, 13, 13},
                                           AlignCase{250'001, 250'000, 0, 500'000, 250'000}),
                         [](const auto& info) { return align_case_name(info.param); });

TEST(AlignTest, UpDownBracket) {
  // Property: down <= t <= up, and up - down is 0 or one step.
  for (std::int64_t t : {-1'000'007LL, -3LL, 0LL, 17LL, 999'999LL, 123'456'789LL}) {
    for (std::int64_t s : {1LL, 7LL, 250'000LL}) {
      const Nanos up = align_up(Nanos{t}, Nanos{s});
      const Nanos down = align_down(Nanos{t}, Nanos{s});
      EXPECT_LE(down.count(), t);
      EXPECT_GE(up.count(), t);
      EXPECT_TRUE(up == down || up - down == Nanos{s});
    }
  }
}

// ---------------------------------------------------------------------------
// Rng

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64() ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntBounds) {
  Rng r(8);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t v = r.uniform_int(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values reachable
}

TEST(RngTest, BernoulliFrequency) {
  Rng r(9);
  int hits = 0;
  for (int i = 0; i < 100'000; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100'000.0, 0.3, 0.01);
}

TEST(RngTest, NormalMoments) {
  Rng r(10);
  RunningStats s;
  for (int i = 0; i < 100'000; ++i) s.add(r.normal(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(RngTest, ExponentialMean) {
  Rng r(11);
  RunningStats s;
  for (int i = 0; i < 100'000; ++i) s.add(r.exponential(40.0));
  EXPECT_NEAR(s.mean(), 40.0, 1.0);
}

TEST(RngTest, ExponentialRateIdiom) {
  // `Rng::exponential` takes the MEAN, never the rate. Call sites that
  // think in events/second (the coexistence and multi-UE benches) must pass
  // 1/rate; this pins the convention so a silent mean<->rate swap (off by
  // rate^2) cannot survive the suite. Audited sites all pass means:
  // channel dwell, traffic interarrival, UPF queue, jitter spikes.
  Rng r(13);
  const double rate = 800.0;
  RunningStats s;
  for (int i = 0; i < 100'000; ++i) s.add(r.exponential(1.0 / rate));
  EXPECT_NEAR(s.mean() * rate, 1.0, 0.02);
  EXPECT_NEAR(s.stddev() * rate, 1.0, 0.05);  // Exp: stddev == mean
}

TEST(RngTest, ForkIsIndependent) {
  Rng a(12);
  Rng b = a.fork();
  // Forked stream must not replay the parent's output.
  Rng a2(12);
  a2.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64() ? 1 : 0;
  EXPECT_LT(same, 2);
}

struct MomentCase {
  double mean, std;
};

/// "mean<m>_std<s>" at two decimals with "p" for the point, e.g.
/// "mean4p65_std6p71": the ctest name and gtest's printout of the parameter.
std::string moment_case_name(const MomentCase& c) {
  const auto num = [](double v) {
    std::string s = std::to_string(static_cast<long long>(std::llround(v * 100.0)));
    s.insert(0, s.size() < 3 ? 3 - s.size() : 0, '0');
    return s.substr(0, s.size() - 2) + "p" + s.substr(s.size() - 2);
  };
  return "mean" + num(c.mean) + "_std" + num(c.std);
}
void PrintTo(const MomentCase& c, std::ostream* os) { *os << moment_case_name(c); }

class LognormalFitTest : public ::testing::TestWithParam<MomentCase> {};

TEST_P(LognormalFitTest, MomentMatching) {
  const auto& c = GetParam();
  const auto fit = LognormalParams::from_mean_std(c.mean, c.std);
  EXPECT_NEAR(fit.mean(), c.mean, 1e-9 * c.mean + 1e-12);
  EXPECT_NEAR(fit.stddev(), c.std, 1e-9 * c.mean + 1e-12);
  // Empirical check.
  Rng r(13);
  RunningStats s;
  for (int i = 0; i < 200'000; ++i) s.add(fit.sample(r));
  EXPECT_NEAR(s.mean(), c.mean, 0.05 * c.mean + 0.01);
}

// The paper's Table 2 rows as fit targets.
INSTANTIATE_TEST_SUITE_P(Table2Rows, LognormalFitTest,
                         ::testing::Values(MomentCase{4.65, 6.71}, MomentCase{8.29, 8.99},
                                           MomentCase{4.12, 8.37}, MomentCase{55.21, 16.31},
                                           MomentCase{41.55, 10.83}, MomentCase{100.0, 0.0}),
                         [](const auto& info) { return moment_case_name(info.param); });

// ---------------------------------------------------------------------------
// Stats

TEST(RunningStatsTest, MatchesClosedForm) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(HistogramTest, BinningAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);    // bin 0
  h.add(9.99);   // bin 9
  h.add(-5.0);   // clamps to bin 0
  h.add(42.0);   // clamps to bin 9
  EXPECT_EQ(h.bin(0), 2u);
  EXPECT_EQ(h.bin(9), 2u);
  EXPECT_DOUBLE_EQ(h.probability(0), 0.5);
  EXPECT_DOUBLE_EQ(h.bin_lo(3), 3.0);
  EXPECT_DOUBLE_EQ(h.width(), 1.0);
}

TEST(HistogramTest, ProbabilitiesSumToOne) {
  Histogram h(0.0, 1.0, 17);
  Rng r(15);
  for (int i = 0; i < 1000; ++i) h.add(r.uniform());
  double sum = 0.0;
  for (std::size_t i = 0; i < h.bin_count(); ++i) sum += h.probability(i);
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(SampleSetTest, QuantilesExact) {
  SampleSet s;
  for (int i = 100; i >= 1; --i) s.add(static_cast<double>(i));  // 1..100
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  EXPECT_NEAR(s.quantile(0.5), 50.0, 1.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(SampleSetTest, FractionAtOrBelow) {
  SampleSet s;
  for (int i = 1; i <= 10; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.fraction_at_or_below(5.0), 0.5);
  EXPECT_DOUBLE_EQ(s.fraction_at_or_below(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.fraction_at_or_below(100.0), 1.0);
}

TEST(SampleSetTest, EmptyIsSafe) {
  SampleSet s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.fraction_at_or_below(1.0), 0.0);
}

// ---------------------------------------------------------------------------
// ByteBuffer

TEST(ByteBufferTest, SizeAndFill) {
  ByteBuffer b(16, 0xAB);
  EXPECT_EQ(b.size(), 16u);
  for (std::uint8_t x : b.bytes()) EXPECT_EQ(x, 0xAB);
}

TEST(ByteBufferTest, PushPopHeaderRoundTrip) {
  ByteBuffer b(4, 0x01);
  const std::uint8_t hdr[] = {0xDE, 0xAD};
  b.push_header(hdr);
  EXPECT_EQ(b.size(), 6u);
  const auto popped = b.pop_header(2);
  EXPECT_EQ(popped[0], 0xDE);
  EXPECT_EQ(popped[1], 0xAD);
  EXPECT_EQ(b.size(), 4u);
  EXPECT_EQ(b.bytes()[0], 0x01);
}

TEST(ByteBufferTest, HeadroomRegrowth) {
  ByteBuffer b(1, 0x7F);
  std::vector<std::uint8_t> big(200, 0x55);  // exceeds the 64-byte headroom
  b.push_header(big);
  EXPECT_EQ(b.size(), 201u);
  EXPECT_EQ(b.bytes()[0], 0x55);
  EXPECT_EQ(b.bytes()[200], 0x7F);
  // And headroom is restored for further pushes.
  const std::uint8_t one[] = {0x11};
  b.push_header(one);
  EXPECT_EQ(b.size(), 202u);
  EXPECT_EQ(b.bytes()[0], 0x11);
}

TEST(ByteBufferTest, PopPastEndThrows) {
  ByteBuffer b(3);
  EXPECT_THROW(b.pop_header(4), std::length_error);
}

TEST(ByteBufferTest, TruncateAndAppend) {
  ByteBuffer b(4, 0x01);
  const std::uint8_t tail[] = {0x02, 0x03};
  b.append(tail);
  EXPECT_EQ(b.size(), 6u);
  EXPECT_EQ(b.bytes()[5], 0x03);
  b.truncate_back(2);
  EXPECT_EQ(b.size(), 4u);
  EXPECT_THROW(b.truncate_back(5), std::length_error);
}

TEST(ByteBufferTest, FromBytes) {
  const std::uint8_t src[] = {1, 2, 3};
  ByteBuffer b = ByteBuffer::from_bytes(src);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.bytes()[2], 3);
}

TEST(ByteBufferTest, BigEndianHelpers) {
  std::uint8_t buf[4];
  put_be16(std::span{buf}.subspan(0, 2), 0xBEEF);
  EXPECT_EQ(get_be16(std::span<const std::uint8_t>{buf, 2}), 0xBEEF);
  put_be32(buf, 0xDEADBEEF);
  EXPECT_EQ(get_be32(std::span<const std::uint8_t>{buf, 4}), 0xDEADBEEFu);
}

// ---------------------------------------------------------------------------
// Ids / TextTable

TEST(IdsTest, StrongTyping) {
  const UeId a{1}, b{1}, c{2};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(a, c);
  EXPECT_EQ(std::hash<UeId>{}(a), std::hash<UeId>{}(b));
}

TEST(TextTableTest, AlignsColumns) {
  TextTable t({"a", "long_header"});
  t.add_row({"xxxx", "y"});
  const std::string out = t.render();
  EXPECT_NE(out.find("a     long_header"), std::string::npos);
  EXPECT_NE(out.find("xxxx  y"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TextTableTest, FormatHelpers) {
  EXPECT_EQ(fmt2(3.14159), "3.14");
  EXPECT_EQ(fmt3(2.0), "2.000");
}

}  // namespace
}  // namespace u5g
