// Tracing + metrics verification: the cursor model's tiling invariant (per-
// category span sums equal the measured end-to-end latency EXACTLY, with no
// "(unattributed)" residual on single-flight packets), the disabled path's
// zero-allocation contract on the warm e2e datapath, histogram error bounds
// and merge semantics, and Chrome trace_event export validity via a minimal
// JSON parser.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.hpp"
#include "core/e2e_system.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "counting_alloc.hpp"

namespace u5g {
namespace {

using namespace u5g::literals;

// ---------------------------------------------------------------------------
// Minimal JSON parser: full syntax validation (objects, arrays, strings with
// escapes, numbers, literals) with no DOM — enough to assert the exporters
// emit well-formed documents.

struct JsonParser {
  std::string_view s;
  std::size_t i = 0;

  void ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r')) ++i;
  }
  bool eat(char c) {
    ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
  bool literal(std::string_view lit) {
    if (s.substr(i, lit.size()) != lit) return false;
    i += lit.size();
    return true;
  }
  bool number() {
    const std::size_t start = i;
    if (i < s.size() && s[i] == '-') ++i;
    bool digits = false;
    while (i < s.size() && (std::isdigit(static_cast<unsigned char>(s[i])) != 0 || s[i] == '.' ||
                            s[i] == 'e' || s[i] == 'E' || s[i] == '+' || s[i] == '-')) {
      digits = digits || std::isdigit(static_cast<unsigned char>(s[i])) != 0;
      ++i;
    }
    return digits && i > start;
  }
  bool string() {
    if (!eat('"')) return false;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') ++i;  // skip the escaped character
      ++i;
    }
    return i < s.size() && s[i++] == '"';
  }
  bool object() {
    if (!eat('{')) return false;
    if (eat('}')) return true;
    do {
      if (!string() || !eat(':') || !value()) return false;
    } while (eat(','));
    return eat('}');
  }
  bool array() {
    if (!eat('[')) return false;
    if (eat(']')) return true;
    do {
      if (!value()) return false;
    } while (eat(','));
    return eat(']');
  }
  bool value() {
    ws();
    if (i >= s.size()) return false;
    switch (s[i]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool parse() {
    const bool ok = value();
    ws();
    return ok && i == s.size();
  }
};

bool valid_json(std::string_view doc) { return JsonParser{doc}.parse(); }

std::size_t count_occurrences(std::string_view doc, std::string_view needle) {
  std::size_t n = 0;
  for (std::size_t pos = doc.find(needle); pos != std::string_view::npos;
       pos = doc.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

/// Sum of all `"dur":<µs>` fields, converted back to integer nanoseconds
/// (durations are printed with 3 decimals, so the ns value round-trips).
std::int64_t summed_dur_ns(std::string_view doc) {
  std::int64_t total = 0;
  static constexpr std::string_view kKey = "\"dur\":";
  for (std::size_t pos = doc.find(kKey); pos != std::string_view::npos;
       pos = doc.find(kKey, pos + kKey.size())) {
    const double us = std::strtod(doc.data() + pos + kKey.size(), nullptr);
    total += static_cast<std::int64_t>(us * 1000.0 + 0.5);
  }
  return total;
}

// ---------------------------------------------------------------------------
// Tracer unit semantics.

TEST(TracerTest, SpansTileOpenToClose) {
  Tracer t;
  t.enable();
  t.open(0, Nanos{100});
  t.span_for(0, "proc", LatencyCategory::Processing, Nanos{40});
  t.span_to(0, "wait", LatencyCategory::Protocol, Nanos{200});
  t.span_to(0, "air", LatencyCategory::Radio, Nanos{260});
  t.close(0, Nanos{260});

  ASSERT_EQ(3u, t.spans().size());
  EXPECT_EQ(Nanos{160}, t.total(0));
  EXPECT_EQ(Nanos{40}, t.category_total(0, LatencyCategory::Processing));
  EXPECT_EQ(Nanos{60}, t.category_total(0, LatencyCategory::Protocol));
  EXPECT_EQ(Nanos{60}, t.category_total(0, LatencyCategory::Radio));
  // Contiguous: each span starts where the previous ended.
  EXPECT_EQ(Nanos{100}, t.spans()[0].start);
  for (std::size_t i = 1; i < t.spans().size(); ++i) {
    EXPECT_EQ(t.spans()[i - 1].end, t.spans()[i].start);
  }
  EXPECT_EQ(1u, t.packets_closed());
}

TEST(TracerTest, CloseEmitsUnattributedResidualForGaps) {
  Tracer t;
  t.enable();
  t.open(7, Nanos{0});
  t.span_for(7, "proc", LatencyCategory::Processing, Nanos{30});
  t.close(7, Nanos{100});  // hooks covered only [0, 30)

  ASSERT_EQ(2u, t.spans().size());
  EXPECT_EQ(kUnattributedSpan, t.spans()[1].name);
  EXPECT_EQ(LatencyCategory::Protocol, t.spans()[1].category);
  EXPECT_EQ(Nanos{70}, t.spans()[1].duration());
  EXPECT_EQ(Nanos{100}, t.total(7));  // tiling holds despite the gap
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer t;  // default: disabled
  t.open(0, Nanos{0});
  t.span_for(0, "proc", LatencyCategory::Processing, Nanos{10});
  t.close(0, Nanos{10});
  EXPECT_TRUE(t.spans().empty());
  EXPECT_EQ(0u, t.packets_closed());
}

TEST(TracerTest, UnknownSeqIsIgnored) {
  Tracer t;
  t.enable();
  t.span_for(-1, "x", LatencyCategory::Processing, Nanos{10});
  t.span_to(42, "y", LatencyCategory::Protocol, Nanos{10});
  t.close(42, Nanos{10});
  EXPECT_TRUE(t.spans().empty());
}

// ---------------------------------------------------------------------------
// Histogram error bound and merge contract.

TEST(HistogramTest, BucketBoundsRoundTrip) {
  for (std::int64_t v : {0LL, 1LL, 15LL, 16LL, 17LL, 255LL, 1'000LL, 123'456'789LL,
                         (1LL << 40) + 12345LL}) {
    const int idx = LatencyHistogram::bucket_index(v);
    EXPECT_LE(LatencyHistogram::bucket_lower(idx), v);
    EXPECT_GT(LatencyHistogram::bucket_lower(idx + 1), v);
  }
}

TEST(HistogramTest, QuantileWithinRelativeErrorBound) {
  LatencyHistogram h;
  std::vector<std::int64_t> values;
  std::uint64_t x = 88172645463325252ULL;  // xorshift64
  for (int i = 0; i < 10'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    values.push_back(static_cast<std::int64_t>(x % 5'000'000));
  }
  for (const std::int64_t v : values) h.record(v);
  std::sort(values.begin(), values.end());

  EXPECT_EQ(10'000u, h.count());
  EXPECT_EQ(values.front(), h.min());
  EXPECT_EQ(values.back(), h.max());
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const auto rank = static_cast<std::size_t>(q * 10'000) - 1;
    const double truth = static_cast<double>(values[rank]);
    const double est = static_cast<double>(h.quantile(q));
    EXPECT_GE(est, truth) << "q=" << q;  // upper-bound estimator
    EXPECT_LE(est, truth * (1.0 + 1.0 / 16.0) + 1.0) << "q=" << q;
  }
}

TEST(HistogramTest, MergeMatchesSequentialRecording) {
  LatencyHistogram a, b, all;
  for (int i = 0; i < 1'000; ++i) {
    const std::int64_t v = 17LL * i * i + 3;
    ((i % 2 != 0) ? a : b).record(v);
    all.record(v);
  }
  a.merge(b);
  EXPECT_EQ(all.count(), a.count());
  EXPECT_EQ(all.min(), a.min());
  EXPECT_EQ(all.max(), a.max());
  EXPECT_DOUBLE_EQ(all.mean(), a.mean());
  for (int idx = 0; idx < LatencyHistogram::kBucketCount; ++idx) {
    ASSERT_EQ(all.bucket_count(idx), a.bucket_count(idx)) << "bucket " << idx;
  }
}

TEST(MetricsTest, RegistryMergeAndJson) {
  MetricsRegistry a, b;
  a.counter("shared").inc(2);
  b.counter("shared").inc(3);
  b.counter("only_b").inc(1);
  a.histogram("lat").record(Nanos{1'000});
  b.histogram("lat").record(Nanos{9'000});
  a.merge(b);

  EXPECT_EQ(5u, a.counter("shared").value());
  EXPECT_EQ(1u, a.counter("only_b").value());
  EXPECT_EQ(2u, a.histogram("lat").count());

  const std::string json = a.to_json();
  EXPECT_TRUE(valid_json(json)) << json;
  EXPECT_NE(std::string::npos, json.find("\"shared\""));
  EXPECT_NE(std::string::npos, json.find("\"p99_ns\""));
}

// ---------------------------------------------------------------------------
// End-to-end exactness: a traced packet's spans sum to its measured latency.

void expect_exact_attribution(const E2eSystem& sys) {
  ASSERT_FALSE(sys.records().empty());
  for (const PacketRecord& r : sys.records()) {
    ASSERT_TRUE(r.ok) << "packet " << r.seq << " not delivered";
    Nanos categories{};
    for (LatencyCategory c : {LatencyCategory::Protocol, LatencyCategory::Processing,
                              LatencyCategory::Radio, LatencyCategory::ChannelAccess}) {
      categories += sys.tracer().category_total(r.seq, c);
    }
    EXPECT_EQ(r.latency(), categories) << "packet " << r.seq;
    EXPECT_EQ(r.latency(), sys.tracer().total(r.seq)) << "packet " << r.seq;
  }
  // Single-flight packets must be FULLY attributed: the hooks covered the
  // whole journey and close() never had to emit a residual.
  for (const TraceSpan& s : sys.tracer().spans()) {
    EXPECT_NE(kUnattributedSpan, s.name)
        << "packet " << s.seq << " has an unattributed gap of " << s.duration().count() << " ns";
  }
  EXPECT_EQ(sys.records().size(), sys.tracer().packets_closed());
}

TEST(TraceE2eTest, GrantFreeUplinkSumsExactly) {
  StackConfig cfg = StackConfig::testbed_grant_free(/*seed=*/7);
  cfg.trace.enabled = true;
  E2eSystem sys(cfg);
  for (int i = 0; i < 16; ++i) sys.send_uplink_at(Nanos{i * 8'000'000LL});
  sys.run_until(Nanos::max());
  expect_exact_attribution(sys);
}

TEST(TraceE2eTest, GrantBasedUplinkSumsExactly) {
  StackConfig cfg = StackConfig::testbed_grant_based(/*seed=*/11);
  cfg.trace.enabled = true;
  E2eSystem sys(cfg);
  // 8 ms spacing: one packet in flight at a time even through the full
  // SR -> grant -> data handshake, so every trace is single-flight.
  for (int i = 0; i < 16; ++i) sys.send_uplink_at(Nanos{i * 8'000'000LL});
  sys.run_until(Nanos::max());
  expect_exact_attribution(sys);
}

TEST(TraceE2eTest, DownlinkSumsExactly) {
  StackConfig cfg = StackConfig::testbed_grant_based(/*seed=*/13);
  cfg.trace.enabled = true;
  E2eSystem sys(cfg);
  for (int i = 0; i < 16; ++i) sys.send_downlink_at(Nanos{i * 8'000'000LL});
  sys.run_until(Nanos::max());
  expect_exact_attribution(sys);
}

TEST(TraceE2eTest, MetricsMatchRecords) {
  StackConfig cfg = StackConfig::testbed_grant_free(/*seed=*/7);
  cfg.trace.enabled = true;
  E2eSystem sys(cfg);
  constexpr int kPackets = 16;
  for (int i = 0; i < kPackets; ++i) sys.send_uplink_at(Nanos{i * 8'000'000LL});
  sys.run_until(Nanos::max());

  MetricsRegistry& m = sys.metrics();
  EXPECT_EQ(static_cast<std::uint64_t>(kPackets), m.counter("packets.ul_sent").value());
  EXPECT_EQ(static_cast<std::uint64_t>(kPackets), m.counter("packets.delivered").value());
  const LatencyHistogram& h = m.histogram("latency.ul_ns");
  EXPECT_EQ(static_cast<std::uint64_t>(kPackets), h.count());
  Nanos lo = Nanos::max(), hi = Nanos::zero();
  for (const PacketRecord& r : sys.records()) {
    lo = std::min(lo, r.latency());
    hi = std::max(hi, r.latency());
  }
  EXPECT_EQ(lo.count(), h.min());
  EXPECT_EQ(hi.count(), h.max());
}

// ---------------------------------------------------------------------------
// Chrome trace_event export round trip.

TEST(ChromeTraceTest, ExportIsValidJsonAndPreservesDurations) {
  StackConfig cfg = StackConfig::testbed_grant_free(/*seed=*/3);
  cfg.trace.enabled = true;
  E2eSystem sys(cfg);
  for (int i = 0; i < 4; ++i) sys.send_uplink_at(Nanos{i * 8'000'000LL});
  sys.run_until(Nanos::max());

  const std::string doc = chrome_trace_json(sys.tracer().spans(), "test");
  EXPECT_TRUE(valid_json(doc));
  // One "X" complete event per span; metadata rows for the process and each
  // of the 4 packet lanes.
  EXPECT_EQ(sys.tracer().spans().size(), count_occurrences(doc, "\"ph\":\"X\""));
  EXPECT_EQ(5u, count_occurrences(doc, "\"ph\":\"M\""));
  // Durations survive the µs formatting exactly (3 decimals = integer ns).
  Nanos total{};
  for (const TraceSpan& s : sys.tracer().spans()) total += s.duration();
  EXPECT_EQ(total.count(), summed_dur_ns(doc));
}

TEST(ChromeTraceTest, EscapesQuotesAndBackslashes) {
  const std::vector<TraceSpan> spans = {
      TraceSpan{"a \"quoted\" \\ name", LatencyCategory::Radio, 0, Nanos{0}, Nanos{5}}};
  const std::string doc = chrome_trace_json(spans, "p\"q");
  EXPECT_TRUE(valid_json(doc)) << doc;
}

// ---------------------------------------------------------------------------
// Overhead contract: with tracing compiled in but DISABLED, a warm e2e
// uplink packet performs zero heap allocations (mirrors the test_datapath
// zero-alloc assertion, now with the hooks present on every boundary).

TEST(TraceOverheadTest, DisabledTracingKeepsWarmPathAllocationFree) {
  StackConfig cfg = StackConfig::testbed_grant_free(/*seed=*/7);
  ASSERT_FALSE(cfg.trace.enabled);  // presets default to tracing off
  E2eSystem sys(cfg);

  constexpr int kPackets = 48;
  const Nanos spacing{4'000'000};
  for (int i = 0; i < kPackets; ++i) sys.send_uplink_at(Nanos{i * spacing.count()});

  const Nanos last_created{(kPackets - 1) * spacing.count()};
  sys.run_until(last_created - Nanos{1});
  const std::size_t before = g_allocs.load();
  sys.run_until(Nanos::max());
  const std::size_t during = g_allocs.load() - before;

  ASSERT_EQ(static_cast<std::size_t>(kPackets), sys.records().size());
  for (const PacketRecord& r : sys.records()) {
    ASSERT_TRUE(r.ok) << "packet " << r.seq << " not delivered";
  }
  EXPECT_EQ(0u, during) << "disabled tracing must not allocate on the warm path";
  EXPECT_TRUE(sys.tracer().spans().empty());
}

}  // namespace
}  // namespace u5g
