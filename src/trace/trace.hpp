#pragma once
// Per-packet latency tracing on the simulated clock.
//
// The paper's core artifact is attribution: for every packet, where did the
// budget go — protocol waits, processing time, or radio chains (§4, Fig 3,
// Table 2)? The Tracer records that attribution as a sequence of contiguous
// spans per packet, each tagged with a LatencyCategory, using a *cursor*
// model: `open(seq, t)` plants a cursor at the packet's creation time, every
// `span_to`/`span_for` advances it, and `close(seq, t)` sweeps the cursor to
// the delivery time (emitting an explicit "(unattributed)" span for any gap
// the hooks failed to cover). By construction the spans of a packet tile
// [created, delivered] with no gaps and no overlaps, so their durations —
// and therefore the per-category subtotals — sum *exactly* to the packet's
// end-to-end latency. Attribution quality is a separate question answered by
// the absence of "(unattributed)" spans, which tests assert.
//
// Overhead contract (preserving PR 2's allocation-free warm path): every
// recording method begins with `if (!enabled_) return;` — one predicted
// branch — and the disabled path performs zero allocations and touches no
// other state. Hooks may therefore stay compiled into the hot datapath
// unconditionally. Enabled-path hooks run at event-schedule time and never
// read the simulated clock themselves; callers pass absolute times in.
//
// Span names are `string_view`s: pass string literals (the common case) or
// storage that outlives the Tracer's span list.

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/flat_map.hpp"

#include "common/taxonomy.hpp"
#include "common/time.hpp"

namespace u5g {

/// One attributed interval of a traced packet's life, on the simulated clock.
struct TraceSpan {
  std::string_view name;
  LatencyCategory category = LatencyCategory::Protocol;
  std::int32_t seq = 0;  ///< packet sequence number the span belongs to
  Nanos start{};
  Nanos end{};
  [[nodiscard]] Nanos duration() const { return end - start; }
};

/// Name of the residual span `close()` emits when hooks left a gap.
inline constexpr std::string_view kUnattributedSpan = "(unattributed)";

/// Tracing knobs, carried inside StackConfig.
struct TraceConfig {
  bool enabled = false;  ///< master switch; false = one dead branch per hook
  bool spans = true;     ///< per-packet span capture (waterfalls)
  bool metrics = true;   ///< counters + latency histograms
  [[nodiscard]] bool spans_on() const { return enabled && spans; }
  [[nodiscard]] bool metrics_on() const { return enabled && metrics; }
};

class Tracer {
 public:
  void enable(bool on = true) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Start tracing packet `seq`: plant its cursor at creation time `at`.
  /// Re-opening an already-open seq restarts it (spans already recorded for
  /// the previous incarnation are kept and distinguishable by their times).
  void open(std::int32_t seq, Nanos at) {
    if (!enabled_) return;
    cursor_[seq] = at;
  }

  /// Record `[cursor, until]` as `name`/`cat` and advance the cursor.
  /// No-op when `seq` is not open or `until` does not advance the cursor —
  /// hooks may therefore fire defensively (e.g. a wait recorded both where
  /// it is scheduled and where it lands collapses to one span).
  void span_to(std::int32_t seq, std::string_view name, LatencyCategory cat, Nanos until) {
    if (!enabled_) return;
    Nanos* cur = cursor_.find(seq);
    if (cur == nullptr || until <= *cur) return;
    spans_.push_back(TraceSpan{name, cat, seq, *cur, until});
    *cur = until;
  }

  /// Record a span of known duration starting at the cursor.
  void span_for(std::int32_t seq, std::string_view name, LatencyCategory cat, Nanos duration) {
    if (!enabled_) return;
    Nanos* cur = cursor_.find(seq);
    if (cur == nullptr || duration <= Nanos::zero()) return;
    spans_.push_back(TraceSpan{name, cat, seq, *cur, *cur + duration});
    *cur += duration;
  }

  /// Finish packet `seq` at delivery time `at`. Any gap between the cursor
  /// and `at` becomes an explicit "(unattributed)" Protocol span, so the
  /// tiling invariant holds even with incomplete hook coverage.
  void close(std::int32_t seq, Nanos at) {
    if (!enabled_) return;
    span_to(seq, kUnattributedSpan, LatencyCategory::Protocol, at);
    if (cursor_.erase(seq)) ++closed_;
  }

  /// Drop an open packet without closing it (e.g. delivery failure).
  void abandon(std::int32_t seq) {
    if (!enabled_) return;
    cursor_.erase(seq);
  }

  [[nodiscard]] const std::vector<TraceSpan>& spans() const { return spans_; }
  [[nodiscard]] std::size_t packets_closed() const { return closed_; }

  /// Sum of span durations for `seq` in category `c`.
  [[nodiscard]] Nanos category_total(std::int32_t seq, LatencyCategory c) const {
    Nanos t{};
    for (const TraceSpan& s : spans_) {
      if (s.seq == seq && s.category == c) t += s.duration();
    }
    return t;
  }

  /// Sum of all span durations for `seq` (== its end-to-end latency once
  /// closed, by the tiling invariant).
  [[nodiscard]] Nanos total(std::int32_t seq) const {
    Nanos t{};
    for (const TraceSpan& s : spans_) {
      if (s.seq == seq) t += s.duration();
    }
    return t;
  }

 private:
  bool enabled_ = false;
  std::vector<TraceSpan> spans_;
  FlatHashMap<std::int32_t, Nanos> cursor_;  ///< open packets -> attribution frontier
  std::size_t closed_ = 0;
};

}  // namespace u5g
