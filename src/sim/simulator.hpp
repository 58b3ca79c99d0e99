#pragma once
// Discrete-event simulation kernel.
//
// The whole 5G system model runs on one simulated clock. Components schedule
// callbacks at absolute times; the kernel fires them in (time, sequence)
// order so same-timestamp events run in scheduling order (deterministic
// replay).
//
// Hot-path design:
//
//  * One flat queue. Pending events live in a single 4-ary min-heap of
//    (when, seq, slot) entries; scheduling is one sift-up, firing one pop
//    and sift-down. The global sequence number breaks timestamp ties, so an
//    event scheduled *at* the current timestamp while it is being drained
//    sorts after everything already pending there and fires later in the
//    same drain — (time, seq) order holds exactly, with no per-timestamp
//    bookkeeping.
//  * In-place firing. Event closures are built directly inside their slot
//    (`Action::emplace` from the templated `schedule_*` overloads) and
//    invoked from there, so the schedule/fire cycle moves zero `Action`
//    objects. Slots live in fixed-size chunks whose addresses never change,
//    which is what makes firing in place safe while callbacks schedule new
//    events.
//  * Lazy cancellation. `cancel` flips a tombstone in the slot (releasing
//    the captured resources eagerly) and the heap entry is discarded when
//    it surfaces.
//
// Steady-state schedule/cancel/fire performs zero heap allocations once the
// heap and the slot chunks have reached their high-water sizes.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "sim/action.hpp"

namespace u5g {

/// Handle to a scheduled event, usable to cancel it. Identifies the event by
/// its (slot, seq) pair; seq is globally unique so a handle can never
/// accidentally refer to a later event recycled into the same slot.
class EventHandle {
 public:
  constexpr EventHandle() = default;
  [[nodiscard]] constexpr bool valid() const { return seq_ != 0; }

 private:
  friend class Simulator;
  constexpr EventHandle(std::uint32_t slot, std::uint64_t seq) : slot_(slot), seq_(seq) {}
  std::uint32_t slot_ = 0;
  std::uint64_t seq_ = 0;
};

/// Event-driven simulator with cancellation and run-until semantics.
class Simulator {
 public:
  using Action = u5g::Action;

  [[nodiscard]] Nanos now() const { return now_; }

  /// Schedule a callable at absolute time `when` (must be >= now()). The
  /// templated overload constructs the closure directly in its event slot;
  /// the `Action` overload exists for call sites that type-erased early.
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, Action> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  EventHandle schedule_at(Nanos when, F&& f) {
    const SlotRef r = prepare(when);
    r.s->action.emplace(std::forward<F>(f));
    return EventHandle{r.idx, r.s->seq};
  }
  EventHandle schedule_at(Nanos when, Action action) {
    const SlotRef r = prepare(when);
    r.s->action = std::move(action);
    return EventHandle{r.idx, r.s->seq};
  }

  /// Schedule a callable after a relative delay.
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, Action> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  EventHandle schedule_after(Nanos delay, F&& f) {
    return schedule_at(now_ + delay, std::forward<F>(f));
  }
  EventHandle schedule_after(Nanos delay, Action action) {
    return schedule_at(now_ + delay, std::move(action));
  }

  /// Cancel a pending event. Returns true if the event had not yet fired or
  /// been cancelled. Safe on default-constructed handles. O(1): tombstones
  /// the slot; the heap entry is skipped when it surfaces.
  bool cancel(EventHandle h) {
    if (!h.valid() || h.slot_ >= slot_count_) return false;
    Slot& s = slot(h.slot_);
    if (s.seq != h.seq_ || s.cancelled) return false;
    s.cancelled = true;
    s.action.reset();  // release captured resources eagerly
    --live_;
    return true;
  }

  /// Run until the event queue drains or `until` is reached (whichever first).
  /// If `until` bounds the run, the clock is advanced to exactly `until`.
  void run_until(Nanos until = Nanos::max()) {
    while (!heap_.empty() && heap_.front().when <= until) pop_and_fire();
    if (until != Nanos::max() && now_ < until) now_ = until;
  }

  /// Fire exactly one live event; returns false if none remain.
  bool step() {
    while (!heap_.empty()) {
      if (pop_and_fire()) return true;
    }
    return false;
  }

  [[nodiscard]] std::size_t pending_events() const { return live_; }
  [[nodiscard]] bool idle() const { return live_ == 0; }
  /// Timestamp of the earliest pending entry, or Nanos::max() when the
  /// queue is empty. Conservative: a tombstoned entry still reports its
  /// time until it surfaces, so callers using this as a lookahead bound may
  /// under-estimate the true next firing but never over-estimate it.
  [[nodiscard]] Nanos next_event_time() const {
    return heap_.empty() ? Nanos::max() : heap_.front().when;
  }
  /// Events fired over the simulator's lifetime — an always-on kernel stat
  /// benches export into the metrics registry.
  [[nodiscard]] std::uint64_t events_fired() const { return fired_; }
  /// Batches drained over the lifetime: maximal runs of consecutively popped
  /// heap entries with equal `when`, tombstones included. events_fired()
  /// divided by this is the average number of events per distinct instant.
  [[nodiscard]] std::uint64_t batches_drained() const { return batches_; }

 private:
  struct Slot {
    std::uint64_t seq = 0;  ///< seq of the resident event; 0 = free/fired
    bool cancelled = false;
    Action action;
  };
  struct HeapEntry {
    Nanos when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct SlotRef {
    Slot* s;
    std::uint32_t idx;
  };

  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::uint32_t kChunkMask = kChunkSize - 1;
  static constexpr std::size_t kArity = 4;

  [[nodiscard]] Slot& slot(std::uint32_t i) { return chunks_[i >> kChunkShift][i & kChunkMask]; }

  /// Allocate a slot and a heap entry for `when`; the caller fills the
  /// action in place. Slots come from fixed chunks so the returned pointer
  /// stays valid even if callbacks grow the kernel's containers.
  SlotRef prepare(Nanos when) {
    if (when < now_) throw std::invalid_argument{"Simulator: scheduling into the past"};
    const std::uint64_t seq = ++next_seq_;
    std::uint32_t idx;
    if (free_.empty()) {
      if ((slot_count_ & kChunkMask) == 0) chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
      idx = slot_count_++;
    } else {
      idx = free_.back();
      free_.pop_back();
    }
    Slot& s = slot(idx);
    s.seq = seq;
    s.cancelled = false;
    push(HeapEntry{when, seq, idx});
    ++live_;
    return {&s, idx};
  }

  [[nodiscard]] static bool before(const HeapEntry& a, const HeapEntry& b) {
    return a.when < b.when || (a.when == b.when && a.seq < b.seq);
  }

  void push(HeapEntry e) {
    std::size_t i = heap_.size();
    heap_.push_back(e);
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  /// Remove the top entry: the last entry sifts down from the root.
  void pop_top() {
    const HeapEntry e = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return;
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      std::size_t m = first;
      for (std::size_t c = first + 1; c < std::min(first + kArity, n); ++c) {
        if (before(heap_[c], heap_[m])) m = c;
      }
      if (!before(heap_[m], e)) break;
      heap_[i] = heap_[m];
      i = m;
    }
    heap_[i] = e;
  }

  /// Pop the earliest entry and fire its event unless it was cancelled;
  /// returns whether an event fired. The entry leaves the heap before the
  /// action runs in its slot — chunks never move, and the slot is recycled
  /// only after the action returns, so callbacks may freely schedule and
  /// cancel.
  bool pop_and_fire() {
    const HeapEntry e = heap_.front();
    pop_top();
    if (e.when != last_popped_) {
      ++batches_;
      last_popped_ = e.when;
    }
    Slot& s = slot(e.slot);
    s.seq = 0;  // the handle goes inert whether the event fires or not
    const bool live = !s.cancelled;
    if (live) {
      --live_;
      ++fired_;
      now_ = e.when;
      if (s.action) s.action();
      s.action.reset();
    } else {
      s.cancelled = false;
    }
    free_.push_back(e.slot);
    return live;
  }

  Nanos now_ = Nanos::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t batches_ = 0;
  std::size_t live_ = 0;
  std::uint32_t slot_count_ = 0;
  Nanos last_popped_{-1};  ///< `when` of the last popped entry; scheduled times are >= 0
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::vector<HeapEntry> heap_;  ///< 4-ary min-heap on (when, seq)
};

}  // namespace u5g
