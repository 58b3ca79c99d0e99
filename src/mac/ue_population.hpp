#pragma once
// Lite-UE background population for one cell of the city-scale engine.
//
// A full E2eSystem UE costs a protocol-stack object graph and one event per
// packet per layer crossing — fine for the handful of *tracked* UEs whose
// per-packet latency the paper's figures are about, fatal for the ~1M
// background UEs whose only job is to load the cell. This pool keeps the
// whole background population in struct-of-arrays rows:
//
//  * All per-UE MAC state lives in flat rows carved from one BufferPool
//    block: SR and HARQ membership as 64-UE bitmask words, per-UE
//    ring-buffered arrival queues (fixed-depth rings of arrival slot
//    numbers), and byte-wide head/length/attempt counters. No per-UE
//    objects, no pointers, ~(4*ring + 3) bytes + 2 bits per UE.
//  * Traffic is an *aggregate* process (app/traffic.hpp): one batched
//    Poisson count draw — or an arithmetic periodic count — per slot,
//    distributed over the UE rows, instead of one simulator event per
//    packet. Poisson superposition makes the batch statistically identical
//    to per-UE generators; the explicit per-UE mode is kept as the
//    equivalence oracle (test_population.cpp).
//  * Poisson arrivals are drawn then pushed, in chunks of up to 64: first
//    the chunk's UE indices are drawn and each row (length, head, both ends
//    of the ring) is prefetched, then the chunk is pushed in draw order. A
//    city sweeps ~1000 populations per slot, so the rows are cold; the
//    misses overlap the draws instead of stalling each push. The draw
//    sequence and the pushes are exactly those of a draw-push-draw loop
//    (pinned by AggregatePoissonTickIsPinned).
//  * Rows are byte-wide, so the constructor rejects a `queue_capacity` or
//    `harq_max_tx` above 255 (and meaningless knobs) rather than wrapping.
//  * A lite grant loop services the queues: `grants_per_slot` uplink grants
//    per slot, HARQ-retransmission UEs first, then SR UEs in round-robin
//    word-scan order. Losses draw from the population's own RNG stream;
//    exhausted HARQ budgets and ring overflows are accounted buckets, so
//    offered == delivered + harq_drops + queue_drops + queued holds exactly.
//
// Everything is deterministic from the construction seed: one tick sequence
// per (seed, config), independent of threads, other cells, and the tracked
// E2eSystem's draw sequence (the population never touches the cell's main
// RNG stream, so enabling a population cannot perturb tracked packets).
// Not thread-safe; one population per cell, ticked only by the worker that
// runs the cell's window — the same ownership discipline as Arena.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "app/traffic.hpp"
#include "common/buffer_pool.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "trace/metrics.hpp"

namespace u5g {

/// Background-population knobs, carried on StackConfig. `background_ues == 0`
/// (the default) means no population is built and nothing changes anywhere.
struct PopulationConfig {
  int background_ues = 0;            ///< lite UEs per cell (0 = disabled)
  Nanos mean_interarrival{100'000'000};  ///< per-UE mean packet spacing
  bool periodic = false;             ///< periodic sources instead of Poisson
  /// Batched per-slot count draw (the production path). false = one draw per
  /// UE per slot, the explicit comparator the equivalence test runs against.
  bool aggregate = true;
  double loss = 0.0;                 ///< per-transmission loss probability
  int harq_max_tx = 4;               ///< transmissions before a head drop
  int grants_per_slot = 8;           ///< lite-scheduler UL capacity per slot
  int queue_capacity = 8;            ///< per-UE arrival ring depth
  /// How strongly background backlog loads the cell's gNB: backlogged UEs ×
  /// this factor enter ProcessingProfile::set_scale as equivalent tracked
  /// UEs (same hook the inter-cell coupling uses).
  double load_factor = 0.01;
};

class UePopulation {
 public:
  /// Throws std::invalid_argument, when `background_ues > 0`, for a config
  /// the byte-wide rows cannot hold (`queue_capacity` or `harq_max_tx`
  /// outside [1, 255]) or that has no meaning (`loss` outside [0, 1],
  /// negative `grants_per_slot`, non-positive `mean_interarrival`). A
  /// disabled population accepts any config.
  UePopulation(const PopulationConfig& cfg, Nanos slot_duration, std::uint64_t seed)
      : cfg_(cfg), slot_(slot_duration), rng_(seed) {
    n_ = static_cast<std::size_t>(std::max(cfg.background_ues, 0));
    if (n_ == 0) return;
    validate(cfg);
    cap_ = static_cast<std::size_t>(cfg.queue_capacity);
    words_ = (n_ + 63) / 64;
    const double per_ue_per_slot = static_cast<double>(slot_.count()) /
                                   static_cast<double>(cfg.mean_interarrival.count());
    mean_per_slot_ = static_cast<double>(n_) * per_ue_per_slot;
    poisson_limit_ = std::exp(-mean_per_slot_);
    per_ue_p_ = std::min(per_ue_per_slot, 1.0);
    period_slots_ = std::max<int>(
        1, static_cast<int>((cfg.mean_interarrival.count() + slot_.count() / 2) /
                            std::max<std::int64_t>(slot_.count(), 1)));
    // One block, one layout: [sr words][harq words][rings][len][head][attempt].
    const std::size_t bytes = 2 * words_ * sizeof(std::uint64_t) +
                              n_ * cap_ * sizeof(std::uint32_t) + 3 * n_;
    block_ = BufferPool::local().acquire(bytes);
    std::memset(block_->data(), 0, bytes);
    sr_words_ = reinterpret_cast<std::uint64_t*>(block_->data());
    harq_words_ = sr_words_ + words_;
    rings_ = reinterpret_cast<std::uint32_t*>(harq_words_ + words_);
    q_len_ = reinterpret_cast<std::uint8_t*>(rings_ + n_ * cap_);
    q_head_ = q_len_ + n_;
    attempt_ = q_head_ + n_;
  }

  ~UePopulation() {
    if (block_ != nullptr) BufferPool::local().release(block_);
  }
  UePopulation(const UePopulation&) = delete;
  UePopulation& operator=(const UePopulation&) = delete;

  [[nodiscard]] std::size_t size() const { return n_; }

  /// Advance one slot: draw this slot's arrivals, distribute them over the
  /// UE rows, then run the lite grant loop. `slot` is the absolute slot
  /// index; ticks must be consecutive (the cell guarantees this).
  void tick(std::uint64_t slot) {
    if (n_ == 0) return;
    arrive(slot);
    serve(slot);
  }

  // -- Load signal ----------------------------------------------------------

  /// UEs with at least one queued packet — word-at-a-time popcount.
  [[nodiscard]] std::size_t backlog_ues() const {
    std::size_t c = 0;
    for (std::size_t w = 0; w < words_; ++w) {
      c += static_cast<std::size_t>(std::popcount(sr_words_[w]));
    }
    return c;
  }
  /// Equivalent tracked-UE load this population exerts on the gNB.
  [[nodiscard]] double load_ues() const {
    return cfg_.load_factor * static_cast<double>(backlog_ues());
  }
  /// Packets sitting in rings (running counter, O(1)).
  [[nodiscard]] std::uint64_t queued_packets() const { return queued_; }

  // -- Accounting -----------------------------------------------------------
  // offered == delivered + harq_drops + queue_drops + queued_packets() holds
  // after every tick (pinned by test_population.cpp).

  struct Counters {
    std::uint64_t offered = 0;      ///< arrivals drawn from the process
    std::uint64_t delivered = 0;    ///< packets served and not lost
    std::uint64_t harq_drops = 0;   ///< head packets past the HARQ budget
    std::uint64_t queue_drops = 0;  ///< arrivals bounced off a full ring
    std::uint64_t grants_used = 0;  ///< lite-scheduler services performed
  };
  [[nodiscard]] const Counters& counters() const { return c_; }
  [[nodiscard]] const LatencyHistogram& latency() const { return latency_; }

  /// Fold this population into a merged registry under `population.*`.
  /// Plain counter adds — callable regardless of the cell's TraceConfig.
  void export_metrics(MetricsRegistry& reg) const {
    reg.counter("population.offered").inc(c_.offered);
    reg.counter("population.delivered").inc(c_.delivered);
    reg.counter("population.harq_drops").inc(c_.harq_drops);
    reg.counter("population.queue_drops").inc(c_.queue_drops);
    reg.counter("population.grants_used").inc(c_.grants_used);
    reg.counter("population.queued").inc(queued_);
    reg.histogram("population.latency_ns").merge(latency_);
  }

  /// Bytes of row storage backing this population (the bytes/UE headline).
  [[nodiscard]] std::size_t storage_bytes() const {
    return n_ == 0 ? 0
                   : 2 * words_ * sizeof(std::uint64_t) +
                         n_ * cap_ * sizeof(std::uint32_t) + 3 * n_;
  }

 private:
  /// Largest value a byte-wide row (`q_len_`, `attempt_`) can count to.
  static constexpr int kRowMax = 255;
  /// Arrivals drawn (and their rows prefetched) before any of them is pushed.
  static constexpr int kArrivalChunk = 64;

  static void validate(const PopulationConfig& cfg) {
    if (cfg.queue_capacity < 1 || cfg.queue_capacity > kRowMax) {
      throw std::invalid_argument("PopulationConfig.queue_capacity must be in [1, 255]");
    }
    if (cfg.harq_max_tx < 1 || cfg.harq_max_tx > kRowMax) {
      throw std::invalid_argument("PopulationConfig.harq_max_tx must be in [1, 255]");
    }
    if (!(cfg.loss >= 0.0 && cfg.loss <= 1.0)) {
      throw std::invalid_argument("PopulationConfig.loss must be in [0, 1]");
    }
    if (cfg.grants_per_slot < 0) {
      throw std::invalid_argument("PopulationConfig.grants_per_slot must be >= 0");
    }
    if (cfg.mean_interarrival.count() <= 0) {
      throw std::invalid_argument("PopulationConfig.mean_interarrival must be > 0");
    }
  }

  void push(std::size_t ue, std::uint64_t slot) {
    ++c_.offered;
    if (q_len_[ue] >= cap_) {
      ++c_.queue_drops;
      return;
    }
    const std::size_t at = (q_head_[ue] + q_len_[ue]) % cap_;
    rings_[ue * cap_ + at] = static_cast<std::uint32_t>(slot);
    ++q_len_[ue];
    ++queued_;
    sr_words_[ue >> 6] |= 1ULL << (ue & 63);
  }

  void pop(std::size_t ue) {
    q_head_[ue] = static_cast<std::uint8_t>((q_head_[ue] + 1) % cap_);
    --q_len_[ue];
    --queued_;
    attempt_[ue] = 0;
    harq_words_[ue >> 6] &= ~(1ULL << (ue & 63));
    if (q_len_[ue] == 0) sr_words_[ue >> 6] &= ~(1ULL << (ue & 63));
  }

  void arrive(std::uint64_t slot) {
    if (cfg_.aggregate) {
      if (cfg_.periodic) {
        // Sources with phase == slot % period fire: UE rows phase, phase+P,
        // phase+2P, ... — pure arithmetic, bitwise-equal to the explicit
        // per-UE walk below.
        const int count = periodic_count(slot, static_cast<int>(n_), period_slots_);
        const std::size_t phase = slot % static_cast<std::uint64_t>(period_slots_);
        for (int k = 0; k < count; ++k) {
          push(phase + static_cast<std::size_t>(k) * static_cast<std::size_t>(period_slots_),
               slot);
        }
      } else {
        // Draw the chunk first, prefetching the lines push() touches
        // (length and head bytes, both ring ends: a ring can straddle a
        // line), then push it in draw order. push() draws nothing, so the
        // draws and pushes are those of a draw-push-draw loop. The
        // prefetches stay inline: GCC 12 deletes calls to a helper whose
        // body is only prefetches.
        std::size_t ues[kArrivalChunk];
        for (int left = poisson_count(rng_, mean_per_slot_, poisson_limit_); left > 0;
             left -= kArrivalChunk) {
          const int m = std::min(left, kArrivalChunk);
          for (int k = 0; k < m; ++k) {
            const std::size_t ue = rng_.uniform_int(n_);
            ues[k] = ue;
            __builtin_prefetch(q_len_ + ue, 1);
            __builtin_prefetch(q_head_ + ue, 0);
            __builtin_prefetch(rings_ + ue * cap_, 1);
            __builtin_prefetch(rings_ + ue * cap_ + cap_ - 1, 1);
          }
          for (int k = 0; k < m; ++k) push(ues[k], slot);
        }
      }
      return;
    }
    // Explicit comparator: one draw (or phase test) per UE per slot.
    if (cfg_.periodic) {
      const std::size_t phase = slot % static_cast<std::uint64_t>(period_slots_);
      for (std::size_t ue = phase; ue < n_;
           ue += static_cast<std::size_t>(period_slots_)) {
        push(ue, slot);
      }
    } else {
      for (std::size_t ue = 0; ue < n_; ++ue) {
        if (rng_.bernoulli(per_ue_p_)) push(ue, slot);
      }
    }
  }

  void serve(std::uint64_t slot) {
    int budget = cfg_.grants_per_slot;
    if (budget <= 0) return;
    // HARQ retransmissions first (oldest obligations), then fresh SR UEs
    // from the round-robin cursor — both as countr_zero word scans.
    budget = scan_serve(harq_words_, /*from=*/harq_cursor_, budget, slot, &harq_cursor_);
    if (budget > 0) {
      budget = scan_serve(sr_words_, /*from=*/sr_cursor_, budget, slot, &sr_cursor_);
    }
  }

  /// Serve up to `budget` set bits of `wordset`, starting at UE `from`,
  /// wrapping once around the population. Returns the unused budget and
  /// stores the next cursor position.
  int scan_serve(const std::uint64_t* wordset, std::size_t from, int budget,
                 std::uint64_t slot, std::size_t* cursor) {
    if (n_ == 0) return budget;
    std::size_t w = (from >> 6) % words_;
    std::uint64_t mask = ~0ULL << (from & 63);  // skip bits below the cursor
    for (std::size_t scanned = 0; scanned <= words_ && budget > 0; ++scanned) {
      // Snapshot: serving a HARQ UE can set/clear bits in this very word.
      std::uint64_t bits = wordset[w] & mask;
      mask = ~0ULL;
      while (bits != 0 && budget > 0) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        const std::size_t ue = (w << 6) + bit;
        if (ue >= n_) break;
        serve_ue(ue, slot);
        --budget;
        *cursor = ue + 1 >= n_ ? 0 : ue + 1;
      }
      w = w + 1 == words_ ? 0 : w + 1;
    }
    return budget;
  }

  void serve_ue(std::size_t ue, std::uint64_t slot) {
    ++c_.grants_used;
    const bool lost = cfg_.loss > 0.0 && rng_.bernoulli(cfg_.loss);
    if (lost) {
      if (++attempt_[ue] >= cfg_.harq_max_tx) {
        ++c_.harq_drops;
        // pop() counts the head as leaving the queue and resets HARQ state;
        // re-add nothing: the packet is gone.
        pop(ue);
      } else {
        harq_words_[ue >> 6] |= 1ULL << (ue & 63);  // retx next slot
      }
      return;
    }
    const std::uint32_t arrival = rings_[ue * cap_ + q_head_[ue]];
    const auto wait_slots = static_cast<std::int64_t>(slot - arrival + 1);
    latency_.record(wait_slots * slot_.count());
    ++c_.delivered;
    pop(ue);
  }

  PopulationConfig cfg_;
  Nanos slot_;
  Rng rng_;
  std::size_t n_ = 0;
  std::size_t cap_ = 1;
  std::size_t words_ = 0;
  double mean_per_slot_ = 0.0;
  double poisson_limit_ = 1.0;  ///< std::exp(-mean_per_slot_)
  double per_ue_p_ = 0.0;
  int period_slots_ = 1;

  BufferPool::Block* block_ = nullptr;
  std::uint64_t* sr_words_ = nullptr;    ///< bit = UE has queued packets
  std::uint64_t* harq_words_ = nullptr;  ///< bit = head packet awaits retx
  std::uint32_t* rings_ = nullptr;       ///< n × cap arrival slot numbers
  std::uint8_t* q_len_ = nullptr;
  std::uint8_t* q_head_ = nullptr;
  std::uint8_t* attempt_ = nullptr;

  std::size_t sr_cursor_ = 0;
  std::size_t harq_cursor_ = 0;
  std::uint64_t queued_ = 0;
  Counters c_;
  LatencyHistogram latency_;
};

}  // namespace u5g
