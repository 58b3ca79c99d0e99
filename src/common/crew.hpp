#pragma once
// Crew: the repo's one fork-join primitive.
//
// A persistent static-partition crew of `width` workers. The calling thread
// is worker 0; `width - 1` helpers live as long as the crew. parallel_for(n,
// fn) hands worker w the contiguous slice [n·w/width, n·(w+1)/width) (empty
// when n < width) and returns once every slice has run. Two users fan out
// through it: the sharded engine's window loop (sim/sharded.cpp) and the
// Monte-Carlo replication runner (sim/runner.hpp), which also fans out the
// query service's sim tails.
//
// Synchronisation: `start_` publishes the descriptor (n, fn) the caller
// wrote before arriving, and `done_` hands the finished slices back;
// barrier completion orders those writes, so no lock or atomic guards them.
// A width-1 crew starts no thread and its barriers complete on arrival: one
// code path for every width. Which slice holds an index decides its thread,
// never its result, so callers that write into index-ordered storage are
// bitwise-independent of the width.
//
// Errors: an exception is caught in the slice that threw, whose worker
// still reaches `done_` (the rest of that slice is skipped; every other
// slice completes). parallel_for then rethrows the first error in slice
// order, so no helper is ever left inside a run and the crew stays usable.
//
// One run at a time: parallel_for must not be called concurrently on one
// crew, nor from inside `fn`. Callers that can race serialise themselves.

#include <barrier>
#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

#include "common/function_ref.hpp"

namespace u5g {

class Crew {
 public:
  using SliceFn = FunctionRef<void(std::size_t lo, std::size_t hi)>;

  /// `width` workers, the caller included (values below 1 mean 1).
  explicit Crew(int width)
      : width_(width < 1 ? 1 : width),
        start_(width_),
        done_(width_),
        errors_(static_cast<std::size_t>(width_)) {
    helpers_.reserve(static_cast<std::size_t>(width_ - 1));
    for (int w = 1; w < width_; ++w) {
      helpers_.emplace_back([this, w] {
        for (;;) {
          start_.arrive_and_wait();
          if (stop_) return;
          work(w);
          done_.arrive_and_wait();
        }
      });
    }
  }

  ~Crew() {
    stop_ = true;
    start_.arrive_and_wait();
    for (std::thread& t : helpers_) t.join();
  }

  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;

  [[nodiscard]] int width() const { return width_; }

  /// Run `fn(lo, hi)` once per worker over the static partition of [0, n);
  /// returns once every slice has finished, rethrowing the first error in
  /// slice order.
  void parallel_for(std::size_t n, SliceFn fn) {
    n_ = n;
    fn_ = &fn;
    for (std::exception_ptr& e : errors_) e = nullptr;
    start_.arrive_and_wait();
    work(0);
    done_.arrive_and_wait();
    for (const std::exception_ptr& e : errors_) {
      if (e) std::rethrow_exception(e);
    }
  }

  /// Hardware concurrency with a floor of 1.
  [[nodiscard]] static int hardware_threads() {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
  }

 private:
  void work(int w) {
    const auto width = static_cast<std::size_t>(width_);
    const std::size_t lo = n_ * static_cast<std::size_t>(w) / width;
    const std::size_t hi = n_ * static_cast<std::size_t>(w + 1) / width;
    if (lo == hi) return;
    try {
      (*fn_)(lo, hi);
    } catch (...) {
      errors_[static_cast<std::size_t>(w)] = std::current_exception();
    }
  }

  const int width_;
  std::barrier<> start_;
  std::barrier<> done_;
  // Run descriptor: written by the caller before `start_`.
  std::size_t n_ = 0;
  const SliceFn* fn_ = nullptr;
  bool stop_ = false;
  std::vector<std::exception_ptr> errors_;  ///< one per worker, cleared before `start_`
  std::vector<std::thread> helpers_;
};

}  // namespace u5g
