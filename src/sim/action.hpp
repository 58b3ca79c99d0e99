#pragma once
// Small-buffer-optimised, non-movable callable used for simulator events.
//
// A Fig-6-scale run schedules hundreds of thousands of events whose closures
// capture one to three words (a `this`, a timestamp, a packet id). With
// `std::function` each of those costs a heap allocation; `Action` stores any
// nothrow-movable callable of up to `kInlineSize` bytes directly in the event
// slot and falls back to the heap only for oversized captures.

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace u5g {

/// Type-erased `void()` callable with inline storage for small captures.
class Action {
 public:
  /// Inline capacity: twenty words — small lambda captures, a whole
  /// `std::function` handed down from legacy call sites, and datapath
  /// closures that carry a `ByteBuffer` (64 bytes) plus bookkeeping by
  /// value, so moving a packet across an event never heap-allocates.
  static constexpr std::size_t kInlineSize = 20 * sizeof(void*);

  Action() = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, Action> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  Action(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function
    emplace_impl(std::forward<F>(f));
  }

  /// Destroy any stored callable and construct `f` directly in the inline
  /// buffer. The simulator uses this to build event closures in their final
  /// resting slot, so scheduling never moves an `Action` at all.
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, Action> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  void emplace(F&& f) {
    reset();
    emplace_impl(std::forward<F>(f));
  }

  Action(const Action&) = delete;
  Action& operator=(const Action&) = delete;
  ~Action() { reset(); }

  void operator()() { ops_->invoke(buf_); }
  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  /// Destroy the stored callable (releases captured resources eagerly).
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  static constexpr bool kFitsInline = sizeof(Fn) <= kInlineSize &&
                                      alignof(Fn) <= alignof(std::max_align_t) &&
                                      std::is_nothrow_move_constructible_v<Fn>;

  template <typename F>
  void emplace_impl(F&& f) {
    using Fn = std::remove_cvref_t<F>;
    if constexpr (kFitsInline<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      static constexpr Ops ops{
          [](void* p) { (*std::launder(reinterpret_cast<Fn*>(p)))(); },
          [](void* p) noexcept { std::launder(reinterpret_cast<Fn*>(p))->~Fn(); }};
      ops_ = &ops;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      static constexpr Ops ops{
          [](void* p) { (**std::launder(reinterpret_cast<Fn**>(p)))(); },
          [](void* p) noexcept { delete *std::launder(reinterpret_cast<Fn**>(p)); }};
      ops_ = &ops;
    }
  }

  alignas(std::max_align_t) std::byte buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace u5g
