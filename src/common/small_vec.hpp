#pragma once
// Small vector: inline storage for the first N elements, heap beyond.
//
// The datapath builds short element lists per packet — MAC subPDUs in a
// transport block (1–3 entries), layer lists in a pipeline traversal — where
// a `std::vector` costs a heap allocation for two or three elements. SmallVec
// keeps up to N elements in the object and only spills to the heap past
// that, so the common case is allocation-free. Deliberately minimal: just
// the surface the datapath uses (push/emplace_back, iteration, indexing,
// clear), contiguous so it converts to `std::span`.

#include <cstddef>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>

namespace u5g {

template <typename T, std::size_t N>
class SmallVec {
 public:
  SmallVec() = default;
  SmallVec(const SmallVec&) = delete;
  SmallVec& operator=(const SmallVec&) = delete;

  SmallVec(SmallVec&& o) noexcept {
    size_ = o.size_;
    if (o.heap_ != nullptr) {
      heap_ = o.heap_;
      capacity_ = o.capacity_;
      o.heap_ = nullptr;
      o.capacity_ = N;
      // The elements travelled with the heap block; o's inline buffer holds
      // no constructed objects, so o must not run destructors over it.
      o.size_ = 0;
    } else {
      for (std::size_t i = 0; i < o.size_; ++i) {
        ::new (data() + i) T(std::move(o.data()[i]));
      }
      o.clear();
    }
  }

  ~SmallVec() {
    clear();
    ::operator delete(heap_);
  }

  template <typename... CtorArgs>
  T& emplace_back(CtorArgs&&... args) {
    if (size_ == capacity_) grow();
    T* slot = ::new (data() + size_) T(std::forward<CtorArgs>(args)...);
    ++size_;
    return *slot;
  }
  void push_back(T&& v) { emplace_back(std::move(v)); }
  void push_back(const T& v) { emplace_back(v); }

  void clear() {
    for (std::size_t i = 0; i < size_; ++i) data()[i].~T();
    size_ = 0;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] T* data() { return heap_ != nullptr ? heap_ : inline_ptr(); }
  [[nodiscard]] const T* data() const { return heap_ != nullptr ? heap_ : inline_ptr(); }
  [[nodiscard]] T& operator[](std::size_t i) { return data()[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data()[i]; }
  [[nodiscard]] T* begin() { return data(); }
  [[nodiscard]] T* end() { return data() + size_; }
  [[nodiscard]] const T* begin() const { return data(); }
  [[nodiscard]] const T* end() const { return data() + size_; }
  [[nodiscard]] T& back() { return data()[size_ - 1]; }

  operator std::span<T>() { return {data(), size_}; }              // NOLINT
  operator std::span<const T>() const { return {data(), size_}; }  // NOLINT

 private:
  void grow() {
    const std::size_t new_cap = capacity_ * 2;
    T* bigger = static_cast<T*>(::operator new(new_cap * sizeof(T)));
    for (std::size_t i = 0; i < size_; ++i) {
      ::new (bigger + i) T(std::move(data()[i]));
      data()[i].~T();
    }
    ::operator delete(heap_);
    heap_ = bigger;
    capacity_ = new_cap;
  }

  T* inline_ptr() { return std::launder(reinterpret_cast<T*>(inline_)); }
  const T* inline_ptr() const { return std::launder(reinterpret_cast<const T*>(inline_)); }

  alignas(T) unsigned char inline_[N * sizeof(T)];
  T* heap_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = N;
};

}  // namespace u5g
