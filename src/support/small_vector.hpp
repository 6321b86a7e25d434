// SmallVector: a vector that keeps its first N elements inside the object.
//
// The RSG kernel's small data holds one to four elements almost always:
// NodeProps' property sets, each node's link lists, the scratch lists a
// kernel call builds and drops. In a std::vector each of them is a heap
// block, and copying a graph copies all of them. A SmallVector<T, N> keeps up
// to N elements inline and moves to the heap only beyond that; copying one
// that fits allocates nothing, and a copy takes only the capacity its
// elements need, so a copy of a spilled vector that has shrunk back under N
// is inline again.
//
// The default N is as many elements as fit in 16 bytes (4 symbols or 32-bit
// lines, 2 eight-byte pairs), so sizeof(SmallVector<T>) is 24 bytes, a
// std::vector's, and the structs holding one keep their size. Scratch lists
// that live on the stack take a larger N.
//
// Elements must be trivially copyable: they are moved with memcpy and never
// destroyed. Iterators are plain pointers, invalidated by any growth.
#pragma once

#include <algorithm>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace psa::support {

/// Elements of T that fit in 16 bytes (at least one).
template <typename T>
inline constexpr std::size_t kSmallVectorDefaultInline =
    sizeof(T) >= 16 ? 1 : 16 / sizeof(T);

template <typename T, std::size_t N = kSmallVectorDefaultInline<T>>
class SmallVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVector moves its elements with memcpy");
  static_assert(N > 0 && N < UINT32_MAX);

 public:
  using value_type = T;
  using size_type = std::size_t;
  using difference_type = std::ptrdiff_t;
  using reference = T&;
  using const_reference = const T&;
  using pointer = T*;
  using const_pointer = const T*;
  using iterator = T*;
  using const_iterator = const T*;

  /// Elements held without a heap block.
  static constexpr size_type kInline = N;

  SmallVector() noexcept {}
  explicit SmallVector(size_type n, const T& value = T()) { assign(n, value); }
  SmallVector(std::initializer_list<T> init) {
    assign(init.begin(), init.end());
  }

  SmallVector(const SmallVector& other) { assign(other.begin(), other.end()); }
  SmallVector(SmallVector&& other) noexcept { take(other); }
  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }
  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this != &other) {
      free_heap();
      take(other);
    }
    return *this;
  }
  ~SmallVector() { free_heap(); }

  // --- Access ------------------------------------------------------------------

  [[nodiscard]] T* data() noexcept {
    return on_heap() ? heap_ : std::launder(reinterpret_cast<T*>(inline_));
  }
  [[nodiscard]] const T* data() const noexcept {
    return on_heap() ? heap_
                     : std::launder(reinterpret_cast<const T*>(inline_));
  }
  [[nodiscard]] iterator begin() noexcept { return data(); }
  [[nodiscard]] iterator end() noexcept { return data() + size_; }
  [[nodiscard]] const_iterator begin() const noexcept { return data(); }
  [[nodiscard]] const_iterator end() const noexcept { return data() + size_; }

  [[nodiscard]] size_type size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// True while the elements live in a heap block.
  [[nodiscard]] bool on_heap() const noexcept { return capacity_ > N; }

  [[nodiscard]] T& operator[](size_type i) noexcept { return data()[i]; }
  [[nodiscard]] const T& operator[](size_type i) const noexcept {
    return data()[i];
  }
  [[nodiscard]] T& back() noexcept { return data()[size_ - 1]; }
  [[nodiscard]] const T& back() const noexcept { return data()[size_ - 1]; }

  // --- Modifiers ---------------------------------------------------------------

  void push_back(const T& value) {
    const T copy = value;  // `value` may live in the block that grows
    if (size_ == capacity_) reallocate(grown_capacity(size_ + 1));
    data()[size_++] = copy;
  }
  void pop_back() noexcept { --size_; }

  iterator insert(const_iterator pos, const T& value) {
    const T copy = value;
    const size_type at = static_cast<size_type>(pos - begin());
    if (size_ == capacity_) reallocate(grown_capacity(size_ + 1));
    T* p = data();
    std::memmove(p + at + 1, p + at, (size_ - at) * sizeof(T));
    p[at] = copy;
    ++size_;
    return p + at;
  }

  iterator erase(const_iterator pos) noexcept { return erase(pos, pos + 1); }
  iterator erase(const_iterator first, const_iterator last) noexcept {
    T* p = data();
    const size_type from = static_cast<size_type>(first - p);
    const size_type to = static_cast<size_type>(last - p);
    std::memmove(p + from, p + to, (size_ - to) * sizeof(T));
    size_ -= static_cast<std::uint32_t>(to - from);
    return p + from;
  }

  /// Remove every element for which `pred` holds; returns how many.
  template <typename Pred>
  size_type erase_if(Pred&& pred) {
    const iterator kept = std::remove_if(begin(), end(), pred);
    const size_type removed = static_cast<size_type>(end() - kept);
    size_ -= static_cast<std::uint32_t>(removed);
    return removed;
  }

  /// Drop the elements; a heap block is kept for reuse.
  void clear() noexcept { size_ = 0; }

  void reserve(size_type n) {
    if (n > capacity_) reallocate(n);
  }
  void resize(size_type n, const T& value = T()) {
    if (n > size_) {
      const T copy = value;
      reserve(n);
      std::fill(data() + size_, data() + n, copy);
    }
    size_ = static_cast<std::uint32_t>(n);
  }

  void assign(size_type n, const T& value) {
    clear();
    resize(n, value);
  }
  template <std::forward_iterator It>
  void assign(It first, It last) {
    const auto n = static_cast<size_type>(std::distance(first, last));
    clear();
    reserve(n);
    std::copy(first, last, data());
    size_ = static_cast<std::uint32_t>(n);
  }

  void swap(SmallVector& other) noexcept {
    SmallVector tmp(std::move(other));
    other = std::move(*this);
    *this = std::move(tmp);
  }

  // --- Comparison --------------------------------------------------------------

  friend bool operator==(const SmallVector& a, const SmallVector& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend auto operator<=>(const SmallVector& a, const SmallVector& b) {
    return std::lexicographical_compare_three_way(a.begin(), a.end(),
                                                  b.begin(), b.end());
  }

 private:
  [[nodiscard]] size_type grown_capacity(size_type needed) const noexcept {
    return std::max<size_type>(needed, 2 * size_type{capacity_});
  }

  /// Move the elements into a fresh heap block of `cap` > capacity()
  /// elements.
  void reallocate(size_type cap) {
    T* fresh = std::allocator<T>().allocate(cap);
    std::memcpy(static_cast<void*>(fresh), data(), size_ * sizeof(T));
    free_heap();
    heap_ = fresh;
    capacity_ = static_cast<std::uint32_t>(cap);
  }

  void free_heap() noexcept {
    if (on_heap()) std::allocator<T>().deallocate(heap_, capacity_);
    capacity_ = N;
  }

  /// Take `other`'s elements (this holds none), leaving it empty and inline.
  void take(SmallVector& other) noexcept {
    if (other.on_heap()) {
      heap_ = other.heap_;
      capacity_ = other.capacity_;
    } else {
      std::memcpy(inline_, other.inline_, other.size_ * sizeof(T));
      capacity_ = N;
    }
    size_ = other.size_;
    other.size_ = 0;
    other.capacity_ = N;
  }

  union {
    T* heap_ = nullptr;
    alignas(T) unsigned char inline_[N * sizeof(T)];
  };
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = N;  // > N: the elements live at heap_
};

}  // namespace psa::support
