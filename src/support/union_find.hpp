// Disjoint-set forest over the indices [0, n): path halving on find, the
// smaller root wins a union, so a class's representative is its least index.
// COMPRESS, coarsen and JOIN partition graph nodes with it and fold each
// class through for_each_class. The forest and the grouping live inline up
// to kInline indices, so partitioning a typical graph allocates nothing.
#pragma once

#include <algorithm>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <utility>

#include "support/small_vector.hpp"

namespace psa::support {

/// One index of a class, as UnionFind::for_each_class hands it out.
struct ClassMember {
  std::uint32_t rep;    // the class's representative: its least index
  std::uint32_t index;

  friend constexpr bool operator==(ClassMember, ClassMember) noexcept = default;
  friend constexpr auto operator<=>(ClassMember, ClassMember) noexcept = default;
};

class UnionFind {
 public:
  static constexpr std::size_t kInline = 64;

  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::uint32_t{0});
  }

  [[nodiscard]] std::size_t find(std::size_t a) {
    while (parent_[a] != a) {
      parent_[a] = parent_[parent_[a]];
      a = parent_[a];
    }
    return a;
  }

  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (a > b) std::swap(a, b);
    parent_[b] = static_cast<std::uint32_t>(a);
  }

  /// Call `fn(std::span<const ClassMember>)` once per class that has a
  /// member in `indices` (distinct indices), with that class's members of
  /// `indices`: classes in ascending representative order, members in
  /// ascending index order. That is the order COMPRESS and JOIN fold in.
  template <typename Range, typename Fn>
  void for_each_class(const Range& indices, Fn&& fn) {
    SmallVector<ClassMember, kInline> order;
    for (const auto i : indices) {
      order.push_back({static_cast<std::uint32_t>(find(i)),
                       static_cast<std::uint32_t>(i)});
    }
    std::sort(order.begin(), order.end());
    for (std::size_t lo = 0; lo < order.size();) {
      std::size_t hi = lo + 1;
      while (hi < order.size() && order[hi].rep == order[lo].rep) ++hi;
      fn(std::span<const ClassMember>(order.data() + lo, hi - lo));
      lo = hi;
    }
  }

 private:
  SmallVector<std::uint32_t, kInline> parent_;
};

}  // namespace psa::support
