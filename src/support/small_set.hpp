// SmallSet: a sorted-vector set for the tiny sets that dominate RSG node
// properties (selector sets, SPATHs, TOUCH sets, cycle-link pairs).
//
// These sets hold a handful of elements (bounded by the number of selectors
// or pvars in the analyzed program), are compared for equality constantly
// (C_NODES, C_SPATH, JOIN compatibility) and are unioned / intersected in
// MERGE_NODES. A sorted vector beats node-based containers on every one of
// those operations at this size and hashes in one pass.
//
// The vector is a SmallVector with the default 16 bytes inline (4 symbols or
// lines, 2 pairs), so a set that small lives inside NodeProps and copying it
// allocates nothing; sizeof(SmallSet<T>) stays 24 bytes. A larger set spills
// to one heap block. The elements stay sorted and unique, and hash() is
// support::hash_range over them, so canonical keys and WL colours do not
// depend on where the elements live.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <iterator>

#include "support/hash.hpp"
#include "support/small_vector.hpp"

namespace psa::support {

template <typename T>
class SmallSet {
 public:
  using value_type = T;
  using const_iterator = typename SmallVector<T>::const_iterator;

  SmallSet() = default;
  SmallSet(std::initializer_list<T> init) {
    items_.assign(init.begin(), init.end());
    normalize();
  }

  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  [[nodiscard]] const_iterator begin() const noexcept { return items_.begin(); }
  [[nodiscard]] const_iterator end() const noexcept { return items_.end(); }

  [[nodiscard]] bool contains(const T& v) const {
    return std::binary_search(items_.begin(), items_.end(), v);
  }

  /// Insert; returns true if the element was new.
  bool insert(const T& v) {
    auto it = std::lower_bound(items_.begin(), items_.end(), v);
    if (it != items_.end() && *it == v) return false;
    items_.insert(it, v);
    return true;
  }

  /// Erase; returns true if the element was present.
  bool erase(const T& v) {
    auto it = std::lower_bound(items_.begin(), items_.end(), v);
    if (it == items_.end() || !(*it == v)) return false;
    items_.erase(it);
    return true;
  }

  void clear() noexcept { items_.clear(); }

  /// Remove every element for which `pred` holds.
  template <typename Pred>
  void erase_if(Pred&& pred) {
    items_.erase_if(std::forward<Pred>(pred));
  }

  [[nodiscard]] friend SmallSet set_union(const SmallSet& a, const SmallSet& b) {
    SmallSet out;
    std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                   std::back_inserter(out.items_));
    return out;
  }

  [[nodiscard]] friend SmallSet set_intersection(const SmallSet& a,
                                                 const SmallSet& b) {
    SmallSet out;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(out.items_));
    return out;
  }

  [[nodiscard]] friend SmallSet set_difference(const SmallSet& a,
                                               const SmallSet& b) {
    SmallSet out;
    std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out.items_));
    return out;
  }

  [[nodiscard]] friend bool intersects(const SmallSet& a, const SmallSet& b) {
    auto ia = a.begin();
    auto ib = b.begin();
    while (ia != a.end() && ib != b.end()) {
      if (*ia == *ib) return true;
      if (*ia < *ib) {
        ++ia;
      } else {
        ++ib;
      }
    }
    return false;
  }

  [[nodiscard]] bool is_subset_of(const SmallSet& other) const {
    return std::includes(other.begin(), other.end(), begin(), end());
  }

  friend bool operator==(const SmallSet& a, const SmallSet& b) = default;
  friend auto operator<=>(const SmallSet& a, const SmallSet& b) = default;

  /// One-pass order-sensitive hash (the set is canonically sorted).
  template <typename Fn>
  [[nodiscard]] std::uint64_t hash(Fn&& element_hash) const {
    return hash_range(items_, std::forward<Fn>(element_hash));
  }

 private:
  void normalize() {
    std::sort(items_.begin(), items_.end());
    items_.erase(std::unique(items_.begin(), items_.end()), items_.end());
  }

  SmallVector<T> items_;
};

}  // namespace psa::support
