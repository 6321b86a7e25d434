// Disjoint-set forest over the indices [0, n): path halving on find, the
// smaller root wins a union, so a class's representative is its least index.
// COMPRESS, coarsen and JOIN partition graph nodes with it.
#pragma once

#include <cstddef>
#include <numeric>
#include <utility>
#include <vector>

namespace psa::support {

class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
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
    parent_[b] = a;
  }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace psa::support
