#include "ipa/callgraph.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>

namespace psa::ipa {

namespace {
constexpr std::uint32_t kUnvisited = std::numeric_limits<std::uint32_t>::max();
}  // namespace

std::vector<Symbol> direct_callees(const cfg::Cfg& cfg) {
  std::vector<Symbol> callees;
  std::unordered_set<Symbol> seen;
  for (const cfg::CfgNode& node : cfg.nodes()) {
    if (node.stmt.op != cfg::SimpleOp::kCall) continue;
    if (node.stmt.callee.valid() && seen.insert(node.stmt.callee).second) {
      callees.push_back(node.stmt.callee);
    }
  }
  return callees;
}

CallGraph::CallGraph(const std::vector<CallGraphNode>& functions) {
  const std::size_t n = functions.size();
  edges_.resize(n);

  // Resolve callees by name, first definition winning — the same rule sema
  // uses, so a kCall statement always maps to the summary that will be
  // computed for it. (emplace keeps the first index on duplicate names.)
  std::unordered_map<Symbol, std::size_t> by_name;
  by_name.reserve(n);
  for (std::size_t j = 0; j < n; ++j) by_name.emplace(functions[j].name, j);

  for (std::size_t i = 0; i < n; ++i) {
    if (functions[i].cfg == nullptr) continue;
    for (const Symbol callee : direct_callees(*functions[i].cfg)) {
      const auto it = by_name.find(callee);
      if (it != by_name.end()) edges_[i].push_back(it->second);
    }
    std::sort(edges_[i].begin(), edges_[i].end());
  }

  condense();
}

CallGraph::CallGraph(std::vector<std::vector<std::size_t>> edges)
    : edges_(std::move(edges)) {
  condense();
}

void CallGraph::condense() {
  const std::size_t n = edges_.size();
  index_.assign(n, kUnvisited);
  lowlink_.assign(n, 0);
  on_stack_.assign(n, false);
  for (std::size_t v = 0; v < n; ++v) {
    if (index_[v] == kUnvisited) strongconnect(v);
  }
}

// Iterative Tarjan: an explicit frame stack instead of native recursion, so
// a unit-long call chain cannot overflow the process stack.
void CallGraph::strongconnect(std::size_t root) {
  struct Frame {
    std::size_t v;
    std::size_t next_edge;  // resume point into edges_[v]
  };
  std::vector<Frame> frames;
  frames.push_back({root, 0});
  index_[root] = lowlink_[root] = next_index_++;
  stack_.push_back(root);
  on_stack_[root] = true;

  while (!frames.empty()) {
    const std::size_t v = frames.back().v;
    if (frames.back().next_edge < edges_[v].size()) {
      const std::size_t w = edges_[v][frames.back().next_edge++];
      if (index_[w] == kUnvisited) {
        index_[w] = lowlink_[w] = next_index_++;
        stack_.push_back(w);
        on_stack_[w] = true;
        frames.push_back({w, 0});
      } else if (on_stack_[w]) {
        lowlink_[v] = std::min(lowlink_[v], index_[w]);
      }
      continue;
    }

    // All of v's edges explored: close its SCC if v is the root, then fold
    // its lowlink into the caller (the post-recursion min of the recursive
    // formulation).
    if (lowlink_[v] == index_[v]) {
      std::vector<std::size_t> scc;
      std::size_t w;
      do {
        w = stack_.back();
        stack_.pop_back();
        on_stack_[w] = false;
        scc.push_back(w);
      } while (w != v);
      std::sort(scc.begin(), scc.end());
      sccs_.push_back(std::move(scc));
    }
    frames.pop_back();
    if (!frames.empty()) {
      const std::size_t parent = frames.back().v;
      lowlink_[parent] = std::min(lowlink_[parent], lowlink_[v]);
    }
  }
}

bool CallGraph::recursive(const std::vector<std::size_t>& scc) const {
  if (scc.size() > 1) return true;
  if (scc.empty()) return false;
  const std::size_t v = scc.front();
  return std::find(edges_[v].begin(), edges_[v].end(), v) != edges_[v].end();
}

}  // namespace psa::ipa
