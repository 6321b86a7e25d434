#include "analysis/rsrsg.hpp"

#include <algorithm>
#include <sstream>

#include "support/metrics.hpp"

namespace psa::analysis {

void Rsrsg::ensure_keys() const {
  if (keys_.size() == graphs_.size()) return;
  keys_.reserve(graphs_.size());
  for (const Rsg& g : graphs_) keys_.push_back(rsg::canonical_key(g));
}

bool Rsrsg::contains(const rsg::CanonicalKey& key) const {
  return std::find(keys_.begin(), keys_.end(), key) != keys_.end();
}

const std::vector<rsg::NodeCompatContext>& Rsrsg::member_contexts(
    std::size_t i) const {
  if (contexts_[i] == nullptr) {
    contexts_[i] = std::make_shared<const std::vector<rsg::NodeCompatContext>>(
        rsg::compute_compat_contexts(graphs_[i]));
  }
  return *contexts_[i];
}

bool Rsrsg::fold_widened(Rsg g, const LevelPolicy& policy) {
  // Widened mode: coarsen the incoming graph and fold it monotonically
  // into its ALIAS-matching member.
  rsg::coarsen(g, policy);
  rsg::CanonicalKey key = rsg::canonical_key(g);
  if (contains(key)) return false;
  for (std::size_t i = 0; i < graphs_.size(); ++i) {
    if (!rsg::alias_equal(graphs_[i], g)) continue;
    Rsg folded = rsg::force_join(graphs_[i], g, policy);
    rsg::coarsen(folded, policy);
    rsg::CanonicalKey folded_key = rsg::canonical_key(folded);
    if (folded_key == keys_[i]) return false;  // absorbed, nothing new
    graphs_[i] = std::move(folded);
    keys_[i] = std::move(folded_key);
    contexts_[i] = nullptr;
    return true;
  }
  graphs_.push_back(std::move(g));
  keys_.push_back(std::move(key));
  contexts_.push_back(nullptr);
  return true;
}

bool Rsrsg::insert(Rsg g, const LevelPolicy& policy, bool enable_join) {
  ensure_keys();
  if (widened_) return fold_widened(std::move(g), policy);
  rsg::CanonicalKey key = rsg::canonical_key(g);
  if (contains(key)) return false;  // exact duplicate

  if (enable_join) {
    // Fuse into the first compatible member; the join may enable further
    // fusions, so re-insert the result. Candidate contexts are computed once
    // and member contexts cached across inserts.
    std::shared_ptr<const std::vector<rsg::NodeCompatContext>> g_ctx;
    for (std::size_t i = 0; i < graphs_.size(); ++i) {
      PSA_COUNT(support::Counter::kJoinAttempts);
      if (!rsg::alias_equal(graphs_[i], g)) {  // cheap pre-filter
        PSA_COUNT(support::Counter::kJoinRejectedAlias);
        continue;
      }
      if (g_ctx == nullptr) {
        g_ctx = std::make_shared<const std::vector<rsg::NodeCompatContext>>(
            rsg::compute_compat_contexts(g));
      }
      if (!rsg::compatible_with_contexts(graphs_[i], member_contexts(i), g,
                                         *g_ctx, policy)) {
        PSA_COUNT(support::Counter::kJoinRejectedCompat);
      } else {
        PSA_COUNT(support::Counter::kJoinAccepts);
        Rsg joined = rsg::join(graphs_[i], g, policy);
        const auto at = static_cast<std::ptrdiff_t>(i);
        graphs_.erase(graphs_.begin() + at);
        keys_.erase(keys_.begin() + at);
        contexts_.erase(contexts_.begin() + at);
        insert(std::move(joined), policy, enable_join);
        return true;  // the set changed even if the join was absorbing
      }
    }
  }

  graphs_.push_back(std::move(g));
  keys_.push_back(std::move(key));
  contexts_.push_back(nullptr);
  return true;
}

bool Rsrsg::widen(const LevelPolicy& policy, std::size_t max_graphs) {
  if (widened_ && graphs_.size() <= max_graphs) return false;
  // Re-insert every member through the widened-mode path: coarsen, then fold
  // ALIAS-equal members together. The result has at most one member per
  // ALIAS relation.
  return reinsert_members(policy, nullptr);
}

bool Rsrsg::degrade_members(const LevelPolicy& policy,
                            const std::function<void(Rsg&)>& transform) {
  return reinsert_members(policy, transform);
}

bool Rsrsg::reinsert_members(const LevelPolicy& policy,
                             const std::function<void(Rsg&)>& transform) {
  ensure_keys();
  const bool was_widened = widened_;
  widened_ = true;
  std::vector<Rsg> members;
  members.swap(graphs_);
  std::vector<rsg::CanonicalKey> old_keys;
  old_keys.swap(keys_);
  contexts_.clear();
  for (Rsg& g : members) {
    if (transform) transform(g);
    insert(std::move(g), policy, /*enable_join=*/true);
  }
  // A widened set may *legitimately* exceed max_graphs (one member per
  // ALIAS pattern is the floor), so "still too big" is not "changed".
  // Report change only when folding actually moved something — otherwise a
  // caller re-widening an over-threshold set on every visit would requeue
  // its successors forever. Same cardinality: changed iff some member's key
  // moved (order-sensitive and thus conservative — a spurious `true` only
  // requeues the successors once more).
  return !was_widened || keys_ != old_keys;
}

Rsrsg Rsrsg::restore(std::vector<Rsg> graphs, bool widened) {
  Rsrsg set;
  set.widened_ = widened;
  set.graphs_ = std::move(graphs);
  set.contexts_.assign(set.graphs_.size(), nullptr);
  return set;
}

std::size_t Rsrsg::footprint_bytes() const {
  std::size_t bytes = 0;
  for (const Rsg& g : graphs_) bytes += g.footprint_bytes();
  return bytes;
}

std::size_t Rsrsg::total_nodes() const {
  std::size_t n = 0;
  for (const Rsg& g : graphs_) n += g.node_count();
  return n;
}

bool Rsrsg::equals(const Rsrsg& other) const {
  if (graphs_.size() != other.graphs_.size()) return false;
  ensure_keys();
  other.ensure_keys();
  // Multiset match: keys are equal iff the members are isomorphic.
  return std::is_permutation(keys_.begin(), keys_.end(), other.keys_.begin());
}

std::string Rsrsg::dump(const support::Interner& interner) const {
  std::ostringstream os;
  os << "RSRSG with " << graphs_.size() << " graph(s)\n";
  for (std::size_t i = 0; i < graphs_.size(); ++i) {
    os << "--- rsg " << i << " ---\n" << graphs_[i].dump(interner);
  }
  return os.str();
}

}  // namespace psa::analysis
