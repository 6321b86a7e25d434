#include "analysis/rsrsg.hpp"

#include <algorithm>
#include <sstream>

#include "support/metrics.hpp"

namespace psa::analysis {

const rsg::CanonicalKey& Rsrsg::Member::key() const {
  if (!key_) key_ = rsg::canonical_key(graph_);
  return *key_;
}

const Rsrsg::Contexts& Rsrsg::Member::contexts() const {
  if (!contexts_) contexts_ = rsg::compute_compat_contexts(graph_);
  return *contexts_;
}

Rsg Rsrsg::Member::release(std::shared_ptr<Member> member) {
  if (member.use_count() > 1) return member->graph_;
  return std::move(member->graph_);
}

bool Rsrsg::contains(const rsg::CanonicalKey& key) const {
  return std::any_of(members_.begin(), members_.end(),
                     [&](const auto& m) { return m->key() == key; });
}

bool Rsrsg::fold_widened(Rsg g, const LevelPolicy& policy) {
  // Widened mode: coarsen the incoming graph and fold it monotonically
  // into its ALIAS-matching member.
  rsg::coarsen(g, policy);
  rsg::CanonicalKey key = rsg::canonical_key(g);
  if (contains(key)) return false;
  for (auto& member : members_) {
    if (!rsg::alias_equal(member->graph(), g)) continue;
    Rsg folded =
        rsg::force_join(member->graph(), member->contexts(), g, policy);
    rsg::coarsen(folded, policy);
    rsg::CanonicalKey folded_key = rsg::canonical_key(folded);
    if (folded_key == member->key()) return false;  // absorbed, nothing new
    member = std::make_shared<Member>(std::move(folded), std::move(folded_key));
    return true;
  }
  members_.push_back(std::make_shared<Member>(std::move(g), std::move(key)));
  return true;
}

bool Rsrsg::insert(Rsg g, const LevelPolicy& policy, bool enable_join) {
  if (widened_) return fold_widened(std::move(g), policy);
  rsg::CanonicalKey key = rsg::canonical_key(g);
  if (contains(key)) return false;  // exact duplicate

  // The candidate's contexts are computed once, on its first ALIAS match,
  // and kept with it if it becomes a member.
  std::optional<Contexts> g_ctx;
  if (enable_join) {
    // Fuse into the first compatible member; the join may enable further
    // fusions, so re-insert the result.
    for (std::size_t i = 0; i < members_.size(); ++i) {
      const Member& member = *members_[i];
      PSA_COUNT(support::Counter::kJoinAttempts);
      if (!rsg::alias_equal(member.graph(), g)) {  // cheap pre-filter
        PSA_COUNT(support::Counter::kJoinRejectedAlias);
        continue;
      }
      if (!g_ctx) g_ctx = rsg::compute_compat_contexts(g);
      if (!rsg::compatible_with_contexts(member.graph(), member.contexts(), g,
                                         *g_ctx, policy)) {
        PSA_COUNT(support::Counter::kJoinRejectedCompat);
      } else {
        PSA_COUNT(support::Counter::kJoinAccepts);
        Rsg joined =
            rsg::join(member.graph(), member.contexts(), g, *g_ctx, policy);
        members_.erase(members_.begin() + static_cast<std::ptrdiff_t>(i));
        insert(std::move(joined), policy, enable_join);
        return true;  // the set changed even if the join was absorbing
      }
    }
  }

  members_.push_back(
      std::make_shared<Member>(std::move(g), std::move(key), std::move(g_ctx)));
  return true;
}

void Rsrsg::widen(const LevelPolicy& policy) {
  // Re-insert every member through the widened-mode path: coarsen, then fold
  // ALIAS-equal members together. The result has at most one member per
  // ALIAS relation.
  if (!widened_) reinsert_members(policy, nullptr);
}

void Rsrsg::degrade_members(const LevelPolicy& policy,
                            const std::function<void(Rsg&)>& transform) {
  reinsert_members(policy, transform);
}

void Rsrsg::reinsert_members(const LevelPolicy& policy,
                             const std::function<void(Rsg&)>& transform) {
  widened_ = true;
  Members old;
  old.swap(members_);
  for (auto& member : old) {
    Rsg g = Member::release(std::move(member));
    if (transform) transform(g);
    insert(std::move(g), policy);
  }
}

Rsrsg Rsrsg::restore(std::vector<Rsg> graphs, bool widened) {
  Rsrsg set;
  set.widened_ = widened;
  set.members_.reserve(graphs.size());
  for (Rsg& g : graphs) {
    set.members_.push_back(std::make_shared<Member>(std::move(g)));
  }
  return set;
}

std::size_t Rsrsg::footprint_bytes() const {
  std::size_t bytes = 0;
  for (const Rsg& g : graphs()) bytes += g.footprint_bytes();
  return bytes;
}

std::size_t Rsrsg::total_nodes() const {
  std::size_t n = 0;
  for (const Rsg& g : graphs()) n += g.node_count();
  return n;
}

bool Rsrsg::equals(const Rsrsg& other) const {
  if (members_.size() != other.members_.size()) return false;
  // Multiset match: keys are equal iff the members are isomorphic, and a
  // shared member is equal to itself without its key.
  return std::is_permutation(members_.begin(), members_.end(),
                             other.members_.begin(),
                             [](const auto& a, const auto& b) {
                               return a == b || a->key() == b->key();
                             });
}

std::string Rsrsg::dump(const support::Interner& interner) const {
  std::ostringstream os;
  os << "RSRSG with " << members_.size() << " graph(s)\n";
  for (std::size_t i = 0; i < members_.size(); ++i) {
    os << "--- rsg " << i << " ---\n" << members_[i]->graph().dump(interner);
  }
  return os.str();
}

}  // namespace psa::analysis
