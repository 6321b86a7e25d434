// Shared test helper: the engine's sharing invariant. A non-entry identity
// statement (analysis::is_identity_statement) with one predecessor holds
// that predecessor's RSRSG, so at the end of a run it must equal it, member
// for member and in its widened flag — with or without governor
// degradation.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "analysis/engine.hpp"
#include "analysis/semantics.hpp"
#include "cfg/cfg.hpp"

namespace psa::testing {

/// True when statement `id` of `cfg` shares its predecessor's state.
inline bool is_shared_statement(const cfg::Cfg& cfg, cfg::NodeId id,
                                const rsg::LevelPolicy& policy) {
  const cfg::CfgNode& node = cfg.node(id);
  return id != cfg.entry() && node.preds.size() == 1 &&
         analysis::is_identity_statement(node.stmt, policy);
}

/// Check the invariant on every such statement of `cfg`; returns how many
/// there were.
inline std::size_t expect_shared_states_match(
    const cfg::Cfg& cfg, const analysis::AnalysisResult& result,
    const rsg::LevelPolicy& policy, const std::string& where) {
  std::size_t shared = 0;
  for (cfg::NodeId id = 0; id < cfg.size(); ++id) {
    if (!is_shared_statement(cfg, id, policy)) continue;
    ++shared;
    const cfg::CfgNode& node = cfg.node(id);
    const analysis::Rsrsg& state = result.per_node[id];
    const analysis::Rsrsg& pred = result.per_node[node.preds.front()];
    EXPECT_TRUE(state.equals(pred) && state.widened() == pred.widened())
        << where << ": node " << id << " holds " << state.size()
        << " graph(s), its predecessor " << node.preds.front() << " "
        << pred.size();
  }
  return shared;
}

}  // namespace psa::testing
