#include "analysis/governor.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "analysis/engine.hpp"
#include "rsg/ops.hpp"
#include "support/metrics.hpp"

namespace psa::analysis {

std::string_view to_string(DegradationRung rung) {
  switch (rung) {
    case DegradationRung::kNone: return "none";
    case DegradationRung::kWiden: return "widen";
    case DegradationRung::kForceJoin: return "force-join";
    case DegradationRung::kSummarize: return "summarize";
  }
  return "unknown";
}

std::size_t DegradationReport::degraded_node_count() const {
  std::set<cfg::NodeId> nodes;
  for (const DegradationEvent& e : events) nodes.insert(e.node);
  return nodes.size();
}

DegradationRung DegradationReport::worst_rung() const {
  DegradationRung worst = floor;
  for (const DegradationEvent& e : events) worst = std::max(worst, e.rung);
  return worst;
}

std::string DegradationReport::summary() const {
  if (empty()) return "no degradation";
  // Clauses joined by "; ": the events (only when there are any), then the
  // floor, the drain and an unreachable budget.
  std::ostringstream os;
  const char* sep = "";
  if (!events.empty()) {
    os << events.size() << " degradation(s) over " << degraded_node_count()
       << " statement(s):";
    for (std::size_t r = 1; r < rung_applications.size(); ++r) {
      if (rung_applications[r] == 0) continue;
      os << ' ' << to_string(static_cast<DegradationRung>(r)) << " x"
         << rung_applications[r] << " (" << rung_seconds[r] << " s)";
    }
    sep = "; ";
  }
  if (floor != DegradationRung::kNone) {
    os << sep << "floor " << to_string(floor);
    sep = "; ";
  }
  if (deadline_drain) {
    os << sep << "deadline drain";
    sep = "; ";
  }
  if (memory_budget_unreachable) os << sep << "memory budget unreachable";
  return os.str();
}

ResourceGovernor::ResourceGovernor(const Options& options, const cfg::Cfg& cfg,
                                   const std::vector<rsg::Symbol>& selectors)
    : policy_(options.policy()),
      types_(options.types),
      deadline_seconds_(static_cast<double>(options.deadline_ms) / 1000.0),
      deadline_allowance_(deadline_seconds_),
      selectors_(selectors),
      rungs_(cfg.size(), DegradationRung::kNone) {}

bool ResourceGovernor::deadline_expired() const {
  return deadline_seconds_ != 0.0 &&
         timer_.elapsed_seconds() >= deadline_allowance_;
}

bool ResourceGovernor::begin_drain() {
  if (draining_) return false;
  PSA_COUNT(support::Counter::kGovernorDrains);
  draining_ = true;
  deadline_allowance_ = 2.0 * deadline_seconds_;
  report_.deadline_drain = true;
  return true;
}

void ResourceGovernor::degrade(DegradationRung rung, Rsrsg& set) {
  switch (rung) {
    case DegradationRung::kNone:
      return;
    case DegradationRung::kWiden:
      // Once widened, the set folds every insert itself and widen() does
      // nothing. This matters for a raised floor: sets that were empty when
      // the floor rose still enter widened mode on their first reapply.
      set.widen(policy_);
      return;
    case DegradationRung::kForceJoin:
      set.degrade_members(policy_, [](rsg::Rsg& g) { rsg::drop_must_info(g); });
      return;
    case DegradationRung::kSummarize:
      set.degrade_members(policy_, [this](rsg::Rsg& g) {
        rsg::summarize_top(g, policy_, selectors_, types_);
      });
      return;
  }
}

void ResourceGovernor::apply(cfg::NodeId node, DegradationRung rung,
                             Rsrsg& set, AnalysisStatus trigger) {
  support::WallTimer rung_timer;
  DegradationEvent event;
  event.node = node;
  event.rung = rung;
  event.trigger = trigger;
  event.graphs_before = set.size();
  degrade(rung, set);
  event.graphs_after = set.size();
  const auto idx = static_cast<std::size_t>(rung);
  report_.rung_applications[idx] += 1;
  report_.rung_seconds[idx] += rung_timer.elapsed_seconds();
  report_.events.push_back(event);
}

DegradationRung ResourceGovernor::escalate(cfg::NodeId node, Rsrsg& set,
                                           AnalysisStatus trigger) {
  const DegradationRung current = rung(node);
  if (current == DegradationRung::kSummarize) return DegradationRung::kNone;
  const auto next = static_cast<DegradationRung>(
      static_cast<std::uint8_t>(current) + 1);
  PSA_COUNT(support::Counter::kGovernorEscalations);
  rungs_[node] = next;
  apply(node, next, set, trigger);
  return next;
}

void ResourceGovernor::collapse(cfg::NodeId node, Rsrsg& set,
                                AnalysisStatus trigger) {
  if (rung(node) == DegradationRung::kSummarize) return;
  PSA_COUNT(support::Counter::kGovernorCollapses);
  rungs_[node] = DegradationRung::kSummarize;
  apply(node, DegradationRung::kSummarize, set, trigger);
}

void ResourceGovernor::reapply(cfg::NodeId node, Rsrsg& set) {
  const DegradationRung current = rung(node);
  if (current == DegradationRung::kNone) return;
  PSA_COUNT(support::Counter::kGovernorReapplies);
  degrade(current, set);
}

void ResourceGovernor::raise_floor(DegradationRung rung) {
  floor_ = std::max(floor_, rung);
  report_.floor = floor_;
}

}  // namespace psa::analysis
