#include "driver/fault.hpp"

#include <chrono>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <thread>

namespace psa::driver {

std::string_view to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kCrash: return "crash";
    case FaultKind::kHang: return "hang";
    case FaultKind::kOom: return "oom";
    case FaultKind::kThrow: return "throw";
  }
  return "?";
}

namespace {

bool parse_kind(std::string_view s, FaultKind& out) {
  for (const auto kind : {FaultKind::kCrash, FaultKind::kHang, FaultKind::kOom,
                          FaultKind::kThrow}) {
    if (s == to_string(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

}  // namespace

FaultPlan FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  while (!spec.empty()) {
    const std::size_t comma = spec.find(',');
    const std::string_view entry = spec.substr(0, comma);
    spec = comma == std::string_view::npos ? std::string_view{}
                                           : spec.substr(comma + 1);
    const std::size_t colon = entry.rfind(':');
    if (colon == std::string_view::npos || colon == 0) continue;
    FaultKind kind = FaultKind::kNone;
    if (!parse_kind(entry.substr(colon + 1), kind)) continue;
    plan.entries_.emplace_back(std::string(entry.substr(0, colon)), kind);
  }
  return plan;
}

FaultPlan FaultPlan::from_env() {
  const char* spec = std::getenv("PSA_FAULT_AT");
  return spec == nullptr ? FaultPlan{} : parse(spec);
}

FaultKind FaultPlan::for_unit(std::string_view unit_name) const {
  for (const auto& [unit, kind] : entries_) {
    if (unit == unit_name) return kind;
  }
  return FaultKind::kNone;
}

void inject_fault(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return;
    case FaultKind::kCrash:
      std::abort();
    case FaultKind::kHang:
      for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
    case FaultKind::kOom:
      throw std::bad_alloc();
    case FaultKind::kThrow:
      throw std::runtime_error("injected fault: throw");
  }
}

}  // namespace psa::driver
