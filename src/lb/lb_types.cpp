#include "lb/lb_types.hpp"

#include <stdexcept>
#include <string>

namespace tlb::lb {

LbParams LbParams::grapevine() {
  LbParams p;
  p.criterion = CriterionKind::original;
  p.cmf = CmfKind::original;
  p.refresh = CmfRefresh::build_once;
  p.order = OrderKind::arbitrary;
  p.num_iterations = 1;
  p.num_trials = 1;
  return p;
}

LbParams LbParams::tempered() {
  LbParams p;
  p.criterion = CriterionKind::relaxed;
  p.cmf = CmfKind::modified;
  p.refresh = CmfRefresh::recompute;
  p.order = OrderKind::fewest_migrations;
  p.num_iterations = 8;
  p.num_trials = 10;
  return p;
}

std::string_view to_string(CmfKind kind) {
  switch (kind) {
  case CmfKind::original: return "original";
  case CmfKind::modified: return "modified";
  }
  return "?";
}

std::string_view to_string(CmfRefresh refresh) {
  switch (refresh) {
  case CmfRefresh::build_once: return "build_once";
  case CmfRefresh::recompute: return "recompute";
  }
  return "?";
}

std::string_view to_string(CriterionKind kind) {
  switch (kind) {
  case CriterionKind::original: return "original";
  case CriterionKind::relaxed: return "relaxed";
  }
  return "?";
}

std::string_view to_string(OrderKind kind) {
  switch (kind) {
  case OrderKind::arbitrary: return "arbitrary";
  case OrderKind::load_intensive: return "load_intensive";
  case OrderKind::fewest_migrations: return "fewest_migrations";
  case OrderKind::lightest: return "lightest";
  }
  return "?";
}

std::string_view to_string(GossipWire wire) {
  switch (wire) {
  case GossipWire::full: return "full";
  case GossipWire::delta: return "delta";
  }
  return "?";
}

OrderKind order_from_string(std::string_view name) {
  if (name == "arbitrary") {
    return OrderKind::arbitrary;
  }
  if (name == "load_intensive") {
    return OrderKind::load_intensive;
  }
  if (name == "fewest_migrations") {
    return OrderKind::fewest_migrations;
  }
  if (name == "lightest") {
    return OrderKind::lightest;
  }
  throw std::invalid_argument("unknown ordering '" + std::string{name} + "'");
}

} // namespace tlb::lb
