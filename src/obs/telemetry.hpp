#pragma once

/// \file telemetry.hpp
/// Master switch for the telemetry layer (metrics registry, event tracer,
/// LB introspection). Telemetry is always compiled in and starts OFF, so
/// a dormant probe costs one relaxed atomic load. It is switched on either
/// programmatically (set_enabled(true), what the `--telemetry` flags in
/// the examples do) or through the environment variable
/// `TLB_TELEMETRY=1`, read once on first query.

#include <atomic>

namespace tlb::obs {

namespace detail {
/// -1 = not yet resolved from the environment, 0 = off, 1 = on.
inline std::atomic<int> telemetry_state{-1};
/// Resolve the state from `TLB_TELEMETRY` (first query only).
[[nodiscard]] int resolve_from_env();
} // namespace detail

/// True when telemetry is switched on (programmatically or via
/// `TLB_TELEMETRY=1` in the environment). Hot paths may call this freely:
/// it is inline, a single relaxed atomic load after the first call (every
/// send and delivery asks).
[[nodiscard]] inline bool enabled() {
  int const state = detail::telemetry_state.load(std::memory_order_relaxed);
  if (state >= 0) {
    return state == 1;
  }
  return detail::resolve_from_env() == 1;
}

/// Switch telemetry on/off at runtime (overrides the environment).
void set_enabled(bool on);

} // namespace tlb::obs
