#pragma once

/// \file telemetry.hpp
/// Master switch for the telemetry layer (metrics registry, event tracer,
/// LB introspection). Telemetry is always compiled in and starts OFF, so
/// a dormant probe costs one relaxed atomic load. It is switched on either
/// programmatically (set_enabled(true), what the `--telemetry` flags in
/// the examples do) or through the environment variable
/// `TLB_TELEMETRY=1`, read once on first query.

namespace tlb::obs {

/// True when telemetry is switched on (programmatically or via
/// `TLB_TELEMETRY=1` in the environment). Hot paths may call this freely:
/// it is a single relaxed atomic load after the first call.
[[nodiscard]] bool enabled();

/// Switch telemetry on/off at runtime (overrides the environment).
void set_enabled(bool on);

} // namespace tlb::obs
