#include "obs/telemetry.hpp"

#include <cstdlib>
#include <cstring>

#include "obs/flight_recorder.hpp"

namespace tlb::obs {

int detail::resolve_from_env() {
  char const* const env = std::getenv("TLB_TELEMETRY");
  int const on =
      env != nullptr && std::strcmp(env, "0") != 0 ? 1 : 0;
  int expected = -1;
  // Another thread may have resolved (or set_enabled) concurrently; their
  // value wins.
  telemetry_state.compare_exchange_strong(expected, on,
                                          std::memory_order_relaxed);
  int const state = telemetry_state.load(std::memory_order_relaxed);
  if (state == 1) {
    install_flight_recorder();
  }
  return state;
}

void set_enabled(bool on) {
  detail::telemetry_state.store(on ? 1 : 0, std::memory_order_relaxed);
  if (on) {
    // Arm the invariant-failure trigger: telemetry on means there is a
    // black box worth dumping when an abort-mode violation fires.
    install_flight_recorder();
  }
}

} // namespace tlb::obs
