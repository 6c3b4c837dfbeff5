#pragma once

/// \file check.hpp
/// The invariant auditor: machine-checked algebraic invariants woven
/// through the hot paths (CMF validity, criterion/objective monotonicity,
/// load/task conservation, termination-counter consistency).
///
/// Unlike the contract macros in assert.hpp — which are always on and
/// guard cheap API preconditions — auditor checks may be O(n) shadow
/// recomputations, so they compile out entirely unless the build enables
/// them (`-DTLB_AUDIT=ON`, which defines TLB_AUDIT_ENABLED=1). When
/// compiled in they can still be disabled at runtime with the environment
/// variable `TLB_AUDIT=0`, and redirected from abort-on-violation to a
/// count-and-continue mode (for tests that deliberately corrupt state and
/// assert the auditor fires) with `tlb::audit::set_mode`.
///
/// Usage:
///
///   TLB_INVARIANT(total_after == total_before,
///                 "task-count conservation across migrate");
///   TLB_AUDIT_BLOCK {
///     Cmf const fresh{kind, knowledge.entries(), l_ave, self};
///     TLB_INVARIANT(same_distribution(fresh, cmf), "reused CMF is current");
///   }
///
/// TLB_AUDIT_BLOCK guards expensive shadow computations: the block is
/// removed at compile time in non-audit builds and skipped at runtime when
/// the auditor is disabled via the environment.

#include <atomic>
#include <string>

#ifndef TLB_AUDIT_ENABLED
#define TLB_AUDIT_ENABLED 0
#endif

namespace tlb::audit {

/// What a failed invariant does.
enum class Mode {
  abort_process, ///< print and std::abort() (default: violations are bugs)
  count,         ///< record and continue (self-tests of the auditor)
};

/// True when auditing is compiled in AND not disabled via `TLB_AUDIT=0`.
[[nodiscard]] bool enabled();

void set_mode(Mode mode);
[[nodiscard]] Mode mode();

/// Violations recorded while in Mode::count.
[[nodiscard]] std::size_t violation_count();
void reset_violations();
/// Description of the most recent violation ("" if none).
[[nodiscard]] std::string last_violation();

/// Report a failed invariant. Called by TLB_INVARIANT; aborts or records
/// according to the active mode.
void report(char const* expr, char const* what, char const* file, int line);

/// Hook invoked once, after the violation is printed and immediately
/// before an abort-mode violation terminates the process — the flight
/// recorder's attachment point (obs::install_flight_recorder). Never
/// called in Mode::count. The hook must not throw: it runs on the abort
/// path. nullptr uninstalls.
using FailureHook = void (*)(char const* what);
void set_failure_hook(FailureHook hook);
[[nodiscard]] FailureHook failure_hook();

namespace detail {
/// RAII-free helper so `TLB_AUDIT_BLOCK { ... }` parses as an if-body.
[[nodiscard]] inline bool block_enabled() {
#if TLB_AUDIT_ENABLED
  return enabled();
#else
  return false;
#endif
}
} // namespace detail

} // namespace tlb::audit

#if TLB_AUDIT_ENABLED

#define TLB_INVARIANT(expr, what)                                              \
  ((expr) ? (void)0                                                            \
          : ::tlb::audit::report(#expr, what, __FILE__, __LINE__))

/// Guard for audit-only shadow computations; compiled out entirely in
/// non-audit builds, skipped at runtime when TLB_AUDIT=0.
#define TLB_AUDIT_BLOCK if (::tlb::audit::enabled())

#else

/// Non-audit builds: the condition stays inside an unevaluated operand so
/// it is still parsed and type-checked (and its operands count as used),
/// but generates no code.
#define TLB_INVARIANT(expr, what) ((void)sizeof(!(expr)))
#define TLB_AUDIT_BLOCK if constexpr (false)

#endif
