// Fixture: no-removed-gate catches every directive shape that names one of
// the removed compile gates, but not prose, string literals, longer
// identifiers, or a suppressed line.
#if TLB_TELEMETRY_ENABLED
int traced = 1;
#endif
#ifndef TLB_FAULT_ENABLED         // line 7: #ifndef
#define TLB_FAULT_ENABLED 0       // line 8: the old off-mode fallback
#endif
#if !TLB_STRICT_SBO_ENABLED && defined(TLB_AUDIT_ENABLED) // line 10
int audited = 1;
#endif
// Prose may still name TLB_TELEMETRY_ENABLED, as this comment does.
char const* note = "and a string may name TLB_FAULT_ENABLED";
#if TLB_FAULT_ENABLED // tlb-lint: allow(no-removed-gate)
int suppressed = 1;
#endif
int TLB_TELEMETRY_ENABLED_count = 0; // clean: identifier boundary
