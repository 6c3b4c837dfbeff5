// Fixture: no-removed-gate also covers bench/, tests/ and examples/, where
// the src/-scoped rules stay silent (the mutex below is not flagged).
#include <mutex>

std::mutex bench_lock;
#if TLB_FAULT_ENABLED // line 6: no-removed-gate
int fault_linked = 1;
#endif
