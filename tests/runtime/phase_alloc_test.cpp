/// \file phase_alloc_test.cpp
/// Pins the phase instrumentation's steady state at zero heap allocations:
/// once the first phase has grown every per-rank vector, a loop shaped
/// like PicApp's (one record() per task in id order, then start_phase())
/// reuses those capacities. Own binary: the allocation counter overrides
/// the global operator new.

#include <gtest/gtest.h>

#include "../support/alloc_counter.hpp"
#include "runtime/phase.hpp"
#include "support/rng.hpp"

namespace tlb::rt {
namespace {

TEST(PhaseAllocTest, SteadyStatePhasesDoNotAllocate) {
  constexpr RankId ranks = 16;
  constexpr TaskId tasks = 384;
  PhaseInstrumentation inst{ranks};
  // A scattered placement, as after a few LB invocations.
  std::vector<RankId> owner(static_cast<std::size_t>(tasks));
  Rng rng{17};
  for (RankId& r : owner) {
    r = static_cast<RankId>(rng.uniform_below(ranks));
  }
  auto run_phase = [&] {
    for (TaskId t = 0; t < tasks; ++t) {
      inst.record(owner[static_cast<std::size_t>(t)], t,
                  rng.uniform(0.0, 1.0));
    }
    inst.start_phase();
  };

  run_phase(); // warm-up: grows the record and folded vectors
  test::start_counting_allocations();
  for (int phase = 0; phase < 8; ++phase) {
    run_phase();
  }
  EXPECT_EQ(test::stop_counting_allocations(), 0u)
      << "steady-state phases must reuse the per-rank capacities";
  EXPECT_EQ(inst.phase(), 9u);
}

} // namespace
} // namespace tlb::rt
