#pragma once

/// \file alloc_counter.hpp
/// Heap-allocation counter for allocation pins. alloc_counter.cpp replaces
/// the global operator new/delete, plain and std::align_val_t alike, which
/// is process-wide: a test that links it gets a binary of its own, so the
/// override cannot perturb an allocation-sensitive sibling test.

#include <cstdint>

namespace tlb::test {

/// Zeroes the counter and starts counting operator-new calls.
void start_counting_allocations();

/// Stops counting; returns the calls seen since the last start.
[[nodiscard]] std::uint64_t stop_counting_allocations();

} // namespace tlb::test
