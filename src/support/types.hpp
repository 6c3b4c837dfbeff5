#pragma once

/// \file types.hpp
/// Fundamental vocabulary types shared by every module.

#include <cstdint>
#include <limits>

namespace tlb {

/// Logical rank (process) identifier inside the simulated job.
using RankId = std::int32_t;

/// Globally-unique migratable task (object) identifier.
using TaskId = std::int64_t;

/// Task/rank load in simulated seconds.
using LoadType = double;

inline constexpr RankId invalid_rank = -1;

/// The most ranks that input from outside a process may name: rank counts
/// may reach it and rank ids stay below it. 2^20 ranks (a million-rank
/// job) is far past any configuration the library runs; decoders reject
/// larger values before they size a buffer by them.
inline constexpr RankId kMaxRanks = RankId{1} << 20;
inline constexpr TaskId invalid_task = -1;

/// A single proposed or executed task relocation.
struct Migration {
  TaskId task = invalid_task;
  RankId from = invalid_rank;
  RankId to = invalid_rank;
  LoadType load = 0.0;

  friend bool operator==(Migration const&, Migration const&) = default;
};

} // namespace tlb
