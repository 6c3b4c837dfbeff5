#pragma once

/// \file scenario.hpp
/// Deterministic time-varying workload scenarios — the load trajectories
/// the paper's problem statement is about (§I: "workloads with
/// time-varying imbalance"). A Scenario maps (phase, rank) to a relative
/// work intensity; ScenarioWorkload realizes that intensity over a fixed
/// population of migratable tasks whose per-task weights are seed-derived,
/// so a scenario run is exactly reproducible from (scenario spec, root
/// seed) alone.
///
/// Scenarios (make_scenario names in parentheses):
///   drifting hotspot ("hotspot")   — a Gaussian bump of extra work that
///     slides across the rank space a little every phase
///   seasonal swing   ("periodic")  — one half of the ranks swings above
///     the mean while the other swings below, on a fixed period
///   bursty shocks    ("bursty")    — calm baseline punctuated by
///     seed-scheduled multi-phase bursts on random rank windows
///   monotone ramp    ("ramp")      — a spatial gradient that steepens
///     monotonically over the run
///   trace replay     (make_trace_scenario) — replays per-rank loads
///     reconstructed from a PhaseTimeline JSON export's truncated
///     snapshots (top-k loads + evenly spread remainder)
///
/// Seeding discipline: all scenario randomness derives from the run's
/// single root seed via the dedicated workload stream split
/// (kWorkloadStreamTag), then a per-scenario split
/// (scenario_stream_tag(name)), then a per-rank split — mirroring the
/// fault plane's kFaultStreamTag idiom so workload draws can never
/// correlate with gossip, CMF, or fault streams.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "lb/strategy/strategy.hpp"
#include "runtime/object_store.hpp"
#include "support/rng.hpp"
#include "support/types.hpp"

namespace tlb::workload {

/// Stream tag reserved for deriving workload-generation RNGs from the root
/// seed (far outside the per-rank tags 0..P-1, distinct from
/// rt::kFaultStreamTag).
inline constexpr std::uint64_t kWorkloadStreamTag = 0x5ce0'0000'0000'0001ull;

/// Stream tag for deriving LB algorithm seeds (LbParams::seed) from a
/// run's root seed — replaces the ad-hoc `seed ^ ...` arithmetic examples
/// used to do.
inline constexpr std::uint64_t kLbSeedStreamTag = 0x5ce0'0000'0000'0002ull;

/// FNV-1a of a scenario name: the per-scenario split tag, so two scenarios
/// built from the same root seed draw from decorrelated streams.
[[nodiscard]] std::uint64_t scenario_stream_tag(std::string_view name);

/// Seed of the (root, scenario, rank) workload stream. Exposed so tests
/// can assert distinct streams per (scenario, rank) pair.
[[nodiscard]] std::uint64_t rank_stream_seed(std::uint64_t root_seed,
                                             std::uint64_t scenario_tag,
                                             RankId rank);

/// Parameters shared by the synthetic scenarios. Knobs a given scenario
/// does not use are ignored.
struct ScenarioSpec {
  std::string name = "hotspot";
  RankId num_ranks = 64;
  /// Nominal horizon. Synthetic scenarios remain defined past it (bursty
  /// wraps its schedule; ramp saturates), so longer runs are fine.
  std::size_t phases = 32;
  std::uint64_t seed = 0x5eedf00dull;
  /// Peak extra intensity on top of the 1.0 baseline.
  double amplitude = 3.0;
  /// hotspot: Gaussian width in ranks (0 → num_ranks/16).
  double sigma = 0.0;
  /// hotspot: ranks the center moves per phase.
  double drift = 1.5;
  /// periodic: phases per full swing cycle.
  std::size_t period = 8;
  /// bursty: per-phase probability a new burst starts.
  double burst_prob = 0.15;
  /// bursty: phases a burst lasts.
  std::size_t burst_len = 4;
  /// bursty: ranks a burst covers.
  RankId burst_width = 8;
};

/// A deterministic map from (phase, rank) to relative work intensity.
/// intensity() must be pure: same arguments, same value, forever — the
/// policy golden tests pin decision sequences derived from it.
class Scenario {
public:
  Scenario() = default;
  virtual ~Scenario() = default;
  Scenario(Scenario const&) = delete;
  Scenario& operator=(Scenario const&) = delete;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual RankId num_ranks() const = 0;
  /// Nominal phase horizon (trace length for replays).
  [[nodiscard]] virtual std::size_t phases() const = 0;
  /// Relative work intensity of rank `rank` during phase `phase`; always
  /// > 0 (1.0 is the calm baseline for the synthetic scenarios).
  [[nodiscard]] virtual double intensity(std::uint64_t phase,
                                         RankId rank) const = 0;
};

/// Build a synthetic scenario: "hotspot", "periodic", "bursty", or
/// "ramp". Throws std::invalid_argument for unknown names.
[[nodiscard]] std::unique_ptr<Scenario> make_scenario(ScenarioSpec spec);

/// Names accepted by make_scenario.
[[nodiscard]] std::vector<std::string_view> scenario_names();

/// Build a trace-replay scenario from a PhaseTimeline JSON export (the
/// {"timeline": [...]} document). Per-rank loads are reconstructed from
/// each sample's truncated snapshot: top-k ranks verbatim, the remainder
/// spread evenly over the other ranks, everything normalized by the
/// trace's mean per-rank load so intensities stay O(1). Phases beyond the
/// trace wrap around (the replay loops). Throws std::runtime_error on
/// malformed input, samples without snapshots, or a rank count above
/// kMaxRanks (checked before any per-rank row is allocated).
[[nodiscard]] std::unique_ptr<Scenario>
make_trace_scenario(std::string_view timeline_json,
                    std::string name = "trace");

/// Minimal migratable payload for scenario tasks: carries only its modeled
/// wire size, so migration traffic is accounted without real data.
class TaskPayload final : public rt::Migratable {
public:
  explicit TaskPayload(std::size_t bytes) : bytes_{bytes} {}
  [[nodiscard]] std::size_t wire_bytes() const override { return bytes_; }

private:
  std::size_t bytes_;
};

/// A scenario realized over a fixed population of tasks. Every rank is
/// home to `tasks_per_rank` tasks (task id = home * tasks_per_rank + i)
/// whose base weights are drawn once, at construction, from the
/// (root, scenario, home-rank) stream. A task's load during phase p is
/// weight * intensity(p, home) — the work follows the task's *home
/// region*, so migrating the task moves that work to another rank. The
/// population never changes; only the placement (tracked by an
/// ObjectStore) and the per-phase intensities do.
class ScenarioWorkload {
public:
  /// \param base_load Mean task weight in simulated seconds.
  ScenarioWorkload(Scenario const& scenario, std::size_t tasks_per_rank,
                   std::uint64_t root_seed, double base_load = 1.0);

  [[nodiscard]] Scenario const& scenario() const { return *scenario_; }
  [[nodiscard]] std::size_t tasks_per_rank() const { return tasks_per_rank_; }
  [[nodiscard]] std::size_t num_tasks() const { return weights_.size(); }

  [[nodiscard]] RankId home(TaskId id) const {
    return static_cast<RankId>(static_cast<std::size_t>(id) /
                               tasks_per_rank_);
  }
  [[nodiscard]] double weight(TaskId id) const {
    return weights_[static_cast<std::size_t>(id)];
  }
  /// Measured load of one task during `phase`.
  [[nodiscard]] double task_load(std::uint64_t phase, TaskId id) const;

  /// Register the whole population on its home ranks.
  void populate(rt::ObjectStore& store, std::size_t payload_bytes) const;

  /// Build the per-rank measured task lists for `phase` from the store's
  /// current placement (tasks stay where the last migration put them).
  [[nodiscard]] lb::StrategyInput measure(std::uint64_t phase,
                                          rt::ObjectStore const& store) const;

private:
  Scenario const* scenario_;
  std::size_t tasks_per_rank_;
  std::vector<double> weights_; ///< indexed by task id
};

} // namespace tlb::workload
