#include "workload/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/json_in.hpp"
#include "support/assert.hpp"

namespace tlb::workload {

std::uint64_t scenario_stream_tag(std::string_view name) {
  std::uint64_t h = 0xcbf29ce484222325ull; // FNV-1a 64 offset basis
  for (char const c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x00000100000001b3ull; // FNV-1a 64 prime
  }
  return h;
}

std::uint64_t rank_stream_seed(std::uint64_t root_seed,
                               std::uint64_t scenario_tag, RankId rank) {
  Rng stream = Rng{root_seed}
                   .split(kWorkloadStreamTag)
                   .split(scenario_tag)
                   .split(static_cast<std::uint64_t>(rank));
  return stream();
}

namespace {

/// Common spec plumbing for the synthetic scenarios.
class SyntheticScenario : public Scenario {
public:
  explicit SyntheticScenario(ScenarioSpec spec) : spec_{std::move(spec)} {
    TLB_EXPECTS(spec_.num_ranks > 0);
    TLB_EXPECTS(spec_.phases > 0);
  }
  [[nodiscard]] std::string_view name() const override { return spec_.name; }
  [[nodiscard]] RankId num_ranks() const override { return spec_.num_ranks; }
  [[nodiscard]] std::size_t phases() const override { return spec_.phases; }

protected:
  ScenarioSpec spec_;
};

/// A Gaussian bump of extra work sliding across the (circular) rank space.
class HotspotScenario final : public SyntheticScenario {
public:
  explicit HotspotScenario(ScenarioSpec spec)
      : SyntheticScenario{std::move(spec)} {
    sigma_ = spec_.sigma > 0.0
                 ? spec_.sigma
                 : std::max(1.0, static_cast<double>(spec_.num_ranks) / 16.0);
    // Seed-derived starting center so two seeds give distinct trajectories.
    Rng stream{rank_stream_seed(spec_.seed, scenario_stream_tag(spec_.name),
                                spec_.num_ranks)};
    center0_ = stream.uniform(0.0, static_cast<double>(spec_.num_ranks));
  }

  [[nodiscard]] double intensity(std::uint64_t phase,
                                 RankId rank) const override {
    auto const p = static_cast<double>(spec_.num_ranks);
    double const center =
        std::fmod(center0_ + spec_.drift * static_cast<double>(phase), p);
    double d = std::fabs(static_cast<double>(rank) - center);
    d = std::min(d, p - d); // circular distance
    return 1.0 +
           spec_.amplitude * std::exp(-(d * d) / (2.0 * sigma_ * sigma_));
  }

private:
  double sigma_ = 1.0;
  double center0_ = 0.0;
};

/// Seasonal swing: the low half of the rank space swings above the mean
/// while the high half swings below, exactly periodic in `period` phases.
class PeriodicScenario final : public SyntheticScenario {
public:
  explicit PeriodicScenario(ScenarioSpec spec)
      : SyntheticScenario{std::move(spec)} {
    TLB_EXPECTS(spec_.period >= 2);
  }

  [[nodiscard]] double intensity(std::uint64_t phase,
                                 RankId rank) const override {
    double const angle = 2.0 * std::numbers::pi *
                         static_cast<double>(phase % spec_.period) /
                         static_cast<double>(spec_.period);
    double const side = rank < spec_.num_ranks / 2 ? 1.0 : -1.0;
    return std::max(0.05, 1.0 + spec_.amplitude * std::sin(angle) * side);
  }
};

/// Calm baseline punctuated by seed-scheduled bursts: each burst covers a
/// contiguous rank window for burst_len phases. The schedule is
/// precomputed over the spec horizon and wraps beyond it, keeping
/// intensity() pure for any phase.
class BurstyScenario final : public SyntheticScenario {
public:
  explicit BurstyScenario(ScenarioSpec spec)
      : SyntheticScenario{std::move(spec)} {
    TLB_EXPECTS(spec_.burst_width > 0);
    grid_.assign(spec_.phases *
                     static_cast<std::size_t>(spec_.num_ranks),
                 1.0);
    Rng schedule{rank_stream_seed(spec_.seed,
                                  scenario_stream_tag(spec_.name),
                                  spec_.num_ranks)};
    for (std::size_t p = 0; p < spec_.phases; ++p) {
      if (schedule.uniform() >= spec_.burst_prob) {
        continue;
      }
      auto const start = static_cast<RankId>(
          schedule.index(static_cast<std::size_t>(spec_.num_ranks)));
      auto const len = std::max<std::size_t>(1, spec_.burst_len);
      for (std::size_t dp = 0; dp < len && p + dp < spec_.phases; ++dp) {
        for (RankId dr = 0; dr < spec_.burst_width; ++dr) {
          auto const r = (start + dr) % spec_.num_ranks;
          grid_[(p + dp) * static_cast<std::size_t>(spec_.num_ranks) +
                static_cast<std::size_t>(r)] += spec_.amplitude;
        }
      }
    }
  }

  [[nodiscard]] double intensity(std::uint64_t phase,
                                 RankId rank) const override {
    auto const p = static_cast<std::size_t>(phase) % spec_.phases;
    return grid_[p * static_cast<std::size_t>(spec_.num_ranks) +
                 static_cast<std::size_t>(rank)];
  }

private:
  std::vector<double> grid_; ///< [phase][rank] intensity
};

/// A spatial gradient that steepens linearly over the run and saturates at
/// the horizon: each rank's series is linear in the phase until then —
/// the trend model's home turf, where persistence systematically lags.
class RampScenario final : public SyntheticScenario {
public:
  explicit RampScenario(ScenarioSpec spec)
      : SyntheticScenario{std::move(spec)} {}

  [[nodiscard]] double intensity(std::uint64_t phase,
                                 RankId rank) const override {
    double const progress =
        std::min(1.0, static_cast<double>(phase) /
                          static_cast<double>(spec_.phases - 1));
    double const frac =
        spec_.num_ranks > 1
            ? static_cast<double>(rank) /
                  static_cast<double>(spec_.num_ranks - 1)
            : 0.0;
    return 1.0 + spec_.amplitude * progress * frac;
  }
};

/// A trace field that must be a whole number in [lo, hi], checked before
/// any cast: a fraction, a non-finite or an out-of-range value throws.
[[nodiscard]] std::int64_t trace_integer(double value, double lo, double hi,
                                         char const* what) {
  if (!(value >= lo && value <= hi) || std::trunc(value) != value) {
    throw std::runtime_error(std::string{"trace scenario: bad "} + what);
  }
  return static_cast<std::int64_t>(value);
}

/// A trace load (or load sum) must be finite and non-negative.
[[nodiscard]] double trace_load(double value) {
  if (!std::isfinite(value) || value < 0.0) {
    throw std::runtime_error(
        "trace scenario: load is not finite and non-negative");
  }
  return value;
}

/// Replays per-rank loads reconstructed from a PhaseTimeline export.
class TraceScenario final : public Scenario {
public:
  TraceScenario(std::string name, RankId num_ranks,
                std::vector<std::vector<double>> loads)
      : name_{std::move(name)}, num_ranks_{num_ranks},
        loads_{std::move(loads)} {}

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] RankId num_ranks() const override { return num_ranks_; }
  [[nodiscard]] std::size_t phases() const override { return loads_.size(); }
  [[nodiscard]] double intensity(std::uint64_t phase,
                                 RankId rank) const override {
    auto const& row = loads_[static_cast<std::size_t>(phase) % loads_.size()];
    return row[static_cast<std::size_t>(rank)];
  }

private:
  std::string name_;
  RankId num_ranks_;
  std::vector<std::vector<double>> loads_;
};

} // namespace

std::unique_ptr<Scenario> make_scenario(ScenarioSpec spec) {
  if (spec.name == "hotspot") {
    return std::make_unique<HotspotScenario>(std::move(spec));
  }
  if (spec.name == "periodic") {
    return std::make_unique<PeriodicScenario>(std::move(spec));
  }
  if (spec.name == "bursty") {
    return std::make_unique<BurstyScenario>(std::move(spec));
  }
  if (spec.name == "ramp") {
    return std::make_unique<RampScenario>(std::move(spec));
  }
  throw std::invalid_argument("unknown scenario: " + spec.name);
}

std::vector<std::string_view> scenario_names() {
  return {"hotspot", "periodic", "bursty", "ramp"};
}

std::unique_ptr<Scenario> make_trace_scenario(std::string_view timeline_json,
                                              std::string name) {
  auto const doc = obs::parse_json(timeline_json);
  auto const& timeline = doc.at("timeline").array();
  if (timeline.empty()) {
    throw std::runtime_error("trace scenario: empty timeline");
  }
  std::vector<std::vector<double>> loads;
  loads.reserve(timeline.size());
  RankId num_ranks = 0;
  for (auto const& s : timeline) {
    if (!s.has("snapshot_ranks")) {
      throw std::runtime_error("trace scenario: sample without snapshot");
    }
    auto const ranks = static_cast<RankId>(
        trace_integer(s.at("snapshot_ranks").num(), 1.0, kMaxRanks,
                      "snapshot_ranks"));
    if (num_ranks == 0) {
      num_ranks = ranks;
    } else if (ranks != num_ranks) {
      throw std::runtime_error("trace scenario: inconsistent rank counts");
    }
    std::vector<double> row(static_cast<std::size_t>(ranks), 0.0);
    std::vector<bool> is_top(static_cast<std::size_t>(ranks), false);
    auto const& top = s.at("top_loads").array();
    for (auto const& entry : top) {
      auto const r = static_cast<std::size_t>(trace_integer(
          entry.at("rank").num(), 0.0, ranks - 1, "snapshot rank"));
      if (is_top[r]) {
        throw std::runtime_error("trace scenario: duplicate snapshot rank");
      }
      row[r] = trace_load(entry.at("load").num());
      is_top[r] = true;
    }
    // Spread the collapsed remainder evenly over the non-top ranks (the
    // top ranks are distinct and in range, so there are no more of them
    // than ranks).
    double const rest_sum = trace_load(s.at("rest_load_sum").num());
    auto const rest_count = row.size() - top.size();
    if (rest_count > 0) {
      double const rest_each = rest_sum / static_cast<double>(rest_count);
      for (std::size_t r = 0; r < row.size(); ++r) {
        if (!is_top[r]) {
          row[r] = rest_each;
        }
      }
    }
    loads.push_back(std::move(row));
  }
  // Normalize by the trace's mean per-rank load so intensities stay O(1)
  // regardless of the units the trace was recorded in.
  double total = 0.0;
  std::size_t cells = 0;
  for (auto const& row : loads) {
    for (double const l : row) {
      total += l;
    }
    cells += row.size();
  }
  if (!std::isfinite(total)) {
    throw std::runtime_error("trace scenario: total load overflows");
  }
  double const mean = total / static_cast<double>(cells);
  if (mean > 0.0) {
    for (auto& row : loads) {
      for (double& l : row) {
        l = std::max(1e-6, l / mean);
      }
    }
  }
  return std::make_unique<TraceScenario>(std::move(name), num_ranks,
                                         std::move(loads));
}

ScenarioWorkload::ScenarioWorkload(Scenario const& scenario,
                                   std::size_t tasks_per_rank,
                                   std::uint64_t root_seed, double base_load)
    : scenario_{&scenario}, tasks_per_rank_{tasks_per_rank} {
  TLB_EXPECTS(tasks_per_rank_ > 0);
  TLB_EXPECTS(base_load > 0.0);
  auto const ranks = static_cast<std::size_t>(scenario.num_ranks());
  auto const tag = scenario_stream_tag(scenario.name());
  weights_.reserve(ranks * tasks_per_rank_);
  for (std::size_t r = 0; r < ranks; ++r) {
    Rng stream{
        rank_stream_seed(root_seed, tag, static_cast<RankId>(r))};
    for (std::size_t i = 0; i < tasks_per_rank_; ++i) {
      // Gamma(2, base/2): mean base_load, mild right skew — tasks differ
      // but none dominates its rank.
      weights_.push_back(stream.gamma(2.0, base_load / 2.0));
    }
  }
}

double ScenarioWorkload::task_load(std::uint64_t phase, TaskId id) const {
  return weight(id) * scenario_->intensity(phase, home(id));
}

void ScenarioWorkload::populate(rt::ObjectStore& store,
                                std::size_t payload_bytes) const {
  for (std::size_t id = 0; id < weights_.size(); ++id) {
    store.create(home(static_cast<TaskId>(id)), static_cast<TaskId>(id),
                 std::make_unique<TaskPayload>(payload_bytes));
  }
}

lb::StrategyInput ScenarioWorkload::measure(std::uint64_t phase,
                                            rt::ObjectStore const& store)
    const {
  lb::StrategyInput input;
  auto const ranks = static_cast<std::size_t>(scenario_->num_ranks());
  TLB_EXPECTS(static_cast<std::size_t>(store.num_ranks()) == ranks);
  input.tasks.resize(ranks);
  for (std::size_t r = 0; r < ranks; ++r) {
    auto const ids = store.tasks_on(static_cast<RankId>(r));
    input.tasks[r].reserve(ids.size());
    for (TaskId const id : ids) {
      input.tasks[r].push_back({id, task_load(phase, id)});
    }
  }
  return input;
}

} // namespace tlb::workload
