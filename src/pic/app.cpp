#include "pic/app.hpp"

#include <algorithm>
#include <limits>

#include "support/assert.hpp"
#include "support/stats.hpp"

namespace tlb::pic {

namespace {

rt::RuntimeConfig runtime_config(PicConfig const& config, Mesh const& mesh) {
  rt::RuntimeConfig cfg;
  cfg.num_ranks = mesh.num_ranks();
  cfg.num_threads = config.runtime_threads;
  // Derive the runtime's stream from the app's root seed instead of
  // reusing it: the app-level Rng and the per-rank runtime Rngs must
  // never walk the same sequence.
  cfg.seed = derive_seed(config.seed, 0x9e37'0000'0000'091cull);
  return cfg;
}

} // namespace

PicApp::PicApp(PicConfig config)
    : config_{std::move(config)}, mesh_{config_.mesh},
      runtime_{runtime_config(config_, mesh_)},
      store_{mesh_.num_ranks()},
      instrumentation_{mesh_.num_ranks()},
      scenario_{config_.bdot},
      rng_{config_.seed} {
  TLB_EXPECTS(config_.steps > 0);
  TLB_EXPECTS(config_.first_lb_step >= 0);
  TLB_EXPECTS(config_.lb_period > 0);
  TLB_EXPECTS(config_.lb_trigger_cooldown >= 0);
  // Create every color on its SPMD home rank (Fig. 1b).
  for (ColorId c = 0; c < mesh_.num_colors(); ++c) {
    store_.create(mesh_.home_rank_of_color(c), c,
                  std::make_unique<ColorChunk>(c, mesh_.cells_per_color()));
  }
  bool const balancing =
      config_.mode == ExecutionMode::amt && config_.strategy != "none";
  if (balancing) {
    lb_manager_ = std::make_unique<lb::LbManager>(runtime_, config_.strategy,
                                                  config_.lb_params);
    if (config_.policy.empty()) {
      trigger_policy_ = std::make_unique<policy::PeriodicPolicy>(
          static_cast<std::uint64_t>(config_.first_lb_step),
          static_cast<std::uint64_t>(config_.lb_period),
          config_.lb_trigger_imbalance,
          static_cast<std::uint64_t>(config_.lb_trigger_cooldown));
    } else {
      trigger_policy_ = policy::make_policy(config_.policy);
    }
  }
}

ColorChunk& PicApp::chunk(ColorId color) {
  auto* payload = store_.find(store_.owner(color), color);
  TLB_ASSERT(payload != nullptr);
  return *static_cast<ColorChunk*>(payload);
}

ColorChunk const& PicApp::chunk(ColorId color) const {
  auto const* payload = store_.find(store_.owner(color), color);
  TLB_ASSERT(payload != nullptr);
  return *static_cast<ColorChunk const*>(payload);
}

RankId PicApp::owner_of(ColorId color) const { return store_.owner(color); }

std::size_t PicApp::particles_in(ColorId color) const {
  return chunk(color).particles().size();
}

std::size_t PicApp::total_particles() const {
  std::size_t n = 0;
  for (ColorId c = 0; c < mesh_.num_colors(); ++c) {
    n += particles_in(c);
  }
  return n;
}

void PicApp::inject(int step) {
  int const n = scenario_.count(step);
  double const lx = mesh_.domain_x();
  double const ly = mesh_.domain_y();
  for (int i = 0; i < n; ++i) {
    auto const p = scenario_.draw(step, lx, ly, rng_);
    ColorId const c = mesh_.color_of_position(p.x, p.y);
    chunk(c).particles().add(p.x, p.y, p.vx, p.vy);
  }
}

double PicApp::particle_phase(std::vector<double>& rank_work) {
  double const factor = config_.mode == ExecutionMode::amt
                            ? 1.0 + config_.work.amt_particle_overhead
                            : 1.0;
  double max_task = 0.0;
  double const lx = mesh_.domain_x();
  double const ly = mesh_.domain_y();
  if (prev_color_work_.empty()) {
    prev_color_work_.assign(static_cast<std::size_t>(mesh_.num_colors()),
                            0.0);
  }
  for (ColorId c = 0; c < mesh_.num_colors(); ++c) {
    ColorChunk& color = chunk(c);
    auto const n = color.particles().size();
    color.particles().push(1.0, lx, ly);
    double const work =
        factor * (config_.work.alpha * static_cast<double>(n) +
                  config_.work.beta * color.cells());
    RankId const rank = store_.owner(c);
    instrumentation_.record(rank, c, work);
    rank_work[static_cast<std::size_t>(rank)] += work;
    max_task = std::max(max_task, work);
  }
  return max_task;
}

void PicApp::exchange(StepMetrics& metrics) {
  // Rebin particles whose push moved them out of their color's sub-block.
  // A particle still inside its color's cell rectangle stays without a
  // color lookup; any other takes color_of_position (and its clamp).
  // Index loop with remove_swap: on a move, the swapped-in particle takes
  // slot i, so i is not advanced.
  for (ColorId c = 0; c < mesh_.num_colors(); ++c) {
    Particles& particles = chunk(c).particles();
    RankId const owner = store_.owner(c);
    CellRect const cells = mesh_.color_cells(c);
    double const x0 = cells.x0;
    double const x1 = cells.x1;
    double const y0 = cells.y0;
    double const y1 = cells.y1;
    std::size_t i = 0;
    while (i < particles.size()) {
      double const x = particles.x(i);
      double const y = particles.y(i);
      if (x >= x0 && x < x1 && y >= y0 && y < y1) {
        ++i;
        continue;
      }
      ColorId const target = mesh_.color_of_position(x, y);
      if (target == c) {
        ++i;
        continue;
      }
      ++metrics.exchanged;
      if (store_.owner(target) != owner) {
        ++metrics.remote_exchanged;
      }
      chunk(target).particles().take_from(particles, i);
    }
  }
}

RunResult PicApp::run() {
  RunResult result;
  result.steps.reserve(static_cast<std::size_t>(config_.steps));
  auto const p = static_cast<std::size_t>(mesh_.num_ranks());
  double const nonparticle_factor =
      config_.mode == ExecutionMode::amt
          ? 1.0 + config_.work.amt_nonparticle_overhead
          : 1.0;
  double const t_n_step = nonparticle_factor * config_.work.gamma *
                          static_cast<double>(mesh_.cells_per_rank());

  for (int step = 0; step < config_.steps; ++step) {
    inject(step);

    StepMetrics metrics;
    metrics.step = step;
    metrics.t_nonparticle = t_n_step;

    std::vector<double> rank_work(p, 0.0);
    metrics.max_task_load = particle_phase(rank_work);

    // Persistence quality: how well last phase's per-color loads predict
    // this phase's (the LB's operating assumption, §III-B).
    {
      double diff = 0.0;
      double total = 0.0;
      for (ColorId c = 0; c < mesh_.num_colors(); ++c) {
        auto const ci = static_cast<std::size_t>(c);
        double const current =
            config_.work.alpha *
                static_cast<double>(chunk(c).particles().size()) +
            config_.work.beta * chunk(c).cells();
        diff += std::abs(current - prev_color_work_[ci]);
        total += current;
        prev_color_work_[ci] = current;
      }
      metrics.persistence_error = total > 0.0 ? diff / total : 0.0;
    }

    exchange(metrics);

    auto const summary = summarize(rank_work);
    metrics.t_particle = summary.max;
    metrics.max_rank_load = summary.max;
    metrics.min_rank_load = summary.min;
    metrics.avg_rank_load = summary.mean;
    metrics.imbalance = summary.imbalance();
    metrics.total_particles = total_particles();

    instrumentation_.start_phase();

    if (trigger_policy_ != nullptr) {
      // The policy sees every step's measured loads and decides; the
      // WorkModel's LB coefficients price each invocation (t_lb) and are
      // the cost a cost/benefit policy weighs its forecast gain against.
      auto const input =
          lb::LbManager::gather_input(instrumentation_, mesh_.num_ranks());
      lb::LbCostModel const cost_model{config_.work.lb_per_message,
                                       config_.work.lb_per_byte,
                                       config_.work.migration_per_byte, 0.0};
      auto const outcome = lb_manager_->invoke_if_beneficial(
          input, store_, *trigger_policy_, cost_model);
      if (outcome.invoked) {
        metrics.migrations = outcome.report.cost.migration_count;
        metrics.t_lb = outcome.lb_cost_seconds;
        result.totals.migrations += outcome.report.cost.migration_count;
        result.totals.migration_bytes +=
            outcome.report.migration_payload_bytes;
      }
    }

    metrics.t_step =
        metrics.t_particle + metrics.t_nonparticle + metrics.t_lb;
    result.totals.t_particle += metrics.t_particle;
    result.totals.t_nonparticle += metrics.t_nonparticle;
    result.totals.t_lb += metrics.t_lb;
    result.totals.t_total += metrics.t_step;
    result.totals.exchanged += metrics.exchanged;
    result.totals.remote_exchanged += metrics.remote_exchanged;
    result.steps.push_back(metrics);
  }
  return result;
}

} // namespace tlb::pic
