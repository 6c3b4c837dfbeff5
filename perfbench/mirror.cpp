#include "mirror.hpp"

#include <algorithm>
#include <memory>
#include <optional>

#include "lb/strategy/lb_manager.hpp"
#include "obs/lb_report.hpp"
#include "pic/bdot.hpp"
#include "pic/color_chunk.hpp"
#include "pic/mesh.hpp"
#include "policy/trigger_policy.hpp"
#include "runtime/object_store.hpp"
#include "runtime/phase.hpp"
#include "runtime/runtime.hpp"
#include "support/assert.hpp"
#include "support/stats.hpp"
#include "workload/scenario.hpp"

namespace perfbench {

using namespace tlb;

namespace {

/// PicApp derives its runtime's seed from its root seed with this stream
/// tag (src/pic/app.cpp); the self-test fails if the two ever disagree.
constexpr std::uint64_t kPicRuntimeStreamTag = 0x9e37'0000'0000'091cull;

/// Calls of an operation too cheap to time one at a time: all of them
/// counted, some timed. Their host time is estimated as the sampled mean
/// scaled by the exact call count.
struct Tally {
  std::uint64_t calls = 0;
  std::uint64_t samples = 0;
  double sampled_s = 0.0;

  [[nodiscard]] double estimate_s() const {
    return samples > 0 ? sampled_s / static_cast<double>(samples) *
                             static_cast<double>(calls)
                       : 0.0;
  }
  [[nodiscard]] Tally operator-(Tally const& earlier) const {
    return {calls - earlier.calls, samples - earlier.samples,
            sampled_s - earlier.sampled_s};
  }
  Tally& operator+=(Tally const& more) {
    calls += more.calls;
    samples += more.samples;
    sampled_s += more.sampled_s;
    return *this;
  }
};

/// Counts every call through it and, when tracing, times every 64th.
class SampledProbe {
public:
  explicit SampledProbe(bool traced) : traced_{traced} {}

  template <class Op> auto operator()(Op&& op) {
    ++tally_.calls;
    if (!traced_ || tally_.calls % kEvery != 0) {
      return op();
    }
    // An empty interval read in the same spot prices the clock itself.
    auto const before = Clock::now();
    auto const start = Clock::now();
    auto const result = op();
    auto const end = Clock::now();
    tally_.sampled_s += std::chrono::duration<double>(
                            (end - start) - (start - before))
                            .count();
    ++tally_.samples;
    return result;
  }

  [[nodiscard]] Tally const& tally() const { return tally_; }

private:
  static constexpr std::uint64_t kEvery = 64;
  bool traced_;
  Tally tally_;
};

/// Adds the host time of `op` to `acc` when tracing.
template <class Op> void timed(bool traced, double& acc, Op&& op) {
  if (!traced) {
    op();
    return;
  }
  auto const start = Clock::now();
  op();
  acc += seconds_since(start);
}

/// One LB invocation as LbManager::invoke runs it: the strategy decides,
/// then the object store commits the migrations.
struct Commit {
  lb::StrategyResult result;
  std::size_t migration_bytes = 0;
};

Commit invoke_lb(lb::Strategy& strategy, lb::LbParams const& params,
                 rt::Runtime& runtime, rt::ObjectStore& store,
                 lb::StrategyInput const& input, bool traced,
                 MirrorRun& out) {
  LayerTrace& trace = out.trace;
  std::optional<obs::LbReportBuilder> builder;
  if (traced) {
    builder.emplace();
    strategy.set_introspection(&*builder);
  }
  auto const start = Clock::now();
  Commit commit{strategy.balance(runtime, input, params), 0};
  double const decided = seconds_since(start);
  commit.migration_bytes = store.migrate(runtime, commit.result.migrations);
  double const pause = seconds_since(start);
  out.lb_pause_s.push_back(pause);

  ++trace.lb_invocations;
  trace.aborted_rounds += commit.result.aborted_rounds;
  trace.failed_migrations += store.failed_migrations().size();
  trace.imbalance_after_sum += commit.result.achieved_imbalance;
  if (builder) {
    strategy.set_introspection(nullptr);
    trace.lb_decide_s += decided;
    trace.store_migrate_s += pause - decided;
    auto const report = builder->finish(trace.lb_invocations - 1);
    trace.transfers_accepted += report.transfers_accepted;
    trace.transfers_attempted += report.transfers_accepted +
                                 report.transfers_rejected +
                                 report.transfers_no_target;
    trace.cmf_rebuilds += report.cmf_rebuilds;
    for (auto const& round : report.rounds) {
      trace.gossip_deliveries += round.messages;
      trace.knowledge_sum +=
          round.knowledge_avg * static_cast<double>(round.messages);
    }
  }
  return commit;
}

/// Every task resident on exactly one rank, agreeing with the directory.
void check_store(rt::ObjectStore const& store, std::size_t expected,
                 std::vector<std::string>& problems) {
  std::size_t resident = 0;
  bool agrees = true;
  for (RankId r = 0; r < store.num_ranks(); ++r) {
    for (TaskId const id : store.tasks_on(r)) {
      ++resident;
      agrees = agrees && store.owner(id) == r;
    }
  }
  if (store.total_tasks() != expected || resident != expected || !agrees) {
    problems.emplace_back("store: a task is not owned by exactly one rank");
  }
}

/// Inclusive host time of one section of the pic step loop and the sampled
/// calls it made, from which its self time follows. Lookups are costed per
/// section: the particle loops walk colors in id order, the exchange jumps
/// to random target colors, and the two differ in cache behaviour.
struct Section {
  double inclusive_s = 0.0;
  Tally lookups;
  Tally records;

  [[nodiscard]] double self_s() const {
    return inclusive_s - lookups.estimate_s() - records.estimate_s();
  }
};

/// PicApp::run, rebuilt (AMT mode, periodic LB schedule).
class PicMirror {
public:
  PicMirror(pic::PicConfig const& config, bool traced)
      : config_{config}, traced_{traced}, mesh_{config.mesh},
        runtime_{runtime_config(config, mesh_)}, store_{mesh_.num_ranks()},
        instrumentation_{mesh_.num_ranks()},
        strategy_{lb::make_strategy(config.strategy)},
        scenario_{config.bdot}, rng_{config.seed}, lookup_{traced},
        record_{traced} {
    TLB_EXPECTS(config_.mode == pic::ExecutionMode::amt);
    TLB_EXPECTS(config_.policy.empty() && config_.lb_trigger_imbalance == 0.0);
    for (pic::ColorId c = 0; c < mesh_.num_colors(); ++c) {
      store_.create(mesh_.home_rank_of_color(c), c,
                    std::make_unique<pic::ColorChunk>(
                        c, mesh_.cells_per_color()));
    }
  }

  MirrorRun run();

private:
  static rt::RuntimeConfig runtime_config(pic::PicConfig const& config,
                                          pic::Mesh const& mesh) {
    rt::RuntimeConfig cfg;
    cfg.num_ranks = mesh.num_ranks();
    cfg.num_threads = config.runtime_threads;
    cfg.seed = derive_seed(config.seed, kPicRuntimeStreamTag);
    return cfg;
  }

  RankId owner(pic::ColorId c) {
    return lookup_([&] { return store_.owner(c); });
  }
  pic::ColorChunk& chunk(pic::ColorId c) {
    RankId const rank = owner(c);
    auto* payload = lookup_([&] { return store_.find(rank, c); });
    TLB_ASSERT(payload != nullptr);
    return *static_cast<pic::ColorChunk*>(payload);
  }

  template <class Op> void section(Section& s, Op&& op) {
    if (!traced_) {
      op();
      return;
    }
    Tally const lookups = lookup_.tally();
    Tally const records = record_.tally();
    auto const start = Clock::now();
    op();
    s.inclusive_s += seconds_since(start);
    s.lookups += lookup_.tally() - lookups;
    s.records += record_.tally() - records;
  }

  void inject(int step);
  void particle_phase(std::vector<double>& rank_work);
  void persistence();
  void exchange(std::size_t& exchanged, std::size_t& remote);
  std::size_t total_particles();
  [[nodiscard]] bool is_lb_step(int step) const {
    return step == config_.first_lb_step ||
           (step > config_.first_lb_step && step % config_.lb_period == 0);
  }

  pic::PicConfig config_;
  bool traced_;
  pic::Mesh mesh_;
  rt::Runtime runtime_;
  rt::ObjectStore store_;
  rt::PhaseInstrumentation instrumentation_;
  std::unique_ptr<lb::Strategy> strategy_;
  pic::BDotScenario scenario_;
  Rng rng_;
  std::vector<double> prev_color_work_;
  SampledProbe lookup_;
  SampledProbe record_;
};

void PicMirror::inject(int step) {
  int const n = scenario_.count(step);
  double const lx = mesh_.domain_x();
  double const ly = mesh_.domain_y();
  for (int i = 0; i < n; ++i) {
    auto const p = scenario_.draw(step, lx, ly, rng_);
    pic::ColorId const c = mesh_.color_of_position(p.x, p.y);
    chunk(c).particles().add(p.x, p.y, p.vx, p.vy);
  }
}

void PicMirror::particle_phase(std::vector<double>& rank_work) {
  double const factor = 1.0 + config_.work.amt_particle_overhead;
  double const lx = mesh_.domain_x();
  double const ly = mesh_.domain_y();
  if (prev_color_work_.empty()) {
    prev_color_work_.assign(static_cast<std::size_t>(mesh_.num_colors()),
                            0.0);
  }
  for (pic::ColorId c = 0; c < mesh_.num_colors(); ++c) {
    pic::ColorChunk& color = chunk(c);
    auto const n = color.particles().size();
    color.particles().push(1.0, lx, ly);
    double const work =
        factor * (config_.work.alpha * static_cast<double>(n) +
                  config_.work.beta * color.cells());
    RankId const rank = owner(c);
    record_([&] {
      instrumentation_.record(rank, c, work);
      return 0;
    });
    rank_work[static_cast<std::size_t>(rank)] += work;
  }
}

// PicApp's per-step persistence metric: its result is not part of the
// totals, but its lookups and writes are part of the step's cost.
void PicMirror::persistence() {
  for (pic::ColorId c = 0; c < mesh_.num_colors(); ++c) {
    auto const ci = static_cast<std::size_t>(c);
    double const current =
        config_.work.alpha *
            static_cast<double>(chunk(c).particles().size()) +
        config_.work.beta * chunk(c).cells();
    prev_color_work_[ci] = current;
  }
}

void PicMirror::exchange(std::size_t& exchanged, std::size_t& remote) {
  for (pic::ColorId c = 0; c < mesh_.num_colors(); ++c) {
    pic::Particles& particles = chunk(c).particles();
    RankId const home = owner(c);
    std::size_t i = 0;
    while (i < particles.size()) {
      pic::ColorId const target =
          mesh_.color_of_position(particles.x(i), particles.y(i));
      if (target == c) {
        ++i;
        continue;
      }
      ++exchanged;
      if (owner(target) != home) {
        ++remote;
      }
      chunk(target).particles().take_from(particles, i);
    }
  }
}

std::size_t PicMirror::total_particles() {
  std::size_t n = 0;
  for (pic::ColorId c = 0; c < mesh_.num_colors(); ++c) {
    n += chunk(c).particles().size();
  }
  return n;
}

MirrorRun PicMirror::run() {
  MirrorRun out;
  LayerTrace& trace = out.trace;
  SimOutcome& sim = out.sim;
  auto const p = static_cast<std::size_t>(mesh_.num_ranks());
  pic::WorkModel const& work = config_.work;
  double const t_n_step = (1.0 + work.amt_nonparticle_overhead) *
                          work.gamma *
                          static_cast<double>(mesh_.cells_per_rank());
  Section inject_s;
  Section push_s;
  Section exchange_s;
  double t_particle = 0.0;
  double t_nonparticle = 0.0;
  double imbalance_sum = 0.0;

  auto const start = Clock::now();
  for (int step = 0; step < config_.steps; ++step) {
    section(inject_s, [&] { inject(step); });

    std::vector<double> rank_work(p, 0.0);
    section(push_s, [&] {
      particle_phase(rank_work);
      persistence();
    });

    std::size_t exchanged = 0;
    std::size_t remote = 0;
    LoadSummary summary;
    section(exchange_s, [&] {
      exchange(exchanged, remote);
      summary = summarize(rank_work);
      sim.particles = total_particles();
    });
    imbalance_sum += summary.imbalance();
    trace.sim_wait_s += summary.max - summary.mean;

    timed(traced_, trace.instr_gather_s,
          [&] { instrumentation_.start_phase(); });
    bool invoke = false;
    timed(traced_, trace.policy_decide_s, [&] { invoke = is_lb_step(step); });
    double t_lb = 0.0;
    if (invoke) {
      lb::StrategyInput input;
      timed(traced_, trace.instr_gather_s, [&] {
        input = lb::LbManager::gather_input(instrumentation_,
                                            mesh_.num_ranks());
      });
      auto const commit = invoke_lb(*strategy_, config_.lb_params, runtime_,
                                    store_, input, traced_, out);
      auto const& cost = commit.result.cost;
      t_lb = work.lb_per_message * static_cast<double>(cost.lb_messages) +
             work.lb_per_byte * static_cast<double>(cost.lb_bytes) +
             work.migration_per_byte *
                 static_cast<double>(commit.migration_bytes);
      trace.sim_lb_protocol_s +=
          work.lb_per_message * static_cast<double>(cost.lb_messages) +
          work.lb_per_byte * static_cast<double>(cost.lb_bytes);
      trace.sim_lb_migration_s +=
          work.migration_per_byte *
          static_cast<double>(commit.migration_bytes);
      sim.migrations += cost.migration_count;
      sim.migration_bytes += commit.migration_bytes;
      ++trace.policy_invocations;
    }
    ++trace.policy_decisions;
    sim.decisions += invoke ? 'I' : 'S';

    t_particle += summary.max;
    t_nonparticle += t_n_step;
    sim.t_lb += t_lb;
    sim.t_total += summary.max + t_n_step + t_lb;
    sim.exchanged += exchanged;
    sim.remote_exchanged += remote;
  }
  out.wall_s = seconds_since(start);

  sim.t_work = t_particle + t_nonparticle;
  sim.mean_imbalance = imbalance_sum / static_cast<double>(config_.steps);
  trace.pic_inject_s = inject_s.self_s();
  trace.pic_push_s = push_s.self_s();
  trace.pic_exchange_s = exchange_s.self_s();
  trace.store_lookups = lookup_.tally().calls;
  trace.store_lookup_samples = lookup_.tally().samples;
  trace.store_lookup_s = inject_s.lookups.estimate_s() +
                         push_s.lookups.estimate_s() +
                         exchange_s.lookups.estimate_s();
  trace.instr_records = record_.tally().calls;
  trace.instr_record_samples = record_.tally().samples;
  trace.instr_record_s = push_s.records.estimate_s();
  trace.migrations = store_.migration_count();
  trace.migration_bytes = store_.migration_bytes();
  trace.tasks = static_cast<std::uint64_t>(mesh_.num_colors());
  trace.particles = sim.particles;
  trace.exchanged = sim.exchanged;
  trace.remote_exchanged = sim.remote_exchanged;
  trace.net = runtime_.stats();

  if (sim.particles != injected_particles(config_)) {
    out.problems.emplace_back("pic: particles not conserved");
  }
  check_store(store_, static_cast<std::size_t>(mesh_.num_colors()),
              out.problems);
  return out;
}

void add_traffic(rt::NetworkStatsSnapshot& into,
                 rt::NetworkStatsSnapshot const& more) {
  into.messages += more.messages;
  into.bytes += more.bytes;
  for (std::size_t k = 0; k < rt::num_message_kinds; ++k) {
    into.kind_messages[k] += more.kind_messages[k];
    into.kind_bytes[k] += more.kind_bytes[k];
  }
  into.coalesced_flushes += more.coalesced_flushes;
  into.max_mailbox_depth =
      std::max(into.max_mailbox_depth, more.max_mailbox_depth);
}

// workload::run_policy_sim, rebuilt, for one instance; its host time and
// layer trace accumulate into `out`. LbManager::invoke_if_beneficial is
// inlined as the policy decision, the LB invocation and the outcome
// feedback.
SimOutcome mirror_instance(workload::SimConfig const& config, bool traced,
                           MirrorRun& out) {
  LayerTrace& trace = out.trace;
  SimOutcome sim;

  auto const start = Clock::now();
  auto policy = policy::make_policy(config.policy);
  auto const scenario = workload::make_scenario(config.scenario);
  workload::ScenarioWorkload const work{*scenario, config.tasks_per_rank,
                                        config.scenario.seed,
                                        config.base_load};
  rt::RuntimeConfig rt_config;
  rt_config.num_ranks = scenario->num_ranks();
  rt_config.seed = config.scenario.seed;
  rt::Runtime runtime{rt_config};
  auto params = lb::LbParams::tempered();
  params.seed = derive_seed(config.scenario.seed, workload::kLbSeedStreamTag);
  params.num_trials = 2;
  params.num_iterations = 2;
  params.rounds = 4;
  auto strategy = lb::make_strategy(config.strategy);
  rt::ObjectStore store{scenario->num_ranks()};
  work.populate(store, config.payload_bytes);

  double imbalance_sum = 0.0;
  double error_sum = 0.0;
  std::size_t error_count = 0;
  for (std::uint64_t phase = 0; phase < config.scenario.phases; ++phase) {
    lb::StrategyInput input;
    timed(traced, trace.workload_measure_s,
          [&] { input = work.measure(phase, store); });
    auto const loads = input.rank_loads();
    auto const summary = summarize(loads);
    sim.t_work += *std::max_element(loads.begin(), loads.end());
    imbalance_sum += summary.imbalance();
    trace.sim_wait_s += summary.max - summary.mean;

    policy::Decision decision;
    timed(traced, trace.policy_decide_s,
          [&] { decision = policy->decide(phase, loads); });
    ++trace.policy_decisions;
    if (decision.invoke) {
      auto const commit =
          invoke_lb(*strategy, params, runtime, store, input, traced, out);
      auto const& cost = commit.result.cost;
      double const lb_seconds = config.cost_model.cost(
          cost.lb_messages, cost.lb_bytes, commit.migration_bytes);
      timed(traced, trace.policy_decide_s, [&] {
        policy->record_outcome(true, lb_seconds,
                               commit.result.new_rank_loads);
      });
      sim.t_lb += lb_seconds;
      trace.sim_lb_protocol_s +=
          config.cost_model.cost(cost.lb_messages, cost.lb_bytes, 0);
      trace.sim_lb_migration_s +=
          config.cost_model.per_migration_byte *
          static_cast<double>(commit.migration_bytes);
      ++trace.policy_invocations;
      sim.decisions += 'I';
    } else {
      timed(traced, trace.policy_decide_s,
            [&] { policy->record_outcome(false, 0.0, {}); });
      sim.decisions += 'S';
    }
    if (decision.forecast_imbalance != 0.0 || decision.forecast_error != 0.0) {
      error_sum += decision.forecast_error;
      ++error_count;
    }
  }
  out.wall_s += seconds_since(start);

  auto const phases = static_cast<double>(config.scenario.phases);
  sim.t_total = sim.t_work + sim.t_lb;
  sim.mean_imbalance = imbalance_sum / phases;
  if (error_count > 0) {
    sim.forecast_error = error_sum / static_cast<double>(error_count);
  }
  trace.migrations += store.migration_count();
  trace.migration_bytes += store.migration_bytes();
  trace.tasks += work.num_tasks();
  add_traffic(trace.net, runtime.stats());
  check_store(store, work.num_tasks(), out.problems);
  return sim;
}

} // namespace

MirrorRun mirror_run(pic::PicConfig const& config, bool traced) {
  PicMirror mirror{config, traced};
  return mirror.run();
}

MirrorRun mirror_run(ScenarioRun const& instances, bool traced) {
  MirrorRun out;
  std::vector<SimOutcome> parts;
  for (workload::SimConfig const& config : instances) {
    parts.push_back(mirror_instance(config, traced, out));
  }
  out.sim = combine(parts);
  return out;
}

} // namespace perfbench
