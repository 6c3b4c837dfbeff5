#include "lb/strategy/gossip_strategy.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>

#include "lb/strategy/inform_plane.hpp"
#include "lb/transfer.hpp"
#include "obs/lb_report.hpp"
#include "obs/tracer.hpp"
#include "runtime/collectives.hpp"
#include "runtime/delivery.hpp"
#include "support/assert.hpp"
#include "support/check.hpp"
#include "support/stats.hpp"

namespace tlb::lb {

namespace {

/// A task in the speculative (proposed) placement: where it physically
/// lives (`origin`) versus where the proposal currently puts it.
struct SpecTask {
  TaskId id = invalid_task;
  LoadType load = 0.0;
  RankId origin = invalid_rank;
};

/// Per-rank protocol state for one iteration sequence. Each slot is only
/// mutated by handlers executing on its own rank. The inform-stage state
/// (knowledge, forwarding bitmask) lives in the InformPlane.
struct RankState {
  LoadType load = 0.0;
  std::vector<SpecTask> tasks;
};

/// The block every epoch's handlers share, and the transfer epoch's
/// delivery hooks: an accepted proposal moves its task speculatively, a
/// rejected or lost one goes back to its origin.
struct Shared final : rt::DeliveryHooks {
  std::vector<RankState> states;
  /// outbox[r][i]: the task of rank r's delivery item i this epoch,
  /// written by rank r's transfer pass before its first send.
  std::vector<std::vector<SpecTask>> outbox;
  /// The inform stage: per-rank knowledge, forwarding cascade, and the
  /// delta-encoded wire plane (see inform_plane.hpp).
  /// Its messages point back at it: balance() holds this block across
  /// every epoch's run_until_quiescent.
  std::unique_ptr<InformPlane> inform;
  bool use_nacks = false;
  LoadType l_ave = 0.0;
  /// Transfer-pass threshold h (params.threshold), hoisted here so the
  /// post_all closures read it through `shared` instead of capturing it.
  double threshold = 0.0;
  /// Full parameter block for run_transfer. Kept in the shared block for
  /// the same reason: capturing LbParams by value (48 bytes) would push
  /// the transfer-pass closure past the envelope's inline capacity, which
  /// InlineHandler rejects at compile time.
  LbParams params;
  obs::LbReportBuilder* report = nullptr; ///< optional introspection sink

  /// Take the task, unless Menon-style negative acknowledgement
  /// (optional) refuses one that would push this rank past the average.
  bool apply(RankId at, RankId origin, std::uint32_t index) override {
    SpecTask const& moved =
        outbox[static_cast<std::size_t>(origin)][index];
    auto& dst = states[static_cast<std::size_t>(at)];
    if (use_nacks && dst.load + moved.load > l_ave) {
      if (report != nullptr) {
        report->on_nack();
      }
      return false;
    }
    dst.tasks.push_back(moved);
    dst.load += moved.load;
    return true;
  }

  void give_back(RankId origin, std::uint32_t index) override {
    auto& src = states[static_cast<std::size_t>(origin)];
    SpecTask const& moved =
        outbox[static_cast<std::size_t>(origin)][index];
    src.tasks.push_back(moved);
    src.load += moved.load;
  }
};

/// One rank's transfer pass (Algorithm 2). If the rank is overloaded, run
/// the pass over its speculative tasks, report it, and move each proposed
/// task from the rank into its outbox, then send the proposals through
/// `batch` in proposal order.
void transfer_pass(Shared& shared, rt::RankContext& ctx,
                   rt::DeliveryBatch& batch) {
  auto& st = shared.states[static_cast<std::size_t>(ctx.rank())];
  if (st.load <= shared.threshold * shared.l_ave) {
    return;
  }
  std::vector<TaskEntry> entries;
  entries.reserve(st.tasks.size());
  for (SpecTask const& t : st.tasks) {
    entries.push_back({t.id, t.load});
  }
  auto const transfer =
      run_transfer(shared.params, ctx.rank(), entries, st.load, shared.l_ave,
                   shared.inform->knowledge_of(ctx.rank()), ctx.rng());
  if (shared.report != nullptr) {
    shared.report->on_transfer_pass(transfer.accepted, transfer.rejected,
                                    transfer.no_target,
                                    transfer.cmf_rebuilds);
  }
  st.load = transfer.final_load;
  auto& outbox = shared.outbox[static_cast<std::size_t>(ctx.rank())];
  for (Migration const& m : transfer.migrations) {
    auto const it =
        std::find_if(st.tasks.begin(), st.tasks.end(),
                     [&](SpecTask const& t) { return t.id == m.task; });
    TLB_ASSERT(it != st.tasks.end());
    outbox.push_back(*it);
    st.tasks.erase(it);
    batch.add(ctx.rank(), m.to, sizeof(SpecTask));
  }
  batch.send(ctx);
}

} // namespace

StrategyResult GossipStrategy::balance(rt::Runtime& rt,
                                       StrategyInput const& input,
                                       LbParams const& caller_params) {
  auto const p = input.num_ranks();
  TLB_EXPECTS(p == rt.num_ranks());
  TLB_EXPECTS(p > 0);

  // The flavor pins the algorithmic switches; numeric knobs (fanout,
  // rounds, threshold, seed) always come from the caller.
  LbParams params = caller_params;
  bool accept_always = false;
  if (flavor_ == Flavor::grapevine) {
    LbParams const base = LbParams::grapevine();
    params.criterion = base.criterion;
    params.cmf = base.cmf;
    params.refresh = base.refresh;
    params.order = base.order;
    params.num_iterations = base.num_iterations;
    params.num_trials = base.num_trials;
    accept_always = true;
  }
  TLB_EXPECTS(params.rounds >= 1 && params.rounds <= 63);

  TLB_SPAN_ARG("lb", "balance", "ranks", p);
  auto const stats_before = rt.stats();

  // Stage 0: constant-size statistics reduction (l_max, l_ave).
  auto const initial_loads = input.rank_loads();
  bool stats_complete = true;
  auto const stat = rt::allreduce_loads(rt, initial_loads, &stats_complete)[0];
  LoadType const l_ave = stat.average();

  StrategyResult result;
  result.new_rank_loads = initial_loads;
  result.achieved_imbalance =
      l_ave > 0.0 ? stat.max / l_ave - 1.0 : 0.0;
  if (!stats_complete) {
    // The statistics reduction never reached some rank (lost or crashed
    // reduction link): without trustworthy l_ave there is no round to
    // run. Fall back to the current (last good) task→rank mapping.
    result.aborted_rounds = 1;
    result.achieved_imbalance = 0.0;
    auto const stats_after_abort = rt.stats();
    result.cost.lb_messages =
        stats_after_abort.messages - stats_before.messages;
    result.cost.lb_bytes = stats_after_abort.bytes - stats_before.bytes;
    return result;
  }
  if (l_ave <= 0.0) {
    return result; // empty system: nothing to balance
  }

  if (introspection_ != nullptr) {
    introspection_->set_strategy(std::string{name()});
    introspection_->set_threshold(params.threshold);
    introspection_->set_initial_imbalance(result.achieved_imbalance);
  }

  auto shared = std::make_shared<Shared>();
  shared->inform = std::make_unique<InformPlane>(
      p, params.seed, params.gossip_wire, params.fanout, params.rounds,
      static_cast<std::size_t>(std::max(0, params.max_knowledge)),
      introspection_);
  shared->use_nacks = params.use_nacks;
  shared->l_ave = l_ave;
  shared->threshold = params.threshold;
  shared->params = params;
  shared->report = introspection_;
  shared->states.resize(static_cast<std::size_t>(p));
  shared->outbox.resize(static_cast<std::size_t>(p));

  auto reset_states = [&] {
    for (RankId r = 0; r < p; ++r) {
      auto& st = shared->states[static_cast<std::size_t>(r)];
      st.load = initial_loads[static_cast<std::size_t>(r)];
      st.tasks.clear();
      st.tasks.reserve(input.tasks[static_cast<std::size_t>(r)].size());
      for (TaskEntry const& t : input.tasks[static_cast<std::size_t>(r)]) {
        st.tasks.push_back(SpecTask{t.id, t.load, r});
      }
    }
  };

  double best_imbalance = result.achieved_imbalance;
  bool have_best = false;
  std::vector<std::vector<SpecTask>> best_snapshot;

  for (int trial = 0; trial < params.num_trials; ++trial) {
    TLB_SPAN_ARG("lb", "trial", "trial", trial);
    reset_states();

    for (int iter = 1; iter <= params.num_iterations; ++iter) {
      // Valid until a liveness timeout or incomplete reduction proves
      // otherwise; an invalid epoch aborts the whole trial and the commit
      // falls back to the last good snapshot.
      bool epoch_valid = true;

      // --- Inform epoch (Algorithm 1): seed from underloaded ranks. ---
      {
        TLB_SPAN_ARG("lb", "inform", "iter", iter);
        shared->inform->reset_epoch();
        rt.post_all([shared, l_ave](rt::RankContext& ctx) {
          auto& st = shared->states[static_cast<std::size_t>(ctx.rank())];
          if (st.load < l_ave) {
            shared->inform->seed_and_forward(ctx, st.load);
          }
        });
        // Gossip tolerates loss (knowledge just stays partial), but a
        // liveness timeout here means the epoch never settled.
        epoch_valid = rt.run_until_quiescent() && epoch_valid;
      }

      // --- Transfer pass (Algorithm 2) on every overloaded rank; the
      // accepted proposals are *notification* messages: the task payload
      // does not move until the best state is committed. One delivery
      // batch carries them; its settle() conserves the proposed placement
      // under any drop/duplicate/delay injection. ---
      {
        TLB_SPAN_ARG("lb", "transfer", "iter", iter);
        for (auto& outbox : shared->outbox) {
          outbox.clear();
        }
        rt::DeliveryBatch batch{rt, rt::MessageKind::transfer, *shared};
        rt.post_all([shared, batch = &batch](rt::RankContext& ctx) {
          transfer_pass(*shared, ctx, *batch);
        });
        epoch_valid = batch.settle().quiescent && epoch_valid;
      }

      TLB_AUDIT_BLOCK {
        // Speculative transfers (and NACK bounces) only relocate tasks:
        // once the notification traffic quiesces, the proposed placement
        // must hold exactly the input's tasks and exactly its total load.
        std::size_t spec_tasks = 0;
        double spec_total = 0.0;
        std::size_t input_tasks = 0;
        double input_total = 0.0;
        for (RankId r = 0; r < p; ++r) {
          auto const& st = shared->states[static_cast<std::size_t>(r)];
          spec_tasks += st.tasks.size();
          spec_total += st.load;
          input_tasks += input.tasks[static_cast<std::size_t>(r)].size();
          input_total += initial_loads[static_cast<std::size_t>(r)];
        }
        TLB_INVARIANT(spec_tasks == input_tasks,
                      "speculative placement conserves the task count");
        TLB_INVARIANT(std::abs(spec_total - input_total) <=
                          1e-9 * std::max(1.0, input_total),
                      "speculative placement conserves the total load");
      }

      // --- Algorithm 3 line 9: evaluate the proposed imbalance. ---
      std::vector<LoadType> spec_loads(static_cast<std::size_t>(p));
      for (RankId r = 0; r < p; ++r) {
        spec_loads[static_cast<std::size_t>(r)] =
            shared->states[static_cast<std::size_t>(r)].load;
      }
      bool eval_complete = true;
      auto const iter_stat =
          rt::allreduce_loads(rt, spec_loads, &eval_complete)[0];
      if (!eval_complete) {
        epoch_valid = false;
      }
      if (!epoch_valid) {
        // Abort this LB round: the epoch either failed its liveness
        // timeout or lost part of a reduction, so the proposed placement
        // cannot be trusted. The commit below falls back to the last
        // good snapshot (or, with none, to the current mapping).
        ++result.aborted_rounds;
        break;
      }
      double const proposed = iter_stat.max / l_ave - 1.0;
      if (introspection_ != nullptr) {
        introspection_->on_trial_iteration(trial, iter, proposed);
      }

      if (proposed < best_imbalance || (accept_always && !have_best)) {
        best_imbalance = std::min(best_imbalance, proposed);
        have_best = true;
        best_snapshot.assign(shared->states.size(), {});
        for (std::size_t r = 0; r < shared->states.size(); ++r) {
          best_snapshot[r] = shared->states[r].tasks;
        }
      }
    }
  }

  // --- Algorithm 3 line 13: realize the winning placement. ---
  if (have_best) {
    for (std::size_t r = 0; r < best_snapshot.size(); ++r) {
      for (SpecTask const& t : best_snapshot[r]) {
        if (t.origin != static_cast<RankId>(r)) {
          result.migrations.push_back(
              Migration{t.id, t.origin, static_cast<RankId>(r), t.load});
        }
      }
    }
    result.new_rank_loads = project_loads(input, result.migrations);
    result.achieved_imbalance = imbalance(result.new_rank_loads);
  }

  auto const stats_after = rt.stats();
  result.cost.lb_messages = stats_after.messages - stats_before.messages;
  result.cost.lb_bytes = stats_after.bytes - stats_before.bytes;
  result.cost.migration_count = result.migrations.size();
  for (Migration const& m : result.migrations) {
    result.cost.migrated_load += m.load;
  }
  return result;
}

} // namespace tlb::lb
