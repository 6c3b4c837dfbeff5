#pragma once

/// \file mirror.hpp
/// The traced run: the step loops of pic::PicApp::run and
/// workload::run_policy_sim rebuilt from the library's public pieces
/// (Mesh, BDotScenario, Particles, ObjectStore, PhaseInstrumentation,
/// LbManager::gather_input, the strategy LbManager::decide runs,
/// ObjectStore::migrate; ScenarioWorkload::measure, TriggerPolicy), making
/// the same calls in the same order, with a host-time probe around each
/// call into a module. The self-test in main.cpp pins the mirrors to the
/// public entry points bit for bit, so a drift in either fails the
/// benchmark instead of silently measuring a different program.
///
/// The LB invocation is mirrored as LbManager::invoke's body — strategy
/// balance, then ObjectStore::migrate — because invoke() does not expose
/// the split between deciding and committing. With tracing on, the
/// strategy gets an obs::LbReportBuilder (the report invoke() collects
/// under telemetry) without switching the global telemetry flag, whose
/// causal log and phase timeline would cost host time the untraced run
/// does not pay.

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/network_stats.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Host time per layer (self seconds) and work counts from one mirrored
/// run. Times are filled only when tracing; counts always.
struct LayerTrace {
  double pic_inject_s = 0.0;
  double pic_push_s = 0.0;
  double pic_exchange_s = 0.0;
  double store_lookup_s = 0.0; ///< estimated: sampled mean x exact count
  double store_migrate_s = 0.0;
  double instr_record_s = 0.0; ///< estimated like store_lookup_s
  double instr_gather_s = 0.0;
  double lb_decide_s = 0.0;
  double policy_decide_s = 0.0;
  double workload_measure_s = 0.0;

  std::uint64_t store_lookups = 0;
  std::uint64_t store_lookup_samples = 0;
  std::uint64_t instr_records = 0;
  std::uint64_t instr_record_samples = 0;
  std::uint64_t migrations = 0;
  std::uint64_t migration_bytes = 0;
  std::uint64_t failed_migrations = 0;
  std::uint64_t lb_invocations = 0;
  std::uint64_t aborted_rounds = 0;
  std::uint64_t transfers_accepted = 0;
  std::uint64_t transfers_attempted = 0;
  std::uint64_t cmf_rebuilds = 0;
  std::uint64_t gossip_deliveries = 0;
  double knowledge_sum = 0.0; ///< post-merge knowledge size x deliveries
  double imbalance_after_sum = 0.0;
  std::uint64_t policy_decisions = 0;
  std::uint64_t policy_invocations = 0;
  std::uint64_t tasks = 0;
  std::uint64_t particles = 0;
  std::uint64_t exchanged = 0;
  std::uint64_t remote_exchanged = 0;
  tlb::rt::NetworkStatsSnapshot net; ///< traffic of the whole run

  /// Simulated split of t_lb and the step-barrier wait.
  double sim_lb_protocol_s = 0.0;
  double sim_lb_migration_s = 0.0;
  double sim_wait_s = 0.0;
};

struct MirrorRun {
  SimOutcome sim;
  double wall_s = 0.0; ///< same scope as the matching PublicRun::wall_s
  /// Host seconds of each LB invocation (decide + migrate).
  std::vector<double> lb_pause_s;
  LayerTrace trace;
  std::vector<std::string> problems; ///< failed output checks
};

[[nodiscard]] MirrorRun mirror_run(tlb::pic::PicConfig const& config,
                                   bool traced);
[[nodiscard]] MirrorRun mirror_run(ScenarioRun const& instances,
                                   bool traced);

} // namespace perfbench
