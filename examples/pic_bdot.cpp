/// \file pic_bdot.cpp
/// The EMPIRE-surrogate B-Dot simulation (§VI): a particle-in-cell
/// mini-app whose moving, growing injection region produces time-varying
/// imbalance, balanced every `lb-period` steps by the chosen strategy.
///
/// Usage examples:
///   pic_bdot                                   # TemperedLB, 64 ranks
///   pic_bdot --strategy=none --mode=spmd       # pure-MPI baseline
///   pic_bdot --strategy=greedy --steps=300
///   pic_bdot --ranks-x=20 --ranks-y=20         # paper's 400-rank layout
///   pic_bdot --policy=costbenefit              # adaptive LB invocation
///   pic_bdot --policy=threshold-0.5            # reactive λ trigger

#include <iostream>

#include "obs/causal.hpp"
#include "obs/json.hpp"
#include "obs/phase_timeline.hpp"
#include "obs/registry.hpp"
#include "obs/telemetry.hpp"
#include "obs/tracer.hpp"
#include "pic/app.hpp"
#include "pic/trace.hpp"
#include "support/config.hpp"
#include "support/table.hpp"
#include "telemetry_out.hpp"

int main(int argc, char** argv) {
  using namespace tlb;
  auto const opts = Options::parse(argc, argv);

  pic::PicConfig cfg;
  cfg.mesh.ranks_x = static_cast<int>(opts.get_int("ranks-x", 8));
  cfg.mesh.ranks_y = static_cast<int>(opts.get_int("ranks-y", 8));
  cfg.steps = static_cast<int>(opts.get_int("steps", 400));
  cfg.bdot.total_steps = cfg.steps;
  cfg.lb_period = static_cast<int>(opts.get_int("lb-period", 100));
  cfg.strategy = opts.get_string("strategy", "tempered");
  cfg.mode = opts.get_string("mode", "amt") == "spmd"
                 ? pic::ExecutionMode::spmd
                 : pic::ExecutionMode::amt;
  cfg.seed = static_cast<std::uint64_t>(opts.get_int("seed", 0xE3));
  cfg.runtime_threads = static_cast<int>(opts.get_int("threads", 1));
  cfg.lb_params.rounds = static_cast<int>(opts.get_int("rounds", 5));
  // --policy replaces the periodic schedule with another trigger policy.
  // Either way every step's invoke-or-skip decision lands in the timeline.
  cfg.policy = opts.get_string("policy", "");

  // --telemetry: record spans/metrics/LB introspection over the whole run
  // and dump them as machine-readable JSON at the end.
  bool const telemetry = opts.get_bool("telemetry", false);
  if (telemetry) {
    obs::set_enabled(true);
    obs::Tracer::instance().clear();
    obs::registry().clear();
    obs::CausalLog::instance().clear();
    obs::PhaseTimeline::instance().clear();
  }

  pic::PicApp app{cfg};
  std::cout << "B-Dot surrogate: "
            << cfg.mesh.ranks_x * cfg.mesh.ranks_y << " ranks x "
            << cfg.mesh.colors_x * cfg.mesh.colors_y << " colors, "
            << cfg.steps << " steps, strategy="
            << (cfg.mode == pic::ExecutionMode::spmd ? "spmd"
                                                     : cfg.strategy)
            << "\n\n";
  auto const result = app.run();

  Table series{{"step", "t_step (s)", "imbalance", "particles",
                "migrations"}};
  int const sample = std::max(1, cfg.steps / 16);
  for (auto const& m : result.steps) {
    if (m.step % sample == 0) {
      series.begin_row()
          .add_cell(m.step)
          .add_cell(m.t_step, 4)
          .add_cell(m.imbalance, 2)
          .add_cell(m.total_particles)
          .add_cell(m.migrations);
    }
  }
  series.print(std::cout);

  std::size_t lb_invocations = 0;
  for (auto const& m : result.steps) {
    if (m.t_lb > 0.0) {
      ++lb_invocations;
    }
  }
  std::cout << "\ntotals (simulated seconds):\n"
            << "  LB invocations:    " << lb_invocations
            << (cfg.policy.empty() ? " (periodic schedule)"
                                   : " (policy " + cfg.policy + ")")
            << "\n"
            << "  particle update:   " << result.totals.t_particle << "\n"
            << "  non-particle:      " << result.totals.t_nonparticle << "\n"
            << "  load balancing:    " << result.totals.t_lb << "\n"
            << "  total:             " << result.totals.t_total << "\n"
            << "  migrations:        " << result.totals.migrations << "\n"
            << "  migration bytes:   " << result.totals.migration_bytes
            << "\n";

  if (auto const trace = opts.get("trace")) {
    pic::write_trace_csv(*trace, result);
    std::cout << "\nper-step trace written to " << *trace << "\n";
  }

  if (telemetry) {
    examples::TelemetryOut out{opts, "pic_bdot"};
    app.runtime().publish_metrics(obs::registry());
    std::cout << "\n";
    bool ok = true;
    ok &= examples::TelemetryOut::write(
        out.trace_path(),
        [](std::ostream& os) {
          obs::Tracer::instance().write_chrome_trace(os);
        });
    ok &= examples::TelemetryOut::write(
        out.metrics_path(),
        [](std::ostream& os) { obs::registry().write_json(os); });
    ok &= examples::TelemetryOut::write(
        out.timeline_path(), [](std::ostream& os) {
          obs::PhaseTimeline::instance().write_json(os);
        });
    ok &= examples::TelemetryOut::write(
        out.causal_path(),
        [](std::ostream& os) { obs::CausalLog::instance().write_json(os); });
    if (auto const* manager = app.lb_manager()) {
      ok &= examples::TelemetryOut::write(
          out.lb_report_path(), [&](std::ostream& os) {
            manager->write_introspection_json(os);
          });
    }
    if (!ok) {
      return 1;
    }
  }
  return 0;
}
