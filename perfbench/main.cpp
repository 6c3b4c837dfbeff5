/// \file main.cpp
/// The benchmark command (README.md):
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///
/// --trace 0 runs the workload through the library's public entry points
/// for the end-to-end metrics; --trace 1 pairs an untraced run with the
/// traced mirror (mirror.hpp) for the per-layer metrics. Both first run a
/// small-scale self-test pinning the mirror to the public entry points, and
/// both check the outputs. The last line of stdout is one JSON object; the
/// exit code is non-zero when any check failed.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mirror.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using tlb::pic::PicConfig;

/// What a --trace 0 invocation collects at least, however long it takes:
/// timed runs of the public entry point, LB pauses from mirror passes,
/// and set-up samples (milliseconds each, so many).
constexpr std::size_t kMinRepeats = 3;
constexpr std::size_t kMinLbPauses = 8;
constexpr std::size_t kSetupSamples = 51;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

[[noreturn]] void usage(char const* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\nworkloads:";
  for (Workload const& w : workloads()) {
    std::cerr << ' ' << w.name;
  }
  std::cerr << '\n';
  std::exit(2);
}

template <class T> T parse_number(std::string_view text, char const* flag) {
  T value{};
  auto const [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    usage(flag);
  }
  return value;
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool seen[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    std::string_view const flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value");
    }
    std::string_view const value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      seen[0] = true;
    } else if (flag == "--seed") {
      args.seed = parse_number<std::uint64_t>(value, "bad --seed");
      seen[1] = true;
    } else if (flag == "--seconds") {
      args.seconds = parse_number<double>(value, "bad --seconds");
      seen[2] = true;
    } else if (flag == "--trace") {
      auto const t = parse_number<int>(value, "bad --trace");
      if (t != 0 && t != 1) {
        usage("bad --trace");
      }
      args.trace = t == 1;
      seen[3] = true;
    } else {
      usage("unknown flag");
    }
  }
  if (!(seen[0] && seen[1] && seen[2] && seen[3])) {
    usage("missing flag");
  }
  if (!(args.seconds > 0.0 && args.seconds <= 600.0)) {
    usage("--seconds out of range");
  }
  return args;
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  std::size_t const mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Output checks and LB-attempt accounting shared by both modes:
/// failed = aborted LB rounds + failed migrations + failed checks.
struct Ledger {
  std::size_t lb_attempted = 0;
  std::size_t lb_failed = 0;
  std::vector<std::string> problems;

  void take(std::vector<std::string> const& found) {
    problems.insert(problems.end(), found.begin(), found.end());
  }
  void take(MirrorRun const& run) {
    lb_attempted += run.trace.lb_invocations;
    lb_failed += run.trace.aborted_rounds + run.trace.failed_migrations;
    take(run.problems);
  }
  void take(PublicRun const& run) {
    lb_attempted += run.lb_invocations;
    lb_failed += run.aborted_rounds;
    take(run.problems);
  }
  void expect_equal(SimOutcome const& a, SimOutcome const& b,
                    char const* what) {
    if (!(a == b)) {
      problems.emplace_back(what);
    }
  }
  [[nodiscard]] std::size_t failed() const {
    return lb_failed + problems.size();
  }
};

/// The traced mirror must reproduce PicApp::run's RunTotals and
/// run_policy_sim's SimResult exactly; small scales keep this cheap enough
/// to run before every measurement.
void self_test(Ledger& ledger) {
  PicConfig const pic = pic_config(4, 4, 12, 5, 0x5e1f);
  auto const pic_public = run_public(pic);
  auto const pic_mirror = mirror_run(pic, true);
  ledger.take(pic_public);
  ledger.take(pic_mirror);
  ledger.expect_equal(pic_public.sim, pic_mirror.sim,
                      "self-test: pic mirror drifted from PicApp::run");

  ScenarioRun const sim{scenario_config(64, 48, 0x5e1f)};
  auto const sim_public = run_public(sim);
  auto const sim_mirror = mirror_run(sim, true);
  ledger.take(sim_public);
  ledger.take(sim_mirror);
  ledger.expect_equal(sim_public.sim, sim_mirror.sim,
                      "self-test: scenario mirror drifted from "
                      "run_policy_sim");
  if (sim_mirror.trace.lb_invocations == 0 ||
      pic_mirror.trace.lb_invocations == 0) {
    ledger.problems.emplace_back("self-test: no LB invocation exercised");
  }
}

struct Metric {
  std::string name;
  double value;
  char const* unit;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

/// Runs the config of `w` through `fn(config)`.
template <class Fn> auto with_config(Workload const& w, std::uint64_t seed,
                                     Fn&& fn) {
  return w.kind == Kind::pic ? fn(pic_config(w, seed))
                             : fn(scenario_run(w, seed));
}

std::vector<Metric> end_to_end(Workload const& w, Args const& args,
                               Ledger& ledger) {
  std::vector<double> walls;
  std::vector<double> pauses_ms;
  std::optional<SimOutcome> sim;
  auto same_outcome = [&](SimOutcome const& got, char const* what) {
    if (!sim) {
      sim = got;
    }
    ledger.expect_equal(*sim, got, what);
  };
  // Set-up first, back to back after one untimed warm-up: its milliseconds
  // are mostly allocation, which depends on what the heap already holds.
  (void)time_setup(w, args.seed);
  std::vector<double> setups;
  while (setups.size() < kSetupSamples) {
    setups.push_back(time_setup(w, args.seed));
  }

  std::size_t mirror_passes = 0;
  auto const start = Clock::now();
  while (walls.size() < kMinRepeats || pauses_ms.size() < kMinLbPauses ||
         seconds_since(start) < args.seconds) {
    // Mirror passes supply the per-invocation LB pauses, which PicApp::run
    // and run_policy_sim do not expose; they also check store ownership
    // and agreement with the public entry point at full scale. Until
    // enough pauses are in, one precedes each timed repeat, so the two
    // sample kinds share the run's stretches of interference.
    if (pauses_ms.size() < kMinLbPauses) {
      auto const plain = with_config(w, args.seed, [](auto const& cfg) {
        return mirror_run(cfg, false);
      });
      ++mirror_passes;
      ledger.take(plain);
      same_outcome(plain.sim,
                   "a mirror pass disagrees with an earlier run of the seed");
      for (double const s : plain.lb_pause_s) {
        pauses_ms.push_back(1e3 * s);
      }
    }
    auto const run = with_config(w, args.seed, [](auto const& cfg) {
      return run_public(cfg);
    });
    ledger.take(run);
    same_outcome(run.sim,
                 "a public run disagrees with an earlier run of the seed");
    walls.push_back(run.wall_s);
  }

  std::printf("# samples: wall_s %zu repeats, setup_s %zu, "
              "lb_invoke_ms_p50 %zu invocations from %zu mirror passes\n",
              walls.size(), setups.size(), pauses_ms.size(), mirror_passes);
  std::printf("# wall_s repeats:");
  for (double const s : walls) {
    std::printf(" %.4f", s);
  }
  std::printf("\n");
  return {
      {"wall_s", median(walls), "s"},
      {"setup_s", median(setups), "s"},
      {"lb_invoke_ms_p50", median(pauses_ms), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"sim_t_total_s", sim->t_total, "s"},
      {"sim_t_work_s", sim->t_work, "s"},
      {"sim_t_lb_s", sim->t_lb, "s"},
      {"mean_imbalance", sim->mean_imbalance, "ratio"},
  };
}

/// Per-layer metrics of one (untraced, traced) pair. Host times are shares
/// of the traced run's wall time, so a layer a workload never enters reads
/// 0 rather than a constant 0 s; seconds are share x trace.wall_s.
std::vector<Metric> layer_metrics(PublicRun const& base,
                                  MirrorRun const& traced) {
  LayerTrace const& t = traced.trace;
  double const wall = traced.wall_s;
  auto share = [wall](double s) { return s / wall; };
  auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  auto kind = [&t](tlb::rt::MessageKind k) {
    return static_cast<double>(t.net.kind_messages[static_cast<std::size_t>(k)]);
  };
  double const timed_s = t.pic_inject_s + t.pic_push_s + t.pic_exchange_s +
                         t.store_lookup_s + t.store_migrate_s +
                         t.instr_record_s + t.instr_gather_s + t.lb_decide_s +
                         t.policy_decide_s + t.workload_measure_s;
  auto const invocations = std::max<std::uint64_t>(t.lb_invocations, 1);
  return {
      {"trace.wall_s", wall, "s"},
      {"trace.untraced_wall_s", base.wall_s, "s"},
      {"trace_overhead_frac", wall / base.wall_s - 1.0, "ratio"},
      {"untimed_frac", share(wall - timed_s), "ratio"},
      {"pic.inject_frac", share(t.pic_inject_s), "ratio"},
      {"pic.push_frac", share(t.pic_push_s), "ratio"},
      {"pic.exchange_frac", share(t.pic_exchange_s), "ratio"},
      {"pic.particles", count(t.particles), "count"},
      {"pic.exchanged", count(t.exchanged), "count"},
      {"pic.remote_exchanged", count(t.remote_exchanged), "count"},
      {"store.lookups", count(t.store_lookups), "count"},
      {"store.lookup_samples", count(t.store_lookup_samples), "count"},
      {"store.lookup_frac", share(t.store_lookup_s), "ratio"},
      {"store.migrate_frac", share(t.store_migrate_s), "ratio"},
      {"store.migrations", count(t.migrations), "count"},
      {"store.migration_bytes", count(t.migration_bytes), "B"},
      {"store.failed_migrations", count(t.failed_migrations), "count"},
      {"instr.records", count(t.instr_records), "count"},
      {"instr.record_samples", count(t.instr_record_samples), "count"},
      {"instr.record_frac", share(t.instr_record_s), "ratio"},
      {"instr.gather_frac", share(t.instr_gather_s), "ratio"},
      {"net.messages", count(t.net.messages), "count"},
      {"net.bytes", count(t.net.bytes), "B"},
      {"net.gossip_bytes",
       count(t.net.kind_bytes[static_cast<std::size_t>(
           tlb::rt::MessageKind::gossip)]),
       "B"},
      {"net.transfer_messages", kind(tlb::rt::MessageKind::transfer),
       "count"},
      {"net.migration_messages", kind(tlb::rt::MessageKind::migration),
       "count"},
      {"net.termination_messages", kind(tlb::rt::MessageKind::termination),
       "count"},
      {"net.coalesced_flushes", count(t.net.coalesced_flushes), "count"},
      {"net.max_mailbox_depth", count(t.net.max_mailbox_depth), "count"},
      {"lb.invocations", count(t.lb_invocations), "count"},
      {"lb.decide_frac", share(t.lb_decide_s), "ratio"},
      {"lb.transfers_accepted", count(t.transfers_accepted), "count"},
      {"lb.transfers_rejected",
       count(t.transfers_attempted - t.transfers_accepted), "count"},
      {"lb.accept_ratio",
       t.transfers_attempted > 0
           ? count(t.transfers_accepted) / count(t.transfers_attempted)
           : 0.0,
       "ratio"},
      {"lb.cmf_rebuilds", count(t.cmf_rebuilds), "count"},
      {"lb.knowledge_avg",
       t.gossip_deliveries > 0 ? t.knowledge_sum / count(t.gossip_deliveries)
                               : 0.0,
       "count"},
      {"lb.aborted_rounds", count(t.aborted_rounds), "count"},
      {"lb.imbalance_after", t.imbalance_after_sum / count(invocations),
       "ratio"},
      {"policy.decisions", count(t.policy_decisions), "count"},
      {"policy.invocations", count(t.policy_invocations), "count"},
      {"policy.decide_frac", share(t.policy_decide_s), "ratio"},
      {"policy.forecast_error", traced.sim.forecast_error, "ratio"},
      {"workload.measure_frac", share(t.workload_measure_s), "ratio"},
      {"workload.tasks", count(t.tasks), "count"},
      {"sim.t_lb_protocol_s", t.sim_lb_protocol_s, "s"},
      {"sim.t_lb_migration_s", t.sim_lb_migration_s, "s"},
      {"sim.wait_s", t.sim_wait_s, "s"},
  };
}

std::vector<Metric> per_layer(Workload const& w, Args const& args,
                              Ledger& ledger) {
  std::vector<std::vector<Metric>> pairs;
  auto const start = Clock::now();
  // Another pair only if it is likely to end within --seconds.
  while (pairs.empty() ||
         seconds_since(start) * static_cast<double>(pairs.size() + 1) /
                 static_cast<double>(pairs.size()) <=
             args.seconds) {
    auto const [base, traced] =
        with_config(w, args.seed, [](auto const& cfg) {
          return std::pair{run_public(cfg), mirror_run(cfg, true)};
        });
    ledger.take(base);
    ledger.take(traced);
    ledger.expect_equal(base.sim, traced.sim,
                        "traced run disagrees with the untraced run");
    pairs.push_back(layer_metrics(base, traced));
  }
  // Counts repeat exactly across pairs; host-time shares take the median.
  std::vector<Metric> out = pairs.front();
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::vector<double> values;
    for (auto const& pair : pairs) {
      values.push_back(pair[i].value);
    }
    out[i].value = median(values);
  }
  out.push_back({"trace.pairs", static_cast<double>(pairs.size()), "count"});
  return out;
}

void print_result(Ledger const& ledger, std::vector<Metric> const& metrics) {
  for (auto const& problem : ledger.problems) {
    std::printf("# FAILED CHECK: %s\n", problem.c_str());
  }
  double const failed_frac =
      static_cast<double>(ledger.failed()) /
      static_cast<double>(std::max<std::size_t>(ledger.lb_attempted, 1));
  std::printf("# failed_frac %.6g ratio (%zu failed / %zu LB invocations "
              "attempted)\n",
              failed_frac, ledger.failed(), ledger.lb_attempted);
  for (auto const& m : metrics) {
    std::printf("# %-26s %.9g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              ledger.failed() == 0 ? "true" : "false",
              std::max<std::size_t>(ledger.lb_attempted, 1), ledger.failed());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

} // namespace
} // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args const args = parse_args(argc, argv);
  Workload const* w = find_workload(args.workload);
  if (w == nullptr) {
    usage("unknown workload");
  }
  Ledger ledger;
  self_test(ledger);
  auto const metrics = args.trace ? per_layer(*w, args, ledger)
                                  : end_to_end(*w, args, ledger);
  print_result(ledger, metrics);
  return ledger.failed() == 0 ? 0 : 1;
}
