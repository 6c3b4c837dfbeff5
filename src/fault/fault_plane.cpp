#include "fault/fault_plane.hpp"

#include "obs/flight_recorder.hpp"
#include "obs/telemetry.hpp"
#include "support/assert.hpp"

namespace tlb::fault {

FaultPlane::FaultPlane(FaultConfig config, RankId num_ranks,
                       std::uint64_t root_seed)
    : config_{std::move(config)},
      num_ranks_{num_ranks},
      any_message_faults_{config_.message_faults_active()},
      crashed_(static_cast<std::size_t>(num_ranks)) {
  TLB_EXPECTS(num_ranks > 0);
  for (KindFaults const& k : config_.kinds) {
    TLB_EXPECTS(k.drop >= 0.0 && k.duplicate >= 0.0 && k.delay >= 0.0);
    TLB_EXPECTS(k.drop + k.duplicate + k.delay <= 1.0);
    TLB_EXPECTS(k.delay_min_polls >= 1 &&
                k.delay_min_polls <= k.delay_max_polls);
  }
  Rng const fault_root = Rng{root_seed}.split(rt::kFaultStreamTag);
  send_rngs_.reserve(static_cast<std::size_t>(num_ranks) + 1);
  for (RankId r = 0; r <= num_ranks; ++r) {
    send_rngs_.push_back(fault_root.split(static_cast<std::uint64_t>(r)));
  }
}

rt::FaultDecision FaultPlane::on_send(RankId from, RankId to,
                                      rt::MessageKind kind) {
  // A dead destination swallows everything aimed at it; deciding at send
  // time keeps its mailbox from churning between purge visits.
  if (config_.crash_rank != invalid_rank &&
      crashed_[static_cast<std::size_t>(to)].load(std::memory_order_acquire)) {
    return {rt::FaultAction::drop, 0};
  }
  if (!any_message_faults_) {
    return {};
  }
  KindFaults const& faults = config_.kinds[static_cast<std::size_t>(kind)];
  if (!faults.active()) {
    return {};
  }
  // One stream per sender; the driver (from == invalid_rank) gets the
  // extra slot. Each stream is only advanced by its own rank's handlers.
  auto const stream = static_cast<std::size_t>(
      from == invalid_rank ? num_ranks_ : from);
  Rng& rng = send_rngs_[stream];
  send_decisions_.fetch_add(1, std::memory_order_relaxed);
  double const u = rng.uniform();
  if (u < faults.drop) {
    return {rt::FaultAction::drop, 0};
  }
  if (u < faults.drop + faults.duplicate) {
    return {rt::FaultAction::duplicate, 0};
  }
  if (u < faults.drop + faults.duplicate + faults.delay) {
    auto const polls = static_cast<std::uint32_t>(rng.uniform_int(
        static_cast<std::int64_t>(faults.delay_min_polls),
        static_cast<std::int64_t>(faults.delay_max_polls)));
    return {rt::FaultAction::delay, polls};
  }
  return {};
}

rt::DrainGate FaultPlane::on_drain(RankId rank, std::uint64_t poll) {
  auto const slot = static_cast<std::size_t>(rank);
  if (config_.crash_rank == rank) {
    if (crashed_[slot].load(std::memory_order_relaxed)) {
      return rt::DrainGate::crashed;
    }
    if (poll >= config_.crash_at_poll) {
      crashed_[slot].store(true, std::memory_order_release);
      if (obs::enabled()) {
        // The injected crash just fired (first transition only — the
        // early-return above covers later polls): capture the black box
        // before the runtime purges the dead rank's mailbox.
        (void)obs::dump_flight_record("fault_crash");
      }
      return rt::DrainGate::crashed;
    }
  }
  for (StallWindow const& stall : config_.stalls) {
    if (stall.rank == rank && poll >= stall.from_poll &&
        poll < stall.until_poll) {
      return rt::DrainGate::stalled;
    }
  }
  if (config_.straggler_stride > 0 &&
      rank % config_.straggler_stride == config_.straggler_stride - 1 &&
      poll % config_.straggler_period != 0) {
    return rt::DrainGate::stalled;
  }
  return rt::DrainGate::open;
}

std::unique_ptr<FaultPlane> install_fault_plane(rt::Runtime& rt,
                                                FaultConfig config) {
  auto plane = std::make_unique<FaultPlane>(std::move(config), rt.num_ranks(),
                                            rt.config().seed);
  rt.set_fault_hook(plane.get());
  return plane;
}

} // namespace tlb::fault
