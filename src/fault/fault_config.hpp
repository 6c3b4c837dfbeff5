#pragma once

/// \file fault_config.hpp
/// Declarative description of one fault regime: per-MessageKind message
/// faults (drop / duplicate / delay probabilities and delay bounds), rank
/// slowdown (stragglers), transient rank stalls, and a mid-epoch rank
/// crash. A FaultConfig is pure data — the seeded decision machinery that
/// interprets it lives in FaultPlane — so profiles can be named, printed,
/// and swept by the chaos harness.
///
/// The canonical profiles (profile()/profile_names()) deliberately leave
/// MessageKind::other and MessageKind::termination clean: collective
/// reductions are control traffic the protocols do not retry yet, so the profiles exercise the hardened paths (gossip,
/// transfer, migration) without wedging the substrate. Tests that want to
/// fault control traffic construct a config by hand.

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/network_stats.hpp"
#include "support/types.hpp"

namespace tlb::fault {

/// Message-fault probabilities for one MessageKind. Evaluated in the
/// order drop, duplicate, delay from a single uniform draw, so the three
/// probabilities must sum to at most 1.
struct KindFaults {
  double drop = 0.0;
  double duplicate = 0.0;
  double delay = 0.0;
  /// Delay faults hold the message for uniform_int(delay_min_polls,
  /// delay_max_polls) drain visits of the destination rank.
  std::uint32_t delay_min_polls = 1;
  std::uint32_t delay_max_polls = 16;

  [[nodiscard]] bool active() const {
    return drop > 0.0 || duplicate > 0.0 || delay > 0.0;
  }
};

/// A transient stall: `rank` refuses to drain for polls in
/// [from_poll, until_poll). Bounded by construction, so quiescence always
/// outlives it.
struct StallWindow {
  RankId rank = invalid_rank;
  std::uint64_t from_poll = 0;
  std::uint64_t until_poll = 0;
};

struct FaultConfig {
  std::string name = "none";
  std::array<KindFaults, rt::num_message_kinds> kinds{};
  /// Straggler pattern: every `straggler_stride`-th rank (ranks r with
  /// r % stride == stride - 1) only drains on one poll in
  /// `straggler_period`, modeling a rank whose scheduler runs slow.
  /// 0 disables.
  RankId straggler_stride = 0;
  std::uint32_t straggler_period = 4;
  /// Transient stalls (see StallWindow).
  std::vector<StallWindow> stalls;
  /// Mid-epoch crash: `crash_rank` stops processing permanently once its
  /// drain-visit counter reaches `crash_at_poll`; its queued and future
  /// messages are purged/dropped. invalid_rank disables.
  RankId crash_rank = invalid_rank;
  std::uint64_t crash_at_poll = 0;

  [[nodiscard]] bool message_faults_active() const {
    for (KindFaults const& k : kinds) {
      if (k.active()) {
        return true;
      }
    }
    return false;
  }

  /// Set identical message faults on the three protocol kinds the
  /// hardened paths cover (gossip, transfer, migration).
  FaultConfig& fault_protocol_kinds(KindFaults const& faults);

  // --- Canonical profiles (the chaos matrix's columns). ---
  [[nodiscard]] static FaultConfig none();
  /// 5% of protocol messages vanish.
  [[nodiscard]] static FaultConfig drops();
  /// 20% of protocol messages are held back 1..16 destination polls.
  [[nodiscard]] static FaultConfig delays();
  /// 5% of protocol messages are delivered twice.
  [[nodiscard]] static FaultConfig duplicates();
  /// Every 4th rank drains only one poll in four.
  [[nodiscard]] static FaultConfig stragglers();
  /// Rank 1 crashes once its drain counter reaches 512, plus mild drops
  /// so the crash is not the only fault in play.
  [[nodiscard]] static FaultConfig crash();
  /// Everything at once: drops + duplicates + delays + stragglers.
  [[nodiscard]] static FaultConfig chaos();

  /// Look a canonical profile up by name; throws std::invalid_argument
  /// for unknown names.
  [[nodiscard]] static FaultConfig profile(std::string_view name);
  [[nodiscard]] static std::vector<std::string_view> profile_names();
};

} // namespace tlb::fault
