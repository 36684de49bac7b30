// Round supervision for the continuous census daemon.
//
// A weeks-long measurement campaign does not fail loudly — it degrades:
// VPs quarantine, regions go dark, stragglers get cut off, and a round
// that silently lost a third of its platform would poison every
// longitudinal baseline it touches. The supervisor turns each round's
// census summary into an explicit health verdict against a coverage
// floor, and adapts the prober between rounds: degraded rounds escalate
// the per-VP retry/backoff budgets (the platform is struggling — work
// harder per target), healthy rounds relax them back toward the base
// configuration. Verdicts are pure functions of the summary, so a
// restarted daemon replays its persisted verdict history and lands on
// exactly the escalation level the killed process was at.
#pragma once

#include <cstdint>
#include <string_view>

#include "anycast/census/census.hpp"

namespace anycast::daemon {

enum class RoundHealth : std::uint8_t {
  kHealthy,   // coverage at or above the floor; usable as a baseline
  kDegraded,  // too many lost VPs; excluded from drift baselines
};

std::string_view to_string(RoundHealth health);

struct SupervisorConfig {
  /// Minimum fraction of active (non-skipped) VPs that must complete
  /// their walk for the round to count as healthy. The paper's censuses
  /// kept 240-269 of ~270 alive nodes — a round below the floor looks
  /// nothing like the platform the baselines were built on.
  double coverage_floor = 0.80;
  /// Escalation ladder cap: how many degraded rounds in a row can raise
  /// the retry budgets before they saturate.
  int max_escalation = 3;
  /// Extra retry passes added per escalation level.
  int retry_step = 1;
};

/// One round's health assessment.
struct RoundVerdict {
  int round = 0;
  RoundHealth health = RoundHealth::kHealthy;
  double coverage = 0.0;        // completed / active
  std::size_t completed = 0;    // VPs that finished their walk
  std::size_t active = 0;       // VPs up for the round (availability coin)
  std::size_t configured = 0;   // platform size
  int escalation = 0;           // level the round was probed at

  bool operator==(const RoundVerdict&) const = default;
};

class Supervisor {
 public:
  explicit Supervisor(SupervisorConfig config = {}) : config_(config) {}

  [[nodiscard]] const SupervisorConfig& config() const { return config_; }
  [[nodiscard]] int escalation() const { return escalation_; }

  /// The prober configuration for the next round at the current
  /// escalation level: more retry passes, a proportionally larger retry
  /// budget, and a longer straggler deadline. Level 0 returns `base`
  /// unchanged.
  [[nodiscard]] census::FastPingConfig tuned(
      const census::FastPingConfig& base) const;

  /// Judges one completed round against the coverage floor. Pure: does
  /// not advance the escalation state (call `observe` for that), so a
  /// restart can re-judge history without side effects.
  [[nodiscard]] RoundVerdict assess(int round,
                                    const census::CensusSummary& summary) const;

  /// Folds a verdict into the escalation state: degraded rounds climb
  /// one level (saturating at max_escalation), healthy rounds step back
  /// down toward zero.
  void observe(const RoundVerdict& verdict);

 private:
  SupervisorConfig config_;
  int escalation_ = 0;
};

}  // namespace anycast::daemon
