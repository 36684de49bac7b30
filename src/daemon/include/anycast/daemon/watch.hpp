// The continuous census daemon (watch mode).
//
// Sec. 5 of the paper closes with the longitudinal program: "taking
// periodic censuses and analyzing the time evolution over longer
// timescales would allow to track evolution of IP anycast deployments" —
// and periodic scanning for hijack alarms. `WatchDaemon` is that loop,
// built for the failures a long campaign actually hits. Each round runs a
// full census through the PR 1 checkpoint/resume machinery (census_id ==
// round number, so a killed daemon restarted over the same directory
// resumes the interrupted round mid-walk), diffs the frozen CSR snapshot
// row-by-row against the previous round, re-analyzes only the dirty rows,
// and emits longitudinal semantic events — replica churn, catchment
// shifts, suspected hijacks — through the journal, keeping the committed
// event stream byte-identical across thread counts.
//
// Robustness semantics (DESIGN.md §13):
//   - Every round gets a supervisor verdict against a coverage floor.
//     Degraded rounds are analyzed but emit no longitudinal events and
//     never become drift baselines or hijack references — a half-dark
//     platform produces "changes" that are artifacts of the darkness.
//   - The fastping seed is fixed across rounds: a static world replays
//     bit-identical rows, so every dirty row is signal (chaos, churn, or
//     an escalation-induced retry change), not per-round noise.
//   - Progress is persisted to `watch.state` (obs::write_file_atomic:
//     tmp + fsync + rename + directory fsync) after each round, in the
//     census manifest's checksummed key=value codec (WatchState).
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "anycast/analysis/diff.hpp"
#include "anycast/analysis/hijack.hpp"
#include "anycast/census/census.hpp"
#include "anycast/census/hitlist.hpp"
#include "anycast/census/sharded.hpp"
#include "anycast/daemon/supervisor.hpp"
#include "anycast/net/fault.hpp"
#include "anycast/obs/slo.hpp"

namespace anycast::concurrency {
class ThreadPool;
}

namespace anycast::serving {
class SnapshotStore;
}

namespace anycast::daemon {

struct WatchConfig {
  int rounds = 3;                   // total rounds the campaign should reach
  std::filesystem::path out_dir;    // checkpoints + watch.state
  std::size_t min_vps = 2;
  std::size_t min_replica_delta = 1;

  census::FastPingConfig fastping;  // seed is shared by every round
  SupervisorConfig supervisor;

  /// Data-plane shape for every round's matrix (shard size, RSS budget,
  /// spill directory). The defaults are one unspilled shard; any
  /// setting leaves the committed journal stream and semantic metrics
  /// byte-identical (DESIGN.md §15).
  census::DataPlaneConfig data_plane;

  /// Chaos: when enabled, each round probes under `chaos` re-seeded per
  /// round (hash of spec seed and round number), so outages and flaps
  /// move around while staying replayable.
  bool chaos_enabled = false;
  net::FaultSpec chaos;
  /// Staged hijack: the spec's hijack fields only activate from this
  /// round on, so earlier healthy rounds establish the unicast reference.
  int hijack_from_round = 3;

  /// World churn: deterministically grow/shrink/move one deployment
  /// prefix's replica set before each round from round 2 on.
  bool churn = false;
  std::uint64_t churn_seed = 77;

  /// Watchdog drill: abort round N mid-way — half the platform probed and
  /// checkpointed, no state commit — and exit with kAbortedExitCode, as a
  /// deterministic stand-in for kill -9. A restart over the same out_dir
  /// resumes the half-done round.
  int die_at_round = 0;  // 0 = never

  /// SLO objectives (parsed from `--slo`), installed into the global
  /// telemetry plane at run() start. The availability objective is fed
  /// per round from the verdict's completed/active counts — semantic
  /// inputs, so its violation/recovery journal events are kSemantic and
  /// drift-gated like every other round event. Latency objectives are
  /// evaluated by the telemetry ticker (kTiming). Empty = no tracking,
  /// no events; burn windows restart with the process on resume.
  std::vector<obs::SloObjective> slo;

  /// When non-null, every committed round's frozen matrix + outcomes are
  /// published here as an immutable SnapshotView (id = round number,
  /// hitlist-indexed). The swap is an atomic epoch bump: readers serving
  /// queries mid-round keep their pinned epoch, the next acquire sees the
  /// new round — the census never stalls a query and vice versa.
  serving::SnapshotStore* serve_store = nullptr;
};

/// What `watch.state` holds between rounds: the committed rounds'
/// verdicts (replayed to restore the escalation ladder), each round's
/// quarantined VPs (so its matrix can be re-collated from checkpoints
/// without re-probing), and the accumulated blacklist.
struct WatchState {
  std::vector<RoundVerdict> verdicts;                   // round r at [r - 1]
  std::vector<std::vector<std::uint32_t>> quarantined;  // round r at [r - 1]
  std::vector<std::pair<std::uint32_t, net::ReplyKind>> blacklist;

  bool operator==(const WatchState&) const = default;
};

/// `watch.state`'s text, in the census manifest codec: `rounds`,
/// `verdict<r>` (health, coverage permille, completed, active, configured,
/// escalation), `quarantined<r>` (VP ids) and `blacklist` (/24 and reply
/// kind pairs), values separated by spaces.
std::string encode_watch_state(const WatchState& state);

/// The strict inverse: nullopt, with `*error` set, for a text the codec
/// refuses, a missing or extra key, or a value out of range or not whole.
std::optional<WatchState> decode_watch_state(std::string_view text,
                                             std::string* error);

/// Exit code the CLI maps a watchdog abort to (BSD EX_SOFTWARE).
inline constexpr int kAbortedExitCode = 70;

/// What one round produced (in this process — resumed campaigns only
/// record the rounds they ran).
struct RoundRecord {
  RoundVerdict verdict;
  std::size_t vps_reused = 0;   // checkpoints inherited from a killed run
  std::size_t vps_rerun = 0;
  bool resumed = false;         // round continued from partial checkpoints
  std::size_t dirty = 0;        // rows re-analyzed (vs previous round)
  std::size_t anycast = 0;      // anycast /24s after this round
  std::size_t churn_events = 0;
  std::size_t hijack_alarms = 0;
};

struct WatchResult {
  std::vector<RoundRecord> rounds;
  int rounds_completed = 0;  // campaign total, including prior processes
  int exit_code = 0;         // kAbortedExitCode after a watchdog abort
  std::string error;         // nonempty on fatal error (exit_code != 0)
};

class WatchDaemon {
 public:
  /// `internet`, `vps`, `cities`, and `hitlist` must outlive the daemon.
  /// `internet` is mutated between rounds when `config.churn` is set.
  WatchDaemon(net::SimulatedInternet& internet,
              std::span<const net::VantagePoint> vps,
              const geo::CityIndex& cities, const census::Hitlist& hitlist,
              WatchConfig config);

  /// Runs (or resumes) the campaign up to `config.rounds` rounds.
  WatchResult run(concurrency::ThreadPool* pool = nullptr);

 private:
  [[nodiscard]] std::optional<net::FaultPlan> plan_for_round(int round) const;
  void apply_churn(int round);
  [[nodiscard]] std::shared_ptr<const census::ShardedCensusMatrix>
  collate_round(int round, concurrency::ThreadPool* pool,
                std::string* error) const;
  bool save_state(std::string* error) const;
  bool load_state(WatchState* state, std::string* error) const;
  void prune_checkpoints() const;

  net::SimulatedInternet& internet_;
  std::span<const net::VantagePoint> vps_;
  const geo::CityIndex& cities_;
  const census::Hitlist& hitlist_;
  WatchConfig config_;

  analysis::CensusAnalyzer analyzer_;
  analysis::HijackMonitor monitor_;
  Supervisor supervisor_;
  census::Greylist blacklist_;
  int churn_applied_ = 1;  // highest round whose world toggle is in effect
  std::vector<RoundVerdict> verdicts_;  // committed rounds, in order
  std::vector<std::vector<std::uint32_t>> quarantined_;  // per round

  // Previous committed round (incremental-analysis input). The matrices
  // are shared and immutable: publishing a round and adopting it as the
  // drift baseline copy a pointer, not the matrix.
  int prev_round_ = 0;  // 0 = none yet
  std::shared_ptr<const census::ShardedCensusMatrix> prev_matrix_;
  std::vector<analysis::TargetOutcome> prev_outcomes_;

  // Last healthy round (drift baseline for churn/shift events).
  int baseline_round_ = 0;
  std::shared_ptr<const census::ShardedCensusMatrix> baseline_matrix_;
  analysis::CensusSnapshot baseline_snapshot_;

  // First healthy round (hijack reference).
  int reference_round_ = 0;
};

}  // namespace anycast::daemon
