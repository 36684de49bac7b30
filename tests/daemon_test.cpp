// Continuous census daemon: supervisor verdicts, incremental re-analysis,
// and multi-round watch campaigns under adverse rounds (degraded coverage,
// staged hijacks, watchdog aborts). The load-bearing invariant throughout:
// an incremental pass, a resumed campaign, and a pooled run must be
// element-identical to the full / uninterrupted / serial equivalent.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <numeric>
#include <vector>

#include "anycast/analysis/incremental.hpp"
#include "anycast/census/census.hpp"
#include "anycast/census/resume.hpp"
#include "anycast/concurrency/thread_pool.hpp"
#include "anycast/daemon/supervisor.hpp"
#include "anycast/daemon/watch.hpp"
#include "anycast/geo/city_index.hpp"
#include "anycast/net/platform.hpp"
#include "anycast/obs/durable.hpp"
#include "anycast/obs/journal.hpp"
#include "anycast/obs/metrics.hpp"
#include "anycast/obs/slo.hpp"
#include "anycast/obs/telemetry.hpp"

namespace anycast {
namespace {

namespace fs = std::filesystem;

net::WorldConfig small_world_config() {
  net::WorldConfig config;
  config.seed = 33;
  config.unicast_alive_slash24 = 400;
  config.unicast_dead_slash24 = 200;
  return config;
}

const net::SimulatedInternet& small_world() {
  static const net::SimulatedInternet world(small_world_config());
  return world;
}

const census::Hitlist& small_hitlist() {
  static const census::Hitlist hitlist =
      census::Hitlist::from_world(small_world()).without_dead();
  return hitlist;
}

const std::vector<net::VantagePoint>& small_vps() {
  static const std::vector<net::VantagePoint> vps =
      net::make_planetlab({.node_count = 20, .seed = 34});
  return vps;
}

census::FastPingConfig watch_fastping() {
  census::FastPingConfig config;
  config.seed = 90;
  return config;
}

// --- Supervisor -------------------------------------------------------------

census::CensusSummary summary_with(std::size_t completed, std::size_t active,
                                   std::size_t configured) {
  census::CensusSummary summary;
  summary.active_vps = active;
  for (std::size_t i = 0; i < configured; ++i) {
    census::VpStatus status;
    status.vp_id = static_cast<std::uint32_t>(i);
    status.outcome = i < completed    ? census::VpOutcome::kCompleted
                     : i < active     ? census::VpOutcome::kCrashed
                                      : census::VpOutcome::kSkipped;
    summary.vp_outcomes.push_back(status);
  }
  return summary;
}

TEST(Supervisor, AssessJudgesCoverageAgainstFloor) {
  daemon::SupervisorConfig config;
  config.coverage_floor = 0.80;
  const daemon::Supervisor supervisor(config);

  const auto healthy = supervisor.assess(1, summary_with(8, 10, 12));
  EXPECT_EQ(healthy.health, daemon::RoundHealth::kHealthy);
  EXPECT_DOUBLE_EQ(healthy.coverage, 0.8);
  EXPECT_EQ(healthy.completed, 8u);
  EXPECT_EQ(healthy.active, 10u);
  EXPECT_EQ(healthy.configured, 12u);

  const auto degraded = supervisor.assess(2, summary_with(7, 10, 12));
  EXPECT_EQ(degraded.health, daemon::RoundHealth::kDegraded);

  // Skipped VPs (availability coin) do not count against coverage: 8 of 8
  // active completing is a healthy round even on a 12-node platform.
  const auto half_dark = supervisor.assess(3, summary_with(8, 8, 12));
  EXPECT_EQ(half_dark.health, daemon::RoundHealth::kHealthy);

  // An entirely dark platform is degraded, not a division by zero.
  const auto dark = supervisor.assess(4, summary_with(0, 0, 12));
  EXPECT_EQ(dark.health, daemon::RoundHealth::kDegraded);
  EXPECT_DOUBLE_EQ(dark.coverage, 0.0);
}

TEST(Supervisor, EscalationClimbsSaturatesAndDecays) {
  daemon::SupervisorConfig config;
  config.coverage_floor = 0.80;
  config.max_escalation = 3;
  daemon::Supervisor supervisor(config);
  const auto degraded = supervisor.assess(1, summary_with(1, 10, 10));
  const auto healthy = supervisor.assess(1, summary_with(10, 10, 10));

  for (int i = 0; i < 5; ++i) supervisor.observe(degraded);
  EXPECT_EQ(supervisor.escalation(), 3) << "ladder must saturate at the cap";
  supervisor.observe(healthy);
  EXPECT_EQ(supervisor.escalation(), 2);
  for (int i = 0; i < 5; ++i) supervisor.observe(healthy);
  EXPECT_EQ(supervisor.escalation(), 0) << "must floor at zero";
}

TEST(Supervisor, TunedScalesRetryKnobsWithEscalation) {
  daemon::Supervisor supervisor({.coverage_floor = 0.9});
  census::FastPingConfig base;
  base.retry_max_attempts = 1;
  base.retry_probe_budget = 100;
  base.vp_deadline_hours = 4.0;

  // Level 0: the base configuration, untouched.
  EXPECT_EQ(supervisor.tuned(base).retry_max_attempts, 1);
  EXPECT_EQ(supervisor.tuned(base).retry_probe_budget, 100u);

  supervisor.observe(supervisor.assess(1, summary_with(0, 10, 10)));
  supervisor.observe(supervisor.assess(2, summary_with(0, 10, 10)));
  const census::FastPingConfig tuned = supervisor.tuned(base);
  EXPECT_EQ(tuned.retry_max_attempts, 3);      // base + 2 * retry_step
  EXPECT_EQ(tuned.retry_probe_budget, 300u);   // base * (escalation + 1)
  EXPECT_DOUBLE_EQ(tuned.vp_deadline_hours, 4.0 * 1.5);

  // Zero budgets/deadlines mean "unlimited" and must stay that way.
  census::FastPingConfig unlimited;
  EXPECT_EQ(supervisor.tuned(unlimited).retry_probe_budget, 0u);
  EXPECT_DOUBLE_EQ(supervisor.tuned(unlimited).vp_deadline_hours, 0.0);
}

TEST(Supervisor, VerdictReplayRestoresEscalation) {
  // The daemon persists verdicts, not the escalation counter: a restarted
  // process replays history through observe() and must land on the same
  // level. assess() is pure, so replay has no side effects of its own.
  daemon::Supervisor live({.coverage_floor = 0.8, .max_escalation = 3});
  std::vector<daemon::RoundVerdict> history;
  const std::size_t completions[] = {10, 2, 3, 10, 1};
  for (int round = 1; round <= 5; ++round) {
    const auto verdict = live.assess(
        round, summary_with(completions[round - 1], 10, 10));
    live.observe(verdict);
    history.push_back(verdict);
  }

  daemon::Supervisor replayed({.coverage_floor = 0.8, .max_escalation = 3});
  for (const auto& verdict : history) replayed.observe(verdict);
  EXPECT_EQ(replayed.escalation(), live.escalation());
}

// --- dirty_rows / incremental_analyze ---------------------------------------

TEST(IncrementalAnalysis, DirtyRowsFindsExactlyTheChangedRows) {
  census::ShardedCensusMatrixBuilder prev_builder(10);
  census::ShardedCensusMatrixBuilder next_builder(10);
  for (std::uint32_t t = 0; t < 10; ++t) {
    prev_builder.add(t, 0, 10.0F + static_cast<float>(t));
    prev_builder.add(t, 1, 20.0F);
    next_builder.add(t, 0, 10.0F + static_cast<float>(t));
    next_builder.add(t, 1, t == 3 ? 21.0F : 20.0F);  // row 3: rtt changed
    if (t == 7) next_builder.add(t, 2, 30.0F);       // row 7: extra vp
  }
  const census::ShardedCensusMatrix prev = prev_builder.build();
  const census::ShardedCensusMatrix next = next_builder.build();

  const auto dirty = analysis::dirty_rows(prev, next);
  EXPECT_EQ(dirty, (std::vector<std::uint32_t>{3, 7}));
  EXPECT_TRUE(analysis::dirty_rows(prev, prev).empty());

  concurrency::ThreadPool pool(4);
  EXPECT_EQ(analysis::dirty_rows(prev, next, &pool), dirty);
}

TEST(IncrementalAnalysis, MismatchedTargetCountsDirtyEverything) {
  const census::ShardedCensusMatrix prev =
      census::ShardedCensusMatrixBuilder(5).build();
  const census::ShardedCensusMatrix next =
      census::ShardedCensusMatrixBuilder(7).build();
  std::vector<std::uint32_t> all(7);
  std::iota(all.begin(), all.end(), 0u);
  EXPECT_EQ(analysis::dirty_rows(prev, next), all);
}

void expect_same_outcomes(std::span<const analysis::TargetOutcome> a,
                          std::span<const analysis::TargetOutcome> b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].target_index, b[i].target_index);
    EXPECT_EQ(a[i].slash24_index, b[i].slash24_index);
    EXPECT_EQ(a[i].result.anycast, b[i].result.anycast);
    ASSERT_EQ(a[i].result.replicas.size(), b[i].result.replicas.size());
    for (std::size_t r = 0; r < a[i].result.replicas.size(); ++r) {
      EXPECT_EQ(a[i].result.replicas[r].city, b[i].result.replicas[r].city);
    }
  }
}

TEST(IncrementalAnalysis, MatchesFullAnalyzeUnderAdverseRounds) {
  // prev: a clean census. next: the same census probed through a fault
  // plan that knocks out windows of probes and crashes VPs — the adverse
  // shape watch rounds actually produce. The incremental splice must be
  // element-identical to a full re-analysis of next, serial and pooled.
  census::Greylist blacklist_a;
  const census::ShardedCensusMatrix prev = run_census_sharded(
      small_world(), small_vps(), small_hitlist(), blacklist_a,
      watch_fastping()).data;
  net::FaultSpec spec;
  spec.outage_rate = 0.6;
  spec.crash_rate = 0.3;
  const net::FaultPlan plan(spec);
  census::Greylist blacklist_b;
  const census::ShardedCensusMatrix next = run_census_sharded(
      small_world(), small_vps(), small_hitlist(), blacklist_b,
      watch_fastping(), {}, &plan).data;

  const analysis::CensusAnalyzer analyzer(small_vps(), geo::world_index());
  const auto prev_outcomes = analyzer.analyze(prev, small_hitlist());
  const auto full = analyzer.analyze(next, small_hitlist());

  const auto incremental = analysis::incremental_analyze(
      analyzer, prev_outcomes, prev, next, small_hitlist());
  EXPECT_FALSE(incremental.dirty.empty());
  EXPECT_LT(incremental.dirty.size(), small_hitlist().size())
      << "faults should not dirty literally every row";
  expect_same_outcomes(incremental.outcomes, full);

  concurrency::ThreadPool pool(4);
  const auto pooled = analysis::incremental_analyze(
      analyzer, prev_outcomes, prev, next, small_hitlist(), 2, &pool);
  EXPECT_EQ(pooled.dirty, incremental.dirty);
  expect_same_outcomes(pooled.outcomes, incremental.outcomes);
}

/// The same rows under a fresh stamp and no change record, so dirty_rows
/// on it has to scan.
census::ShardedCensusMatrix rebuilt(const census::ShardedCensusMatrix& m) {
  census::ShardedCensusMatrixBuilder builder(m.target_count(), m.plane());
  for (std::uint32_t t = 0; t < m.target_count(); ++t) {
    for (const census::VpRtt& value : m.measurements(t)) {
      builder.add(t, value.vp, value.rtt_ms);
    }
  }
  return builder.build();
}

TEST(IncrementalAnalysis, DerivedRoundsMatchFullAnalyze) {
  // Serving rounds: each round is the previous matrix combined with a
  // fresh census (new fastping seed), so dirty_rows answers from the
  // combine_min change record. Over chained rounds, one shard and many,
  // serial and pooled, the record must equal the full scan and the splice
  // a full re-analysis.
  const analysis::CensusAnalyzer analyzer(small_vps(), geo::world_index());
  concurrency::ThreadPool pool(4);
  for (const std::size_t shard_targets : {std::size_t{0}, std::size_t{37}}) {
    census::DataPlaneConfig plane;
    plane.shard_targets = shard_targets;
    census::Greylist blacklist;
    census::ShardedCensusMatrix prev =
        run_census_sharded(small_world(), small_vps(), small_hitlist(),
                           blacklist, watch_fastping(), plane)
            .data;
    std::vector<analysis::TargetOutcome> prev_outcomes =
        analyzer.analyze(prev, small_hitlist());
    for (std::uint64_t round = 1; round <= 3; ++round) {
      SCOPED_TRACE("shard_targets=" + std::to_string(shard_targets) +
                   " round=" + std::to_string(round));
      census::FastPingConfig fastping = watch_fastping();
      fastping.seed = 500 + round;
      census::Greylist round_blacklist;
      census::ShardedCensusMatrix next = prev;
      next.combine_min(run_census_sharded(small_world(), small_vps(),
                                          small_hitlist(), round_blacklist,
                                          fastping, plane)
                           .data);
      ASSERT_EQ(next.last_change().base, prev.stamp());

      const auto scanned = analysis::dirty_rows(rebuilt(prev), rebuilt(next));
      EXPECT_EQ(analysis::dirty_rows(prev, next), scanned);
      EXPECT_EQ(analysis::dirty_rows(prev, next, &pool), scanned);
      EXPECT_FALSE(scanned.empty());
      EXPECT_LT(scanned.size(), small_hitlist().size());

      const auto full = analyzer.analyze(next, small_hitlist());
      const auto serial = analysis::incremental_analyze(
          analyzer, prev_outcomes, prev, next, small_hitlist());
      EXPECT_EQ(serial.dirty, scanned);
      expect_same_outcomes(serial.outcomes, full);
      const auto pooled = analysis::incremental_analyze(
          analyzer, prev_outcomes, prev, next, small_hitlist(), 2, &pool);
      EXPECT_EQ(pooled.dirty, scanned);
      expect_same_outcomes(pooled.outcomes, full);

      prev = std::move(next);
      prev_outcomes = full;
    }
  }
}

TEST(IncrementalAnalysis, CleanRoundReanalyzesNothing) {
  census::Greylist blacklist;
  const census::ShardedCensusMatrix data = run_census_sharded(
      small_world(), small_vps(), small_hitlist(), blacklist,
      watch_fastping()).data;
  const analysis::CensusAnalyzer analyzer(small_vps(), geo::world_index());
  const auto outcomes = analyzer.analyze(data, small_hitlist());
  const auto incremental = analysis::incremental_analyze(
      analyzer, outcomes, data, data, small_hitlist());
  EXPECT_TRUE(incremental.dirty.empty());
  expect_same_outcomes(incremental.outcomes, outcomes);
}

TEST(HijackMonitor, ScanTargetsOverDirtyRowsEqualsFullScan) {
  // The reference is fixed and detection is row-pure, so restricting the
  // scan to rows that changed since the reference round must raise the
  // exact alarms of a full scan: an unchanged row cannot change verdict.
  census::Greylist blacklist_a;
  const census::ShardedCensusMatrix reference = run_census_sharded(
      small_world(), small_vps(), small_hitlist(), blacklist_a,
      watch_fastping()).data;
  net::FaultSpec spec;
  spec.hijack_vp_fraction = 0.8;
  for (std::uint32_t i = 1; i <= 4; ++i) {
    spec.hijack_targets.push_back(
        static_cast<std::uint32_t>(i * small_hitlist().size() / 5));
  }
  const net::FaultPlan plan(spec);
  census::Greylist blacklist_b;
  const census::ShardedCensusMatrix hijacked = run_census_sharded(
      small_world(), small_vps(), small_hitlist(), blacklist_b,
      watch_fastping(), {}, &plan).data;

  analysis::HijackMonitor monitor(small_vps(), geo::world_index());
  monitor.set_reference(reference, small_hitlist());
  const auto full = monitor.scan(hijacked, small_hitlist());
  const auto dirty = analysis::dirty_rows(reference, hijacked);
  EXPECT_EQ(dirty.size(), spec.hijack_targets.size())
      << "hijack must dirty its victims and nothing else";
  const auto targeted =
      monitor.scan_targets(hijacked, small_hitlist(), dirty);
  ASSERT_EQ(targeted.size(), full.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(targeted[i].target_index, full[i].target_index);
    EXPECT_EQ(targeted[i].slash24_index, full[i].slash24_index);
  }
  EXPECT_GT(full.size(), 0u) << "a staged hijack must raise alarms";
}

// --- WatchDaemon ------------------------------------------------------------

class WatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("anycast_daemon_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  daemon::WatchConfig base_config(const fs::path& out) const {
    daemon::WatchConfig config;
    config.out_dir = out;
    config.fastping = watch_fastping();
    return config;
  }

  daemon::WatchResult run_watch(const daemon::WatchConfig& config,
                                concurrency::ThreadPool* pool = nullptr) {
    net::SimulatedInternet internet(small_world_config());
    daemon::WatchDaemon watcher(internet, small_vps(), geo::world_index(),
                                small_hitlist(), config);
    return watcher.run(pool);
  }

  static std::vector<char> read_bytes(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  fs::path dir_;
};

void expect_same_records(const daemon::RoundRecord& a,
                         const daemon::RoundRecord& b) {
  EXPECT_EQ(a.verdict.round, b.verdict.round);
  EXPECT_EQ(a.verdict.health, b.verdict.health);
  EXPECT_EQ(a.verdict.completed, b.verdict.completed);
  EXPECT_EQ(a.verdict.active, b.verdict.active);
  EXPECT_EQ(a.dirty, b.dirty);
  EXPECT_EQ(a.anycast, b.anycast);
  EXPECT_EQ(a.churn_events, b.churn_events);
  EXPECT_EQ(a.hijack_alarms, b.hijack_alarms);
}

TEST_F(WatchTest, StaticWorldReplaysBitIdenticalRounds) {
  daemon::WatchConfig config = base_config(dir_);
  config.rounds = 3;
  const auto result = run_watch(config);
  EXPECT_EQ(result.exit_code, 0) << result.error;
  ASSERT_EQ(result.rounds.size(), 3u);
  EXPECT_EQ(result.rounds_completed, 3);
  for (const auto& record : result.rounds) {
    EXPECT_EQ(record.verdict.health, daemon::RoundHealth::kHealthy);
    EXPECT_EQ(record.churn_events, 0u);
    EXPECT_EQ(record.hijack_alarms, 0u);
  }
  // Same seed, same world: rounds 2 and 3 replay round 1 exactly, so the
  // incremental pass re-analyzes nothing at all.
  EXPECT_EQ(result.rounds[1].dirty, 0u);
  EXPECT_EQ(result.rounds[2].dirty, 0u);
  EXPECT_EQ(result.rounds[1].anycast, result.rounds[0].anycast);
}

TEST_F(WatchTest, PooledRunMatchesSerialRun) {
  daemon::WatchConfig serial_config = base_config(dir_ / "serial");
  serial_config.rounds = 3;
  serial_config.churn = true;
  const auto serial = run_watch(serial_config);
  EXPECT_EQ(serial.exit_code, 0) << serial.error;

  daemon::WatchConfig pooled_config = base_config(dir_ / "pooled");
  pooled_config.rounds = 3;
  pooled_config.churn = true;
  concurrency::ThreadPool pool(4);
  const auto pooled = run_watch(pooled_config, &pool);
  EXPECT_EQ(pooled.exit_code, 0) << pooled.error;

  ASSERT_EQ(serial.rounds.size(), pooled.rounds.size());
  for (std::size_t i = 0; i < serial.rounds.size(); ++i) {
    expect_same_records(serial.rounds[i], pooled.rounds[i]);
  }
}

TEST_F(WatchTest, StagedHijackAlarmsOnlyFromStageRound) {
  daemon::WatchConfig config = base_config(dir_);
  config.rounds = 4;
  config.chaos_enabled = true;
  config.chaos.hijack_vp_fraction = 0.8;
  for (std::uint32_t i = 1; i <= 4; ++i) {
    config.chaos.hijack_targets.push_back(
        static_cast<std::uint32_t>(i * small_hitlist().size() / 5));
  }
  config.hijack_from_round = 3;
  const auto result = run_watch(config);
  EXPECT_EQ(result.exit_code, 0) << result.error;
  ASSERT_EQ(result.rounds.size(), 4u);

  // Pre-stage rounds: bit-identical replays, no alarms, nothing dirty.
  EXPECT_EQ(result.rounds[0].hijack_alarms, 0u);
  EXPECT_EQ(result.rounds[1].hijack_alarms, 0u);
  EXPECT_EQ(result.rounds[1].dirty, 0u);

  // Stage round: only the victims' rows change, and the monitor alarms on
  // the reference-unicast ones. Nothing spurious rides along.
  EXPECT_EQ(result.rounds[2].dirty, config.chaos.hijack_targets.size());
  EXPECT_GT(result.rounds[2].hijack_alarms, 0u);
  EXPECT_LE(result.rounds[2].hijack_alarms,
            config.chaos.hijack_targets.size());

  // The attack persists in round 4; the edge-triggered scan measures
  // against the (pre-attack) baseline, so the standing alarms re-raise.
  EXPECT_EQ(result.rounds[3].dirty, config.chaos.hijack_targets.size());
  EXPECT_EQ(result.rounds[3].hijack_alarms, result.rounds[2].hijack_alarms);
}

TEST_F(WatchTest, DegradedRoundEmitsNoEventsAndIsNoBaseline) {
  // Phase 1: one clean round establishes the baseline and the hijack
  // reference.
  daemon::WatchConfig phase1 = base_config(dir_);
  phase1.rounds = 1;
  const auto first = run_watch(phase1);
  EXPECT_EQ(first.exit_code, 0) << first.error;
  ASSERT_EQ(first.rounds.size(), 1u);
  ASSERT_EQ(first.rounds[0].verdict.health, daemon::RoundHealth::kHealthy);

  // Phase 2: round 2 under a near-total crash plan drops below the floor.
  daemon::WatchConfig phase2 = base_config(dir_);
  phase2.rounds = 2;
  phase2.chaos_enabled = true;
  phase2.chaos.crash_rate = 0.97;
  phase2.hijack_from_round = 99;
  const auto second = run_watch(phase2);
  EXPECT_EQ(second.exit_code, 0) << second.error;
  ASSERT_EQ(second.rounds.size(), 1u);
  const auto& degraded = second.rounds[0];
  ASSERT_EQ(degraded.verdict.health, daemon::RoundHealth::kDegraded)
      << "coverage " << degraded.verdict.coverage;
  // A half-dark platform loses replicas by artifact; the daemon must not
  // convert the darkness into churn or hijack events.
  EXPECT_EQ(degraded.churn_events, 0u);
  EXPECT_EQ(degraded.hijack_alarms, 0u);
  EXPECT_GT(degraded.dirty, 0u) << "the darkness itself does dirty rows";

  // Phase 3: round 3 is clean again, but stages a hijack. The reference
  // and baseline must still be round 1 (not the degraded round 2), so the
  // alarms fire through the baseline-matrix comparison path.
  daemon::WatchConfig phase3 = base_config(dir_);
  phase3.rounds = 3;
  phase3.chaos_enabled = true;
  phase3.chaos.hijack_vp_fraction = 0.8;
  for (std::uint32_t i = 1; i <= 4; ++i) {
    phase3.chaos.hijack_targets.push_back(
        static_cast<std::uint32_t>(i * small_hitlist().size() / 5));
  }
  phase3.hijack_from_round = 3;
  const auto third = run_watch(phase3);
  EXPECT_EQ(third.exit_code, 0) << third.error;
  ASSERT_EQ(third.rounds.size(), 1u);
  const auto& recovered = third.rounds[0];
  EXPECT_EQ(recovered.verdict.health, daemon::RoundHealth::kHealthy);
  // Escalation climbed after the degraded round: round 3 probes at level 1.
  EXPECT_EQ(recovered.verdict.escalation, 1);
  EXPECT_GT(recovered.hijack_alarms, 0u)
      << "degraded round must not have poisoned the unicast reference";
}

TEST_F(WatchTest, WatchdogAbortThenRestartMatchesUninterruptedCampaign) {
  daemon::WatchConfig clean_config = base_config(dir_ / "clean");
  clean_config.rounds = 3;
  clean_config.churn = true;
  const auto clean = run_watch(clean_config);
  EXPECT_EQ(clean.exit_code, 0) << clean.error;
  ASSERT_EQ(clean.rounds.size(), 3u);

  // The drill kills the daemon mid-round-2: half the platform probed and
  // checkpointed, nothing committed.
  daemon::WatchConfig drill_config = base_config(dir_ / "drill");
  drill_config.rounds = 3;
  drill_config.churn = true;
  drill_config.die_at_round = 2;
  const auto aborted = run_watch(drill_config);
  EXPECT_EQ(aborted.exit_code, daemon::kAbortedExitCode);
  ASSERT_EQ(aborted.rounds.size(), 1u);
  EXPECT_EQ(aborted.rounds_completed, 1);

  // The drill checkpoints through the census pass's own per-VP step, so
  // each round-2 file it left is byte-identical to the same VP's file in
  // an uninterrupted campaign. (The 3-round campaign prunes its round-2
  // files, so a 2-round one keeps them for the comparison.)
  daemon::WatchConfig two_round_config = base_config(dir_ / "clean2");
  two_round_config.rounds = 2;
  two_round_config.churn = true;
  ASSERT_EQ(run_watch(two_round_config).exit_code, 0);
  std::size_t drill_files = 0;
  for (const net::VantagePoint& vp : small_vps()) {
    const fs::path drilled =
        census::census_checkpoint_path(dir_ / "drill", 2, vp.id);
    if (!fs::exists(drilled)) continue;
    ++drill_files;
    EXPECT_EQ(read_bytes(drilled),
              read_bytes(census::census_checkpoint_path(dir_ / "clean2", 2,
                                                        vp.id)))
        << "vp " << vp.id;
  }
  EXPECT_GT(drill_files, 0u);
  EXPECT_LE(drill_files, small_vps().size() / 2);

  // The restart resumes the interrupted round from its checkpoints and
  // the campaign converges to the uninterrupted run, record for record.
  daemon::WatchConfig restart_config = base_config(dir_ / "drill");
  restart_config.rounds = 3;
  restart_config.churn = true;
  const auto resumed = run_watch(restart_config);
  EXPECT_EQ(resumed.exit_code, 0) << resumed.error;
  ASSERT_EQ(resumed.rounds.size(), 2u);
  EXPECT_EQ(resumed.rounds_completed, 3);
  EXPECT_TRUE(resumed.rounds[0].resumed)
      << "round 2 must inherit the drill's checkpoints";
  EXPECT_GT(resumed.rounds[0].vps_reused, 0u);
  expect_same_records(resumed.rounds[0], clean.rounds[1]);
  expect_same_records(resumed.rounds[1], clean.rounds[2]);
}

std::uint64_t durable_writes() {
  for (const obs::MetricValue& value : obs::metrics().scrape()) {
    if (value.name == "durable_writes") return value.value;
  }
  return 0;
}

TEST_F(WatchTest, CrashAtEveryDurableWriteThenRestartMatchesUninterrupted) {
  // The drill campaign of
  // WatchdogAbortThenRestartMatchesUninterruptedCampaign, killed inside
  // each of its durable writes in turn (round-1 checkpoints, the round-1
  // state commit, the drill's round-2 checkpoints). Each restart must
  // converge on the uninterrupted campaign, record for record and byte
  // for byte in watch.state.
  daemon::WatchConfig clean_config = base_config(dir_ / "clean");
  clean_config.rounds = 3;
  clean_config.churn = true;
  const auto clean = run_watch(clean_config);
  ASSERT_EQ(clean.exit_code, 0) << clean.error;
  ASSERT_EQ(clean.rounds.size(), 3u);
  const auto clean_state = read_bytes(dir_ / "clean" / "watch.state");

  daemon::WatchConfig drill_config = base_config(dir_ / "drill");
  drill_config.rounds = 3;
  drill_config.churn = true;
  drill_config.die_at_round = 2;
  const std::uint64_t writes_before = durable_writes();
  ASSERT_EQ(run_watch(drill_config).exit_code, daemon::kAbortedExitCode);
  const std::uint64_t writes = durable_writes() - writes_before;
  ASSERT_GT(writes, small_vps().size() / 2);

  for (std::uint64_t k = 1; k <= writes; ++k) {
    SCOPED_TRACE("crash at durable write " + std::to_string(k));
    const fs::path dir = dir_ / ("crash" + std::to_string(k));
    drill_config.out_dir = dir;
    obs::testing::crash_at_durable_write(k);
    EXPECT_THROW((void)run_watch(drill_config), obs::testing::CrashPoint);
    obs::testing::crash_at_durable_write(0);

    daemon::WatchConfig restart_config = base_config(dir);
    restart_config.rounds = 3;
    restart_config.churn = true;
    const auto resumed = run_watch(restart_config);
    EXPECT_EQ(resumed.exit_code, 0) << resumed.error;
    EXPECT_EQ(resumed.rounds_completed, 3);
    ASSERT_GE(resumed.rounds.size(), 2u);
    ASSERT_LE(resumed.rounds.size(), 3u);
    const std::size_t first = 3 - resumed.rounds.size();
    for (std::size_t i = 0; i < resumed.rounds.size(); ++i) {
      expect_same_records(resumed.rounds[i], clean.rounds[first + i]);
    }
    EXPECT_EQ(read_bytes(dir / "watch.state"), clean_state);
    fs::remove_all(dir);
  }
}

TEST_F(WatchTest, CompletedCampaignRestartsAsNoOp) {
  daemon::WatchConfig config = base_config(dir_);
  config.rounds = 2;
  const auto first = run_watch(config);
  EXPECT_EQ(first.exit_code, 0) << first.error;
  const auto again = run_watch(config);
  EXPECT_EQ(again.exit_code, 0) << again.error;
  EXPECT_TRUE(again.rounds.empty());
  EXPECT_EQ(again.rounds_completed, 2);
}

TEST_F(WatchTest, RegionalOutageSloViolationsAreDriftGatedAcrossPools) {
  std::string slo_error;
  const auto objectives = obs::parse_slo_spec("availability=0.9", &slo_error);
  ASSERT_TRUE(objectives.has_value()) << slo_error;

  // A correlated regional outage plus flaky quarantine probes pushes the
  // per-round availability ratio below the 0.9 objective: the burn tracker
  // must journal a violation, and the event sequence — a semantic artifact
  // computed from verdict counts, not wall clocks — must be byte-identical
  // no matter how many threads probed the platform.
  const auto chaos_config = [&](const fs::path& out) {
    daemon::WatchConfig config = base_config(out);
    config.rounds = 4;
    config.chaos_enabled = true;
    config.chaos.regional_rate = 0.9;
    config.chaos.regional_fraction = 0.5;
    config.chaos.regional_span = 0.6;
    config.fastping.quarantine_drop_rate = 0.4;
    config.slo = *objectives;
    return config;
  };

  const auto journaled_run = [&](const daemon::WatchConfig& config,
                                 concurrency::ThreadPool* pool) {
    obs::journal().reset();
    obs::journal().set_recording(true);
    const auto result = run_watch(config, pool);
    EXPECT_EQ(result.exit_code, 0) << result.error;
    std::string text = obs::journal().semantic_text();
    obs::journal().set_recording(false);
    obs::journal().reset();
    return text;
  };

  const std::string serial =
      journaled_run(chaos_config(dir_ / "serial"), nullptr);
  EXPECT_NE(serial.find("slo.violation"), std::string::npos)
      << "regional outage must trip the availability burn rate";

  for (const std::size_t threads : {1u, 2u, 8u}) {
    concurrency::ThreadPool pool(threads);
    const std::string pooled = journaled_run(
        chaos_config(dir_ / ("pool" + std::to_string(threads))), &pool);
    EXPECT_EQ(pooled, serial) << threads << "-thread pool drifted";
  }

  // A healthy campaign with the same objective never burns the budget.
  daemon::WatchConfig healthy = base_config(dir_ / "healthy");
  healthy.rounds = 4;
  healthy.slo = *objectives;
  const std::string clean = journaled_run(healthy, nullptr);
  EXPECT_EQ(clean.find("slo.violation"), std::string::npos)
      << "healthy rounds must not burn the availability budget";
  obs::telemetry().set_slo({});
}

TEST_F(WatchTest, CorruptStateFileFailsLoudly) {
  daemon::WatchConfig config = base_config(dir_);
  config.rounds = 1;
  EXPECT_EQ(run_watch(config).exit_code, 0);
  {
    std::FILE* f = std::fopen((dir_ / "watch.state").string().c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a state file\n", f);
    std::fclose(f);
  }
  const auto result = run_watch(config);
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_FALSE(result.error.empty());
}

}  // namespace
}  // namespace anycast
