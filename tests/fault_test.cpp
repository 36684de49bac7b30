// Fault injection and crash recovery: the census must degrade, not die.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "anycast/census/census.hpp"
#include "anycast/census/fastping.hpp"
#include "anycast/census/resume.hpp"
#include "anycast/census/storage.hpp"
#include "anycast/net/fault.hpp"
#include "anycast/net/platform.hpp"
#include "anycast/obs/metrics.hpp"

namespace anycast::census {
namespace {

namespace fs = std::filesystem;

net::WorldConfig tiny_world_config() {
  net::WorldConfig config;
  config.seed = 21;
  config.unicast_alive_slash24 = 400;
  config.unicast_dead_slash24 = 300;
  return config;
}

const net::SimulatedInternet& tiny_world() {
  static const net::SimulatedInternet world(tiny_world_config());
  return world;
}

const Hitlist& tiny_hitlist() {
  static const Hitlist hitlist =
      Hitlist::from_world(tiny_world()).without_dead();
  return hitlist;
}

std::vector<std::uint8_t> read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void expect_same_data(const ShardedCensusMatrix& a,
                      const ShardedCensusMatrix& b) {
  ASSERT_EQ(a.target_count(), b.target_count());
  for (std::uint32_t t = 0; t < a.target_count(); ++t) {
    const auto ra = a.measurements(t);
    const auto rb = b.measurements(t);
    ASSERT_EQ(ra.size(), rb.size()) << "target " << t;
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].vp, rb[i].vp) << "target " << t;
      EXPECT_EQ(ra[i].rtt_ms, rb[i].rtt_ms) << "target " << t;
    }
  }
}

// --- FaultPlan / FaultInjector ---------------------------------------------

TEST(FaultPlan, SchedulesAreDeterministicPerVp) {
  net::FaultSpec spec;
  spec.crash_rate = 0.5;
  spec.outage_rate = 0.5;
  spec.storm_rate = 0.5;
  spec.straggler_rate = 0.5;
  const net::FaultPlan plan(spec);
  const net::FaultPlan replay(spec);
  for (std::uint32_t vp = 0; vp < 64; ++vp) {
    const auto a = plan.schedule_for(vp);
    const auto b = replay.schedule_for(vp);
    EXPECT_EQ(a.crash_fraction, b.crash_fraction);
    EXPECT_EQ(a.outage_begin, b.outage_begin);
    EXPECT_EQ(a.outage_end, b.outage_end);
    EXPECT_EQ(a.storm_begin, b.storm_begin);
    EXPECT_EQ(a.stall_begin, b.stall_begin);
  }
}

TEST(FaultPlan, ZeroRatesScheduleNothing) {
  const net::FaultPlan plan(net::FaultSpec{});
  for (std::uint32_t vp = 0; vp < 64; ++vp) {
    EXPECT_FALSE(plan.schedule_for(vp).any());
  }
}

TEST(FaultPlan, CertainRatesHitEveryVp) {
  net::FaultSpec spec;
  spec.crash_rate = 1.0;
  spec.outage_rate = 1.0;
  const net::FaultPlan plan(spec);
  for (std::uint32_t vp = 0; vp < 32; ++vp) {
    const auto schedule = plan.schedule_for(vp);
    EXPECT_LT(schedule.crash_fraction, 1.0);
    EXPECT_GT(schedule.outage_end, schedule.outage_begin);
  }
}

TEST(FaultInjector, DefaultInjectsNothing) {
  const net::FaultInjector injector;
  EXPECT_FALSE(injector.active());
  EXPECT_FALSE(injector.crashed_before(0));
  EXPECT_FALSE(injector.outage_at(500));
  EXPECT_EQ(injector.extra_drop_at(500), 0.0);
  EXPECT_EQ(injector.dilation_at(500), 1.0);
}

TEST(FaultInjector, WindowsMapToProbeIndices) {
  net::VpFaultSchedule schedule;
  schedule.crash_fraction = 0.5;
  schedule.outage_begin = 0.1;
  schedule.outage_end = 0.2;
  schedule.storm_begin = 0.6;
  schedule.storm_end = 0.8;
  schedule.storm_drop = 0.4;
  schedule.stall_begin = 0.0;
  schedule.stall_end = 0.25;
  schedule.stall_factor = 4.0;
  const net::FaultInjector injector(schedule, 1000);
  EXPECT_TRUE(injector.active());
  EXPECT_FALSE(injector.crashed_before(499));
  EXPECT_TRUE(injector.crashed_before(500));
  EXPECT_FALSE(injector.outage_at(99));
  EXPECT_TRUE(injector.outage_at(100));
  EXPECT_FALSE(injector.outage_at(200));
  EXPECT_EQ(injector.extra_drop_at(700), 0.4);
  EXPECT_EQ(injector.extra_drop_at(500), 0.0);
  EXPECT_EQ(injector.dilation_at(100), 4.0);
  EXPECT_EQ(injector.dilation_at(300), 1.0);
}

FastPingConfig base_config() {
  FastPingConfig config;
  config.seed = 90;
  return config;
}

// --- Longitudinal scenarios (watch-mode chaos) ------------------------------

TEST(FaultPlan, LongitudinalSchedulesAreDeterministic) {
  net::FaultSpec spec;
  spec.flap_rate = 1.0;
  spec.regional_rate = 1.0;
  spec.regional_fraction = 0.5;
  spec.hijack_targets = {5, 17, 40};
  spec.hijack_vp_fraction = 0.5;
  const net::FaultPlan plan(spec);
  const net::FaultPlan replay(spec);
  for (std::uint32_t vp = 0; vp < 64; ++vp) {
    const auto a = plan.schedule_for(vp);
    const auto b = replay.schedule_for(vp);
    ASSERT_EQ(a.flap_count, b.flap_count);
    for (int f = 0; f < a.flap_count; ++f) {
      EXPECT_EQ(a.flap_begin[f], b.flap_begin[f]);
      EXPECT_EQ(a.flap_end[f], b.flap_end[f]);
    }
    EXPECT_EQ(a.regional_begin, b.regional_begin);
    EXPECT_EQ(a.regional_end, b.regional_end);
    EXPECT_EQ(a.hijack_captured, b.hijack_captured);
    EXPECT_EQ(a.hijack_salt, b.hijack_salt);
  }
}

TEST(FaultPlan, ScenarioTagsDoNotPerturbClassicDraws) {
  // The longitudinal fields draw from disjoint sub-stream tags: enabling
  // them must leave every classic fault draw untouched, so an old chaos
  // census replays byte-identically under the extended spec.
  net::FaultSpec classic;
  classic.crash_rate = 0.5;
  classic.outage_rate = 0.5;
  classic.storm_rate = 0.5;
  classic.straggler_rate = 0.5;
  net::FaultSpec extended = classic;
  extended.flap_rate = 1.0;
  extended.regional_rate = 1.0;
  extended.hijack_targets = {1, 2, 3};
  extended.hijack_vp_fraction = 1.0;
  const net::FaultPlan plain(classic);
  const net::FaultPlan loaded(extended);
  for (std::uint32_t vp = 0; vp < 64; ++vp) {
    const auto a = plain.schedule_for(vp);
    const auto b = loaded.schedule_for(vp);
    EXPECT_EQ(a.crash_fraction, b.crash_fraction);
    EXPECT_EQ(a.outage_begin, b.outage_begin);
    EXPECT_EQ(a.outage_end, b.outage_end);
    EXPECT_EQ(a.storm_begin, b.storm_begin);
    EXPECT_EQ(a.storm_end, b.storm_end);
    EXPECT_EQ(a.stall_begin, b.stall_begin);
    EXPECT_EQ(a.stall_end, b.stall_end);
  }
}

TEST(FaultPlan, RegionalOutageIsACorrelatedCohort) {
  net::FaultSpec spec;
  spec.regional_rate = 1.0;
  spec.regional_fraction = 0.5;
  const net::FaultPlan plan(spec);
  std::size_t members = 0;
  double begin = -1.0, end = -1.0;
  for (std::uint32_t vp = 0; vp < 64; ++vp) {
    const auto schedule = plan.schedule_for(vp);
    if (schedule.regional_end > schedule.regional_begin) {
      ++members;
      if (begin < 0.0) {
        begin = schedule.regional_begin;
        end = schedule.regional_end;
      }
      // One shared window: the cohort goes dark together.
      EXPECT_EQ(schedule.regional_begin, begin);
      EXPECT_EQ(schedule.regional_end, end);
    }
  }
  EXPECT_GT(members, 16u);
  EXPECT_LT(members, 48u) << "roughly half the platform, not all of it";
}

TEST(FastPingFaults, FlapInflatesEchoesInsideWindowsOnly) {
  net::FaultSpec spec;
  spec.flap_rate = 1.0;
  spec.flap_extra_ms = 40.0;
  const net::FaultPlan plan(spec);
  const auto vps = net::make_planetlab({.node_count = 1, .seed = 91});
  Greylist blacklist;
  Greylist grey_a, grey_b;
  const FastPingResult bare = run_fastping(
      tiny_world(), vps[0], tiny_hitlist(), blacklist, grey_a, base_config());
  const FastPingResult flapped =
      run_fastping(tiny_world(), vps[0], tiny_hitlist(), blacklist, grey_b,
                   base_config(), &plan);
  // The detour only inflates RTTs — reply kinds, probe counts, and the
  // underlying draw sequence are untouched.
  EXPECT_EQ(flapped.probes_sent, bare.probes_sent);
  EXPECT_EQ(flapped.echo_replies, bare.echo_replies);
  EXPECT_EQ(flapped.timeouts, bare.timeouts);
  ASSERT_EQ(flapped.observations.size(), bare.observations.size());
  std::size_t inflated = 0;
  for (std::size_t i = 0; i < bare.observations.size(); ++i) {
    EXPECT_EQ(flapped.observations[i].target_index,
              bare.observations[i].target_index);
    EXPECT_EQ(flapped.observations[i].kind, bare.observations[i].kind);
    const float delta =
        flapped.observations[i].rtt_ms - bare.observations[i].rtt_ms;
    if (delta != 0.0F) {
      EXPECT_EQ(bare.observations[i].kind, net::ReplyKind::kEchoReply);
      EXPECT_FLOAT_EQ(delta, 40.0F);
      ++inflated;
    }
  }
  EXPECT_GT(inflated, 0u) << "a certain flap plan must inflate something";
  EXPECT_LT(inflated, bare.observations.size())
      << "flap windows cover a small fraction of the walk";
}

TEST(FastPingFaults, HijackLeavesEveryOtherRowByteIdentical) {
  net::FaultSpec spec;
  spec.hijack_vp_fraction = 1.0;
  spec.hijack_targets = {3, 30, 90};
  spec.hijack_rtt_ms = 8.0;
  const net::FaultPlan plan(spec);
  const auto vps = net::make_planetlab({.node_count = 1, .seed = 91});
  Greylist blacklist;
  Greylist grey_a, grey_b;
  const FastPingResult bare = run_fastping(
      tiny_world(), vps[0], tiny_hitlist(), blacklist, grey_a, base_config());
  const FastPingResult hijacked =
      run_fastping(tiny_world(), vps[0], tiny_hitlist(), blacklist, grey_b,
                   base_config(), &plan);
  // The attacker answers in place of the victim, but the probe still
  // consumes the legitimate path's RNG draws — so every non-victim
  // observation is byte-identical, the invariant that keeps watch-mode
  // dirty sets equal to the exact victim set.
  ASSERT_EQ(hijacked.observations.size(), bare.observations.size());
  for (std::size_t i = 0; i < bare.observations.size(); ++i) {
    const auto& h = hijacked.observations[i];
    const auto& b = bare.observations[i];
    ASSERT_EQ(h.target_index, b.target_index);
    if (std::find(spec.hijack_targets.begin(), spec.hijack_targets.end(),
                  h.target_index) != spec.hijack_targets.end()) {
      EXPECT_EQ(h.kind, net::ReplyKind::kEchoReply);
      EXPECT_GE(h.rtt_ms, 8.0F);
      EXPECT_LT(h.rtt_ms, 12.0F);  // base + up to 4ms deterministic jitter
    } else {
      EXPECT_EQ(h.kind, b.kind);
      EXPECT_EQ(h.rtt_ms, b.rtt_ms);
    }
  }
}

// --- run_fastping under faults ---------------------------------------------

TEST(FastPingFaults, ZeroRatePlanIsByteIdenticalToNoPlan) {
  const auto vps = net::make_planetlab({.node_count = 3, .seed = 91});
  const net::FaultPlan plan{net::FaultSpec{}};
  for (const net::VantagePoint& vp : vps) {
    Greylist blacklist;
    Greylist grey_a;
    Greylist grey_b;
    const FastPingResult bare = run_fastping(
        tiny_world(), vp, tiny_hitlist(), blacklist, grey_a, base_config());
    const FastPingResult planned =
        run_fastping(tiny_world(), vp, tiny_hitlist(), blacklist, grey_b,
                     base_config(), &plan);
    EXPECT_EQ(bare.probes_sent, planned.probes_sent);
    EXPECT_EQ(bare.echo_replies, planned.echo_replies);
    EXPECT_EQ(bare.timeouts, planned.timeouts);
    EXPECT_EQ(bare.errors, planned.errors);
    EXPECT_EQ(bare.duration_hours, planned.duration_hours);
    EXPECT_EQ(bare.outcome, planned.outcome);
    ASSERT_EQ(bare.observations.size(), planned.observations.size());
    for (std::size_t i = 0; i < bare.observations.size(); ++i) {
      EXPECT_EQ(bare.observations[i].target_index,
                planned.observations[i].target_index);
      EXPECT_EQ(bare.observations[i].kind, planned.observations[i].kind);
      EXPECT_EQ(bare.observations[i].rtt_ms, planned.observations[i].rtt_ms);
      EXPECT_EQ(bare.observations[i].time_s, planned.observations[i].time_s);
    }
  }
}

TEST(FastPingFaults, CrashKeepsPartialObservations) {
  net::FaultSpec spec;
  spec.crash_rate = 1.0;
  const net::FaultPlan plan(spec);
  const auto vps = net::make_planetlab({.node_count = 1, .seed = 91});
  Greylist blacklist;
  Greylist greylist;
  const FastPingResult result =
      run_fastping(tiny_world(), vps[0], tiny_hitlist(), blacklist, greylist,
                   base_config(), &plan);
  EXPECT_EQ(result.outcome, VpOutcome::kCrashed);
  EXPECT_GT(result.observations.size(), 0u);
  EXPECT_LT(result.observations.size(), tiny_hitlist().size());
  EXPECT_EQ(result.observations.size(), result.probes_sent);
}

TEST(FastPingFaults, OutageInjectsTimeoutsAndRetriesRecoverThem) {
  net::FaultSpec spec;
  spec.outage_rate = 1.0;
  const net::FaultPlan plan(spec);
  const auto vps = net::make_planetlab({.node_count = 1, .seed = 91});

  Greylist blacklist;
  Greylist greylist;
  const FastPingResult flat =
      run_fastping(tiny_world(), vps[0], tiny_hitlist(), blacklist, greylist,
                   base_config(), &plan);
  EXPECT_EQ(flat.outcome, VpOutcome::kCompleted);
  EXPECT_GT(flat.injected_timeouts, 0u);
  EXPECT_EQ(flat.retry_probes, 0u);

  FastPingConfig with_retries = base_config();
  with_retries.retry_max_attempts = 2;
  Greylist greylist2;
  const FastPingResult retried =
      run_fastping(tiny_world(), vps[0], tiny_hitlist(), blacklist, greylist2,
                   with_retries, &plan);
  EXPECT_GT(retried.retry_probes, 0u);
  EXPECT_GT(retried.retry_recovered, 0u);
  // Retries run after the outage window, so they win back echo replies.
  EXPECT_GT(retried.echo_replies, flat.echo_replies);
  // Every retry probe is paid for in the funnel and the wall clock.
  EXPECT_EQ(retried.probes_sent,
            flat.probes_sent + retried.retry_probes);
  EXPECT_GT(retried.duration_hours, flat.duration_hours);
}

TEST(FastPingFaults, RetryBudgetCapsRetryProbes) {
  net::FaultSpec spec;
  spec.outage_rate = 1.0;
  const net::FaultPlan plan(spec);
  const auto vps = net::make_planetlab({.node_count = 1, .seed = 91});
  FastPingConfig config = base_config();
  config.retry_max_attempts = 4;
  config.retry_probe_budget = 10;
  Greylist blacklist;
  Greylist greylist;
  const FastPingResult result =
      run_fastping(tiny_world(), vps[0], tiny_hitlist(), blacklist, greylist,
                   config, &plan);
  EXPECT_LE(result.retry_probes, 10u);
}

TEST(FastPingFaults, StragglerPastDeadlineIsCutOff) {
  net::FaultSpec spec;
  spec.straggler_rate = 1.0;
  spec.stall_factor = 50.0;
  spec.stall_span = 0.9;
  const net::FaultPlan plan(spec);
  const auto vps = net::make_planetlab({.node_count = 1, .seed = 91});

  FastPingConfig config = base_config();
  // A healthy walk takes hitlist/rate seconds; the stall blows well past
  // twice that, so a 2x budget cuts the VP off mid-walk.
  config.vp_deadline_hours =
      2.0 * static_cast<double>(tiny_hitlist().size()) /
      config.probe_rate_pps / 3600.0;
  Greylist blacklist;
  Greylist greylist;
  const FastPingResult result =
      run_fastping(tiny_world(), vps[0], tiny_hitlist(), blacklist, greylist,
                   config, &plan);
  EXPECT_EQ(result.outcome, VpOutcome::kCutOff);
  EXPECT_GT(result.observations.size(), 0u);
  EXPECT_LT(result.observations.size(), tiny_hitlist().size());
}

// --- run_census under faults ------------------------------------------------

TEST(CensusFaults, StormyVpsAreQuarantinedAndExcluded) {
  net::FaultSpec spec;
  spec.storm_rate = 1.0;
  spec.storm_drop = 0.95;
  spec.storm_span = 0.9;
  const net::FaultPlan plan(spec);
  const auto vps = net::make_planetlab({.node_count = 4, .seed = 91});

  FastPingConfig config = base_config();
  config.quarantine_drop_rate = 0.3;
  Greylist blacklist;
  const ShardedCensusOutput output = run_census_sharded(
      tiny_world(), vps, tiny_hitlist(), blacklist, config, {}, &plan);
  ASSERT_EQ(output.summary.vp_outcomes.size(), vps.size());
  EXPECT_EQ(output.summary.outcome_count(VpOutcome::kQuarantined),
            vps.size());
  // Quarantined rows are excluded: no target holds any measurement.
  for (std::uint32_t t = 0; t < output.data.target_count(); ++t) {
    EXPECT_TRUE(output.data.measurements(t).empty());
  }
}

TEST(CensusFaults, ReplayWithSamePlanIsIdentical) {
  net::FaultSpec spec;
  spec.crash_rate = 0.4;
  spec.outage_rate = 0.4;
  spec.storm_rate = 0.4;
  spec.straggler_rate = 0.4;
  const net::FaultPlan plan(spec);
  const auto vps = net::make_planetlab({.node_count = 8, .seed = 91});

  Greylist blacklist_a;
  Greylist blacklist_b;
  const ShardedCensusOutput a = run_census_sharded(
      tiny_world(), vps, tiny_hitlist(), blacklist_a, base_config(), {}, &plan);
  const ShardedCensusOutput b = run_census_sharded(
      tiny_world(), vps, tiny_hitlist(), blacklist_b, base_config(), {}, &plan);
  EXPECT_EQ(a.summary.probes_sent, b.summary.probes_sent);
  EXPECT_EQ(a.summary.echo_replies, b.summary.echo_replies);
  EXPECT_EQ(a.summary.timeouts, b.summary.timeouts);
  EXPECT_EQ(a.summary.injected_timeouts, b.summary.injected_timeouts);
  ASSERT_EQ(a.summary.vp_outcomes.size(), b.summary.vp_outcomes.size());
  for (std::size_t i = 0; i < a.summary.vp_outcomes.size(); ++i) {
    EXPECT_EQ(a.summary.vp_outcomes[i].outcome,
              b.summary.vp_outcomes[i].outcome);
  }
  expect_same_data(a.data, b.data);
}

TEST(CensusFaults, FaultsOnlyDegradeCounters) {
  net::FaultSpec spec;
  spec.crash_rate = 0.5;
  spec.outage_rate = 0.5;
  const net::FaultPlan plan(spec);
  const auto vps = net::make_planetlab({.node_count = 8, .seed = 91});

  Greylist blacklist_a;
  Greylist blacklist_b;
  const ShardedCensusOutput healthy = run_census_sharded(
      tiny_world(), vps, tiny_hitlist(), blacklist_a, base_config());
  const ShardedCensusOutput faulty = run_census_sharded(
      tiny_world(), vps, tiny_hitlist(), blacklist_b, base_config(), {}, &plan);
  EXPECT_LE(faulty.summary.echo_replies, healthy.summary.echo_replies);
  EXPECT_LE(faulty.summary.probes_sent, healthy.summary.probes_sent);
}

TEST(CensusFaults, MetricsAccountEveryProbeExactly) {
  // The scraped funnel balances to the probe: every probe sent is either
  // answered (echo), rejected (prohibited/admin-filtered), organically
  // timed out, or timed out by an injected fault — no probe unaccounted,
  // none double-counted. The outage plan guarantees the injected term is
  // exercised, not trivially zero.
  net::FaultSpec spec;
  spec.outage_rate = 1.0;
  const net::FaultPlan plan(spec);
  const auto vps = net::make_planetlab({.node_count = 8, .seed = 91});

  obs::metrics().reset();
  Greylist blacklist;
  const ShardedCensusOutput output = run_census_sharded(
      tiny_world(), vps, tiny_hitlist(), blacklist, base_config(), {}, &plan);

  const auto values = obs::metrics().scrape();
  const auto get = [&values](std::string_view name) -> std::uint64_t {
    for (const obs::MetricValue& value : values) {
      if (value.name == name) return value.value;
    }
    ADD_FAILURE() << "metric not registered: " << name;
    return 0;
  };
  const std::uint64_t sent = get("census_probes_sent");
  const std::uint64_t echo = get("census_replies_echo");
  const std::uint64_t prohibited = get("census_replies_prohibited");
  const std::uint64_t organic = get("census_timeouts_organic");
  const std::uint64_t injected = get("census_timeouts_injected");
  EXPECT_GT(sent, 0u);
  EXPECT_GT(injected, 0u) << "outage plan should inject timeouts";
  EXPECT_EQ(sent, echo + prohibited + organic + injected);
  // The scrape and the census's own summary agree term by term.
  EXPECT_EQ(sent, output.summary.probes_sent);
  EXPECT_EQ(echo, output.summary.echo_replies);
  EXPECT_EQ(prohibited, output.summary.errors);
  EXPECT_EQ(organic + injected, output.summary.timeouts);
  EXPECT_EQ(injected, output.summary.injected_timeouts);
}

// --- checkpoint / resume -----------------------------------------------------

class ResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("anycast_fault_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(ResumeTest, CrashThenResumeEqualsUninterruptedRun) {
  const auto vps = net::make_planetlab({.node_count = 8, .seed = 91});
  const FastPingConfig config = base_config();

  // Baseline: an uninterrupted fault-free census.
  const fs::path clean_dir = dir_ / "clean";
  Greylist blacklist_clean;
  const ShardedResumeReport clean = resume_census_sharded(
      tiny_world(), vps, tiny_hitlist(), blacklist_clean, config, clean_dir,
      /*census_id=*/1);
  EXPECT_EQ(clean.vps_rerun, vps.size());

  // The same census, but several VPs crash mid-walk...
  net::FaultSpec spec;
  spec.crash_rate = 0.5;
  const net::FaultPlan plan(spec);
  const fs::path crash_dir = dir_ / "crashed";
  Greylist blacklist_crash;
  const ShardedResumeReport crashed = resume_census_sharded(
      tiny_world(), vps, tiny_hitlist(), blacklist_crash, config, crash_dir,
      /*census_id=*/1, {}, &plan);
  const std::size_t crashes =
      crashed.output.summary.outcome_count(VpOutcome::kCrashed);
  ASSERT_GT(crashes, 0u) << "plan should crash at least one of 8 VPs";

  // ...and a fault-free resume re-runs exactly the crashed ones.
  Greylist blacklist_resume;
  const ShardedResumeReport resumed = resume_census_sharded(
      tiny_world(), vps, tiny_hitlist(), blacklist_resume, config, crash_dir,
      /*census_id=*/1);
  EXPECT_EQ(resumed.vps_rerun, crashes);
  EXPECT_EQ(resumed.vps_reused, vps.size() - crashes);
  EXPECT_EQ(
      resumed.output.summary.outcome_count(VpOutcome::kCompleted),
      vps.size());

  // The recovered census is indistinguishable from the uninterrupted one:
  // same collated data, same funnel, byte-identical checkpoint files.
  EXPECT_EQ(resumed.output.summary.probes_sent,
            clean.output.summary.probes_sent);
  EXPECT_EQ(resumed.output.summary.echo_replies,
            clean.output.summary.echo_replies);
  EXPECT_EQ(resumed.output.summary.timeouts,
            clean.output.summary.timeouts);
  EXPECT_EQ(resumed.output.summary.errors, clean.output.summary.errors);
  expect_same_data(resumed.output.data, clean.output.data);
  for (const net::VantagePoint& vp : vps) {
    const auto clean_bytes =
        read_bytes(census_checkpoint_path(clean_dir, 1, vp.id));
    const auto resumed_bytes =
        read_bytes(census_checkpoint_path(crash_dir, 1, vp.id));
    ASSERT_FALSE(clean_bytes.empty());
    EXPECT_EQ(clean_bytes, resumed_bytes) << "vp " << vp.id;
  }
}

TEST_F(ResumeTest, TruncatedCheckpointIsSalvagedAndRerun) {
  const auto vps = net::make_planetlab({.node_count = 4, .seed = 91});
  const FastPingConfig config = base_config();
  Greylist blacklist;
  resume_census_sharded(
      tiny_world(), vps, tiny_hitlist(), blacklist, config, dir_,
      /*census_id=*/1);

  // Damage one checkpoint as a crash mid-upload would.
  const fs::path victim = census_checkpoint_path(dir_, 1, vps[1].id);
  const auto original = read_bytes(victim);
  fs::resize_file(victim, fs::file_size(victim) / 2);

  Greylist blacklist2;
  const ShardedResumeReport resumed = resume_census_sharded(
      tiny_world(), vps, tiny_hitlist(), blacklist2, config, dir_, 1);
  EXPECT_EQ(resumed.files_salvaged, 1u);
  EXPECT_EQ(resumed.vps_rerun, 1u);
  EXPECT_EQ(resumed.vps_reused, vps.size() - 1);
  // The re-run restores the exact original checkpoint.
  EXPECT_EQ(read_bytes(victim), original);
}

TEST_F(ResumeTest, SecondResumeReusesEverything) {
  const auto vps = net::make_planetlab({.node_count = 4, .seed = 91});
  const FastPingConfig config = base_config();
  Greylist blacklist;
  const ShardedResumeReport first = resume_census_sharded(
      tiny_world(), vps, tiny_hitlist(), blacklist, config, dir_, 1);
  Greylist blacklist2;
  const ShardedResumeReport second = resume_census_sharded(
      tiny_world(), vps, tiny_hitlist(), blacklist2, config, dir_, 1);
  EXPECT_EQ(second.vps_reused, vps.size());
  EXPECT_EQ(second.vps_rerun, 0u);
  EXPECT_EQ(second.output.summary.probes_sent,
            first.output.summary.probes_sent);
  expect_same_data(second.output.data, first.output.data);
}

TEST_F(ResumeTest, MismatchedCensusIdIsNotReused) {
  const auto vps = net::make_planetlab({.node_count = 2, .seed = 91});
  const FastPingConfig config = base_config();
  Greylist blacklist;
  resume_census_sharded(
      tiny_world(), vps, tiny_hitlist(), blacklist, config, dir_,
      /*census_id=*/1);
  // Pretend census 2's checkpoints are census 1's files.
  for (const net::VantagePoint& vp : vps) {
    fs::copy_file(census_checkpoint_path(dir_, 1, vp.id),
                  census_checkpoint_path(dir_, 2, vp.id));
  }
  Greylist blacklist2;
  const ShardedResumeReport resumed = resume_census_sharded(
      tiny_world(), vps, tiny_hitlist(), blacklist2, config, dir_, 2);
  // Header says census 1, so nothing is trusted.
  EXPECT_EQ(resumed.vps_reused, 0u);
  EXPECT_EQ(resumed.vps_rerun, vps.size());
}

}  // namespace
}  // namespace anycast::census
