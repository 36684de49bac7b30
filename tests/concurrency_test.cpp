// The determinism contract of the parallel engine: any thread count —
// including the serial path — produces byte-identical censuses, resumes,
// and analyses. Plus unit coverage for the ThreadPool itself.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <vector>

#include "anycast/analysis/analyzer.hpp"
#include "anycast/analysis/report.hpp"
#include "anycast/census/census.hpp"
#include "anycast/census/resume.hpp"
#include "anycast/census/storage.hpp"
#include "anycast/concurrency/thread_pool.hpp"
#include "anycast/geo/city_index.hpp"
#include "anycast/net/fault.hpp"
#include "anycast/net/platform.hpp"
#include "anycast/obs/metrics.hpp"
#include "anycast/obs/slo.hpp"
#include "anycast/portscan/scanner.hpp"
#include "anycast/serving/query.hpp"
#include "anycast/serving/snapshot.hpp"
#include "anycast/serving/store.hpp"

namespace anycast {
namespace {

namespace fs = std::filesystem;
using census::CensusSummary;
using census::FastPingConfig;
using census::Greylist;
using census::Hitlist;
using census::ShardedCensusMatrix;
using census::ShardedCensusOutput;
using census::ShardedResumeReport;
using concurrency::ThreadPool;

// --- ThreadPool --------------------------------------------------------------

TEST(ThreadPool, DefaultThreadCountIsAtLeastOne) {
  EXPECT_GE(concurrency::default_thread_count(), 1u);
}

TEST(ThreadPool, ThreadCountSemantics) {
  EXPECT_EQ(ThreadPool(1).thread_count(), 1u);
  EXPECT_EQ(ThreadPool(4).thread_count(), 4u);
  EXPECT_EQ(ThreadPool(0).thread_count(),
            concurrency::default_thread_count());
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    constexpr std::size_t kItems = 1000;
    std::vector<std::atomic<int>> hits(kItems);
    pool.parallel_for(kItems, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < kItems; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ThreadPool, ParallelForZeroItemsIsANoOp) {
  ThreadPool pool(4);
  bool touched = false;
  pool.parallel_for(0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, ParallelMapIsPositionStable) {
  ThreadPool pool(8);
  const auto out =
      pool.parallel_map(257, [](std::size_t i) { return 3 * i + 1; });
  ASSERT_EQ(out.size(), 257u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], 3 * i + 1);
  }
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 37) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // The pool survives a failed parallel_for.
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, PoolIsReusableAcrossManyForkJoins) {
  ThreadPool pool(3);
  std::size_t total = 0;
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(64, [&](std::size_t i) { sum += i; });
    total += sum.load();
  }
  EXPECT_EQ(total, 50u * (64u * 63u / 2));
}

TEST(ShardRanges, CoverContiguouslyAndEvenly) {
  const auto ranges = concurrency::shard_ranges(103, 10);
  ASSERT_EQ(ranges.size(), 10u);
  std::size_t expected_begin = 0;
  for (const auto& [begin, end] : ranges) {
    EXPECT_EQ(begin, expected_begin);
    const std::size_t size = end - begin;
    EXPECT_TRUE(size == 10 || size == 11);
    expected_begin = end;
  }
  EXPECT_EQ(expected_begin, 103u);
  // Fewer items than shards: one shard per item.
  EXPECT_EQ(concurrency::shard_ranges(3, 16).size(), 3u);
  EXPECT_TRUE(concurrency::shard_ranges(0, 16).empty());
}

TEST(ShardRangesWeighted, BalancesByWeightNotRowCount) {
  // 4 rows: weights 90, 2, 4, 4 (cumulative prefix array). Two shards of
  // equal *row count* would pair the heavy row with another; weighted
  // sharding isolates it.
  const std::vector<std::uint64_t> cumulative{0, 90, 92, 96, 100};
  const auto ranges = concurrency::shard_ranges_weighted(cumulative, 2);
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0], (std::pair<std::size_t, std::size_t>{0, 1}));
  EXPECT_EQ(ranges[1], (std::pair<std::size_t, std::size_t>{1, 4}));
}

TEST(ShardRangesWeighted, CoversContiguouslyForAnyShardCount) {
  std::vector<std::uint64_t> cumulative{0};
  for (std::size_t i = 0; i < 57; ++i) {
    cumulative.push_back(cumulative.back() + (i * 7) % 13);
  }
  for (const std::size_t shards : {1u, 2u, 5u, 16u, 100u}) {
    const auto ranges = concurrency::shard_ranges_weighted(cumulative, shards);
    ASSERT_FALSE(ranges.empty());
    EXPECT_LE(ranges.size(), std::min<std::size_t>(shards, 57));
    std::size_t expected_begin = 0;
    for (const auto& [begin, end] : ranges) {
      EXPECT_EQ(begin, expected_begin);
      EXPECT_LT(begin, end);  // no empty shards
      expected_begin = end;
    }
    EXPECT_EQ(expected_begin, 57u);
  }
}

TEST(ShardRangesWeighted, ZeroWeightsDegradeToEvenRowSplit) {
  const std::vector<std::uint64_t> cumulative(11, 0);  // 10 empty rows
  const auto ranges = concurrency::shard_ranges_weighted(cumulative, 5);
  EXPECT_EQ(ranges, concurrency::shard_ranges(10, 5));
}

TEST(ShardRangesWeighted, DegenerateInputsYieldNothing) {
  EXPECT_TRUE(concurrency::shard_ranges_weighted({}, 4).empty());
  const std::vector<std::uint64_t> one{0};
  EXPECT_TRUE(concurrency::shard_ranges_weighted(one, 4).empty());
  const std::vector<std::uint64_t> some{0, 5, 9};
  EXPECT_TRUE(concurrency::shard_ranges_weighted(some, 0).empty());
}

// --- Determinism across thread counts ---------------------------------------

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

/// A config that exercises every runner feature at once: node churn,
/// retries with a budget, a straggler deadline, and quarantine.
FastPingConfig loaded_config() {
  FastPingConfig config;
  config.seed = 90;
  config.vp_availability = 0.8;
  config.retry_max_attempts = 2;
  config.retry_probe_budget = 64;
  config.vp_deadline_hours = 10.0;
  config.quarantine_drop_rate = 0.5;
  return config;
}

net::FaultPlan stormy_plan() {
  net::FaultSpec spec;
  spec.crash_rate = 0.4;
  spec.outage_rate = 0.4;
  spec.storm_rate = 0.4;
  spec.straggler_rate = 0.4;
  return net::FaultPlan(spec);
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

void expect_same_summary(const CensusSummary& a, const CensusSummary& b) {
  EXPECT_EQ(a.probes_sent, b.probes_sent);
  EXPECT_EQ(a.echo_replies, b.echo_replies);
  EXPECT_EQ(a.errors, b.errors);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.injected_timeouts, b.injected_timeouts);
  EXPECT_EQ(a.retry_probes, b.retry_probes);
  EXPECT_EQ(a.retry_recovered, b.retry_recovered);
  EXPECT_EQ(a.greylist_new, b.greylist_new);
  EXPECT_EQ(a.active_vps, b.active_vps);
  ASSERT_EQ(a.vp_duration_hours.size(), b.vp_duration_hours.size());
  for (std::size_t i = 0; i < a.vp_duration_hours.size(); ++i) {
    EXPECT_EQ(a.vp_duration_hours[i], b.vp_duration_hours[i]) << "vp " << i;
  }
  // vp_outcomes must match element-wise *in order* — the summary is part
  // of the byte-identical output contract.
  ASSERT_EQ(a.vp_outcomes.size(), b.vp_outcomes.size());
  for (std::size_t i = 0; i < a.vp_outcomes.size(); ++i) {
    EXPECT_EQ(a.vp_outcomes[i].vp_id, b.vp_outcomes[i].vp_id) << i;
    EXPECT_EQ(a.vp_outcomes[i].outcome, b.vp_outcomes[i].outcome) << i;
  }
}

void expect_same_greylist_counters(const Greylist& a, const Greylist& b) {
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.admin_filtered_count(), b.admin_filtered_count());
  EXPECT_EQ(a.host_prohibited_count(), b.host_prohibited_count());
  EXPECT_EQ(a.net_prohibited_count(), b.net_prohibited_count());
}

ShardedCensusOutput census_with(ThreadPool* pool, const net::FaultPlan* plan,
                                Greylist& blacklist) {
  const auto vps = net::make_planetlab({.node_count = 12, .seed = 91});
  return run_census_sharded(
      tiny_world(), vps, tiny_hitlist(), blacklist, loaded_config(), {}, plan,
      pool);
}

// --- Pinned output digests ---------------------------------------------------
//
// The constants below were recorded from the row-of-vectors engine before
// the CSR refactor (same worlds, seeds, and configs). They pin the whole
// observable output — rows, summary counters, greylist counters, analysis
// outcomes — so any layout change that alters *what* is computed, not just
// where it lives in memory, fails loudly. The serialization below is
// layout-independent on purpose: it walks the public row API only.

void put32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put32(out, static_cast<std::uint32_t>(v));
  put32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t census_digest(const ShardedCensusOutput& out,
                            const Greylist& blacklist) {
  std::vector<std::uint8_t> bytes;
  const auto& data = out.data;
  put64(bytes, data.target_count());
  for (std::uint32_t t = 0; t < data.target_count(); ++t) {
    const auto row = data.measurements(t);
    put64(bytes, row.size());
    for (const census::VpRtt& sample : row) {
      put32(bytes, sample.vp);
      put32(bytes, std::bit_cast<std::uint32_t>(sample.rtt_ms));
    }
  }
  const CensusSummary& s = out.summary;
  put64(bytes, s.probes_sent);
  put64(bytes, s.echo_replies);
  put64(bytes, s.errors);
  put64(bytes, s.timeouts);
  put64(bytes, s.injected_timeouts);
  put64(bytes, s.retry_probes);
  put64(bytes, s.retry_recovered);
  put64(bytes, s.greylist_new);
  put64(bytes, s.active_vps);
  for (const double d : s.vp_duration_hours) {
    put64(bytes, std::bit_cast<std::uint64_t>(d));
  }
  for (const census::VpStatus& status : s.vp_outcomes) {
    put32(bytes, status.vp_id);
    put32(bytes, static_cast<std::uint32_t>(status.outcome));
  }
  put64(bytes, blacklist.size());
  put64(bytes, blacklist.admin_filtered_count());
  put64(bytes, blacklist.host_prohibited_count());
  put64(bytes, blacklist.net_prohibited_count());
  return census::crc32(bytes);
}

std::uint32_t outcome_digest(
    const std::vector<analysis::TargetOutcome>& outcomes) {
  std::vector<std::uint8_t> bytes;
  put64(bytes, outcomes.size());
  for (const analysis::TargetOutcome& outcome : outcomes) {
    put32(bytes, outcome.target_index);
    put32(bytes, outcome.slash24_index);
    put32(bytes, outcome.result.anycast ? 1u : 0u);
    put32(bytes, static_cast<std::uint32_t>(outcome.result.iterations));
    put64(bytes, outcome.result.usable_measurements);
    put64(bytes, outcome.result.first_round_replicas);
    put64(bytes, outcome.result.replicas.size());
    for (const core::Replica& replica : outcome.result.replicas) {
      put32(bytes, replica.vp_id);
      put64(bytes,
            std::bit_cast<std::uint64_t>(replica.location.latitude()));
      put64(bytes,
            std::bit_cast<std::uint64_t>(replica.location.longitude()));
    }
  }
  return census::crc32(bytes);
}

// Recorded from commit 4b30468 (pre-CSR row-of-vectors engine).
constexpr std::uint32_t kCensusDigestClean = 0xA02F7EE0;
constexpr std::uint32_t kCensusDigestChaos = 0xBDD46711;
constexpr std::uint32_t kResumeDigestClean = 0xA108F494;
constexpr std::uint32_t kResumeDigestChaos = 0x14732D63;
constexpr std::uint32_t kAnalysisDigest = 0x4A4DFBAC;

TEST(PinnedDigests, CensusMatchesPreRefactorEngineForAnyThreadCount) {
  for (const bool chaos : {false, true}) {
    const net::FaultPlan plan = stormy_plan();
    const net::FaultPlan* faults = chaos ? &plan : nullptr;
    const std::uint32_t expected =
        chaos ? kCensusDigestChaos : kCensusDigestClean;
    {
      Greylist blacklist;
      const ShardedCensusOutput serial =
          census_with(nullptr, faults, blacklist);
      EXPECT_EQ(census_digest(serial, blacklist), expected)
          << "serial chaos=" << chaos;
    }
    for (const std::size_t threads : {1u, 2u, 8u}) {
      ThreadPool pool(threads);
      Greylist blacklist;
      const ShardedCensusOutput parallel =
          census_with(&pool, faults, blacklist);
      EXPECT_EQ(census_digest(parallel, blacklist), expected)
          << "chaos=" << chaos << " threads=" << threads;
    }
  }
}

TEST(PinnedDigests, ShardedCensusMatchesPinnedDigestForAnyShardSize) {
  // The sharded data plane — any shard size, with a 1 MiB RSS budget
  // forcing spills, chaos on or off — lands on the exact digests pinned
  // from the pre-CSR monolithic engine. Rows, summary, greylist: all of it.
  const auto vps = net::make_planetlab({.node_count = 12, .seed = 91});
  const fs::path spill_root =
      fs::temp_directory_path() /
      ("anycast_sharded_digest_" + std::to_string(::getpid()));
  for (const bool chaos : {false, true}) {
    const net::FaultPlan plan = stormy_plan();
    const net::FaultPlan* faults = chaos ? &plan : nullptr;
    const std::uint32_t expected =
        chaos ? kCensusDigestChaos : kCensusDigestClean;
    for (const std::size_t shard_targets : {1u, 37u, 1u << 20}) {
      census::DataPlaneConfig plane;
      plane.shard_targets = shard_targets;
      plane.rss_budget_mb = 1;
      plane.spill_dir = (spill_root / std::to_string(shard_targets)).string();
      Greylist blacklist;
      const census::ShardedCensusOutput sharded = census::run_census_sharded(
          tiny_world(), vps, tiny_hitlist(), blacklist, loaded_config(),
          plane, faults);
      EXPECT_EQ(census_digest(sharded, blacklist), expected)
          << "chaos=" << chaos << " shard_targets=" << shard_targets;
    }
  }
  fs::remove_all(spill_root);
}

TEST(PinnedDigests, AnalysisMatchesPreRefactorEngineForAnyThreadCount) {
  const auto vps = net::make_planetlab({.node_count = 16, .seed = 92});
  Greylist blacklist;
  FastPingConfig config;
  config.seed = 92;
  const ShardedCensusOutput output =
      run_census_sharded(tiny_world(), vps, tiny_hitlist(), blacklist, config);
  const analysis::CensusAnalyzer analyzer(vps, geo::world_index());
  EXPECT_EQ(outcome_digest(analyzer.analyze(output.data, tiny_hitlist())),
            kAnalysisDigest)
      << "serial";
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(outcome_digest(
                  analyzer.analyze(output.data, tiny_hitlist(), 2, &pool)),
              kAnalysisDigest)
        << "threads=" << threads;
  }
}

TEST(ParallelCensus, OutputIsIdenticalForAnyThreadCount) {
  for (const bool chaos : {false, true}) {
    const net::FaultPlan plan = stormy_plan();
    const net::FaultPlan* faults = chaos ? &plan : nullptr;

    Greylist serial_blacklist;
    const ShardedCensusOutput serial =
        census_with(nullptr, faults, serial_blacklist);

    for (const std::size_t threads : {1u, 2u, 8u}) {
      ThreadPool pool(threads);
      Greylist blacklist;
      const ShardedCensusOutput parallel =
          census_with(&pool, faults, blacklist);
      SCOPED_TRACE("chaos=" + std::to_string(chaos) +
                   " threads=" + std::to_string(threads));
      expect_same_summary(parallel.summary, serial.summary);
      expect_same_data(parallel.data, serial.data);
      expect_same_greylist_counters(blacklist, serial_blacklist);
    }
  }
}

TEST(ParallelCensus, SerialPathIsExactlyTheLegacyLoop) {
  // threads == 1 must not even touch the pool machinery: a 1-lane pool
  // and a null pool take the same inline path and agree bit-for-bit.
  Greylist blacklist_null;
  Greylist blacklist_one;
  const ShardedCensusOutput with_null =
      census_with(nullptr, nullptr, blacklist_null);
  ThreadPool one(1);
  const ShardedCensusOutput with_one =
      census_with(&one, nullptr, blacklist_one);
  expect_same_summary(with_one.summary, with_null.summary);
  expect_same_data(with_one.data, with_null.data);
  expect_same_greylist_counters(blacklist_one, blacklist_null);
}

TEST(ParallelAnalysis, OutcomesAndReportAreIdenticalForAnyThreadCount) {
  const auto vps = net::make_planetlab({.node_count = 16, .seed = 92});
  Greylist blacklist;
  FastPingConfig config;
  config.seed = 92;
  const ShardedCensusOutput output =
      run_census_sharded(tiny_world(), vps, tiny_hitlist(), blacklist, config);
  const analysis::CensusAnalyzer analyzer(vps, geo::world_index());

  const auto serial = analyzer.analyze(output.data, tiny_hitlist());
  ASSERT_GT(serial.size(), 0u) << "world should contain detectable anycast";
  const analysis::CensusReport serial_report(tiny_world(), serial);
  const analysis::GlanceRow serial_glance = serial_report.glance_all();

  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    const auto parallel =
        analyzer.analyze(output.data, tiny_hitlist(), 2, &pool);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].target_index, serial[i].target_index) << i;
      EXPECT_EQ(parallel[i].slash24_index, serial[i].slash24_index) << i;
      EXPECT_EQ(parallel[i].result.anycast, serial[i].result.anycast) << i;
      EXPECT_EQ(parallel[i].result.iterations, serial[i].result.iterations)
          << i;
      EXPECT_EQ(parallel[i].result.first_round_replicas,
                serial[i].result.first_round_replicas)
          << i;
      ASSERT_EQ(parallel[i].result.replicas.size(),
                serial[i].result.replicas.size())
          << i;
      for (std::size_t r = 0; r < serial[i].result.replicas.size(); ++r) {
        EXPECT_EQ(parallel[i].result.replicas[r].vp_id,
                  serial[i].result.replicas[r].vp_id);
        EXPECT_EQ(parallel[i].result.replicas[r].city,
                  serial[i].result.replicas[r].city);
      }
    }
    // The derived report numbers match too.
    const analysis::CensusReport report(tiny_world(), parallel);
    const analysis::GlanceRow glance = report.glance_all();
    EXPECT_EQ(glance.ip24, serial_glance.ip24);
    EXPECT_EQ(glance.ases, serial_glance.ases);
    EXPECT_EQ(glance.replicas, serial_glance.replicas);
    EXPECT_EQ(glance.cities, serial_glance.cities);
    EXPECT_EQ(glance.countries, serial_glance.countries);
  }
}

// --- Resume under threads (extends PR 1's invariant) -------------------------

class ParallelResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("anycast_concurrency_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static std::vector<std::uint8_t> read_bytes(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  fs::path dir_;
};

TEST_F(ParallelResumeTest, ResumeOutputIsIdenticalForAnyThreadCount) {
  const auto vps = net::make_planetlab({.node_count = 8, .seed = 91});
  FastPingConfig config;
  config.seed = 93;

  Greylist serial_blacklist;
  const ShardedResumeReport serial = resume_census_sharded(
      tiny_world(), vps, tiny_hitlist(), serial_blacklist, config,
      dir_ / "serial", /*census_id=*/1);

  for (const std::size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    const fs::path sub = dir_ / ("threads" + std::to_string(threads));
    Greylist blacklist;
    const ShardedResumeReport parallel = resume_census_sharded(
        tiny_world(), vps, tiny_hitlist(), blacklist, config, sub,
        /*census_id=*/1, {}, /*faults=*/nullptr, &pool);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(parallel.vps_reused, serial.vps_reused);
    EXPECT_EQ(parallel.vps_rerun, serial.vps_rerun);
    EXPECT_EQ(parallel.vps_skipped, serial.vps_skipped);
    EXPECT_EQ(parallel.files_salvaged, serial.files_salvaged);
    expect_same_summary(parallel.output.summary, serial.output.summary);
    expect_same_data(parallel.output.data, serial.output.data);
    expect_same_greylist_counters(blacklist, serial_blacklist);
    for (const net::VantagePoint& vp : vps) {
      const auto a = read_bytes(census::census_checkpoint_path(dir_ / "serial", 1,
                                                       vp.id));
      const auto b = read_bytes(census::census_checkpoint_path(sub, 1, vp.id));
      ASSERT_FALSE(a.empty());
      EXPECT_EQ(a, b) << "vp " << vp.id;
    }
  }
}

TEST_F(ParallelResumeTest, ResumeMatchesPreRefactorEngineForAnyThreadCount) {
  const auto vps = net::make_planetlab({.node_count = 8, .seed = 91});
  FastPingConfig config;
  config.seed = 93;
  for (const bool chaos : {false, true}) {
    const net::FaultPlan plan = stormy_plan();
    const net::FaultPlan* faults = chaos ? &plan : nullptr;
    const std::uint32_t expected =
        chaos ? kResumeDigestChaos : kResumeDigestClean;
    {
      const fs::path sub =
          dir_ / (std::string("serial_chaos") + (chaos ? "1" : "0"));
      Greylist blacklist;
      const ShardedResumeReport report = resume_census_sharded(
          tiny_world(), vps, tiny_hitlist(), blacklist, config, sub,
          /*census_id=*/1, {}, faults);
      EXPECT_EQ(census_digest(report.output, blacklist), expected)
          << "serial chaos=" << chaos;
    }
    for (const std::size_t threads : {1u, 2u, 8u}) {
      ThreadPool pool(threads);
      const fs::path sub = dir_ / (std::string("chaos") + (chaos ? "1" : "0") +
                                   "_threads" + std::to_string(threads));
      Greylist blacklist;
      const ShardedResumeReport report = resume_census_sharded(
          tiny_world(), vps, tiny_hitlist(), blacklist, config, sub,
          /*census_id=*/1, {}, faults, &pool);
      EXPECT_EQ(census_digest(report.output, blacklist), expected)
          << "chaos=" << chaos << " threads=" << threads;
    }
  }
}

TEST_F(ParallelResumeTest, ChaosCrashThenParallelResumeEqualsUninterrupted) {
  const auto vps = net::make_planetlab({.node_count = 8, .seed = 91});
  FastPingConfig config;
  config.seed = 90;

  // Baseline: an uninterrupted fault-free *serial* census.
  const fs::path clean_dir = dir_ / "clean";
  Greylist blacklist_clean;
  const ShardedResumeReport clean = resume_census_sharded(
      tiny_world(), vps, tiny_hitlist(), blacklist_clean, config, clean_dir,
      /*census_id=*/1);

  // The same census with 8 threads, under a crashy plan...
  net::FaultSpec spec;
  spec.crash_rate = 0.5;
  const net::FaultPlan plan(spec);
  const fs::path crash_dir = dir_ / "crashed";
  ThreadPool pool(8);
  Greylist blacklist_crash;
  const ShardedResumeReport crashed = resume_census_sharded(
      tiny_world(), vps, tiny_hitlist(), blacklist_crash, config, crash_dir,
      /*census_id=*/1, {}, &plan, &pool);
  const std::size_t crashes =
      crashed.output.summary.outcome_count(census::VpOutcome::kCrashed);
  ASSERT_GT(crashes, 0u) << "plan should crash at least one of 8 VPs";

  // ...then a fault-free resume, still at 8 threads, re-runs exactly the
  // crashed VPs and reproduces the uninterrupted census byte-for-byte.
  Greylist blacklist_resume;
  const ShardedResumeReport resumed = resume_census_sharded(
      tiny_world(), vps, tiny_hitlist(), blacklist_resume, config, crash_dir,
      /*census_id=*/1, {}, /*faults=*/nullptr, &pool);
  EXPECT_EQ(resumed.vps_rerun, crashes);
  EXPECT_EQ(resumed.vps_reused, vps.size() - crashes);
  // Funnel counters, rows, and files match the uninterrupted census.
  // (Durations are excluded: reused checkpoints reconstruct a coarse
  // duration from the file's quantised timestamps, as in fault_test.)
  EXPECT_EQ(resumed.output.summary.probes_sent,
            clean.output.summary.probes_sent);
  EXPECT_EQ(resumed.output.summary.echo_replies,
            clean.output.summary.echo_replies);
  EXPECT_EQ(resumed.output.summary.timeouts, clean.output.summary.timeouts);
  EXPECT_EQ(resumed.output.summary.errors, clean.output.summary.errors);
  EXPECT_EQ(resumed.output.summary.outcome_count(census::VpOutcome::kCompleted),
            vps.size());
  expect_same_data(resumed.output.data, clean.output.data);
  for (const net::VantagePoint& vp : vps) {
    const auto clean_bytes =
        read_bytes(census::census_checkpoint_path(clean_dir, 1, vp.id));
    const auto resumed_bytes =
        read_bytes(census::census_checkpoint_path(crash_dir, 1, vp.id));
    ASSERT_FALSE(clean_bytes.empty());
    EXPECT_EQ(clean_bytes, resumed_bytes) << "vp " << vp.id;
  }
}

// --- Metrics determinism -----------------------------------------------------
//
// The observability layer's contract (DESIGN.md §10): every kSemantic
// metric is byte-identical across thread counts and across crash+resume.
// kTiming metrics are allowed to vary, but only the ones on the declared
// allowlist below — an undeclared timing metric, or an allowlisted name
// that went missing or changed class, fails loudly.

std::string census_snapshot(ThreadPool* pool, const net::FaultPlan* plan) {
  obs::metrics().reset();
  Greylist blacklist;
  (void)census_with(pool, plan, blacklist);
  return obs::metrics().semantic_snapshot();
}

TEST(MetricsDeterminism, SemanticSnapshotIdenticalAcrossThreadCounts) {
  std::string clean_serial;
  for (const bool chaos : {false, true}) {
    const net::FaultPlan plan = stormy_plan();
    const net::FaultPlan* faults = chaos ? &plan : nullptr;
    const std::string serial = census_snapshot(nullptr, faults);
    ASSERT_NE(serial.find("census_probes_sent"), std::string::npos);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      ThreadPool pool(threads);
      EXPECT_EQ(census_snapshot(&pool, faults), serial)
          << "chaos=" << chaos << " threads=" << threads;
    }
    if (!chaos) {
      clean_serial = serial;
    } else {
      // Sanity: the snapshot actually sees the chaos (injected timeouts
      // change the funnel), it is not just a constant string.
      EXPECT_NE(serial, clean_serial);
    }
  }
}

TEST_F(ParallelResumeTest, SemanticSnapshotSurvivesCrashAndResume) {
  // The resumed census must not only reproduce the *data* of its
  // uninterrupted twin (ChaosCrashThenParallelResumeEqualsUninterrupted),
  // but the exact same semantic metrics: reused checkpoints replay through
  // the same flush chokepoint as live walks. Retries stay off — a replayed
  // checkpoint cannot distinguish retry probes from first attempts.
  const auto vps = net::make_planetlab({.node_count = 8, .seed = 91});
  FastPingConfig config;
  config.seed = 90;

  obs::metrics().reset();
  Greylist blacklist_clean;
  const ShardedResumeReport clean = resume_census_sharded(
      tiny_world(), vps, tiny_hitlist(), blacklist_clean, config,
      dir_ / "clean", /*census_id=*/1);
  const std::string clean_snapshot = obs::metrics().semantic_snapshot();
  ASSERT_NE(clean_snapshot.find("census_rtt_ms"), std::string::npos);

  net::FaultSpec spec;
  spec.crash_rate = 0.5;
  const net::FaultPlan plan(spec);
  const fs::path crash_dir = dir_ / "crashed";
  ThreadPool pool(8);
  Greylist blacklist_crash;
  const ShardedResumeReport crashed = resume_census_sharded(
      tiny_world(), vps, tiny_hitlist(), blacklist_crash, config, crash_dir,
      /*census_id=*/1, {}, &plan, &pool);
  ASSERT_GT(
      crashed.output.summary.outcome_count(census::VpOutcome::kCrashed), 0u);

  obs::metrics().reset();
  Greylist blacklist_resume;
  const ShardedResumeReport resumed = resume_census_sharded(
      tiny_world(), vps, tiny_hitlist(), blacklist_resume, config, crash_dir,
      /*census_id=*/1, {}, /*faults=*/nullptr, &pool);
  EXPECT_GT(resumed.vps_reused, 0u);
  EXPECT_EQ(obs::metrics().semantic_snapshot(), clean_snapshot);
}

TEST_F(ParallelResumeTest, TimingMetricsAreExactlyTheDeclaredAllowlist) {
  // Drive every instrumented stage once so all instruments are registered,
  // then check the classification of each registered metric against the
  // declared list. A new wall-clock/scheduling/run-history metric must be
  // added HERE as well as classified kTiming at its registration — the
  // two declarations cross-check each other.
  const auto vps = net::make_planetlab({.node_count = 4, .seed = 91});
  FastPingConfig config;
  config.seed = 90;
  ThreadPool pool(2);
  Greylist blacklist;
  const ShardedResumeReport report = resume_census_sharded(
      tiny_world(), vps, tiny_hitlist(), blacklist, config, dir_,
      /*census_id=*/1, {}, /*faults=*/nullptr, &pool);
  const analysis::CensusAnalyzer analyzer(vps, geo::world_index());
  (void)analyzer.analyze(report.output.data, tiny_hitlist(), 2, &pool);
  const portscan::PortScanner scanner(tiny_world());
  (void)scanner.scan(tiny_world().deployments().front());
  // The sharded data plane registers its instruments too: one bounded
  // resume with a spill budget covers shard flush/spill/restore/salvage
  // counters and the residency gauges.
  census::DataPlaneConfig plane;
  plane.shard_targets = 53;
  plane.rss_budget_mb = 1;
  plane.spill_dir = (dir_ / "spill").string();
  Greylist blacklist_sharded;
  (void)census::resume_census_sharded(tiny_world(), vps, tiny_hitlist(),
                                      blacklist_sharded, config,
                                      dir_ / "sharded", /*census_id=*/1,
                                      plane, /*faults=*/nullptr, &pool);

  // The serving plane's instruments: two publishes (the second retires
  // and reclaims the first), one acquire, and one unknown-key query
  // register the epoch-swap counters, the retired-depth gauge, and the
  // query-path counters — all wall-clock/traffic-shaped, never semantic.
  {
    serving::SnapshotStore store;
    store.publish(
        serving::SnapshotView::build(ShardedCensusMatrix(4, {}), {}, 1));
    store.publish(
        serving::SnapshotView::build(ShardedCensusMatrix(4, {}), {}, 2));
    serving::ReadGuard guard = store.acquire();
    ASSERT_TRUE(guard.valid());
    std::string out;
    std::string error;
    ASSERT_TRUE(serving::answer_query({&guard.view(), nullptr}, "point 99",
                                      out, error));
    // A malformed line bumps serving_errors (registered with the other
    // query instruments, but exercise the inc path too).
    EXPECT_FALSE(
        serving::answer_query({&guard.view(), nullptr}, "point", out, error));
  }

  // The SLO tracker's instruments (violation/recovery counters + the
  // worst-burn gauge) register on first construction — burn rates are
  // wall-clock operational state, never semantic.
  {
    std::string slo_error;
    auto objectives = obs::parse_slo_spec("availability=0.9", &slo_error);
    ASSERT_TRUE(objectives.has_value()) << slo_error;
    obs::SloTracker tracker(std::move(*objectives));
    (void)tracker.observe("availability", 1, 1, 9);
  }

  const std::set<std::string> allowlist{
      "census_arena_maps",
      "census_arena_remaps",
      "census_blacklist_skips",
      "census_shard_flushes",
      "census_shard_resident_bytes",
      "census_shard_restores",
      "census_shard_spilled_bytes",
      "census_shard_spills",
      "census_spill_salvages",
      "census_vp_duration_hours",
      "checkpoint_read_failures",
      "checkpoint_reads_ok",
      "checkpoint_salvages",
      "checkpoint_write_bytes",
      "checkpoint_writes",
      "pool_helper_dispatches",
      "pool_indices_by_caller",
      "pool_indices_by_helpers",
      "pool_lane_busy_ms",
      "pool_parallel_ops",
      "record_dropped_oversized",
      "resume_files_salvaged",
      "resume_vps_rerun",
      "resume_vps_reused",
      "serving_errors",
      "serving_publishes",
      "serving_queries",
      "serving_retired_depth",
      "serving_snapshots_freed",
      "serving_snapshots_retired",
      "serving_unknown_keys",
      "slo_recoveries",
      "slo_violations",
      "slo_worst_burn_permille",
  };
  std::set<std::string> seen_timing;
  for (const obs::MetricValue& value : obs::metrics().scrape()) {
    if (value.cls == obs::MetricClass::kTiming) {
      EXPECT_TRUE(allowlist.contains(value.name))
          << "metric '" << value.name
          << "' is kTiming but not on the declared allowlist";
      seen_timing.insert(value.name);
    } else {
      EXPECT_FALSE(allowlist.contains(value.name))
          << "metric '" << value.name
          << "' is allowlisted as timing but registered kSemantic";
    }
  }
  for (const std::string& name : allowlist) {
    EXPECT_TRUE(seen_timing.contains(name))
        << "allowlisted timing metric '" << name
        << "' was never registered — renamed or dropped?";
  }
}

}  // namespace
}  // namespace anycast
