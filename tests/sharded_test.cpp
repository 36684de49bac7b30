// Property tests for the sharded census data plane (DESIGN.md §15).
//
// The contract under test: for ANY shard size (1, odd, huge, default),
// ANY flush schedule, and ANY spill state, the sharded matrix is
// element-identical to a single CensusMatrixBuilder (the oracle) fed the
// same input; every pipeline entry point (census, resume, collate,
// analysis, dirty rows) gives the default one-shard plane and an N-shard
// plane the same answers; and the spill tier's durability boundary
// (atomic publish, checksummed payload, whole-record-prefix salvage)
// holds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "anycast/analysis/analyzer.hpp"
#include "anycast/analysis/incremental.hpp"
#include "anycast/census/census.hpp"
#include "anycast/census/resume.hpp"
#include "anycast/census/sharded.hpp"
#include "anycast/census/storage.hpp"
#include "anycast/geo/city_index.hpp"
#include "anycast/net/platform.hpp"

namespace anycast::census {
namespace {

namespace fs = std::filesystem;

class ShardedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("anycast_sharded_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

/// Deterministic scrambled observation set: duplicate (vp, target) pairs
/// (so canonicalisation matters), out-of-order inserts, ragged rows.
std::vector<std::tuple<std::uint32_t, std::uint16_t, float>> sample_adds(
    std::size_t targets, std::size_t vps, std::size_t count) {
  std::vector<std::tuple<std::uint32_t, std::uint16_t, float>> adds;
  adds.reserve(count);
  std::uint64_t x = 88172645463325252ULL;
  for (std::size_t i = 0; i < count; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    adds.emplace_back(static_cast<std::uint32_t>(x % targets),
                      static_cast<std::uint16_t>((x >> 32) % vps),
                      1.0F + static_cast<float>((x >> 48) % 500) * 0.25F);
  }
  return adds;
}

/// Element-wise row equality: a sharded matrix against the CensusMatrix
/// oracle or against another plane's matrix.
template <typename ExpectedT>
void expect_rows_equal(const ShardedCensusMatrix& sharded,
                       const ExpectedT& expected) {
  ASSERT_EQ(sharded.target_count(), expected.target_count());
  for (std::uint32_t t = 0; t < expected.target_count(); ++t) {
    const auto a = sharded.measurements(t);
    const auto b = expected.measurements(t);
    ASSERT_EQ(a.size(), b.size()) << "target " << t;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].vp, b[i].vp) << "target " << t;
      EXPECT_EQ(a[i].rtt_ms, b[i].rtt_ms) << "target " << t;
    }
  }
}

TEST_F(ShardedTest, ElementIdenticalForAnyShardSize) {
  constexpr std::size_t kTargets = 509;
  const auto adds = sample_adds(kTargets, 40, 6000);
  CensusMatrixBuilder mono_builder(kTargets);
  for (const auto& [t, vp, rtt] : adds) mono_builder.add(t, vp, rtt);
  const CensusMatrix mono = mono_builder.build();

  // 1, odd, power-of-two, equal, huge (> target count), and default (0).
  for (const std::size_t shard_targets : {1UL, 7UL, 64UL, 509UL, 4096UL, 0UL}) {
    DataPlaneConfig plane;
    plane.shard_targets = shard_targets;
    ShardedCensusMatrixBuilder builder(kTargets, plane);
    for (const auto& [t, vp, rtt] : adds) builder.add(t, vp, rtt);
    const ShardedCensusMatrix sharded = builder.build();
    SCOPED_TRACE("shard_targets " + std::to_string(shard_targets));
    expect_rows_equal(sharded, mono);
    EXPECT_EQ(sharded.observation_count(), mono.observation_count());
    EXPECT_EQ(sharded.responsive_targets(2), mono.responsive_targets(2));
  }
}

TEST_F(ShardedTest, FragmentsSplitAcrossShardsInAnyOrder) {
  constexpr std::size_t kTargets = 300;
  // One fragment per VP, deliberately unsorted, with out-of-range tails
  // (damaged-checkpoint records) both paths must drop.
  std::vector<std::vector<TargetRtt>> fragments;
  for (std::uint16_t vp = 0; vp < 9; ++vp) {
    std::vector<TargetRtt> fragment;
    for (std::uint32_t i = 0; i < 120; ++i) {
      const std::uint32_t t = (i * 37 + vp * 11) % 310;  // some >= kTargets
      fragment.push_back({t, 2.0F + static_cast<float>((t * 7 + vp) % 97)});
    }
    fragments.push_back(std::move(fragment));
  }
  CensusMatrixBuilder mono_builder(kTargets);
  for (std::uint16_t vp = 0; vp < fragments.size(); ++vp) {
    mono_builder.add_fragment(vp, fragments[vp]);
  }
  const CensusMatrix mono = mono_builder.build();

  DataPlaneConfig plane;
  plane.shard_targets = 31;
  ShardedCensusMatrixBuilder builder(kTargets, plane);
  for (std::uint16_t vp = 0; vp < fragments.size(); ++vp) {
    builder.add_fragment(vp, fragments[vp]);
  }
  const ShardedCensusMatrix sharded = builder.build();
  expect_rows_equal(sharded, mono);
}

TEST_F(ShardedTest, StageFlushScheduleCannotChangeTheResult) {
  // A 1 MiB stage budget forces mid-stream freezes + combine_min folds;
  // the unbounded builder freezes everything at build(). Same elements
  // either way — the flush schedule is unobservable in the output.
  constexpr std::size_t kTargets = 2000;
  const auto adds = sample_adds(kTargets, 60, 200'000);

  DataPlaneConfig bounded;
  bounded.shard_targets = 256;
  bounded.stage_budget_mb = 1;
  ShardedCensusMatrixBuilder bounded_builder(kTargets, bounded);
  DataPlaneConfig unbounded;
  unbounded.shard_targets = 256;
  unbounded.stage_budget_mb = 0;  // stage everything, single freeze
  ShardedCensusMatrixBuilder unbounded_builder(kTargets, unbounded);
  CensusMatrixBuilder mono_builder(kTargets);

  std::vector<TargetRtt> fragment;
  std::uint16_t vp = 0;
  for (std::size_t i = 0; i < adds.size(); ++i) {
    const auto& [t, add_vp, rtt] = adds[i];
    (void)add_vp;
    fragment.push_back({t, rtt});
    if (fragment.size() == 4096 || i + 1 == adds.size()) {
      bounded_builder.add_fragment(vp, fragment);
      unbounded_builder.add_fragment(vp, fragment);
      mono_builder.add_fragment(vp, fragment);
      fragment.clear();
      vp = static_cast<std::uint16_t>((vp + 1) % 60);
    }
  }
  const CensusMatrix mono = mono_builder.build();
  const ShardedCensusMatrix a = bounded_builder.build();
  const ShardedCensusMatrix b = unbounded_builder.build();
  expect_rows_equal(a, mono);
  expect_rows_equal(b, mono);
}

TEST_F(ShardedTest, SpillDropRestoreRoundTrip) {
  constexpr std::size_t kTargets = 400;
  const auto adds = sample_adds(kTargets, 30, 20'000);
  CensusMatrixBuilder mono_builder(kTargets);
  DataPlaneConfig plane;
  plane.shard_targets = 100;
  plane.spill_dir = (dir_ / "spill").string();
  ShardedCensusMatrixBuilder builder(kTargets, plane);
  for (const auto& [t, vp, rtt] : adds) {
    mono_builder.add(t, vp, rtt);
    builder.add(t, vp, rtt);
  }
  const CensusMatrix mono = mono_builder.build();
  ShardedCensusMatrix sharded = builder.build();

  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    EXPECT_GT(sharded.spill_shard(s), 0u) << "shard " << s;
    EXPECT_TRUE(sharded.shard_spilled(s));
    EXPECT_TRUE(fs::exists(dir_ / "spill" / ("shard" + std::to_string(s) +
                                             ".ancs")));
  }
  EXPECT_EQ(sharded.resident_value_bytes(), 0u);
  // Reads on a spilled shard fault pages straight from the spill file.
  expect_rows_equal(sharded, mono);

  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    sharded.restore_shard(s);
    EXPECT_FALSE(sharded.shard_spilled(s));
  }
  EXPECT_EQ(sharded.resident_value_bytes(), sharded.total_value_bytes());
  expect_rows_equal(sharded, mono);
}

TEST_F(ShardedTest, EnforceRssBudgetSpillsUntilUnderBudget) {
  constexpr std::size_t kTargets = 4096;
  const auto adds = sample_adds(kTargets, 50, 400'000);  // ~3 MB of values
  DataPlaneConfig plane;
  plane.shard_targets = 512;
  plane.rss_budget_mb = 1;
  plane.spill_dir = (dir_ / "spill").string();
  ShardedCensusMatrixBuilder builder(kTargets, plane);
  CensusMatrixBuilder mono_builder(kTargets);
  for (const auto& [t, vp, rtt] : adds) {
    builder.add(t, vp, rtt);
    mono_builder.add(t, vp, rtt);
  }
  ShardedCensusMatrix sharded = builder.build();
  EXPECT_GT(sharded.total_value_bytes(), std::size_t{1} << 20);
  EXPECT_LE(sharded.resident_value_bytes(), std::size_t{1} << 20);
  std::size_t spilled = 0;
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    if (sharded.shard_spilled(s)) ++spilled;
  }
  EXPECT_GT(spilled, 0u);
  expect_rows_equal(sharded, mono_builder.build());

  // A zero budget never spills.
  DataPlaneConfig no_budget = plane;
  no_budget.rss_budget_mb = 0;
  ShardedCensusMatrixBuilder resident_builder(kTargets, no_budget);
  for (const auto& [t, vp, rtt] : adds) resident_builder.add(t, vp, rtt);
  const ShardedCensusMatrix resident = resident_builder.build();
  EXPECT_EQ(resident.resident_value_bytes(), resident.total_value_bytes());
}

TEST_F(ShardedTest, SpillFileStrictReadAndTruncatedSalvage) {
  constexpr std::size_t kTargets = 128;
  const auto adds = sample_adds(kTargets, 20, 5'000);
  DataPlaneConfig plane;
  plane.shard_targets = 0;  // single shard -> single spill file
  plane.spill_dir = (dir_ / "spill").string();
  ShardedCensusMatrixBuilder builder(kTargets, plane);
  for (const auto& [t, vp, rtt] : adds) builder.add(t, vp, rtt);
  ShardedCensusMatrix sharded = builder.build();
  const std::size_t count = sharded.observation_count();
  ASSERT_GT(sharded.spill_shard(0), 0u);
  const std::string path = (dir_ / "spill" / "shard0.ancs").string();

  // Strict read of the intact file: every record, not salvaged.
  const auto intact = read_spill_file(path);
  ASSERT_TRUE(intact.has_value());
  EXPECT_FALSE(intact->salvaged);
  ASSERT_EQ(intact->values.size(), count);
  const auto row0 = sharded.measurements(0);
  for (std::size_t i = 0; i < row0.size(); ++i) {
    EXPECT_EQ(intact->values[i].vp, row0[i].vp);
    EXPECT_EQ(intact->values[i].rtt_ms, row0[i].rtt_ms);
  }

  // Truncate mid-record: strict read refuses, salvage recovers the
  // whole-record prefix and flags it.
  sharded.restore_shard(0);  // release the file mapping before editing
  const std::size_t full_bytes = fs::file_size(path);
  fs::resize_file(path, full_bytes - sizeof(VpRtt) - 3);
  EXPECT_FALSE(read_spill_file(path).has_value());
  const auto salvaged = read_spill_file(path, /*salvage=*/true);
  ASSERT_TRUE(salvaged.has_value());
  EXPECT_TRUE(salvaged->salvaged);
  EXPECT_EQ(salvaged->values.size(), count - 2);
  for (std::size_t i = 0; i < salvaged->values.size(); ++i) {
    EXPECT_EQ(salvaged->values[i].vp, intact->values[i].vp);
    EXPECT_EQ(salvaged->values[i].rtt_ms, intact->values[i].rtt_ms);
  }

  // Garbage header: nothing recoverable, even with salvage.
  std::ofstream garbage(path, std::ios::binary | std::ios::trunc);
  garbage << "not a spill file";
  garbage.close();
  EXPECT_FALSE(read_spill_file(path, /*salvage=*/true).has_value());
}

// --- Whole-pipeline identity -------------------------------------------------

net::WorldConfig tiny_world_config() {
  net::WorldConfig config;
  config.seed = 33;
  config.unicast_alive_slash24 = 300;
  config.unicast_dead_slash24 = 200;
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

FastPingConfig tiny_config() {
  FastPingConfig config;
  config.seed = 77;
  return config;
}

TEST_F(ShardedTest, RunCensusShardedMatchesMonolithic) {
  // The default plane (one shard, never spilled) against 37-target shards
  // under a spill budget: same rows, summary and greylist.
  const auto vps = net::make_planetlab({.node_count = 10, .seed = 55});
  Greylist blacklist_single;
  const ShardedCensusOutput single = run_census_sharded(
      tiny_world(), vps, tiny_hitlist(), blacklist_single, tiny_config());
  DataPlaneConfig plane;
  plane.shard_targets = 37;
  plane.rss_budget_mb = 1;
  plane.spill_dir = (dir_ / "spill").string();
  Greylist blacklist_sharded;
  const ShardedCensusOutput sharded =
      run_census_sharded(tiny_world(), vps, tiny_hitlist(), blacklist_sharded,
                         tiny_config(), plane);
  expect_rows_equal(sharded.data, single.data);
  EXPECT_EQ(sharded.summary.probes_sent, single.summary.probes_sent);
  EXPECT_EQ(sharded.summary.echo_replies, single.summary.echo_replies);
  EXPECT_EQ(sharded.summary.greylist_new, single.summary.greylist_new);
  EXPECT_EQ(blacklist_sharded.size(), blacklist_single.size());
}

TEST_F(ShardedTest, CrashResumeSalvageMatchesMonolithic) {
  // A census dies mid-campaign: checkpoints exist, one is truncated. The
  // default plane and a spilling 53-target plane must salvage the same
  // prefix, re-run the same VPs, and land on element-identical matrices.
  const auto vps = net::make_planetlab({.node_count = 8, .seed = 56});
  const fs::path single_dir = dir_ / "single";
  const fs::path sharded_dir = dir_ / "sharded";

  const auto seed_checkpoints = [&](const fs::path& out) {
    Greylist blacklist;
    (void)resume_census_sharded(
        tiny_world(), vps, tiny_hitlist(), blacklist, tiny_config(), out,
        /*census_id=*/1);
    // Fault injection: truncate one complete checkpoint mid-record and
    // delete another, forcing one salvage + one full re-walk.
    const auto victim = census_checkpoint_path(out, 1, vps[2].id);
    ASSERT_TRUE(fs::exists(victim));
    fs::resize_file(victim, fs::file_size(victim) / 2 + 1);
    fs::remove(census_checkpoint_path(out, 1, vps[5].id));
  };
  seed_checkpoints(single_dir);
  seed_checkpoints(sharded_dir);

  Greylist blacklist_single;
  const ShardedResumeReport single = resume_census_sharded(
      tiny_world(), vps, tiny_hitlist(), blacklist_single, tiny_config(),
      single_dir, 1);
  DataPlaneConfig plane;
  plane.shard_targets = 53;
  plane.rss_budget_mb = 1;
  plane.spill_dir = (sharded_dir / "spill").string();
  Greylist blacklist_sharded;
  const ShardedResumeReport sharded = resume_census_sharded(
      tiny_world(), vps, tiny_hitlist(), blacklist_sharded, tiny_config(),
      sharded_dir, 1, plane);

  EXPECT_EQ(sharded.files_salvaged, single.files_salvaged);
  EXPECT_GE(sharded.files_salvaged, 1u);
  EXPECT_EQ(sharded.vps_rerun, single.vps_rerun);
  EXPECT_EQ(sharded.vps_reused, single.vps_reused);
  expect_rows_equal(sharded.output.data, single.output.data);
}

TEST_F(ShardedTest, CollateShardedMatchesMonolithic) {
  const auto vps = net::make_planetlab({.node_count = 6, .seed = 57});
  Greylist blacklist;
  (void)resume_census_sharded(
      tiny_world(), vps, tiny_hitlist(), blacklist, tiny_config(), dir_,
      /*census_id=*/2);
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().extension() == ".anc") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  const ShardedCensusMatrix single =
      collate_census_files_sharded(files, tiny_hitlist().size(), {}, nullptr);
  DataPlaneConfig plane;
  plane.shard_targets = 41;
  const ShardedCensusMatrix sharded = collate_census_files_sharded(
      files, tiny_hitlist().size(), plane, nullptr);
  expect_rows_equal(sharded, single);
}

TEST_F(ShardedTest, CombineMinMatchesMonolithic) {
  constexpr std::size_t kTargets = 600;
  const auto epoch1 = sample_adds(kTargets, 25, 9'000);
  auto epoch2 = sample_adds(kTargets, 25, 9'000);
  for (auto& [t, vp, rtt] : epoch2) rtt *= 0.75F;  // some minima move

  const auto build_mono = [&](const auto& adds) {
    CensusMatrixBuilder b(kTargets);
    for (const auto& [t, vp, rtt] : adds) b.add(t, vp, rtt);
    return b.build();
  };
  const auto build_sharded = [&](const auto& adds) {
    DataPlaneConfig plane;
    plane.shard_targets = 89;
    ShardedCensusMatrixBuilder b(kTargets, plane);
    for (const auto& [t, vp, rtt] : adds) b.add(t, vp, rtt);
    return b.build();
  };
  CensusMatrix mono = build_mono(epoch1);
  mono.combine_min(build_mono(epoch2));
  ShardedCensusMatrix sharded = build_sharded(epoch1);
  sharded.combine_min(build_sharded(epoch2));
  expect_rows_equal(sharded, mono);

  // Mismatched shard sizes are incomparable layouts, not silent damage.
  DataPlaneConfig other_plane;
  other_plane.shard_targets = 64;
  ShardedCensusMatrixBuilder other_builder(kTargets, other_plane);
  const ShardedCensusMatrix other = other_builder.build();
  EXPECT_THROW(sharded.combine_min(other), std::invalid_argument);
}

TEST_F(ShardedTest, AnalysisAndDirtyRowsMatchMonolithic) {
  const auto vps = net::make_planetlab({.node_count = 10, .seed = 58});
  Greylist blacklist;
  const ShardedCensusOutput single = run_census_sharded(
      tiny_world(), vps, tiny_hitlist(), blacklist, tiny_config());
  DataPlaneConfig plane;
  plane.shard_targets = 29;
  Greylist blacklist2;
  const ShardedCensusOutput sharded = run_census_sharded(
      tiny_world(), vps, tiny_hitlist(), blacklist2, tiny_config(), plane);

  const analysis::CensusAnalyzer analyzer(vps, geo::world_index());
  const auto single_outcomes =
      analyzer.analyze(single.data, tiny_hitlist(), /*min_vps=*/2);
  const auto sharded_outcomes =
      analyzer.analyze(sharded.data, tiny_hitlist(), /*min_vps=*/2);
  ASSERT_EQ(sharded_outcomes.size(), single_outcomes.size());
  for (std::size_t i = 0; i < single_outcomes.size(); ++i) {
    EXPECT_EQ(sharded_outcomes[i].target_index,
              single_outcomes[i].target_index);
    EXPECT_EQ(sharded_outcomes[i].result.replicas.size(),
              single_outcomes[i].result.replicas.size());
  }

  // A second epoch with a different seed: the 29-target diff finds exactly
  // the rows the single-shard diff finds, at the same global indices.
  FastPingConfig epoch2 = tiny_config();
  epoch2.seed = 78;
  Greylist b3, b4;
  const ShardedCensusOutput single2 =
      run_census_sharded(tiny_world(), vps, tiny_hitlist(), b3, epoch2);
  const ShardedCensusOutput sharded2 = run_census_sharded(
      tiny_world(), vps, tiny_hitlist(), b4, epoch2, plane);
  const auto single_dirty = analysis::dirty_rows(single.data, single2.data);
  const auto sharded_dirty =
      analysis::dirty_rows(sharded.data, sharded2.data);
  EXPECT_EQ(sharded_dirty, single_dirty);

  // Different layouts are incomparable: every row dirty.
  DataPlaneConfig other_plane;
  other_plane.shard_targets = 64;
  Greylist b5;
  const ShardedCensusOutput other = run_census_sharded(
      tiny_world(), vps, tiny_hitlist(), b5, epoch2, other_plane);
  EXPECT_EQ(
      analysis::dirty_rows(sharded.data, other.data).size(),
      other.data.target_count());
}

}  // namespace
}  // namespace anycast::census
