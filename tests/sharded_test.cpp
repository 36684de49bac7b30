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
#include <map>
#include <numeric>
#include <span>
#include <string>
#include <string_view>
#include <unistd.h>
#include <utility>
#include <vector>

#include "anycast/analysis/analyzer.hpp"
#include "anycast/analysis/incremental.hpp"
#include "anycast/census/census.hpp"
#include "anycast/census/resume.hpp"
#include "anycast/census/sharded.hpp"
#include "anycast/census/storage.hpp"
#include "anycast/concurrency/thread_pool.hpp"
#include "anycast/geo/city_index.hpp"
#include "anycast/net/platform.hpp"
#include "anycast/obs/durable.hpp"
#include "anycast/obs/metrics.hpp"

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

std::uint64_t counter_value(std::string_view name) {
  for (const obs::MetricValue& value : obs::metrics().scrape()) {
    if (value.name == name) return value.value;
  }
  return 0;
}

/// A side-run section's size in its file: header, run table, entries.
std::uint64_t section_bytes(const SideRunSection& section) {
  return 24 + 8 * (section.runs.size() + section.entries.size());
}

/// Staged shard batches flushed to side runs or frozen so far
/// (`census_shard_flushes`).
std::uint64_t flush_count() { return counter_value("census_shard_flushes"); }

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
  // A 4 MiB RSS budget with a spill dir stages at most 1 MiB, forcing
  // mid-stream side-run flushes that build() merges; the unbounded builder
  // stages everything until build(). Same elements either way — the flush
  // schedule is unobservable in the output.
  constexpr std::size_t kTargets = 2000;
  const auto adds = sample_adds(kTargets, 60, 600'000);  // ~2 MB staged

  DataPlaneConfig bounded;
  bounded.shard_targets = 256;
  bounded.rss_budget_mb = 4;  // stages 1 MiB; the ~1 MB of values fit
  bounded.spill_dir = (dir_ / "spill").string();
  const std::uint64_t flushes_before = flush_count();
  ShardedCensusMatrixBuilder bounded_builder(kTargets, bounded);
  DataPlaneConfig unbounded;
  unbounded.shard_targets = 256;  // no RSS budget: stage everything
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
  // Side runs from several flushes per shard: more flushes than shards.
  EXPECT_GT(flush_count() - flushes_before, a.shard_count());
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

TEST_F(ShardedTest, CrashAtEveryDurableWriteOfASpilledBuild) {
  // The build of EnforceRssBudgetSpillsUntilUnderBudget, killed inside
  // each of its durable writes in turn: its 1 MiB budget stages 256 KiB,
  // so the ~4 MB of adds flush side-run files before build() spills. The
  // dying write publishes nothing: the real name holds nothing or an
  // intact earlier file. A rebuild into the same spill dir is
  // element-identical and leaves no tmp and no side-run file.
  constexpr std::size_t kTargets = 4096;
  const auto adds = sample_adds(kTargets, 50, 400'000);
  DataPlaneConfig plane;
  plane.shard_targets = 512;
  plane.rss_budget_mb = 1;
  plane.spill_dir = (dir_ / "spill").string();
  CensusMatrixBuilder mono_builder(kTargets);
  for (const auto& [t, vp, rtt] : adds) mono_builder.add(t, vp, rtt);
  const CensusMatrix mono = mono_builder.build();
  const auto spilled_build = [&] {
    ShardedCensusMatrixBuilder builder(kTargets, plane);
    for (const auto& [t, vp, rtt] : adds) builder.add(t, vp, rtt);
    return builder.build();
  };
  const auto durable_writes = [] {
    for (const obs::MetricValue& value : obs::metrics().scrape()) {
      if (value.name == "durable_writes") return value.value;
    }
    return std::uint64_t{0};
  };
  const std::uint64_t writes_before = durable_writes();
  const std::uint64_t flushes_before = flush_count();
  const ShardedCensusMatrix clean = spilled_build();
  const std::uint64_t writes = durable_writes() - writes_before;
  ASSERT_GT(flush_count() - flushes_before, clean.shard_count());
  const auto side_runs_decode = [&](const fs::path& path) {
    for (std::uint64_t at = 0; at < fs::file_size(path);) {
      at += section_bytes(read_side_runs(path.string(), at, 512, kTargets));
    }
  };
  std::size_t side_run_crashes = 0;

  for (std::uint64_t k = 1; k <= writes; ++k) {
    SCOPED_TRACE("crash at durable write " + std::to_string(k));
    obs::testing::crash_at_durable_write(k);
    try {
      (void)spilled_build();
      ADD_FAILURE() << "no crash";
    } catch (const obs::testing::CrashPoint& crash) {
      EXPECT_TRUE(fs::exists(crash.path.string() + ".tmp"));
      const bool side_run = crash.path.extension() == ".ancr";
      side_run_crashes += static_cast<std::size_t>(side_run);
      if (side_run && fs::exists(crash.path)) {
        EXPECT_NO_THROW(side_runs_decode(crash.path));
      } else if (fs::exists(crash.path)) {
        EXPECT_TRUE(read_spill_file(crash.path.string()).has_value());
      }
    }
    obs::testing::crash_at_durable_write(0);
    const ShardedCensusMatrix rebuilt = spilled_build();
    expect_rows_equal(rebuilt, mono);
    for (std::size_t s = 0; s < rebuilt.shard_count(); ++s) {
      EXPECT_EQ(rebuilt.shard_spilled(s), clean.shard_spilled(s)) << s;
    }
    for (const auto& entry : fs::directory_iterator(dir_ / "spill")) {
      EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
      EXPECT_NE(entry.path().extension(), ".ancr") << entry.path();
    }
  }
  EXPECT_GT(side_run_crashes, 0u);
  EXPECT_LT(side_run_crashes, writes);  // the spills crashed too

  // A failed spill leaves its shard resident and every row readable.
  DataPlaneConfig resident_plane = plane;
  resident_plane.rss_budget_mb = 0;
  ShardedCensusMatrixBuilder builder(kTargets, resident_plane);
  for (const auto& [t, vp, rtt] : adds) builder.add(t, vp, rtt);
  ShardedCensusMatrix resident = builder.build();
  for (std::size_t s = 0; s < resident.shard_count(); ++s) {
    obs::testing::crash_at_durable_write(1);
    EXPECT_THROW((void)resident.spill_shard(s), obs::testing::CrashPoint);
    EXPECT_FALSE(resident.shard_spilled(s)) << s;
  }
  EXPECT_EQ(resident.resident_value_bytes(), resident.total_value_bytes());
  expect_rows_equal(resident, mono);
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

TEST_F(ShardedTest, LooseAddsHonourTheStageBudget) {
  // add() stages 10 bytes an entry (a TargetRtt plus its VP id) under the
  // same budget as fragments: over budget, with an RSS budget and a spill
  // dir set, every staged shard flushes.
  constexpr std::size_t kTargets = 3000;
  const auto adds = sample_adds(kTargets, 70, 300'000);  // ~3 MB staged
  constexpr std::size_t kBudget = std::size_t{1} << 20;

  DataPlaneConfig bounded;
  bounded.shard_targets = 256;
  bounded.rss_budget_mb = 4;  // stages kBudget; the ~1.7 MB of values fit
  bounded.spill_dir = (dir_ / "spill").string();
  const std::uint64_t flushes_before = flush_count();
  ShardedCensusMatrixBuilder bounded_builder(kTargets, bounded);
  DataPlaneConfig unbounded = bounded;
  unbounded.rss_budget_mb = 0;
  ShardedCensusMatrixBuilder unbounded_builder(kTargets, unbounded);
  std::size_t peak = 0;
  for (const auto& [t, vp, rtt] : adds) {
    bounded_builder.add(t, vp, rtt);
    unbounded_builder.add(t, vp, rtt);
    ASSERT_LE(bounded_builder.staged_bytes(), kBudget);
    peak = std::max(peak, bounded_builder.staged_bytes());
  }
  EXPECT_GT(peak, kBudget / 2);
  EXPECT_EQ(unbounded_builder.staged_bytes(),
            adds.size() * CensusMatrixBuilder::kLooseEntryBytes);
  const ShardedCensusMatrix a = bounded_builder.build();
  EXPECT_GT(flush_count() - flushes_before, a.shard_count());
  const ShardedCensusMatrix b = unbounded_builder.build();
  expect_rows_equal(a, b);
  EXPECT_EQ(a.observation_count(), b.observation_count());
}

// --- Builder identity against a (target, vp) -> min RTT reference -----------

/// One builder input: a VP's fragment, or (when `loose`) one add() per
/// entry of `entries`.
struct BuilderInput {
  std::uint16_t vp = 0;
  std::vector<TargetRtt> entries;
  bool loose = false;
};

/// A VP's sorted fragment over ~55% of `targets`, RTTs a pure function of
/// (vp, target, salt).
std::vector<TargetRtt> sorted_fragment(std::uint16_t vp, std::size_t targets,
                                       std::uint32_t salt = 0) {
  std::vector<TargetRtt> fragment;
  for (std::uint32_t t = 0; t < targets; ++t) {
    std::uint64_t x = (std::uint64_t{vp} << 32) ^ t ^ (std::uint64_t{salt} << 48);
    x = (x ^ (x >> 31)) * 0x9E3779B97F4A7C15ULL;
    x ^= x >> 29;
    if (x % 100 >= 55) continue;
    fragment.push_back({t, 1.0F + static_cast<float>((x >> 20) % 4000) * 0.05F});
  }
  return fragment;
}

/// The builder input shapes the data plane must canonicalise identically.
std::vector<std::pair<std::string, std::vector<BuilderInput>>> input_shapes(
    std::size_t targets, std::uint16_t vps) {
  std::vector<std::pair<std::string, std::vector<BuilderInput>>> shapes;
  std::vector<BuilderInput> ascending;
  for (std::uint16_t vp = 0; vp < vps; ++vp) {
    ascending.push_back({vp, sorted_fragment(vp, targets)});
  }
  shapes.emplace_back("vp_ascending", ascending);

  // Collation order: file paths sort as vp0, vp1, vp10, vp11, ...
  std::vector<BuilderInput> lexicographic = ascending;
  std::sort(lexicographic.begin(), lexicographic.end(),
            [](const BuilderInput& a, const BuilderInput& b) {
              return std::to_string(a.vp) < std::to_string(b.vp);
            });
  shapes.emplace_back("lexicographic_vp_order", lexicographic);

  // VP 7 reports twice: a second pass over overlapping targets with
  // different RTTs, both before and after other VPs.
  std::vector<BuilderInput> repeated = ascending;
  repeated.push_back({7, sorted_fragment(7, targets, 1)});
  repeated.insert(repeated.begin() + 3, {7, sorted_fragment(7, targets, 2)});
  shapes.emplace_back("repeated_vp", repeated);

  std::vector<BuilderInput> unsorted = ascending;
  std::reverse(unsorted[5].entries.begin(), unsorted[5].entries.end());
  std::rotate(unsorted[9].entries.begin(),
              unsorted[9].entries.begin() + unsorted[9].entries.size() / 3,
              unsorted[9].entries.end());
  shapes.emplace_back("unsorted_fragment", unsorted);

  // Duplicate targets: each fragment repeats every 4th entry with a
  // different RTT, adjacent (sorted but not strictly) and at the end.
  std::vector<BuilderInput> duplicates = ascending;
  for (BuilderInput& input : duplicates) {
    std::vector<TargetRtt> doubled;
    for (std::size_t i = 0; i < input.entries.size(); ++i) {
      doubled.push_back(input.entries[i]);
      if (i % 4 == 0) {
        doubled.push_back({input.entries[i].target_index,
                           input.entries[i].rtt_ms * (i % 8 == 0 ? 0.5F : 2.0F)});
      }
    }
    if (input.vp % 2 == 1 && !input.entries.empty()) {
      doubled.push_back({input.entries.front().target_index, 0.25F});
    }
    input.entries = std::move(doubled);
  }
  shapes.emplace_back("duplicate_targets", duplicates);

  // Damaged records: targets at and beyond the hitlist, as a sorted tail
  // and scattered through an unsorted fragment.
  std::vector<BuilderInput> out_of_range = ascending;
  for (BuilderInput& input : out_of_range) {
    const auto bad = static_cast<std::uint32_t>(targets + input.vp);
    if (input.vp % 3 == 0) {
      input.entries.push_back({static_cast<std::uint32_t>(targets), 9.0F});
      input.entries.push_back({bad + 100, 9.0F});
    } else if (input.vp % 3 == 1) {
      input.entries.insert(input.entries.begin() + input.entries.size() / 2,
                           {bad, 0.5F});
    }
  }
  out_of_range.push_back({3, {{UINT32_MAX, 0.1F}}});
  shapes.emplace_back("out_of_range_targets", out_of_range);

  // Fragments interleaved with loose add()s, some for VPs that also sent
  // a fragment.
  std::vector<BuilderInput> mixed;
  for (std::uint16_t vp = 0; vp < vps; ++vp) {
    mixed.push_back({vp, sorted_fragment(vp, targets), vp % 3 == 1});
    if (vp % 10 == 4) {
      mixed.push_back({static_cast<std::uint16_t>(vp - 2),
                       sorted_fragment(vp - 2, targets, 3), true});
    }
  }
  std::reverse(mixed[11].entries.begin(), mixed[11].entries.end());
  shapes.emplace_back("fragments_and_loose_adds", mixed);
  return shapes;
}

TEST_F(ShardedTest, BuilderMatchesReferenceForEveryShapeBudgetAndShard) {
  constexpr std::size_t kTargets = 4099;
  constexpr std::uint16_t kVps = 80;  // ~180k entries: over a 1 MiB budget
  for (const auto& [shape, inputs] : input_shapes(kTargets, kVps)) {
    // The reference: per (target, vp) minimum over every in-range entry.
    std::map<std::pair<std::uint32_t, std::uint16_t>, float> reference;
    for (const BuilderInput& input : inputs) {
      for (const TargetRtt& entry : input.entries) {
        if (entry.target_index >= kTargets) continue;
        const auto key = std::make_pair(entry.target_index, input.vp);
        const auto [it, fresh] = reference.emplace(key, entry.rtt_ms);
        if (!fresh) it->second = std::min(it->second, entry.rtt_ms);
      }
    }
    std::vector<std::vector<VpRtt>> rows(kTargets);
    for (const auto& [key, rtt] : reference) {
      rows[key.first].push_back({key.second, rtt});
    }

    // RSS budgets staging nothing early, 1 MiB and 256 MiB (a quarter
    // each); the ~1.4 MB of values never reach them, so nothing spills.
    for (const std::size_t budget_mb : {0UL, 4UL, 1024UL}) {
      for (const std::size_t shard_targets : {1UL, 31UL, 4096UL, kTargets}) {
        SCOPED_TRACE(shape + " budget " + std::to_string(budget_mb) +
                     " MiB, shard " + std::to_string(shard_targets));
        DataPlaneConfig plane;
        plane.shard_targets = shard_targets;
        plane.rss_budget_mb = budget_mb;
        plane.spill_dir = (dir_ / "spill").string();
        const std::uint64_t flushes_before = flush_count();
        ShardedCensusMatrixBuilder builder(kTargets, plane);
        for (const BuilderInput& input : inputs) {
          if (!input.loose) {
            builder.add_fragment(input.vp, input.entries);
            continue;
          }
          for (const TargetRtt& entry : input.entries) {
            builder.add(entry.target_index, input.vp, entry.rtt_ms);
          }
        }
        const ShardedCensusMatrix matrix = builder.build();
        if (budget_mb == 4) {  // ~1.4 MB staged: at least one early flush
          EXPECT_GT(flush_count() - flushes_before, matrix.shard_count());
        }
        ASSERT_EQ(matrix.target_count(), kTargets);
        EXPECT_EQ(matrix.observation_count(), reference.size());
        for (std::uint32_t t = 0; t < kTargets; ++t) {
          const auto got = matrix.measurements(t);
          ASSERT_EQ(got.size(), rows[t].size()) << "target " << t;
          for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i].vp, rows[t][i].vp) << "target " << t;
            ASSERT_EQ(got[i].rtt_ms, rows[t][i].rtt_ms) << "target " << t;
          }
        }
      }
    }
  }
}

TEST_F(ShardedTest, FragmentsSpanningEveryShardMatchTheOneShardBuilder) {
  // Every fragment holds every target, so each one is viewed by every
  // shard, at the first and last entry of each shard's slice.
  constexpr std::size_t kTargets = 4099;
  std::vector<std::vector<TargetRtt>> fragments;
  for (std::uint16_t vp = 0; vp < 40; ++vp) {  // ~1.3 MB staged
    std::vector<TargetRtt> fragment;
    for (std::uint32_t t = 0; t < kTargets; ++t) {
      fragment.push_back({t, 1.0F + static_cast<float>((t * 13 + vp * 7) % 401)});
    }
    if (vp == 5) std::reverse(fragment.begin(), fragment.end());
    fragments.push_back(std::move(fragment));
  }
  CensusMatrixBuilder mono_builder(kTargets);
  for (std::uint16_t vp = 0; vp < fragments.size(); ++vp) {
    mono_builder.add_fragment(vp, fragments[vp]);
  }
  const CensusMatrix mono = mono_builder.build();
  for (const std::size_t shard_targets : {1UL, 31UL, 4096UL, 0UL}) {
    SCOPED_TRACE("shard_targets " + std::to_string(shard_targets));
    DataPlaneConfig plane;
    plane.shard_targets = shard_targets;  // no RSS budget: no flush
    const std::uint64_t flushes_before = flush_count();
    ShardedCensusMatrixBuilder builder(kTargets, plane);
    for (std::uint16_t vp = 0; vp < fragments.size(); ++vp) {
      builder.add_fragment(vp, fragments[vp]);
    }
    EXPECT_EQ(builder.staged_bytes(),
              fragments.size() * kTargets * sizeof(TargetRtt));
    const ShardedCensusMatrix sharded = builder.build();
    // No RSS budget: each shard freezes exactly once, in build().
    EXPECT_EQ(flush_count() - flushes_before, sharded.shard_count());
    EXPECT_EQ(builder.staged_bytes(), 0u);
    expect_rows_equal(sharded, mono);
  }
}

TEST_F(ShardedTest, RepeatedVpViewsAndLooseAddsFoldToMinima) {
  // One VP staged twice in one shard (two views of different fragments),
  // plus loose add()s of the same VP on the same targets, beside another
  // VP's view: every (vp, target) keeps its minimum.
  constexpr std::size_t kTargets = 200;
  std::vector<TargetRtt> first;
  std::vector<TargetRtt> second;
  std::vector<TargetRtt> other;
  for (std::uint32_t t = 0; t < kTargets; ++t) {
    if (t % 2 == 0) first.push_back({t, 10.0F + static_cast<float>(t % 7)});
    if (t % 3 == 0) second.push_back({t, 9.0F + static_cast<float>(t % 5)});
    other.push_back({t, 30.0F});
  }
  const auto feed = [&](auto& builder) {
    builder.add_fragment(4, first);
    builder.add_fragment(2, other);
    builder.add_fragment(4, second);
    for (std::uint32_t t = 0; t < kTargets; t += 5) {
      builder.add(t, 4, 9.5F);
      builder.add(t, 2, 31.0F);  // never below the view's 30 ms
    }
  };
  std::map<std::pair<std::uint32_t, std::uint16_t>, float> reference;
  const auto keep_min = [&](std::uint32_t t, std::uint16_t vp, float rtt) {
    const auto [it, fresh] = reference.emplace(std::make_pair(t, vp), rtt);
    if (!fresh) it->second = std::min(it->second, rtt);
  };
  for (const TargetRtt& e : first) keep_min(e.target_index, 4, e.rtt_ms);
  for (const TargetRtt& e : second) keep_min(e.target_index, 4, e.rtt_ms);
  for (const TargetRtt& e : other) keep_min(e.target_index, 2, e.rtt_ms);
  for (std::uint32_t t = 0; t < kTargets; t += 5) {
    keep_min(t, 4, 9.5F);
    keep_min(t, 2, 31.0F);
  }
  for (const std::size_t shard_targets : {0UL, 64UL, 1UL}) {
    SCOPED_TRACE("shard_targets " + std::to_string(shard_targets));
    DataPlaneConfig plane;
    plane.shard_targets = shard_targets;
    ShardedCensusMatrixBuilder builder(kTargets, plane);
    feed(builder);
    const ShardedCensusMatrix matrix = builder.build();
    EXPECT_EQ(matrix.observation_count(), reference.size());
    for (std::uint32_t t = 0; t < kTargets; ++t) {
      std::vector<VpRtt> expected;
      for (const std::uint16_t vp : {2, 4}) {
        const auto it = reference.find({t, vp});
        if (it != reference.end()) expected.push_back({vp, it->second});
      }
      const auto got = matrix.measurements(t);
      ASSERT_EQ(got.size(), expected.size()) << "target " << t;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].vp, expected[i].vp) << "target " << t;
        EXPECT_EQ(got[i].rtt_ms, expected[i].rtt_ms) << "target " << t;
      }
    }
  }
}

TEST_F(ShardedTest, FlushAllUnderAnRssBudgetReleasesStagedFragments) {
  // Over the stage budget (a quarter of the RSS budget) with a spill dir,
  // every staged shard's runs go to a side-run file and the staged
  // fragments are released: staged bytes drop to 0 on every flush. The
  // RSS budget spills frozen shards; the result is the one-shard
  // builder's.
  constexpr std::size_t kTargets = 4096;
  constexpr std::size_t kVps = 480;  // ~18 KiB a fragment, ~8.6 MB in all
  DataPlaneConfig plane;
  plane.shard_targets = 512;
  plane.rss_budget_mb = 4;  // stages 1 MiB
  plane.spill_dir = (dir_ / "spill").string();
  CensusMatrixBuilder mono_builder(kTargets);
  ShardedCensusMatrixBuilder builder(kTargets, plane);
  const std::uint64_t flushes_before = flush_count();
  const std::uint64_t spills_before = counter_value("census_shard_spills");
  std::size_t releases = 0;
  for (std::uint16_t vp = 0; vp < kVps; ++vp) {
    std::vector<TargetRtt> fragment = sorted_fragment(vp, kTargets);
    const std::size_t bytes = fragment.size() * sizeof(TargetRtt);
    mono_builder.add_fragment(vp, fragment);
    const std::size_t staged_before = builder.staged_bytes();
    const std::uint64_t flushes = flush_count();
    builder.add_fragment(vp, std::move(fragment));
    if (flush_count() != flushes) {
      // A flush wrote out every staged shard and released every fragment.
      EXPECT_EQ(builder.staged_bytes(), 0u) << "vp " << vp;
      EXPECT_GT(staged_before + bytes, std::size_t{1} << 20) << "vp " << vp;
      EXPECT_EQ(flush_count() - flushes, builder.shard_count()) << "vp " << vp;
      ++releases;
    } else {
      EXPECT_EQ(builder.staged_bytes(), staged_before + bytes) << "vp " << vp;
      EXPECT_LE(builder.staged_bytes(), std::size_t{1} << 20) << "vp " << vp;
    }
  }
  EXPECT_GE(releases, 3u);
  const ShardedCensusMatrix sharded = builder.build();
  EXPECT_GT(flush_count() - flushes_before, 3 * sharded.shard_count());
  EXPECT_GT(counter_value("census_shard_spills"), spills_before);
  EXPECT_LE(sharded.resident_value_bytes(), std::size_t{4} << 20);
  expect_rows_equal(sharded, mono_builder.build());
}

TEST_F(ShardedTest, BudgetedBuildSpillsEachShardAtMostOnce) {
  // Many flushes and values well over the RSS budget: each shard is
  // frozen once, in build(), so it is spilled at most once, and no
  // side-run file outlives build().
  constexpr std::size_t kTargets = 4096;
  DataPlaneConfig plane;
  plane.shard_targets = 512;
  plane.rss_budget_mb = 4;  // stages 1 MiB
  plane.spill_dir = (dir_ / "spill").string();
  CensusMatrixBuilder mono_builder(kTargets);
  ShardedCensusMatrixBuilder builder(kTargets, plane);
  const std::uint64_t flushes_before = flush_count();
  const std::uint64_t spills_before = counter_value("census_shard_spills");
  for (std::uint16_t vp = 0; vp < 600; ++vp) {  // ~10.8 MB of values
    mono_builder.add_fragment(vp, sorted_fragment(vp, kTargets));
    builder.add_fragment(vp, sorted_fragment(vp, kTargets));
  }
  const ShardedCensusMatrix sharded = builder.build();
  // At least three flushes of every shard, then its freeze.
  EXPECT_GE(flush_count() - flushes_before, 4 * sharded.shard_count());
  EXPECT_GT(sharded.total_value_bytes(), std::size_t{8} << 20);
  const std::uint64_t spills = counter_value("census_shard_spills") -
                               spills_before;
  EXPECT_GT(spills, 0u);
  EXPECT_LE(spills, sharded.shard_count());
  for (const auto& entry : fs::directory_iterator(dir_ / "spill")) {
    EXPECT_NE(entry.path().extension(), ".ancr") << entry.path();
  }
  expect_rows_equal(sharded, mono_builder.build());
}

TEST_F(ShardedTest, SideRunFilesReadBackStrictly) {
  // A flush's side-run file holds each staged shard's runs, VP-ascending,
  // exactly as staged; any damage, or a range the targets do not fit,
  // throws.
  constexpr std::size_t kTargets = 4096;
  DataPlaneConfig plane;
  plane.shard_targets = 1000;
  plane.rss_budget_mb = 1;  // stages 256 KiB: ~15 fragments
  plane.spill_dir = (dir_ / "spill").string();
  ShardedCensusMatrixBuilder builder(kTargets, plane);
  std::size_t staged_entries = 0;
  for (std::uint16_t vp = 0; builder.staged_bytes() != 0 || vp == 0; ++vp) {
    std::vector<TargetRtt> fragment = sorted_fragment(vp, kTargets);
    staged_entries += fragment.size();
    builder.add_fragment(vp, std::move(fragment));
  }
  const fs::path side_run = dir_ / "spill" / "runs0.ancr";
  const fs::path copy = dir_ / "copy.ancr";
  fs::copy_file(side_run, copy);
  (void)builder.build();
  EXPECT_FALSE(fs::exists(side_run));

  std::size_t entries = 0;
  std::uint64_t at = 0;
  std::uint64_t last = 0;
  for (std::size_t s = 0; s < 5; ++s) {
    const SideRunSection section =
        read_side_runs(copy.string(), at, 1000, kTargets);
    EXPECT_EQ(section.shard, s);
    const std::size_t first = s * 1000;
    std::size_t next = 0;
    for (std::size_t r = 0; r < section.runs.size(); ++r) {
      const std::uint32_t vp = section.runs[r].vp;
      EXPECT_EQ(vp, r);  // every VP reached every shard
      std::vector<TargetRtt> expected;
      for (const TargetRtt& entry : sorted_fragment(vp, kTargets)) {
        if (entry.target_index >= first && entry.target_index < first + 1000) {
          expected.push_back(entry);
        }
      }
      ASSERT_EQ(section.runs[r].size, expected.size());
      for (const TargetRtt& entry : expected) {
        EXPECT_EQ(section.entries[next].target_index, entry.target_index);
        EXPECT_EQ(section.entries[next].rtt_ms, entry.rtt_ms);
        ++next;
      }
    }
    EXPECT_EQ(next, section.entries.size());
    entries += next;
    last = std::exchange(at, at + section_bytes(section));
  }
  EXPECT_EQ(at, fs::file_size(copy));
  EXPECT_EQ(entries, staged_entries);
  // Shards of 999 targets: shard 0's runs hold target 999.
  EXPECT_THROW((void)read_side_runs(copy.string(), 0, 999, kTargets),
               std::runtime_error);

  const auto damaged = [&](std::size_t byte) {
    const fs::path path = dir_ / "damaged.ancr";
    fs::copy_file(copy, path, fs::copy_options::overwrite_existing);
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekg(static_cast<std::streamoff>(byte));
    const char flipped = static_cast<char>(file.get() ^ 0x10);
    file.seekp(static_cast<std::streamoff>(byte));
    file.put(flipped);
    return path.string();
  };
  const std::size_t bytes = fs::file_size(copy);
  for (const auto& [byte, offset] :
       {std::pair<std::size_t, std::uint64_t>{0, 0},  // magic
        {8, 0},                                       // shard, under the CRC
        {bytes - 3, last}}) {                         // an entry
    EXPECT_THROW((void)read_side_runs(damaged(byte), offset, 1000, kTargets),
                 std::runtime_error)
        << "byte " << byte;
  }
  fs::resize_file(copy, bytes - 8);
  EXPECT_THROW((void)read_side_runs(copy.string(), last, 1000, kTargets),
               std::runtime_error);
  EXPECT_THROW((void)read_side_runs((dir_ / "missing.ancr").string(), 0, 1000,
                                    kTargets),
               std::runtime_error);
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

// --- Content stamp and change record ----------------------------------------
//
// A matrix derived by combine_min records the rows it changed against the
// stamp it was derived from; dirty_rows answers from that record. Every
// test compares the record path against the full scan, forced by
// rebuilding both matrices: equal rows, fresh stamps, no record.

class ChangeRecordTest : public ShardedTest {};

std::uint64_t derived_calls() {
  return counter_value("analysis_dirty_rows_derived");
}
std::uint64_t scanned_calls() {
  return counter_value("analysis_dirty_rows_scanned");
}

/// xorshift64 step.
std::uint64_t next_bits(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

DataPlaneConfig unspilled(DataPlaneConfig plane) {
  plane.rss_budget_mb = 0;
  plane.spill_dir.clear();
  return plane;
}

/// Random ragged matrix: `count` adds over `targets` rows and `vps` VPs.
ShardedCensusMatrix random_matrix(std::size_t targets, std::size_t vps,
                                  std::size_t count, std::uint64_t seed,
                                  const DataPlaneConfig& plane) {
  ShardedCensusMatrixBuilder builder(targets, plane);
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL + 1;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t r = next_bits(x);
    builder.add(static_cast<std::uint32_t>(r % targets),
                static_cast<std::uint16_t>((r >> 32) % vps),
                1.0F + static_cast<float>((r >> 48) % 500) * 0.25F);
  }
  return builder.build();
}

/// A churn round against `base` over `targets` rows (>= base's): on
/// `rows` random rows it lowers an RTT, adds a VP `base` never has, or
/// repeats an RTT at or above the stored one (which changes nothing).
ShardedCensusMatrix churn_of(const ShardedCensusMatrix& base,
                             std::size_t targets, std::size_t vps,
                             std::size_t rows, std::uint64_t seed) {
  ShardedCensusMatrixBuilder builder(targets, unspilled(base.plane()));
  std::uint64_t x = seed * 0xBF58476D1CE4E5B9ULL + 7;
  for (std::size_t i = 0; i < rows; ++i) {
    const auto t = static_cast<std::uint32_t>(next_bits(x) % targets);
    const std::uint64_t r = next_bits(x);
    const auto row = t < base.target_count() ? base.measurements(t)
                                             : std::span<const VpRtt>{};
    const VpRtt* entry = row.empty() ? nullptr : &row[r % row.size()];
    switch ((r >> 40) % 4) {
      case 0:
        if (entry != nullptr) builder.add(t, entry->vp, entry->rtt_ms * 0.5F);
        break;
      case 1:
        builder.add(t, static_cast<std::uint16_t>(vps + (r >> 20) % 3),
                    2.0F + static_cast<float>((r >> 8) % 64));
        break;
      case 2:
        if (entry != nullptr) builder.add(t, entry->vp, entry->rtt_ms + 5.0F);
        break;
      default:
        if (entry != nullptr) builder.add(t, entry->vp, entry->rtt_ms);
        break;
    }
  }
  return builder.build();
}

/// The same rows under a fresh stamp and no change record.
ShardedCensusMatrix rebuilt(const ShardedCensusMatrix& m) {
  ShardedCensusMatrixBuilder builder(m.target_count(), unspilled(m.plane()));
  for (std::uint32_t t = 0; t < m.target_count(); ++t) {
    for (const VpRtt& value : m.measurements(t)) {
      builder.add(t, value.vp, value.rtt_ms);
    }
  }
  return builder.build();
}

/// Rows whose contents differ; a row past either matrix's end reads empty.
std::vector<std::uint32_t> naive_diff(const ShardedCensusMatrix& a,
                                      const ShardedCensusMatrix& b) {
  std::vector<std::uint32_t> out;
  const std::size_t targets = std::max(a.target_count(), b.target_count());
  for (std::uint32_t t = 0; t < targets; ++t) {
    const auto ra = t < a.target_count() ? a.measurements(t)
                                         : std::span<const VpRtt>{};
    const auto rb = t < b.target_count() ? b.measurements(t)
                                         : std::span<const VpRtt>{};
    const bool same = std::equal(
        ra.begin(), ra.end(), rb.begin(), rb.end(),
        [](const VpRtt& x, const VpRtt& y) {
          return x.vp == y.vp && x.rtt_ms == y.rtt_ms;
        });
    if (!same) out.push_back(t);
  }
  return out;
}

/// `next` was derived from `prev` by its last combine_min: both call
/// orders take the record path and agree with the forced full scan.
void expect_record_exact(const ShardedCensusMatrix& prev,
                         const ShardedCensusMatrix& next,
                         concurrency::ThreadPool* pool = nullptr) {
  ASSERT_TRUE(prev.same_layout(next));
  const std::uint64_t derived_before = derived_calls();
  const std::vector<std::uint32_t> got = analysis::dirty_rows(prev, next, pool);
  const std::vector<std::uint32_t> reverse =
      analysis::dirty_rows(next, prev, pool);
  EXPECT_EQ(derived_calls() - derived_before, 2u);

  const std::uint64_t scanned_before = scanned_calls();
  const std::vector<std::uint32_t> scanned =
      analysis::dirty_rows(rebuilt(prev), rebuilt(next), pool);
  EXPECT_EQ(scanned_calls() - scanned_before, 1u);
  EXPECT_EQ(got, scanned);
  EXPECT_EQ(reverse, scanned);
  EXPECT_EQ(scanned, naive_diff(prev, next));
}

TEST_F(ChangeRecordTest, DerivedDirtyRowsEqualTheFullScanForEveryShardSize) {
  constexpr std::size_t kTargets = 400;
  constexpr std::size_t kVps = 20;
  concurrency::ThreadPool pool(3);
  concurrency::ThreadPool* const pools[] = {nullptr, &pool};
  for (const std::size_t shard_targets : {std::size_t{1}, std::size_t{31},
                                          std::size_t{0}}) {
    for (concurrency::ThreadPool* lanes : pools) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE("shard_targets=" + std::to_string(shard_targets) +
                     " pool=" + std::to_string(lanes != nullptr) +
                     " seed=" + std::to_string(seed));
        DataPlaneConfig plane;
        plane.shard_targets = shard_targets;
        const ShardedCensusMatrix prev =
            random_matrix(kTargets, kVps, 5'000, seed, plane);
        ShardedCensusMatrix next = prev;
        next.combine_min(churn_of(prev, kTargets, kVps, 90, seed + 50));
        EXPECT_NE(next.stamp(), prev.stamp());
        EXPECT_EQ(next.last_change().base, prev.stamp());
        EXPECT_FALSE(next.last_change().rows.empty());
        // Repeated or raised RTTs change nothing: the record is the rows
        // that differ, not every row the churn touched.
        EXPECT_LT(next.last_change().rows.size(), 90u);
        expect_record_exact(prev, next, lanes);
      }
    }
  }
}

TEST_F(ChangeRecordTest, SpilledShardsKeepTheRecordExact) {
  constexpr std::size_t kTargets = 300;
  DataPlaneConfig plane;
  plane.shard_targets = 31;
  plane.spill_dir = (dir_ / "spill").string();
  ShardedCensusMatrix prev = random_matrix(kTargets, 16, 4'000, 9, plane);
  if (prev.spill_shard(0) == 0) GTEST_SKIP() << "no spill tier";
  ASSERT_GT(prev.spill_shard(1), 0u);
  const std::uint64_t stamp = prev.stamp();
  EXPECT_EQ(prev.stamp(), stamp) << "spilling does not change the rows";

  ShardedCensusMatrix next = prev;
  ASSERT_GT(next.spill_shard(2), 0u);
  // combine_min restores the spilled shards it merges into.
  next.combine_min(churn_of(prev, kTargets, 16, 80, 4));
  ASSERT_GT(next.spill_shard(3), 0u);
  EXPECT_TRUE(next.shard_spilled(3));
  EXPECT_EQ(next.last_change().base, prev.stamp());
  expect_record_exact(prev, next);
}

TEST_F(ChangeRecordTest, ChainedCombinesRecordOnlyTheLast) {
  constexpr std::size_t kTargets = 250;
  DataPlaneConfig plane;
  plane.shard_targets = 31;
  const ShardedCensusMatrix m0 = random_matrix(kTargets, 12, 3'000, 5, plane);
  ShardedCensusMatrix m1 = m0;
  m1.combine_min(churn_of(m0, kTargets, 12, 60, 6));
  ShardedCensusMatrix m2 = m1;
  m2.combine_min(churn_of(m1, kTargets, 12, 60, 7));
  expect_record_exact(m0, m1);
  expect_record_exact(m1, m2);

  // m2 was not derived from m0 by its last combine: a full scan.
  const std::uint64_t scanned_before = scanned_calls();
  EXPECT_EQ(analysis::dirty_rows(m0, m2), naive_diff(m0, m2));
  EXPECT_EQ(analysis::dirty_rows(m2, m0), naive_diff(m0, m2));
  EXPECT_EQ(scanned_calls() - scanned_before, 2u);

  // The same two rounds applied in place to one matrix.
  ShardedCensusMatrix in_place = m0;
  in_place.combine_min(churn_of(m0, kTargets, 12, 60, 6));
  const ShardedCensusMatrix after_first = in_place;
  in_place.combine_min(churn_of(m1, kTargets, 12, 60, 7));
  expect_record_exact(after_first, in_place);
  EXPECT_EQ(analysis::dirty_rows(m0, in_place), naive_diff(m0, m2));

  // A combine that changes nothing still records, with no rows.
  ShardedCensusMatrix unchanged = m2;
  unchanged.combine_min(m0);  // m2 already holds every minimum of m0
  EXPECT_TRUE(unchanged.last_change().rows.empty());
  expect_record_exact(m2, unchanged);
}

TEST_F(ChangeRecordTest, CopiesMovesAndShardWritesKeepStampsHonest) {
  constexpr std::size_t kTargets = 200;
  DataPlaneConfig plane;
  plane.shard_targets = 31;
  const ShardedCensusMatrix prev =
      random_matrix(kTargets, 10, 2'000, 11, plane);
  ShardedCensusMatrix next = prev;
  next.combine_min(churn_of(prev, kTargets, 10, 50, 12));

  // A copy holds the same rows: same stamp, same record.
  ShardedCensusMatrix copy = next;
  EXPECT_EQ(copy.stamp(), next.stamp());
  expect_record_exact(prev, copy);
  const std::uint64_t derived_before = derived_calls();
  EXPECT_TRUE(analysis::dirty_rows(next, copy).empty());
  EXPECT_EQ(derived_calls() - derived_before, 1u);

  // A move carries stamp and record; the moved-from matrix is empty under
  // a fresh stamp.
  ShardedCensusMatrix moved = std::move(copy);
  EXPECT_EQ(moved.stamp(), next.stamp());
  EXPECT_NE(copy.stamp(), next.stamp());
  EXPECT_EQ(copy.target_count(), 0u);
  EXPECT_EQ(copy.last_change().base, 0u);
  expect_record_exact(prev, moved);
  ShardedCensusMatrix assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.stamp(), next.stamp());
  EXPECT_NE(moved.stamp(), next.stamp());
  expect_record_exact(prev, assigned);

  // A write through the non-const shard() is a mutation: fresh stamp, no
  // record, and dirty_rows falls back to the scan.
  ShardedCensusMatrix written = next;
  CensusMatrix& shard = written.shard(1);
  EXPECT_NE(written.stamp(), next.stamp());
  EXPECT_EQ(written.last_change().base, 0u);
  CensusMatrixBuilder extra(shard.target_count());
  extra.add(3, 40, 0.5F);  // a VP no row holds
  shard.combine_min(extra.build());
  const std::uint64_t scanned_before = scanned_calls();
  EXPECT_EQ(analysis::dirty_rows(prev, written), naive_diff(prev, written));
  EXPECT_EQ(analysis::dirty_rows(next, written),
            (std::vector<std::uint32_t>{
                static_cast<std::uint32_t>(written.shard_base(1) + 3)}));
  EXPECT_EQ(scanned_calls() - scanned_before, 2u);
}

TEST_F(ChangeRecordTest, GrowingCombineRecordsEveryChangedRow) {
  DataPlaneConfig plane;
  plane.shard_targets = 31;
  const ShardedCensusMatrix prev = random_matrix(300, 12, 3'000, 13, plane);
  ShardedCensusMatrix next = prev;
  next.combine_min(churn_of(prev, 340, 12, 120, 14));
  ASSERT_EQ(next.target_count(), 340u);
  EXPECT_EQ(next.last_change().base, prev.stamp());
  EXPECT_EQ(next.last_change().rows, naive_diff(prev, next));

  // The layouts differ, so dirty_rows keeps its incomparable-layout
  // answer (every row of `next`) whichever path it could take.
  std::vector<std::uint32_t> all(next.target_count());
  std::iota(all.begin(), all.end(), 0u);
  const std::uint64_t scanned_before = scanned_calls();
  EXPECT_EQ(analysis::dirty_rows(prev, next), all);
  EXPECT_EQ(analysis::dirty_rows(rebuilt(prev), rebuilt(next)), all);
  EXPECT_EQ(scanned_calls() - scanned_before, 2u);

  // Combining into an empty matrix records every non-empty row.
  ShardedCensusMatrix empty;
  const std::uint64_t empty_stamp = empty.stamp();
  empty.combine_min(prev);
  EXPECT_EQ(empty.last_change().base, empty_stamp);
  EXPECT_EQ(empty.last_change().rows,
            naive_diff(ShardedCensusMatrix(), prev));
  expect_rows_equal(empty, prev);
}

// --- Copy-on-write storage ---------------------------------------------------
//
// A copy shares every shard's storage and combine_min writes only fresh
// overlays, so derived matrices must read exactly like deep ones, and a
// write to one copy (shard write, spill, restore) must leave its sibling
// as it was.

class ShardedCopyOnWrite : public ShardedTest {};

/// Independent oracle: per target, VP -> minimum RTT.
using RowOracle = std::vector<std::map<std::uint16_t, float>>;

void apply_min(RowOracle& oracle, const ShardedCensusMatrix& m) {
  if (oracle.size() < m.target_count()) oracle.resize(m.target_count());
  for (std::uint32_t t = 0; t < m.target_count(); ++t) {
    for (const VpRtt& value : m.measurements(t)) {
      const auto [it, fresh] = oracle[t].emplace(value.vp, value.rtt_ms);
      if (!fresh) it->second = std::min(it->second, value.rtt_ms);
    }
  }
}

RowOracle oracle_of(const ShardedCensusMatrix& m) {
  RowOracle oracle;
  apply_min(oracle, m);
  return oracle;
}

void expect_matches_oracle(const ShardedCensusMatrix& m,
                           const RowOracle& oracle) {
  ASSERT_EQ(m.target_count(), oracle.size());
  std::size_t observations = 0;
  for (std::uint32_t t = 0; t < m.target_count(); ++t) {
    const auto row = m.measurements(t);
    ASSERT_EQ(row.size(), oracle[t].size()) << "target " << t;
    std::size_t i = 0;
    for (const auto& [vp, rtt] : oracle[t]) {
      EXPECT_EQ(row[i].vp, vp) << "target " << t;
      EXPECT_EQ(row[i].rtt_ms, rtt) << "target " << t;
      ++i;
    }
    observations += row.size();
  }
  EXPECT_EQ(m.observation_count(), observations);
}

std::size_t overlaid_row_count(const ShardedCensusMatrix& m) {
  std::size_t rows = 0;
  for (std::size_t s = 0; s < m.shard_count(); ++s) {
    rows += m.shard(s).overlay_rows();
  }
  return rows;
}

TEST_F(ShardedCopyOnWrite, DerivedChainMatchesDeepCombinesForEveryShardSize) {
  constexpr std::size_t kTargets = 300;
  constexpr std::size_t kVps = 12;
  constexpr int kRounds = 44;
  for (const bool spill_base : {false, true}) {
    for (const std::size_t shard_targets :
         {std::size_t{1}, std::size_t{7}, std::size_t{64}, std::size_t{0}}) {
      SCOPED_TRACE("shard_targets=" + std::to_string(shard_targets) +
                   " spill_base=" + std::to_string(spill_base));
      DataPlaneConfig plane;
      plane.shard_targets = shard_targets;
      plane.spill_dir = (dir_ / ("spill" + std::to_string(shard_targets) +
                                 "_" + std::to_string(spill_base)))
                            .string();
      ShardedCensusMatrix prev =
          random_matrix(kTargets, kVps, 3'000, 31 + shard_targets, plane);
      if (spill_base) {
        for (std::size_t s = 0; s < prev.shard_count(); ++s) {
          if (prev.spill_shard(s) == 0) GTEST_SKIP() << "no spill tier";
        }
      }
      RowOracle expected = oracle_of(prev);
      bool overlaid = false;
      bool compacted = false;
      bool stayed_spilled = false;
      for (int round = 1; round <= kRounds; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        const ShardedCensusMatrix churn =
            churn_of(prev, kTargets, kVps, 14, 1000 * shard_targets + round);
        const std::size_t overlay_before = overlaid_row_count(prev);
        ShardedCensusMatrix next = prev;
        next.combine_min(churn);

        // The deep path: a matrix that shares nothing, combined the same.
        ShardedCensusMatrix deep = rebuilt(prev);
        deep.combine_min(churn);
        expect_rows_equal(next, deep);
        const RowOracle before = expected;
        apply_min(expected, churn);
        expect_matches_oracle(next, expected);
        expect_matches_oracle(prev, before);  // the base is untouched

        EXPECT_EQ(next.last_change().base, prev.stamp());
        EXPECT_EQ(next.last_change().rows, naive_diff(prev, next));

        overlaid = overlaid || overlaid_row_count(next) > 0;
        compacted = compacted || overlaid_row_count(next) < overlay_before;
        for (std::size_t s = 0; s < next.shard_count(); ++s) {
          if (prev.shard_spilled(s) && next.shard(s).overlay_rows() > 0) {
            EXPECT_TRUE(next.shard_spilled(s)) << "shard " << s;
            stayed_spilled = true;
          }
        }
        prev = std::move(next);
      }
      if (shard_targets == 64 || shard_targets == 0) {
        EXPECT_TRUE(overlaid) << "the chain never kept an overlay";
        EXPECT_TRUE(compacted) << "the chain never crossed a compaction";
        EXPECT_EQ(stayed_spilled, spill_base);
      }
    }
  }
}

TEST_F(ShardedCopyOnWrite, CombiningWithADerivedMatrixReadsItsOverlay) {
  // Sparse rows, so the derived matrix's overlay holds rows its base
  // leaves empty, inside long runs of empty base rows that combine_min
  // skips a stride at a time.
  constexpr std::size_t kTargets = 1000;
  for (const std::size_t shard_targets : {std::size_t{64}, std::size_t{0}}) {
    SCOPED_TRACE("shard_targets=" + std::to_string(shard_targets));
    DataPlaneConfig plane;
    plane.shard_targets = shard_targets;
    const ShardedCensusMatrix sparse =
        random_matrix(kTargets, 8, 20, 61, plane);
    ShardedCensusMatrix derived = sparse;
    derived.combine_min(churn_of(sparse, kTargets, 8, 40, 62));
    ASSERT_GT(overlaid_row_count(derived), 0u);

    const ShardedCensusMatrix before =
        random_matrix(kTargets, 8, 20, 63, plane);
    ShardedCensusMatrix merged = before;
    merged.combine_min(derived);
    RowOracle expected = oracle_of(before);
    apply_min(expected, derived);
    expect_matches_oracle(merged, expected);
    EXPECT_EQ(merged.last_change().rows, naive_diff(before, merged));
  }
}

TEST_F(ShardedCopyOnWrite, WritesToOneCopyLeaveItsSiblingAlone) {
  constexpr std::size_t kTargets = 300;
  DataPlaneConfig plane;
  plane.shard_targets = 64;
  plane.spill_dir = (dir_ / "spill").string();
  const ShardedCensusMatrix base =
      random_matrix(kTargets, 12, 3'000, 41, plane);
  ShardedCensusMatrix derived = base;
  derived.combine_min(churn_of(base, kTargets, 12, 12, 42));
  ASSERT_GT(overlaid_row_count(derived), 0u);

  struct Seen {
    RowOracle rows;
    std::uint64_t stamp = 0;
    std::size_t resident = 0;
    std::vector<bool> spilled;
  };
  const auto seen = [](const ShardedCensusMatrix& m) {
    Seen out{oracle_of(m), m.stamp(), m.resident_value_bytes(), {}};
    for (std::size_t s = 0; s < m.shard_count(); ++s) {
      out.spilled.push_back(m.shard_spilled(s));
    }
    return out;
  };
  const auto expect_unchanged = [&seen](const ShardedCensusMatrix& m,
                                        const Seen& was) {
    const Seen now = seen(m);
    EXPECT_EQ(now.rows, was.rows);
    EXPECT_EQ(now.stamp, was.stamp);
    EXPECT_EQ(now.resident, was.resident);
    EXPECT_EQ(now.spilled, was.spilled);
  };

  {  // A write through the mutable shard().
    ShardedCensusMatrix writer = derived;
    const Seen was = seen(derived);
    CensusMatrix& shard = writer.shard(1);
    CensusMatrixBuilder extra(shard.target_count());
    extra.add(3, 40, 0.5F);  // a VP no row holds
    shard.combine_min(extra.build());
    expect_unchanged(derived, was);
    EXPECT_EQ(writer.measurements(
                  static_cast<std::uint32_t>(writer.shard_base(1) + 3))
                  .back()
                  .vp,
              40);
  }
  {  // A spill: the spilling copy takes its own storage first.
    ShardedCensusMatrix spiller = derived;
    const Seen was = seen(derived);
    if (spiller.spill_shard(2) == 0) GTEST_SKIP() << "no spill tier";
    EXPECT_TRUE(spiller.shard_spilled(2));
    EXPECT_EQ(spiller.shard(2).overlay_rows(), 0u);
    expect_unchanged(derived, was);
    expect_rows_equal(spiller, derived);
  }
  {  // A restore: the sibling sharing the spilled shard keeps reading it.
    ShardedCensusMatrix spilled = derived;
    ASSERT_GT(spilled.spill_shard(3), 0u);
    const ShardedCensusMatrix sibling = spilled;
    EXPECT_TRUE(sibling.shard_spilled(3));
    const Seen was = seen(sibling);
    spilled.restore_shard(3);
    EXPECT_FALSE(spilled.shard_spilled(3));
    expect_unchanged(sibling, was);
    expect_rows_equal(spilled, sibling);
  }
  expect_rows_equal(derived, rebuilt(derived));
}

TEST_F(ShardedCopyOnWrite, ResidencyCountsWhatEachDerivedMatrixKeepsAlive) {
  constexpr std::size_t kTargets = 4096;
  constexpr std::size_t kBudget = std::size_t{1} << 20;
  DataPlaneConfig plane;
  plane.shard_targets = 512;
  plane.rss_budget_mb = 1;
  plane.spill_dir = (dir_ / "spill").string();
  // ~3 MB of values: build() spills some shards to meet the 1 MiB budget.
  const ShardedCensusMatrix base =
      random_matrix(kTargets, 50, 400'000, 51, plane);
  if (base.resident_value_bytes() == base.total_value_bytes()) {
    GTEST_SKIP() << "no spill tier";
  }
  EXPECT_LE(base.resident_value_bytes(), kBudget);
  const std::size_t base_resident = base.resident_value_bytes();
  const RowOracle base_rows = oracle_of(base);

  // A derived matrix reads every base it shares, and its overlays on top.
  ShardedCensusMatrix derived = base;
  const ShardedCensusMatrix churn = churn_of(base, kTargets, 50, 120, 52);
  derived.combine_min(churn);
  ASSERT_GT(overlaid_row_count(derived), 0u);
  EXPECT_GT(derived.total_value_bytes(), base.total_value_bytes());
  std::size_t overlay_bytes = 0;
  for (std::size_t s = 0; s < derived.shard_count(); ++s) {
    if (derived.shard_spilled(s)) {
      EXPECT_TRUE(base.shard_spilled(s)) << "a merge never spills";
    }
    overlay_bytes += derived.shard(s).value_bytes() - base.shard(s).value_bytes();
  }
  EXPECT_EQ(derived.total_value_bytes(),
            base.total_value_bytes() + overlay_bytes);
  // combine_min enforced the budget on the derived matrix alone: it
  // spilled its own copies, so the base keeps its residency and rows.
  EXPECT_LE(derived.resident_value_bytes(), kBudget);
  EXPECT_EQ(base.resident_value_bytes(), base_resident);
  expect_matches_oracle(base, base_rows);
  RowOracle derived_rows = base_rows;
  apply_min(derived_rows, churn);
  expect_matches_oracle(derived, derived_rows);

  // Without a budget nothing is spilled and everything read is resident.
  ShardedCensusMatrix unbudgeted =
      random_matrix(kTargets, 50, 40'000, 53, unspilled(plane));
  ShardedCensusMatrix unbudgeted_derived = unbudgeted;
  unbudgeted_derived.combine_min(
      churn_of(unbudgeted, kTargets, 50, 120, 54));
  EXPECT_EQ(unbudgeted_derived.resident_value_bytes(),
            unbudgeted_derived.total_value_bytes());
  EXPECT_EQ(unbudgeted_derived.enforce_rss_budget(),
            unbudgeted_derived.total_value_bytes());
}

}  // namespace
}  // namespace anycast::census
