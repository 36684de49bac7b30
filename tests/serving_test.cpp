// Property suite for the snapshot serving plane (DESIGN.md §16).
//
// The contracts under test:
//  - Answer fidelity: every point/batch/address/nearest answer equals what
//    the analyzer's own output says, for one-shard and many-shard planes.
//  - Swap atomicity: under N concurrent reader threads (1/2/8, with and
//    without chaos delays) every answer is internally consistent with ONE
//    published snapshot — no torn views — while a writer swaps epochs as
//    fast as it can. Run under TSAN by tools/run_sanitizers.sh.
//  - Exact reclamation: epoch retirement frees exactly the retired
//    snapshots; a pinned guard keeps its snapshot queryable across any
//    number of later publishes, and releasing it reclaims them all.
//  - Diff fidelity: changed_since is element-identical to the full
//    analysis::diff_censuses oracle on randomized churn.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "anycast/analysis/analyzer.hpp"
#include "anycast/analysis/diff.hpp"
#include "anycast/analysis/incremental.hpp"
#include "anycast/census/census.hpp"
#include "anycast/census/fastping.hpp"
#include "anycast/census/hitlist.hpp"
#include "anycast/census/sharded.hpp"
#include "anycast/daemon/watch.hpp"
#include "anycast/geo/city_index.hpp"
#include "anycast/geodesy/geopoint.hpp"
#include "anycast/ipaddr/ipv4.hpp"
#include "anycast/net/platform.hpp"
#include "anycast/obs/latency.hpp"
#include "anycast/obs/metrics.hpp"
#include "anycast/serving/query.hpp"
#include "anycast/serving/snapshot.hpp"
#include "anycast/serving/store.hpp"

namespace anycast {
namespace {

namespace fs = std::filesystem;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

net::WorldConfig small_world_config() {
  net::WorldConfig config;
  config.seed = 47;
  config.unicast_alive_slash24 = 300;
  config.unicast_dead_slash24 = 150;
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
      net::make_planetlab({.node_count = 24, .seed = 48});
  return vps;
}

const analysis::CensusAnalyzer& small_analyzer() {
  static const analysis::CensusAnalyzer analyzer(small_vps(),
                                                 geo::world_index());
  return analyzer;
}

census::ShardedCensusOutput run_small_census() {
  census::Greylist blacklist;
  census::FastPingConfig config;
  config.seed = 91;
  return census::run_census_sharded(
      small_world(), small_vps(), small_hitlist(), blacklist, config);
}

/// Synthetic matrix whose rows are a pure function of (seed, target, vp):
/// per-row purity is exactly what changed_since relies on, so churn tests
/// regenerate rows from a new seed for a chosen subset and leave the rest
/// bit-identical. ~1/13 of rows get a tight low-RTT lattice that the
/// analyzer reads as anycast; verdict realism is irrelevant to the diff
/// oracle — only determinism is.
census::ShardedCensusMatrix synthetic_matrix(
    std::size_t targets, std::size_t vps, std::uint64_t seed,
    const std::vector<std::uint32_t>& fresh, std::uint64_t fresh_seed) {
  census::ShardedCensusMatrixBuilder builder(targets);
  std::size_t fresh_at = 0;
  for (std::uint32_t t = 0; t < targets; ++t) {
    std::uint64_t row_seed = seed;
    while (fresh_at < fresh.size() && fresh[fresh_at] < t) ++fresh_at;
    if (fresh_at < fresh.size() && fresh[fresh_at] == t) row_seed = fresh_seed;
    for (std::uint16_t vp = 0; vp < vps; ++vp) {
      const std::uint64_t h = splitmix64(row_seed ^ (t * 1000003ULL + vp));
      if ((h & 7U) == 0) continue;  // unresponsive at this VP
      float rtt;
      if (t % 13 == 0) {
        rtt = 1.0F + static_cast<float>(h % 5);
      } else {
        rtt = 10.0F + static_cast<float>(h % 20000) * 0.01F;
      }
      builder.add(t, vp, rtt);
    }
  }
  return builder.build();
}

// --- Answer fidelity --------------------------------------------------------

TEST(ServingSnapshot, PointBatchAndAddressLookupsMatchAnalyzer) {
  const census::ShardedCensusOutput output = run_small_census();
  const census::Hitlist& hitlist = small_hitlist();
  std::vector<analysis::TargetOutcome> outcomes =
      small_analyzer().analyze(output.data, hitlist);
  ASSERT_FALSE(outcomes.empty());

  // Keep an oracle copy: build() consumes its inputs.
  const std::vector<analysis::TargetOutcome> oracle = outcomes;
  const serving::SnapshotView view = serving::SnapshotView::build(
      output.data, std::move(outcomes), /*id=*/7, &hitlist);

  EXPECT_EQ(view.id(), 7U);
  EXPECT_EQ(view.target_count(), output.data.target_count());
  EXPECT_EQ(view.anycast_count(), oracle.size());

  // Dense oracle map.
  std::vector<const analysis::TargetOutcome*> expect_of(
      output.data.target_count(), nullptr);
  for (const analysis::TargetOutcome& o : oracle) {
    expect_of[o.target_index] = &o;
  }

  std::vector<std::uint32_t> all(output.data.target_count());
  for (std::uint32_t t = 0; t < all.size(); ++t) all[t] = t;
  std::vector<serving::PointAnswer> answers(all.size());
  view.lookup_batch(all, answers.data());

  for (std::uint32_t t = 0; t < all.size(); ++t) {
    const analysis::TargetOutcome* expected = expect_of[t];
    EXPECT_EQ(view.is_anycast(t), expected != nullptr) << "target " << t;
    EXPECT_EQ(answers[t].anycast, expected != nullptr ? 1 : 0);
    const auto row = output.data.measurements(t);
    EXPECT_EQ(answers[t].responsive, row.empty() ? 0 : 1);
    EXPECT_EQ(answers[t].vp_count, row.size());
    const std::size_t replicas =
        expected != nullptr ? expected->result.replicas.size() : 0;
    EXPECT_EQ(answers[t].replica_count, replicas) << "target " << t;
    EXPECT_EQ(view.replicas(t).size(), replicas);
    if (expected != nullptr) {
      const analysis::TargetOutcome* outcome = view.outcome(t);
      ASSERT_NE(outcome, nullptr);
      EXPECT_EQ(outcome->slash24_index, expected->slash24_index);
      for (std::size_t k = 0; k < replicas; ++k) {
        EXPECT_EQ(view.replicas(t)[k].vp_id,
                  expected->result.replicas[k].vp_id);
      }
    }
    // Address-keyed lookup round-trips through the hitlist index.
    const auto resolved =
        view.target_of_address(hitlist[t].representative.slash24_index());
    ASSERT_TRUE(resolved.has_value());
    EXPECT_EQ(*resolved, t);
  }

  // Out-of-range and unknown keys answer "miss", never crash.
  serving::PointAnswer miss;
  const std::uint32_t bogus[1] = {static_cast<std::uint32_t>(all.size()) + 9};
  view.lookup_batch(bogus, &miss);
  EXPECT_EQ(miss.anycast, 0);
  EXPECT_EQ(miss.responsive, 0);
  EXPECT_FALSE(view.is_anycast(bogus[0]));
  EXPECT_FALSE(view.target_of_address(0xFFFFFF).has_value());
}

TEST(ServingSnapshot, ShardedAndMonolithicViewsAnswerIdentically) {
  const census::ShardedCensusOutput output = run_small_census();
  const census::Hitlist& hitlist = small_hitlist();
  std::vector<analysis::TargetOutcome> outcomes =
      small_analyzer().analyze(output.data, hitlist);

  census::DataPlaneConfig plane;
  plane.shard_targets = 37;  // odd shard size, ragged tail
  census::ShardedCensusMatrixBuilder sharded_builder(
      output.data.target_count(), plane);
  for (std::uint32_t t = 0; t < output.data.target_count(); ++t) {
    for (const census::VpRtt& m : output.data.measurements(t)) {
      sharded_builder.add(t, m.vp, m.rtt_ms);
    }
  }
  // output.data is the default plane: one shard spanning the hitlist.
  const serving::SnapshotView one_shard = serving::SnapshotView::build(
      output.data, outcomes, /*id=*/1, &hitlist);
  const serving::SnapshotView sharded = serving::SnapshotView::build(
      sharded_builder.build(), outcomes, /*id=*/1, &hitlist);

  std::vector<std::uint32_t> all(output.data.target_count());
  for (std::uint32_t t = 0; t < all.size(); ++t) all[t] = t;
  std::vector<serving::PointAnswer> a(all.size());
  std::vector<serving::PointAnswer> b(all.size());
  one_shard.lookup_batch(all, a.data());
  sharded.lookup_batch(all, b.data());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(a[i].anycast, b[i].anycast) << i;
    EXPECT_EQ(a[i].responsive, b[i].responsive) << i;
    EXPECT_EQ(a[i].vp_count, b[i].vp_count) << i;
    EXPECT_EQ(a[i].replica_count, b[i].replica_count) << i;
  }
}

TEST(ServingSnapshot, NearestReplicaMatchesBruteForceHaversine) {
  const census::ShardedCensusOutput output = run_small_census();
  std::vector<analysis::TargetOutcome> outcomes =
      small_analyzer().analyze(output.data, small_hitlist());
  const std::vector<analysis::TargetOutcome> oracle = outcomes;
  const serving::SnapshotView view = serving::SnapshotView::build(
      output.data, std::move(outcomes), /*id=*/1);

  const geodesy::GeoPoint probes[] = {
      {48.85, 2.35}, {-33.9, 151.2}, {37.77, -122.42}, {0.0, 0.0},
      {71.0, -42.0}, {-54.8, -68.3}};
  for (const analysis::TargetOutcome& o : oracle) {
    for (const geodesy::GeoPoint& probe : probes) {
      double best_km = 1e18;
      const core::Replica* best = nullptr;
      for (const core::Replica& replica : o.result.replicas) {
        const double km = geodesy::distance_km(probe, replica.location);
        if (km < best_km) {
          best_km = km;
          best = &replica;
        }
      }
      double got_km = 0.0;
      const core::Replica* got = view.nearest_replica(
          o.target_index, probe.latitude(), probe.longitude(), &got_km);
      ASSERT_NE(got, nullptr);
      ASSERT_NE(best, nullptr);
      // Chord-space argmin agrees with haversine argmin up to exact ties.
      EXPECT_DOUBLE_EQ(geodesy::distance_km(probe, got->location), best_km);
      EXPECT_DOUBLE_EQ(got_km, best_km);
    }
  }
  EXPECT_EQ(view.nearest_replica(0x7FFFFFFF, 0, 0), nullptr);
}

// --- Swap atomicity under load ----------------------------------------------

/// Snapshot whose every answer encodes its id: target t of snapshot k has
/// (k + t) % 7 replicas and k % 13 + 1 measurements per row, so one
/// mismatched element in a batch proves a torn view (adjacent ids always
/// differ in both codes).
serving::SnapshotView coded_snapshot(std::uint64_t id, std::size_t targets) {
  census::ShardedCensusMatrixBuilder builder(targets);
  const std::uint16_t row_vps = static_cast<std::uint16_t>(id % 13 + 1);
  for (std::uint32_t t = 0; t < targets; ++t) {
    for (std::uint16_t vp = 0; vp < row_vps; ++vp) {
      builder.add(t, vp, 1.0F + static_cast<float>(t % 3));
    }
  }
  std::vector<analysis::TargetOutcome> outcomes;
  for (std::uint32_t t = 0; t < targets; ++t) {
    const std::size_t replicas = (id + t) % 7;
    if (replicas == 0) continue;  // some targets: no outcome at all
    analysis::TargetOutcome outcome;
    outcome.target_index = t;
    outcome.slash24_index = t;
    outcome.result.anycast = true;
    outcome.result.replicas.resize(replicas);
    for (std::size_t k = 0; k < replicas; ++k) {
      outcome.result.replicas[k].vp_id = static_cast<std::uint32_t>(k);
      outcome.result.replicas[k].location =
          geodesy::GeoPoint(10.0 + static_cast<double>(k), 20.0);
    }
    outcomes.push_back(std::move(outcome));
  }
  return serving::SnapshotView::build(builder.build(), std::move(outcomes),
                                      id);
}

void swap_under_load(std::size_t reader_threads, bool chaos) {
  constexpr std::size_t kTargets = 96;
  constexpr std::uint64_t kSwaps = 400;
  serving::SnapshotStore store;
  store.publish(coded_snapshot(1, kTargets));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> batches{0};
  std::vector<std::thread> readers;
  readers.reserve(reader_threads);
  for (std::size_t r = 0; r < reader_threads; ++r) {
    readers.emplace_back([&store, &stop, &torn, &batches, chaos, r] {
      std::uint64_t rng = 0x9E3779B9u * (r + 1);
      std::vector<std::uint32_t> targets(kTargets);
      for (std::uint32_t t = 0; t < kTargets; ++t) targets[t] = t;
      std::vector<serving::PointAnswer> answers(kTargets);
      while (!stop.load(std::memory_order_relaxed)) {
        serving::ReadGuard guard = store.acquire();
        ASSERT_TRUE(guard.valid());
        const std::uint64_t id = guard->id();
        if (chaos && (splitmix64(rng++) & 15U) == 0) {
          std::this_thread::yield();  // widen the pin window mid-batch
        }
        guard->lookup_batch(targets, answers.data());
        for (std::uint32_t t = 0; t < kTargets; ++t) {
          const std::uint32_t want_replicas =
              static_cast<std::uint32_t>((id + t) % 7);
          if (answers[t].replica_count != want_replicas ||
              answers[t].vp_count != id % 13 + 1 ||
              answers[t].anycast != (want_replicas > 0 ? 1 : 0)) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        }
        batches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (std::uint64_t id = 2; id <= kSwaps; ++id) {
    store.publish(coded_snapshot(id, kTargets));
    if (chaos && (splitmix64(id) & 7U) == 0) std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0U) << reader_threads << " readers, chaos=" << chaos;
  EXPECT_GT(batches.load(), 0U);
  store.drain();
  EXPECT_EQ(store.retired_count(), 0U);
  EXPECT_EQ(store.snapshots_freed(), kSwaps - 1);
  EXPECT_EQ(store.epoch(), kSwaps);
}

TEST(ServingStore, SwapUnderLoadOneReader) { swap_under_load(1, false); }
TEST(ServingStore, SwapUnderLoadTwoReaders) { swap_under_load(2, false); }
TEST(ServingStore, SwapUnderLoadEightReaders) { swap_under_load(8, false); }
TEST(ServingStore, SwapUnderLoadOneReaderChaos) { swap_under_load(1, true); }
TEST(ServingStore, SwapUnderLoadTwoReadersChaos) { swap_under_load(2, true); }
TEST(ServingStore, SwapUnderLoadEightReadersChaos) { swap_under_load(8, true); }

// --- Exact reclamation ------------------------------------------------------

TEST(ServingStore, AcquireBeforePublishIsInvalid) {
  serving::SnapshotStore store;
  serving::ReadGuard guard = store.acquire();
  EXPECT_FALSE(guard.valid());
  EXPECT_EQ(store.epoch(), 0U);
}

TEST(ServingStore, RetirementFreesExactlyTheRetiredSnapshots) {
  serving::SnapshotStore store;
  for (std::uint64_t id = 1; id <= 5; ++id) {
    store.publish(coded_snapshot(id, 8));
  }
  // No readers: each publish displaces and immediately reclaims its
  // predecessor — 4 retired, 4 freed, current (id 5) alive.
  EXPECT_EQ(store.snapshots_freed(), 4U);
  EXPECT_EQ(store.retired_count(), 0U);
  serving::ReadGuard current = store.acquire();
  ASSERT_TRUE(current.valid());
  EXPECT_EQ(current->id(), 5U);
}

TEST(ServingStore, PinnedGuardDefersReclamationUntilRelease) {
  serving::SnapshotStore store;
  store.publish(coded_snapshot(1, 16));
  serving::ReadGuard pinned = store.acquire();
  ASSERT_TRUE(pinned.valid());
  EXPECT_EQ(pinned->id(), 1U);

  store.publish(coded_snapshot(2, 16));
  store.publish(coded_snapshot(3, 16));
  // Snapshots 1 and 2 are retired; the guard (epoch 1) protects both
  // stamps (2 and 3), so nothing is freed yet...
  EXPECT_EQ(store.snapshots_freed(), 0U);
  EXPECT_EQ(store.retired_count(), 2U);

  // ...and the pinned view still answers, byte-correct for ITS epoch —
  // TSAN/ASAN would flag a reclaimed arena here.
  std::vector<std::uint32_t> targets(16);
  for (std::uint32_t t = 0; t < 16; ++t) targets[t] = t;
  std::vector<serving::PointAnswer> answers(16);
  pinned->lookup_batch(targets, answers.data());
  for (std::uint32_t t = 0; t < 16; ++t) {
    EXPECT_EQ(answers[t].replica_count, (1 + t) % 7);
    EXPECT_EQ(answers[t].vp_count, 1 % 13 + 1);
  }

  pinned.release();
  store.drain();
  EXPECT_EQ(store.snapshots_freed(), 2U);
  EXPECT_EQ(store.retired_count(), 0U);
  serving::ReadGuard current = store.acquire();
  ASSERT_TRUE(current.valid());
  EXPECT_EQ(current->id(), 3U);
}

// --- changed_since vs the full diff oracle ----------------------------------

/// Dirty subset for a churn round: a seeded pseudo-random ~6% of rows.
std::vector<std::uint32_t> churn_rows(std::size_t targets,
                                      std::uint64_t seed) {
  std::vector<std::uint32_t> rows;
  for (std::uint32_t t = 0; t < targets; ++t) {
    if (splitmix64(seed ^ t) % 16 == 0) rows.push_back(t);
  }
  return rows;
}

void expect_changes_identical(const analysis::CensusDiff& got,
                              const analysis::CensusDiff& want) {
  ASSERT_EQ(got.changes.size(), want.changes.size());
  for (std::size_t i = 0; i < want.changes.size(); ++i) {
    const analysis::PrefixChange& g = got.changes[i];
    const analysis::PrefixChange& w = want.changes[i];
    EXPECT_EQ(g.kind, w.kind) << i;
    EXPECT_EQ(g.slash24_index, w.slash24_index) << i;
    EXPECT_EQ(g.replicas_before, w.replicas_before) << i;
    EXPECT_EQ(g.replicas_after, w.replicas_after) << i;
    EXPECT_EQ(g.cities_gained, w.cities_gained) << i;
    EXPECT_EQ(g.cities_lost, w.cities_lost) << i;
  }
}

TEST(ServingDiff, ChangedSinceMatchesFullDiffOracleOnRandomizedChurn) {
  constexpr std::size_t kTargets = 600;
  constexpr std::size_t kVps = 24;
  const census::Hitlist& hitlist = small_hitlist();
  ASSERT_GE(hitlist.size(), kTargets);
  const analysis::CensusAnalyzer& analyzer = small_analyzer();

  std::uint64_t seed = 0xA11CAFEULL;
  census::ShardedCensusMatrix prev_matrix =
      synthetic_matrix(kTargets, kVps, seed, {}, 0);
  std::vector<analysis::TargetOutcome> prev_outcomes =
      analyzer.analyze(prev_matrix, hitlist);
  serving::SnapshotView prev = serving::SnapshotView::build(
      prev_matrix, prev_outcomes, /*id=*/1);

  for (int round = 2; round <= 5; ++round) {
    // Churned rows are regenerated from a fresh seed; every other row is
    // regenerated from the SAME seed, hence bit-identical.
    const std::uint64_t fresh_seed = seed + static_cast<std::uint64_t>(round);
    const std::vector<std::uint32_t> fresh =
        churn_rows(kTargets, 0xC0FFEE ^ round);
    census::ShardedCensusMatrix next_matrix =
        synthetic_matrix(kTargets, kVps, seed, fresh, fresh_seed);
    std::vector<analysis::TargetOutcome> next_outcomes =
        analyzer.analyze(next_matrix, hitlist);
    serving::SnapshotView next = serving::SnapshotView::build(
        next_matrix, next_outcomes, static_cast<std::uint64_t>(round));

    for (const std::size_t min_delta : {1UL, 2UL}) {
      const serving::SnapshotDelta delta = next.changed_since(prev, min_delta);
      // Dirty rows must be exactly the element-wise matrix diff...
      const std::vector<std::uint32_t> dirty_oracle =
          analysis::dirty_rows(prev.matrix(), next.matrix());
      EXPECT_EQ(delta.dirty, dirty_oracle);
      // ...and the landscape delta exactly the unrestricted oracle diff.
      const analysis::CensusDiff oracle = analysis::diff_censuses(
          analysis::CensusSnapshot(prev_outcomes),
          analysis::CensusSnapshot(next_outcomes), min_delta);
      expect_changes_identical(delta.diff, oracle);
      if (min_delta == 1) {
        EXPECT_FALSE(delta.diff.stable());  // churn must actually register
      }
    }

    prev_outcomes = std::move(next_outcomes);
    prev = std::move(next);
  }
}

TEST(ServingDiff, IncomparableLayoutsFallBackToEveryPrefix) {
  constexpr std::size_t kVps = 16;
  const census::Hitlist& hitlist = small_hitlist();
  const analysis::CensusAnalyzer& analyzer = small_analyzer();

  census::ShardedCensusMatrix big = synthetic_matrix(400, kVps, 11, {}, 0);
  census::ShardedCensusMatrix small = synthetic_matrix(260, kVps, 12, {}, 0);
  std::vector<analysis::TargetOutcome> big_outcomes =
      analyzer.analyze(big, hitlist);
  std::vector<analysis::TargetOutcome> small_outcomes =
      analyzer.analyze(small, hitlist);

  const serving::SnapshotView prev = serving::SnapshotView::build(
      big, big_outcomes, 1);
  const serving::SnapshotView next = serving::SnapshotView::build(
      small, small_outcomes, 2);
  const serving::SnapshotDelta delta = next.changed_since(prev);
  const analysis::CensusDiff oracle = analysis::diff_censuses(
      analysis::CensusSnapshot(big_outcomes),
      analysis::CensusSnapshot(small_outcomes));
  // Prefixes only present beyond the smaller target count must still be
  // reported as disappeared — dirty-row restriction cannot hide them.
  expect_changes_identical(delta.diff, oracle);
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

/// A churn census over `rows`: even rows get a tight low-RTT lattice (the
/// analyzer's anycast shape), odd rows a few lower unicast RTTs.
census::ShardedCensusMatrix churn_matrix(std::size_t targets, std::size_t vps,
                                         const std::vector<std::uint32_t>& rows,
                                         std::uint64_t seed) {
  census::ShardedCensusMatrixBuilder builder(targets);
  for (const std::uint32_t t : rows) {
    for (std::uint16_t vp = 0; vp < vps; ++vp) {
      const std::uint64_t h = splitmix64(seed ^ (t * 1000003ULL + vp));
      if (t % 2 == 0) {
        if ((h & 3U) != 0) builder.add(t, vp, 1.0F + static_cast<float>(h % 5));
      } else if ((h & 7U) == 0) {
        builder.add(t, vp, 8.0F + static_cast<float>(h % 100) * 0.01F);
      }
    }
  }
  return builder.build();
}

TEST(ServingDiff, ChangedSinceOnDerivedSnapshotsMatchesFullDiffOracle) {
  // Serving rounds derive each matrix from the last published one by
  // combine_min, so changed_since diffs them from the change record. The
  // delta must stay element-identical to the full oracle.
  constexpr std::size_t kTargets = 600;
  constexpr std::size_t kVps = 24;
  const census::Hitlist& hitlist = small_hitlist();
  const analysis::CensusAnalyzer& analyzer = small_analyzer();

  std::vector<analysis::TargetOutcome> prev_outcomes;
  serving::SnapshotView prev;
  {
    census::ShardedCensusMatrix matrix =
        synthetic_matrix(kTargets, kVps, 0xD1CEULL, {}, 0);
    prev_outcomes = analyzer.analyze(matrix, hitlist);
    prev = serving::SnapshotView::build(std::move(matrix), prev_outcomes,
                                        /*id=*/1, &hitlist);
  }
  bool any_change = false;
  for (int round = 2; round <= 5; ++round) {
    census::ShardedCensusMatrix next_matrix = prev.matrix();
    next_matrix.combine_min(churn_matrix(
        kTargets, kVps, churn_rows(kTargets, 0xBEEF ^ round),
        static_cast<std::uint64_t>(round)));
    ASSERT_EQ(next_matrix.last_change().base, prev.matrix().stamp());
    std::vector<analysis::TargetOutcome> next_outcomes =
        analyzer.analyze(next_matrix, hitlist);
    serving::SnapshotView next = serving::SnapshotView::build(
        std::move(next_matrix), next_outcomes,
        static_cast<std::uint64_t>(round), &hitlist);
    ASSERT_EQ(next.matrix().last_change().base, prev.matrix().stamp());

    const std::vector<std::uint32_t> scanned =
        analysis::dirty_rows(rebuilt(prev.matrix()), rebuilt(next.matrix()));
    EXPECT_FALSE(scanned.empty());
    for (const std::size_t min_delta : {1UL, 2UL}) {
      const serving::SnapshotDelta delta = next.changed_since(prev, min_delta);
      EXPECT_EQ(delta.dirty, scanned);
      const analysis::CensusDiff oracle = analysis::diff_censuses(
          analysis::CensusSnapshot(prev_outcomes),
          analysis::CensusSnapshot(next_outcomes), min_delta);
      expect_changes_identical(delta.diff, oracle);
      any_change = any_change || !delta.diff.stable();
    }
    prev_outcomes = std::move(next_outcomes);
    prev = std::move(next);
  }
  EXPECT_TRUE(any_change) << "churn must actually move the landscape";
}

/// `m`'s rows under `plane`'s shard size (combine_min needs equal ones).
census::ShardedCensusMatrix with_plane(const census::ShardedCensusMatrix& m,
                                       const census::DataPlaneConfig& plane) {
  census::ShardedCensusMatrixBuilder builder(m.target_count(), plane);
  for (std::uint32_t t = 0; t < m.target_count(); ++t) {
    for (const census::VpRtt& value : m.measurements(t)) {
      builder.add(t, value.vp, value.rtt_ms);
    }
  }
  return builder.build();
}

std::uint64_t row_digest(std::span<const census::VpRtt> row) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const census::VpRtt& value : row) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &value.rtt_ms, sizeof bits);
    h = (h ^ (std::uint64_t{value.vp} << 32 | bits)) * 0x100000001B3ULL;
  }
  return h;
}

std::vector<std::uint64_t> row_digests(const census::ShardedCensusMatrix& m) {
  std::vector<std::uint64_t> out;
  for (std::uint32_t t = 0; t < m.target_count(); ++t) {
    out.push_back(row_digest(m.measurements(t)));
  }
  return out;
}

TEST(ServingStore, ReadersSeeWholeDerivedSnapshotsWhileRoundsRetire) {
  // Each round copies the published matrix and folds a churn into it, so
  // it shares storage with the snapshots readers still hold, spilled
  // shards included; retiring a round must free only what no live
  // snapshot reads. Readers check every row of the snapshot they pinned
  // against that round's digests. Run under TSAN and ASAN by
  // tools/run_sanitizers.sh.
  constexpr std::size_t kTargets = 320;
  constexpr std::size_t kVps = 16;
  constexpr std::uint64_t kRounds = 60;
  constexpr std::size_t kReaders = 3;
  const fs::path spill_dir =
      fs::temp_directory_path() /
      ("anycast_serving_cow_" + std::to_string(::getpid()));
  census::DataPlaneConfig plane;
  plane.shard_targets = 64;
  plane.spill_dir = spill_dir.string();
  census::ShardedCensusMatrix base =
      with_plane(synthetic_matrix(kTargets, kVps, 0xC0DEULL, {}, 0), plane);
  (void)base.spill_shard(0);  // readers also read file-backed shards
  (void)base.spill_shard(2);

  std::vector<census::ShardedCensusMatrix> churns(kRounds + 1);
  std::vector<std::vector<std::uint64_t>> digests(kRounds + 1);
  digests[0] = row_digests(base);
  {
    census::ShardedCensusMatrix chain = base;
    for (std::uint64_t round = 1; round <= kRounds; ++round) {
      churns[round] = with_plane(
          churn_matrix(kTargets, kVps, churn_rows(kTargets, 0xF00D ^ round),
                       round),
          plane);
      chain.combine_min(churns[round]);
      digests[round] = row_digests(chain);
    }
  }

  serving::SnapshotStore store;
  store.publish(serving::SnapshotView::build(base, {}, 0));
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const serving::ReadGuard guard = store.acquire();
        const census::ShardedCensusMatrix& matrix = guard->matrix();
        const std::vector<std::uint64_t>& want = digests[guard->id()];
        for (std::uint32_t t = 0; t < kTargets; ++t) {
          if (row_digest(matrix.measurements(t)) != want[t]) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  while (reads.load() == 0) std::this_thread::yield();

  for (std::uint64_t round = 1; round <= kRounds; ++round) {
    serving::ReadGuard last = store.acquire();
    census::ShardedCensusMatrix next = last->matrix();
    next.combine_min(churns[round]);
    serving::SnapshotView view =
        serving::SnapshotView::build(std::move(next), {}, round);
    last.release();
    store.publish(std::move(view));
    if (round % 4 == 0) std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0U);
  EXPECT_GT(reads.load(), 0U);
  store.drain();
  EXPECT_EQ(store.snapshots_freed(), kRounds);
  {
    const serving::ReadGuard current = store.acquire();
    ASSERT_EQ(current->id(), kRounds);
    EXPECT_EQ(row_digests(current->matrix()), digests[kRounds]);
  }
  base = census::ShardedCensusMatrix();
  churns.clear();
  fs::remove_all(spill_dir);
}

// --- Shared address index ---------------------------------------------------

/// What build() answered before the index moved into the hitlist: sorted
/// (slash24, target) pairs over the first min(hitlist, matrix) entries.
class PerSnapshotPairs {
 public:
  PerSnapshotPairs(const census::Hitlist& hitlist, std::size_t target_count) {
    const std::size_t indexed = std::min(hitlist.size(), target_count);
    for (std::size_t t = 0; t < indexed; ++t) {
      pairs_.emplace_back(hitlist[t].representative.slash24_index(),
                          static_cast<std::uint32_t>(t));
    }
    std::sort(pairs_.begin(), pairs_.end());
  }
  [[nodiscard]] std::optional<std::uint32_t> find(std::uint32_t slash24) const {
    const auto it = std::lower_bound(pairs_.begin(), pairs_.end(),
                                     std::make_pair(slash24, std::uint32_t{0}));
    if (it == pairs_.end() || it->first != slash24) return std::nullopt;
    return it->second;
  }

 private:
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs_;
};

/// Every /24 of `hitlist` plus its neighbours and a key no hitlist holds.
std::vector<std::uint32_t> address_keys(const census::Hitlist& hitlist) {
  std::vector<std::uint32_t> keys{0xFFFFFFU, 0U};
  for (const census::HitlistEntry& entry : hitlist.entries()) {
    const std::uint32_t slash24 = entry.representative.slash24_index();
    keys.push_back(slash24);
    keys.push_back(slash24 + 1);
  }
  return keys;
}

/// The index's own shape: one first_targets() entry per distinct /24 of
/// `hitlist`, in /24 order, holding that /24's lowest target.
void expect_one_lowest_target_per_slash24(
    const census::Hitlist& hitlist,
    const census::Hitlist::AddressIndex& index) {
  std::map<std::uint32_t, std::uint32_t> lowest;
  for (std::uint32_t t = 0; t < hitlist.size(); ++t) {
    lowest.emplace(hitlist[t].representative.slash24_index(), t);
  }
  ASSERT_EQ(index.first_targets().size(), lowest.size());
  std::size_t rank = 0;
  for (const auto& [slash24, target] : lowest) {
    EXPECT_EQ(index.first_targets()[rank++], target) << "slash24 " << slash24;
  }
}

census::Hitlist hitlist_of(const std::vector<std::uint32_t>& slash24s) {
  std::vector<census::HitlistEntry> entries;
  for (const std::uint32_t slash24 : slash24s) {
    entries.push_back(census::HitlistEntry{
        ipaddr::IPv4Address::from_slash24_index(slash24, 1), 3});
  }
  return census::Hitlist(std::move(entries));
}

TEST(ServingAddressIndex, SharedIndexAnswersAsPerSnapshotSortedPairs) {
  const std::vector<census::HitlistEntry>& base = small_hitlist().entries();
  ASSERT_GT(base.size(), 100U);

  std::vector<census::HitlistEntry> in_order = base;
  std::sort(in_order.begin(), in_order.end(),
            [](const census::HitlistEntry& a, const census::HitlistEntry& b) {
              return a.representative.slash24_index() <
                     b.representative.slash24_index();
            });
  std::vector<census::HitlistEntry> shuffled = base;
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[splitmix64(i) % i]);
  }
  // Repeated /24s: every 7th entry again further on, and the last entry
  // again at the front, so a /24's lowest target may be its later copy.
  std::vector<census::HitlistEntry> repeated = shuffled;
  for (std::size_t i = 0; i < shuffled.size(); i += 7) {
    repeated.push_back(shuffled[i]);
  }
  repeated.insert(repeated.begin(), shuffled.back());

  const struct {
    const char* name;
    std::vector<census::HitlistEntry> entries;
  } cases[] = {{"in order", in_order},
               {"shuffled", shuffled},
               {"repeated", repeated}};
  for (const auto& c : cases) {
    const census::Hitlist hitlist(c.entries);
    // A matrix as long as the hitlist, and one shorter: the hitlist then
    // names targets past the matrix, which must answer nullopt.
    for (const std::size_t targets : {hitlist.size(), hitlist.size() - 40}) {
      SCOPED_TRACE(std::string(c.name) + " targets=" + std::to_string(targets));
      const serving::SnapshotView view = serving::SnapshotView::build(
          synthetic_matrix(targets, 4, 3, {}, 0), {}, /*id=*/1, &hitlist);
      const PerSnapshotPairs oracle(hitlist, targets);
      for (const std::uint32_t key : address_keys(hitlist)) {
        EXPECT_EQ(view.target_of_address(key), oracle.find(key))
            << "slash24 " << key;
      }
    }
    // One index per hitlist, shared by every caller and by copies.
    const auto index = hitlist.address_index();
    EXPECT_EQ(hitlist.address_index(), index);
    const census::Hitlist copy = hitlist;
    EXPECT_EQ(copy.address_index(), index);
    expect_one_lowest_target_per_slash24(hitlist, *index);
  }

  // Without a hitlist there is no address index at all.
  const serving::SnapshotView bare = serving::SnapshotView::build(
      synthetic_matrix(50, 4, 3, {}, 0), {}, /*id=*/1);
  EXPECT_FALSE(bare.target_of_address(
                       base.front().representative.slash24_index())
                   .has_value());
}

TEST(ServingAddressIndex, WordEdgesAndExtremesAnswerAsPerSnapshotSortedPairs) {
  // /24 0 and 2^24-1, and 63/64/127 on either side of the first word
  // boundary; in order, out of order and repeated; one-entry hitlists.
  const std::vector<std::vector<std::uint32_t>> layouts = {
      {0, 63, 64, 127, 0xFFFFFF},
      {0, 0, 63, 64, 64, 127},
      {127, 64, 63, 0},
      {0xFFFFFF, 0, 64, 64, 63, 127, 0},
      {0},
      {64},
      {0xFFFFFF},
  };
  for (const std::vector<std::uint32_t>& layout : layouts) {
    const census::Hitlist hitlist = hitlist_of(layout);
    // Every word edge, and keys in and past the top word.
    std::vector<std::uint32_t> keys{0,   1,   62,       63,       64,
                                    65,  126, 127,      128,      191,
                                    192, 255, 256,      0xFFFFBF, 0xFFFFC0,
                                    0xFFFFFE, 0xFFFFFF, 0x1000000, 0xFFFFFFFF};
    const std::uint32_t top = *std::max_element(layout.begin(), layout.end());
    const std::uint32_t past_top_word = (top / 64 + 1) * 64;
    keys.push_back(past_top_word);
    keys.push_back(past_top_word + 63);
    for (const std::size_t targets : {hitlist.size(), hitlist.size() - 1}) {
      SCOPED_TRACE("layout of " + std::to_string(layout.size()) +
                   " top=" + std::to_string(top) +
                   " targets=" + std::to_string(targets));
      const serving::SnapshotView view = serving::SnapshotView::build(
          synthetic_matrix(targets, 2, 3, {}, 0), {}, /*id=*/1, &hitlist);
      const PerSnapshotPairs oracle(hitlist, targets);
      for (const std::uint32_t key : keys) {
        EXPECT_EQ(view.target_of_address(key), oracle.find(key))
            << "slash24 " << key;
      }
    }
    expect_one_lowest_target_per_slash24(hitlist, *hitlist.address_index());
  }
}

TEST(ServingAddressIndex, EmptyHitlistResolvesNothing) {
  const census::Hitlist empty;
  const auto index = empty.address_index();
  EXPECT_TRUE(index->first_targets().empty());
  const serving::SnapshotView view = serving::SnapshotView::build(
      synthetic_matrix(10, 2, 3, {}, 0), {}, /*id=*/1, &empty);
  for (const std::uint32_t key : {0U, 1U, 64U, 0xFFFFFFU}) {
    EXPECT_FALSE(index->lowest_target(key).has_value()) << key;
    EXPECT_FALSE(view.target_of_address(key).has_value()) << key;
  }
}

TEST(ServingAddressIndex, SnapshotOutlivesItsHitlist) {
  auto hitlist =
      std::make_unique<census::Hitlist>(small_hitlist().entries());
  const std::size_t targets = hitlist->size();
  const PerSnapshotPairs oracle(*hitlist, targets);
  const std::vector<std::uint32_t> keys = address_keys(*hitlist);
  const serving::SnapshotView view = serving::SnapshotView::build(
      synthetic_matrix(targets, 4, 5, {}, 0), {}, /*id=*/1, hitlist.get());
  hitlist.reset();  // the view keeps the index, not the hitlist
  for (const std::uint32_t key : keys) {
    EXPECT_EQ(view.target_of_address(key), oracle.find(key));
  }
}

TEST(ServingAddressIndex, ConcurrentFirstUseBuildsOneIndex) {
  const census::Hitlist hitlist(small_hitlist().entries());
  std::vector<std::shared_ptr<const census::Hitlist::AddressIndex>> seen(4);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    threads.emplace_back([&hitlist, &seen, i] {
      seen[i] = hitlist.address_index();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const auto& index : seen) EXPECT_EQ(index, seen.front());
  expect_one_lowest_target_per_slash24(hitlist, *seen.front());
}

// --- Query protocol ---------------------------------------------------------

TEST(ServingQuery, AnswersAreDeterministicAndMalformedBatchesAtomic) {
  const serving::SnapshotView view = coded_snapshot(3, 32);
  const serving::QueryContext context{&view, nullptr};

  std::string out;
  const auto ok = serving::answer_queries(
      context, "# comment\n\npoint 0\nbatch 1 2 3 999999\npoint 31\n", out);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.answered, 3U);
  EXPECT_NE(out.find("point 0 target=0 anycast=1"), std::string::npos);
  EXPECT_NE(out.find("batch n=3 unknown=1"), std::string::npos);

  // Determinism: same queries, same bytes.
  std::string again;
  (void)serving::answer_queries(
      context, "# comment\n\npoint 0\nbatch 1 2 3 999999\npoint 31\n", again);
  EXPECT_EQ(out, again);

  // A malformed line ANYWHERE suppresses all output and reports its
  // 1-based line number.
  std::string none;
  const auto bad = serving::answer_queries(
      context, "point 0\nnope 12\npoint 1\n", none);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error_line, 2U);
  EXPECT_TRUE(none.empty());

  std::string bad_coord_out;
  const auto bad_coord = serving::answer_queries(
      context, "nearest 3 91.0 10.0\n", bad_coord_out);
  EXPECT_FALSE(bad_coord.ok());

  // diff without a previous snapshot is a query error, not a crash.
  std::string diff_out;
  const auto no_prev = serving::answer_queries(context, "diff\n", diff_out);
  EXPECT_FALSE(no_prev.ok());
}

/// A hand-built snapshot for the golden answer bytes: 24 targets whose
/// /24s are 10.0.t.0 (target 23 repeats target 7's /24), rows of t % 5
/// measurements, and four anycast targets with city-less replicas and
/// replicas on negative latitudes and longitudes.
struct GoldenPlane {
  census::Hitlist hitlist;
  serving::SnapshotView view;
};

/// AnswerBytesArePinned's queries over `golden_plane()`.
const char* const kGoldenQueries =
    "point 2\n"
    "point 10.0.5.200\n"
    "point 4\n"
    "point 10.0.23.1\n"
    "point 10.0.7.200\n"
    "point 0\n"
    "point 24\n"
    "point 10.0.99.1\n"
    "batch 2 10.0.5.1 3 99 10.1.0.0\n"
    "batch 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 "
    "10.0.7.9 10.0.19.4 4294967295 10.0.200.1\n"
    "replicas 2\n"
    "replicas 10.0.5.77\n"
    "replicas 10.0.7.1\n"
    "replicas 3\n"
    "replicas 1000000\n"
    "nearest 2 -34.5 -58.4\n"
    "nearest 10.0.5.3 -33.9 151.2\n"
    "nearest 7 0 -179.9\n"
    "nearest 19 -90 180\n"
    "nearest 3 10 10\n"
    "nearest 10.0.77.1 1 1\n";

/// The answer bytes of `golden_plane()` for AnswerBytesArePinned's
/// queries, captured from the printf-formatting implementation.
const char* const kGoldenAnswers =
    "point 2 target=2 anycast=1 responsive=1 vps=2 replicas=2\n"
    "point 10.0.5.200 target=5 anycast=1 responsive=0 vps=0 replicas=3\n"
    "point 4 target=4 anycast=0 responsive=1 vps=4 replicas=0\n"
    "point 10.0.23.1 unknown\n"
    "point 10.0.7.200 target=7 anycast=1 responsive=1 vps=2 replicas=2\n"
    "point 0 target=0 anycast=0 responsive=0 vps=0 replicas=0\n"
    "point 24 unknown\n"
    "point 10.0.99.1 unknown\n"
    "batch n=3 unknown=2 anycast=2 responsive=2 replicas=5\n"
    "batch n=26 unknown=2 anycast=6 responsive=21 replicas=11\n"
    "replicas 2 target=2 count=2\n"
    "  replica vp=3 city=\"Sydney, AU\" lat=-33.8700 lon=151.2100\n"
    "  replica vp=7 city=\"-\" lat=-12.3457 lon=-45.6789\n"
    "replicas 10.0.5.77 target=5 count=3\n"
    "  replica vp=0 city=\"Buenos Aires, AR\" lat=-34.6000 lon=-58.3800\n"
    "  replica vp=1 city=\"Frankfurt, DE\" lat=50.1100 lon=8.6800\n"
    "  replica vp=4 city=\"Singapore, SG\" lat=1.3500 lon=103.8200\n"
    "replicas 10.0.7.1 target=7 count=2\n"
    "  replica vp=2 city=\"-\" lat=-0.0000 lon=180.0000\n"
    "  replica vp=9 city=\"Lima, PE\" lat=-12.0500 lon=-77.0400\n"
    "replicas 3 target=3 count=0\n"
    "replicas 1000000 unknown\n"
    "nearest 2 target=2 vp=7 city=\"-\" km=2778.3\n"
    "nearest 10.0.5.3 target=5 vp=4 city=\"Singapore, SG\" km=6307.0\n"
    "nearest 7 target=7 vp=2 city=\"-\" km=11.1\n"
    "nearest 19 target=19 vp=11 city=\"Johannesburg, ZA\" km=7094.2\n"
    "nearest 3 target=3 none\n"
    "nearest 10.0.77.1 unknown\n";

const GoldenPlane& golden_plane() {
  static const GoldenPlane plane = [] {
    constexpr std::uint32_t kTargets = 24;
    std::vector<census::HitlistEntry> entries(kTargets);
    for (std::uint32_t t = 0; t < kTargets; ++t) {
      const std::uint32_t third = t == 23 ? 7 : t;
      entries[t].representative =
          ipaddr::IPv4Address((10U << 24) | (third << 8) | 1U);
      entries[t].score = 3;
    }
    census::ShardedCensusMatrixBuilder builder(kTargets);
    for (std::uint32_t t = 0; t < kTargets; ++t) {
      for (std::uint16_t vp = 0; vp < t % 5; ++vp) {
        builder.add(t, vp, 5.0F + static_cast<float>(t + vp));
      }
    }
    const geo::CityIndex& cities = geo::world_index();
    const auto replica = [&](std::uint32_t vp, const char* city, double lat,
                             double lon) {
      core::Replica r;
      r.vp_id = vp;
      r.city = city != nullptr ? cities.by_name(city) : nullptr;
      r.location = r.city != nullptr ? r.city->location()
                                     : geodesy::GeoPoint(lat, lon);
      return r;
    };
    const auto outcome = [](std::uint32_t t, std::vector<core::Replica> rs) {
      analysis::TargetOutcome o;
      o.target_index = t;
      o.slash24_index = (10U << 16) | t;
      o.result.anycast = true;
      o.result.replicas = std::move(rs);
      return o;
    };
    std::vector<analysis::TargetOutcome> outcomes;
    outcomes.push_back(outcome(
        2, {replica(3, "Sydney", 0, 0),
            replica(7, nullptr, -12.345678, -45.678912)}));
    outcomes.push_back(outcome(
        5, {replica(0, "Buenos Aires", 0, 0), replica(1, "Frankfurt", 0, 0),
            replica(4, "Singapore", 0, 0)}));
    outcomes.push_back(outcome(7, {replica(2, nullptr, -0.00001, 179.99995),
                                   replica(9, "Lima", 0, 0)}));
    outcomes.push_back(outcome(19, {replica(11, "Johannesburg", 0, 0)}));
    census::Hitlist hitlist(std::move(entries));
    serving::SnapshotView view = serving::SnapshotView::build(
        builder.build(), std::move(outcomes), /*id=*/41, &hitlist);
    return GoldenPlane{std::move(hitlist), std::move(view)};
  }();
  return plane;
}

TEST(ServingQuery, AnswerBytesArePinned) {
  for (const char* city : {"Sydney", "Buenos Aires", "Frankfurt", "Singapore",
                           "Lima", "Johannesburg"}) {
    ASSERT_NE(geo::world_index().by_name(city), nullptr) << city;
  }
  const serving::QueryContext context{&golden_plane().view, nullptr};
  std::string out;
  const serving::QueryBatchResult result =
      serving::answer_queries(context, kGoldenQueries, out);
  ASSERT_TRUE(result.ok()) << result.error << " at line " << result.error_line;
  EXPECT_EQ(result.answered, 21U);
  EXPECT_EQ(out, kGoldenAnswers);
}

TEST(ServingQuery, MalformedKeyLeavesOutByteIdentical) {
  const serving::QueryContext context{&golden_plane().view, nullptr};
  const std::string before = "point 2 an earlier answer\n";
  for (const char* line :
       {"batch 2 10.0.5.1 3 4 10.0.5 6", "batch 0 1 2 3 -4",
        "point 10.0.5.1.1", "replicas 2x", "nearest 2.5 1 1",
        "nearest 2 91 1", "point", "bogus 1"}) {
    std::string out = before;
    std::string error;
    EXPECT_FALSE(serving::answer_query(context, line, out, error)) << line;
    EXPECT_EQ(out, before) << line;
    EXPECT_FALSE(error.empty()) << line;
  }
  std::string out = before;
  const serving::QueryBatchResult result = serving::answer_queries(
      context, "point 2\nreplicas 5\nbatch 1 2 3 4 5.5\n", out);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.error_line, 3U);
  EXPECT_EQ(out, before);
}

TEST(ServingQuery, SeparatorsAndArityArePinned) {
  const serving::QueryContext context{&golden_plane().view, nullptr};
  struct Case {
    std::string_view line;
    bool ok;
    std::string_view answer;  // the appended bytes, or the error string
  };
  const Case cases[] = {
      // Spaces and tabs separate tokens in any run; leading and trailing
      // separators are ignored.
      {"\tpoint\t2\t", true,
       "point 2 target=2 anycast=1 responsive=1 vps=2 replicas=2\n"},
      {"point    10.0.5.200   ", true,
       "point 10.0.5.200 target=5 anycast=1 responsive=0 vps=0 replicas=3\n"},
      {"  \t batch\t2  10.0.5.1\t3 99 10.1.0.0 \t", true,
       "batch n=3 unknown=2 anycast=2 responsive=2 replicas=5\n"},
      {"batch \t\t 7", true,
       "batch n=1 unknown=0 anycast=1 responsive=1 replicas=2\n"},
      {"replicas\t\t\t3   ", true, "replicas 3 target=3 count=0\n"},
      {" nearest 2\t-34.5  -58.4", true,
       "nearest 2 target=2 vp=7 city=\"-\" km=2778.3\n"},
      {"nearest\t10.0.77.1\t1\t1\t", true, "nearest 10.0.77.1 unknown\n"},
      // A line of separators alone answers nothing.
      {"", true, ""},
      {" ", true, ""},
      {"\t", true, ""},
      {" \t \t  ", true, ""},
      // Only space and tab separate.
      {"point\v2", false, "unknown verb 'point\v2'"},
      {"point\r2", false, "unknown verb 'point\r2'"},
      // The arity is checked before any key, for every verb.
      {"point", false, "expected: point <target|a.b.c.d>"},
      {"\tpoint \t", false, "expected: point <target|a.b.c.d>"},
      {"point 2 3", false, "expected: point <target|a.b.c.d>"},
      {"point x y", false, "expected: point <target|a.b.c.d>"},
      {"replicas", false, "expected: replicas <target|a.b.c.d>"},
      {"replicas\t2\t3", false, "expected: replicas <target|a.b.c.d>"},
      {"batch", false, "expected: batch <key> <key> ..."},
      {"batch \t ", false, "expected: batch <key> <key> ..."},
      {"nearest", false, "expected: nearest <target|a.b.c.d> <lat> <lon>"},
      {"nearest 2 1", false,
       "expected: nearest <target|a.b.c.d> <lat> <lon>"},
      {"nearest 2 1 1 1", false,
       "expected: nearest <target|a.b.c.d> <lat> <lon>"},
      {"nearest x 1 1 1 1 1", false,
       "expected: nearest <target|a.b.c.d> <lat> <lon>"},
      {"diff 1", false, "expected: diff"},
      {" diff\t", false, "diff needs a previous snapshot (--against)"},
      {"stats 1", false, "expected: stats"},
      {"slo\tx", false, "expected: slo"},
      {"metricsdump x y", false, "expected: metricsdump"},
      {"bogus", false, "unknown verb 'bogus'"},
      {" \tbogus 1 2 3 4 5", false, "unknown verb 'bogus'"},
  };
  const std::string before = "an earlier answer\n";
  for (const Case& c : cases) {
    const std::string line(c.line);
    std::string out = before;
    std::string error;
    EXPECT_EQ(serving::answer_query(context, c.line, out, error), c.ok)
        << '"' << line << '"';
    if (c.ok) {
      EXPECT_EQ(out, before + std::string(c.answer)) << '"' << line << '"';
      EXPECT_EQ(error, "") << '"' << line << '"';
    } else {
      EXPECT_EQ(out, before) << '"' << line << '"';
      EXPECT_EQ(error, c.answer) << '"' << line << '"';
    }
  }
}

TEST(ServingQuery, NearestTakesOnlyFiniteDecimalCoordinates) {
  const serving::QueryContext context{&golden_plane().view, nullptr};
  const std::string answer = "nearest 2 target=2 vp=7 city=\"-\" km=2778.3\n";
  for (const char* line :
       {"nearest 2 -34.5 -58.4", "nearest 2 -34.50 -58.40",
        "nearest 2 -3.45e1 -584e-1", "nearest 2 -3.45E+1 -58.4"}) {
    std::string out;
    std::string error;
    EXPECT_TRUE(serving::answer_query(context, line, out, error)) << line;
    EXPECT_EQ(out, answer) << line;
  }
  // One leading '+' is skipped, as strtod skipped it.
  for (const char* line : {"nearest 19 +0 +0", "nearest 19 0 0"}) {
    std::string out;
    std::string error;
    EXPECT_TRUE(serving::answer_query(context, line, out, error)) << line;
    EXPECT_EQ(out, "nearest 19 target=19 vp=11 city=\"Johannesburg, ZA\" "
                   "km=4185.4\n")
        << line;
  }
  const std::string before = "an earlier answer\n";
  for (const char* line :
       {"nearest 2 nan 0", "nearest 2 0 nan", "nearest 2 NaN 0",
        "nearest 2 -nan 0", "nearest 2 nan(1) 0", "nearest 2 inf 0",
        "nearest 2 -inf 0", "nearest 2 0 infinity", "nearest 2 0x10 0",
        "nearest 2 0 0X1p4", "nearest 2 1e999 0", "nearest 2 ++1 0",
        "nearest 2 +-1 0", "nearest 2 + 0", "nearest 2 - 0",
        "nearest 2 . 0", "nearest 2 1e 0", "nearest 2 90.0001 0",
        "nearest 2 0 -180.0001", "nearest 2 1,5 0"}) {
    std::string out = before;
    std::string error;
    EXPECT_FALSE(serving::answer_query(context, line, out, error)) << line;
    EXPECT_EQ(error, "bad coordinate") << line;
    EXPECT_EQ(out, before) << line;
  }
}

TEST(ServingQuery, MutatedQueryLinesAnswerOrLeaveOutUntouched) {
  // The pinned corpus, mutated by bit flips, truncation and splicing: a
  // mutant either answers, or is refused with an error and `out` as it
  // was. Run under every sanitizer by tools/run_sanitizers.sh.
  const serving::SnapshotView& view = golden_plane().view;
  const serving::QueryContext context{&view, &view};
  std::vector<std::string> corpus;
  for (std::string_view rest = kGoldenQueries; !rest.empty();) {
    const std::size_t eol = rest.find('\n');
    corpus.emplace_back(rest.substr(0, eol));
    rest.remove_prefix(eol + 1);
  }
  corpus.insert(corpus.end(), {"diff", "stats", "slo", "batch 1\t2  3"});
  std::uint64_t state = 0x9A55E12ULL;
  const auto draw = [&](std::size_t bound) {
    state = splitmix64(state);
    return static_cast<std::size_t>(state % bound);
  };
  const std::string before = "an earlier answer\n";
  std::size_t answered = 0;
  std::size_t refused = 0;
  for (int i = 0; i < 30000; ++i) {
    std::string line = corpus[draw(corpus.size())];
    for (std::size_t m = 1 + draw(3); m > 0; --m) {
      switch (draw(3)) {
        case 0:  // flip one bit
          if (!line.empty()) line[draw(line.size())] ^= 1 << draw(8);
          break;
        case 1:  // truncate
          line.resize(draw(line.size() + 1));
          break;
        default: {  // splice: a prefix of this line, a suffix of another
          const std::string& other = corpus[draw(corpus.size())];
          line = line.substr(0, draw(line.size() + 1)) +
                 other.substr(draw(other.size() + 1));
          break;
        }
      }
    }
    std::string out = before;
    std::string error;
    if (serving::answer_query(context, line, out, error)) {
      ++answered;
      EXPECT_EQ(out.compare(0, before.size(), before), 0) << line;
    } else {
      ++refused;
      EXPECT_FALSE(error.empty()) << line;
      EXPECT_EQ(out, before) << line;
    }
  }
  // The loop reaches both outcomes.
  EXPECT_GT(answered, 1000U);
  EXPECT_GT(refused, 1000U);
}

TEST(ServingQuery, OneIntervalFeedsTheQueryAndStageHistograms) {
  const serving::QueryContext context{&golden_plane().view, nullptr};
  const obs::LatencyHisto& query =
      obs::LatencyHisto::get("serving_query_ns", "ns", "");
  const obs::LatencyHisto& lookup =
      obs::LatencyHisto::get("serving_lookup_ns", "ns", "");
  ASSERT_TRUE(obs::latency_recording());
  for (const char* line : {"point 2", "replicas 10.0.5.77", "batch 1 2 3"}) {
    const obs::LatencyHisto::Snapshot query_before = query.snapshot();
    const obs::LatencyHisto::Snapshot lookup_before = lookup.snapshot();
    std::string out;
    std::string error;
    ASSERT_TRUE(serving::answer_query(context, line, out, error)) << line;
    const obs::LatencyHisto::Snapshot q = query.snapshot().delta_since(
        query_before);
    const obs::LatencyHisto::Snapshot l = lookup.snapshot().delta_since(
        lookup_before);
    ASSERT_EQ(q.count, 1U) << line;
    ASSERT_EQ(l.count, 1U) << line;
    // The same whole-answer interval, not a stage nested inside it.
    EXPECT_EQ(q.sum, l.sum) << line;
  }
  for (const obs::MetricValue& value : obs::metrics().scrape()) {
    EXPECT_NE(value.name, "serving_parse_ns");
  }
}

TEST(ServingQuery, AppendFixedMatchesSnprintf) {
  std::vector<double> values{0.0,      -0.0,     0.05,     -0.05,  0.15,
                             0.25,     -0.25,    0.35,     0.00005, -0.00005,
                             0.00015,  1e-300,   -1e-300,  12.34565, 89.99995,
                             -179.99995, 180.0,  20015.05, 1e15,   -1e300,
                             1.7976931348623157e308};
  // Exact half-way values: quarters tie at one decimal, 32nds at four.
  for (int i = -4000; i <= 4000; ++i) {
    values.push_back(i / 4.0);
    values.push_back(i / 32.0);
    values.push_back(i / 4096.0);
  }
  // Seeded coordinates, distances, decimal strings ending in 5, and raw
  // bit patterns (every exponent, infinities and NaNs included).
  std::uint64_t state = 0x5EEDF1DULL;
  for (int i = 0; i < 100000; ++i) {
    state = splitmix64(state);
    const double unit = static_cast<double>(state >> 11) * 0x1.0p-53;
    values.push_back(unit * 360.0 - 180.0);
    values.push_back(unit * 40000.0);
    char text[32];
    std::snprintf(text, sizeof text, "%.5f", unit * 200.0 - 100.0);
    text[std::strlen(text) - 1] = '5';
    values.push_back(std::strtod(text, nullptr));
    values.push_back(std::bit_cast<double>(splitmix64(state ^ 0xB17)));
  }
  for (const double value : values) {
    for (const int precision : {1, 4}) {
      char expected[400];
      std::snprintf(expected, sizeof expected, "%.*f", precision, value);
      std::string got = "x";
      serving::append_fixed(got, value, precision);
      ASSERT_EQ(got, std::string("x") + expected)
          << "precision " << precision << " bits "
          << std::bit_cast<std::uint64_t>(value);
    }
  }
}

// --- Daemon integration -----------------------------------------------------

TEST(ServingWatch, WatchPublishesEveryRoundWithoutStallingReaders) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("anycast_serving_watch_" + std::to_string(::getpid()));
  fs::create_directories(dir);

  serving::SnapshotStore store;
  daemon::WatchConfig config;
  config.rounds = 3;
  config.out_dir = dir;
  config.fastping.seed = 90;
  config.serve_store = &store;

  // A reader hammering the store for the whole campaign: every answer it
  // sees must come from a complete snapshot of SOME committed round.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> acquired{0};
  std::thread reader([&store, &stop, &acquired] {
    while (!stop.load(std::memory_order_relaxed)) {
      serving::ReadGuard guard = store.acquire();
      if (guard.valid()) {
        EXPECT_GE(guard->id(), 1U);
        EXPECT_LE(guard->id(), 3U);
        EXPECT_GT(guard->target_count(), 0U);
        acquired.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::yield();
    }
  });

  net::SimulatedInternet internet(small_world_config());
  daemon::WatchDaemon watcher(internet, small_vps(), geo::world_index(),
                              small_hitlist(), config);
  const daemon::WatchResult result = watcher.run();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(result.exit_code, 0);
  EXPECT_EQ(store.epoch(), 3U);
  EXPECT_GT(acquired.load(), 0U);
  serving::ReadGuard final_guard = store.acquire();
  ASSERT_TRUE(final_guard.valid());
  EXPECT_EQ(final_guard->id(), 3U);
  EXPECT_EQ(final_guard->target_count(), small_hitlist().size());
  store.drain();
  EXPECT_EQ(store.retired_count(), 0U);

  fs::remove_all(dir);
}

}  // namespace
}  // namespace anycast
