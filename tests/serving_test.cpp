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

#include <atomic>
#include <cstdint>
#include <filesystem>
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
#include "anycast/net/platform.hpp"
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
