// Property tests for the vectorized analysis kernel: every fast path is
// pinned against the scalar original it replaced, on adversarial and
// randomized inputs.
//
// The kernel's contract is not "approximately equal" — it is byte-for-byte
// equality with the pre-kernel implementations: the geodesy scalar
// predicates the chord-space tests fall back to, and the test-only oracle
// library (tests/oracle: oracle::*_mis, oracle::CityScan,
// oracle::detect_scan, oracle::igreedy_analyze, oracle::analyze). Inputs
// here are chosen to stress the places where that contract could crack:
// distances at the decision boundary (forcing the guard-band fallback),
// radius sums near the maximum great-circle distance (where the angle-sum
// identity stops being monotone), cities straddling the latitude band
// edge, tied populations, tied RTTs, duplicate VPs, antimeridian/pole
// geometry, and whole census sweeps over any shard plane and lane count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "anycast/analysis/analyzer.hpp"
#include "anycast/census/fastping.hpp"
#include "anycast/census/greylist.hpp"
#include "anycast/census/hitlist.hpp"
#include "anycast/census/sharded.hpp"
#include "anycast/concurrency/thread_pool.hpp"
#include "anycast/core/igreedy.hpp"
#include "anycast/core/mis.hpp"
#include "anycast/geo/city_data.hpp"
#include "anycast/geo/city_index.hpp"
#include "anycast/geodesy/chord.hpp"
#include "anycast/geodesy/disk.hpp"
#include "anycast/geodesy/geopoint.hpp"
#include "anycast/net/internet.hpp"
#include "anycast/net/platform.hpp"
#include "anycast/rng/distributions.hpp"
#include "oracle.hpp"

namespace anycast {
namespace {

using geodesy::Disk;
using geodesy::GeoPoint;

/// Band-scan oracle over the same city span world_index() indexes.
const oracle::CityScan& world_scan() {
  static const oracle::CityScan scan(geo::world_cities());
  return scan;
}

GeoPoint random_point(rng::Xoshiro256& gen) {
  return GeoPoint(rng::uniform(gen, -90.0, 90.0),
                  rng::uniform(gen, -180.0, 180.0));
}

// ---- Chord-space predicates vs scalar originals -----------------------------

TEST(ChordKernel, IntersectsMatchesScalarOnRandomPairs) {
  rng::Xoshiro256 gen(2015);
  for (int i = 0; i < 20000; ++i) {
    const GeoPoint pa = random_point(gen);
    const GeoPoint pb = random_point(gen);
    const double ra = rng::uniform(gen, 0.0, 12000.0);
    const double rb = rng::uniform(gen, 0.0, 12000.0);
    const Disk a(pa, ra);
    const Disk b(pb, rb);
    const geodesy::Unit3 ua = geodesy::unit_vector(pa);
    const geodesy::Unit3 ub = geodesy::unit_vector(pb);
    const geodesy::CapTrig ca = geodesy::cap_trig(ra);
    const geodesy::CapTrig cb = geodesy::cap_trig(rb);
    ASSERT_EQ(geodesy::caps_intersect(ua, ub, ca, cb, pa, pb),
              a.intersects(b))
        << "pair " << i << ": ra=" << ra << " rb=" << rb;
  }
}

TEST(ChordKernel, IntersectsMatchesScalarAtTheBoundary) {
  // Radii built FROM the distance, so chord2 lands within rounding of the
  // threshold and the guard band must route to the scalar fallback.
  rng::Xoshiro256 gen(42);
  for (int i = 0; i < 5000; ++i) {
    const GeoPoint pa = random_point(gen);
    const GeoPoint pb = random_point(gen);
    const double d = geodesy::distance_km(pa, pb);
    const double ra = d * rng::uniform(gen, 0.05, 0.95);
    for (const double rb : {d - ra, std::nextafter(d - ra, 0.0),
                            std::nextafter(d - ra, 1e9)}) {
      if (rb < 0.0) continue;
      const Disk a(pa, ra);
      const Disk b(pb, rb);
      ASSERT_EQ(geodesy::caps_intersect(
                    geodesy::unit_vector(pa), geodesy::unit_vector(pb),
                    geodesy::cap_trig(ra), geodesy::cap_trig(rb), pa, pb),
                a.intersects(b))
          << "boundary pair " << i << " d=" << d << " ra=" << ra
          << " rb=" << rb;
    }
  }
}

TEST(ChordKernel, IntersectsMatchesScalarNearMaxRadiusSum) {
  // Radius sums around pi*R ~ 20015.087 km: past the largest possible
  // great-circle distance the answer must be "true" no matter what the
  // angle-sum identity would do (sin stops being monotone past pi/2).
  rng::Xoshiro256 gen(7);
  for (int i = 0; i < 4000; ++i) {
    const GeoPoint pa = random_point(gen);
    const GeoPoint pb = random_point(gen);
    const double sum = rng::uniform(gen, 19000.0, 22000.0);
    const double ra = sum * rng::uniform(gen, 0.0, 1.0);
    const double rb = sum - ra;
    const Disk a(pa, ra);
    const Disk b(pb, rb);
    ASSERT_EQ(geodesy::caps_intersect(
                  geodesy::unit_vector(pa), geodesy::unit_vector(pb),
                  geodesy::cap_trig(ra), geodesy::cap_trig(rb), pa, pb),
              a.intersects(b))
        << "sum=" << sum << " ra=" << ra;
  }
}

TEST(ChordKernel, ContainsMatchesScalarIncludingBoundary) {
  rng::Xoshiro256 gen(99);
  for (int i = 0; i < 20000; ++i) {
    const GeoPoint center = random_point(gen);
    const GeoPoint point = random_point(gen);
    const double d = geodesy::distance_km(center, point);
    double radius = rng::uniform(gen, 0.0, 15000.0);
    if (i % 3 == 0) radius = d;  // exact boundary
    if (i % 3 == 1) radius = std::nextafter(d, i % 2 ? 0.0 : 1e9);
    const Disk disk(center, radius);
    ASSERT_EQ(geodesy::cap_contains(geodesy::unit_vector(center),
                                    geodesy::unit_vector(point),
                                    geodesy::cap_trig(radius), center, point),
              disk.contains(point))
        << "i=" << i << " d=" << d << " r=" << radius;
  }
}

TEST(ChordKernel, BatchHaversineBitwiseEqualsScalar) {
  rng::Xoshiro256 gen(1234);
  for (int round = 0; round < 50; ++round) {
    const GeoPoint origin = random_point(gen);
    std::vector<double> lat;
    std::vector<double> lon;
    for (int i = 0; i < 257; ++i) {  // odd length: exercises any tail path
      const GeoPoint p = random_point(gen);
      lat.push_back(p.latitude());
      lon.push_back(p.longitude());
    }
    std::vector<double> out(lat.size());
    geodesy::batch_distance_km(origin, lat, lon, out);
    for (std::size_t i = 0; i < lat.size(); ++i) {
      const double scalar =
          geodesy::distance_km(origin, GeoPoint(lat[i], lon[i]));
      ASSERT_EQ(out[i], scalar) << "element " << i;  // bitwise, not approx
    }
  }
}

// ---- Grid: conservative superset --------------------------------------------

TEST(ChordKernel, GridVisitIsSupersetOfWithinRadius) {
  rng::Xoshiro256 gen(555);
  std::vector<GeoPoint> points;
  for (int i = 0; i < 600; ++i) points.push_back(random_point(gen));
  // Include poles and antimeridian points explicitly.
  points.emplace_back(89.99, 10.0);
  points.emplace_back(-89.99, -170.0);
  points.emplace_back(0.0, 179.999);
  points.emplace_back(0.0, -179.999);
  const geodesy::LatLonGrid grid(points, 5.0);
  for (int q = 0; q < 2000; ++q) {
    const GeoPoint center = random_point(gen);
    const double radius = rng::uniform(gen, 1.0, 15000.0);
    std::vector<char> visited(points.size(), 0);
    grid.visit_within(center, radius,
                      [&](std::uint32_t index) { visited[index] = 1; });
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (geodesy::distance_km(center, points[i]) <= radius) {
        ASSERT_TRUE(visited[i])
            << "query " << q << " missed point " << i << " at radius "
            << radius;
      }
    }
  }
}

// ---- Bitset MIS vs oracle solvers -------------------------------------------

std::vector<Disk> random_disks(rng::Xoshiro256& gen, int count,
                               double max_radius) {
  std::vector<Disk> disks;
  for (int i = 0; i < count; ++i) {
    disks.emplace_back(random_point(gen), rng::uniform(gen, 1.0, max_radius));
  }
  return disks;
}

TEST(MisKernel, GreedyMatchesReferenceExactly) {
  rng::Xoshiro256 gen(2023);
  for (int round = 0; round < 400; ++round) {
    // Mix of regimes: sparse/disjoint, dense/overlapping, duplicate disks,
    // and sizes straddling the grid-pruning threshold.
    const int count = 1 + static_cast<int>(rng::uniform_index(gen, 180));
    auto disks = random_disks(gen, count, round % 2 ? 600.0 : 6000.0);
    if (round % 5 == 0 && disks.size() > 2) disks[1] = disks[0];
    ASSERT_EQ(core::greedy_mis(disks), oracle::greedy_mis(disks))
        << "round " << round << " n=" << disks.size();
  }
}

TEST(MisKernel, ExactMatchesReferenceExactly) {
  rng::Xoshiro256 gen(31337);
  for (int round = 0; round < 250; ++round) {
    const int count = 1 + static_cast<int>(rng::uniform_index(gen, 26));
    auto disks = random_disks(gen, count, round % 2 ? 800.0 : 5000.0);
    if (round % 7 == 0 && disks.size() > 2) disks[2] = disks[0];
    ASSERT_EQ(core::exact_mis(disks), oracle::exact_mis(disks))
        << "round " << round << " n=" << disks.size();
  }
}

TEST(MisKernel, HasDisjointPairMatchesReference) {
  rng::Xoshiro256 gen(808);
  for (int round = 0; round < 600; ++round) {
    const int count = 2 + static_cast<int>(rng::uniform_index(gen, 150));
    const auto disks = random_disks(gen, count, round % 2 ? 300.0 : 9000.0);
    ASSERT_EQ(core::has_disjoint_pair(disks),
              oracle::has_disjoint_pair(disks))
        << "round " << round;
  }
}

// ---- CityIndex grid paths vs band-scan oracles ------------------------------

TEST(CityKernel, DiskQueriesMatchScanOracles) {
  const geo::CityIndex& index = geo::world_index();
  const oracle::CityScan& scan = world_scan();
  rng::Xoshiro256 gen(4096);
  for (int q = 0; q < 4000; ++q) {
    const GeoPoint center = random_point(gen);
    // Radii from metro-sized through hemispheric; every few queries centre
    // the disk ON a known city so the band edge cuts through real entries.
    double radius = rng::uniform(gen, 5.0, 9000.0);
    const Disk disk(center, radius);
    ASSERT_EQ(index.most_populated_in(disk), scan.most_populated_in(disk))
        << "query " << q << " r=" << radius;
    ASSERT_EQ(index.cities_in(disk), scan.cities_in(disk))
        << "query " << q << " r=" << radius;
  }
  // Boundary radii: the disk's edge exactly on a city.
  const geo::City* paris = index.by_name("Paris");
  ASSERT_NE(paris, nullptr);
  for (int q = 0; q < 500; ++q) {
    const GeoPoint center = random_point(gen);
    const double d = geodesy::distance_km(center, paris->location());
    for (const double radius :
         {d, std::nextafter(d, 0.0), std::nextafter(d, 1e9)}) {
      const Disk disk(center, radius);
      ASSERT_EQ(index.most_populated_in(disk),
                scan.most_populated_in(disk))
          << "boundary query " << q;
      ASSERT_EQ(index.cities_in(disk), scan.cities_in(disk))
          << "boundary query " << q;
    }
  }
}

TEST(CityKernel, NearestMatchesScanOracle) {
  const geo::CityIndex& index = geo::world_index();
  const oracle::CityScan& scan = world_scan();
  rng::Xoshiro256 gen(777);
  for (int q = 0; q < 5000; ++q) {
    const GeoPoint point = random_point(gen);
    ASSERT_EQ(index.nearest(point), scan.nearest(point))
        << "query " << q << " at " << point.latitude() << ","
        << point.longitude();
  }
  // On-city queries (distance 0) and pole/antimeridian corners.
  const geo::City* tokyo = index.by_name("Tokyo");
  ASSERT_NE(tokyo, nullptr);
  EXPECT_EQ(index.nearest(tokyo->location()), scan.nearest(tokyo->location()));
  for (const GeoPoint corner :
       {GeoPoint(90.0, 0.0), GeoPoint(-90.0, 0.0), GeoPoint(0.0, 180.0),
        GeoPoint(0.0, -180.0), GeoPoint(51.5, -0.1)}) {
    EXPECT_EQ(index.nearest(corner), scan.nearest(corner));
  }
}

TEST(CityKernel, ByNameMatchesScanOracle) {
  const geo::CityIndex& index = geo::world_index();
  const oracle::CityScan& scan = world_scan();
  // Every indexed name resolves to the scan's winner (first in ascending
  // latitude for duplicates), and a miss stays a miss.
  rng::Xoshiro256 gen(1);
  for (int q = 0; q < 200; ++q) {
    const Disk everywhere(random_point(gen), 20100.0);
    for (const geo::City* city : index.cities_in(everywhere)) {
      ASSERT_EQ(index.by_name(city->name), scan.by_name(city->name));
    }
    break;  // one covering disk enumerates every city
  }
  EXPECT_EQ(index.by_name("Atlantis"), nullptr);
  EXPECT_EQ(index.by_name(""), scan.by_name(""));
}

// ---- Analyzer detect prefilter vs full pairwise sweep -----------------------

TEST(DetectKernel, WitnessPrefilterMatchesFullSweep) {
  const auto vps = net::make_planetlab({.node_count = 60, .seed = 11});
  const analysis::CensusAnalyzer analyzer(vps, geo::world_index());
  rng::Xoshiro256 gen(60601);
  int detected = 0;
  for (int round = 0; round < 3000; ++round) {
    // Rows mixing unicast-consistent RTTs (one hidden location) with
    // occasional speed-of-light violations and out-of-range RTTs.
    const GeoPoint site = random_point(gen);
    std::vector<census::VpRtt> row;
    const std::size_t entries = 2 + rng::uniform_index(gen, vps.size() - 2);
    for (std::size_t i = 0; i < entries; ++i) {
      census::VpRtt sample;
      sample.vp = static_cast<std::uint32_t>(i);
      const double base =
          geodesy::distance_km(vps[i].believed_location, site) / 100.0;
      sample.rtt_ms = base * rng::uniform(gen, 1.0, 1.5) +
                      rng::uniform(gen, 0.0, 5.0);
      if (rng::uniform01(gen) < 0.02) sample.rtt_ms = rng::uniform(gen, 0.1, 2.0);
      if (rng::uniform01(gen) < 0.02) sample.rtt_ms = rng::uniform(gen, 600.0, 900.0);
      row.push_back(sample);
    }
    const bool fast = analyzer.detect(row);
    const bool full =
        oracle::detect_scan(vps, row, core::Options{}.max_rtt_ms);
    ASSERT_EQ(fast, full) << "round " << round;
    detected += fast ? 1 : 0;
  }
  // The mix must actually exercise both verdicts to mean anything.
  EXPECT_GT(detected, 50);
  EXPECT_LT(detected, 2950);
}

/// Random rows over `vps`: each VP's RTT is consistent with one hidden
/// site, then drawn from `levels` values when `levels` > 0 (so radii tie),
/// with a few speed-of-light violations and out-of-range RTTs mixed in.
std::vector<census::VpRtt> random_row(std::span<const net::VantagePoint> vps,
                                      std::size_t entries, int levels,
                                      rng::Xoshiro256& gen) {
  const GeoPoint site = random_point(gen);
  std::vector<census::VpRtt> row;
  for (std::size_t i = 0; i < entries; ++i) {
    census::VpRtt sample;
    sample.vp = static_cast<std::uint16_t>(i);
    const double base =
        geodesy::distance_km(vps[i].believed_location, site) / 100.0;
    double rtt = base * rng::uniform(gen, 1.0, 1.5) + rng::uniform(gen, 0.0, 5.0);
    if (levels > 0) rtt = std::ceil(rtt / (300.0 / levels)) * (300.0 / levels);
    if (rng::uniform01(gen) < 0.02) rtt = rng::uniform(gen, 0.1, 2.0);
    if (rng::uniform01(gen) < 0.02) rtt = rng::uniform(gen, 600.0, 900.0);
    sample.rtt_ms = static_cast<float>(rtt);
    row.push_back(sample);
  }
  return row;
}

TEST(DetectKernel, TiesForTheSmallestRadiusMatchFullSweep) {
  const auto vps = net::make_planetlab({.node_count = 60, .seed = 11});
  const analysis::CensusAnalyzer analyzer(vps, geo::world_index());
  const double max_rtt = core::Options{}.max_rtt_ms;
  rng::Xoshiro256 gen(60602);
  int detected = 0;
  for (int round = 0; round < 2000; ++round) {
    // Few RTT levels: many rows hold several disks of the smallest radius.
    const int levels = 2 + static_cast<int>(rng::uniform_index(gen, 12));
    const auto row =
        random_row(vps, 2 + rng::uniform_index(gen, vps.size() - 2), levels, gen);
    const bool fast = analyzer.detect(row);
    ASSERT_EQ(fast, oracle::detect_scan(vps, row, max_rtt)) << "round " << round;
    detected += fast ? 1 : 0;
  }
  EXPECT_GT(detected, 20);
  EXPECT_LT(detected, 1980);

  // Two far-apart VPs tied at the smallest radius are the disjoint pair;
  // a third, larger disk covers both.
  std::size_t far = 1;
  for (std::size_t j = 1; j < vps.size(); ++j) {
    if (geodesy::distance_km(vps[0].believed_location, vps[j].believed_location) >
        geodesy::distance_km(vps[0].believed_location,
                             vps[far].believed_location)) {
      far = j;
    }
  }
  const double apart_km =
      geodesy::distance_km(vps[0].believed_location, vps[far].believed_location);
  const auto rtt_for = [](double radius_km) {
    return static_cast<float>(geodesy::distance_to_min_rtt_ms(radius_km));
  };
  const float tied = rtt_for(apart_km * 0.4);
  const std::vector<census::VpRtt> tied_disjoint = {
      {static_cast<std::uint16_t>(2), rtt_for(30000.0)},
      {0, tied},
      {static_cast<std::uint16_t>(far), tied}};
  EXPECT_TRUE(analyzer.detect(tied_disjoint));
  EXPECT_TRUE(oracle::detect_scan(vps, tied_disjoint, max_rtt));
  const float overlapping = rtt_for(apart_km * 0.6);
  const std::vector<census::VpRtt> tied_overlapping = {
      {0, overlapping}, {static_cast<std::uint16_t>(far), overlapping}};
  EXPECT_FALSE(analyzer.detect(tied_overlapping));
  EXPECT_FALSE(oracle::detect_scan(vps, tied_overlapping, max_rtt));
}

TEST(DetectKernel, RttAtTheLimitIsValidAndAtMostOneValidNeverDetects) {
  const auto vps = net::make_planetlab({.node_count = 60, .seed = 11});
  // A 20 ms limit (2,000 km disks), so the limit itself decides verdicts.
  core::Options options;
  options.max_rtt_ms = 20.0;
  const analysis::CensusAnalyzer analyzer(vps, geo::world_index(), options);
  std::size_t a = 0;
  std::size_t b = 0;
  for (std::size_t i = 0; i < vps.size(); ++i) {
    for (std::size_t j = i + 1; j < vps.size(); ++j) {
      if (geodesy::distance_km(vps[i].believed_location,
                               vps[j].believed_location) > 4500.0) {
        a = i;
        b = j;
      }
    }
  }
  ASSERT_NE(a, b) << "no VP pair 4,500 km apart";
  const auto va = static_cast<std::uint16_t>(a);
  const auto vb = static_cast<std::uint16_t>(b);
  const float limit = 20.0F;
  const float past = std::nextafter(limit, 1000.0F);
  const auto check = [&](const std::vector<census::VpRtt>& row, bool expect,
                         const char* what) {
    EXPECT_EQ(analyzer.detect(row), expect) << what;
    EXPECT_EQ(oracle::detect_scan(vps, row, options.max_rtt_ms), expect)
        << what;
  };
  check({{va, limit}, {vb, limit}}, true, "both at the limit: disjoint");
  check({{va, limit}, {vb, past}}, false, "one past the limit");
  check({}, false, "empty row");
  check({{va, 1.0F}}, false, "one entry");
  check({{va, 1.0F}, {vb, past}, {0, 700.0F}}, false, "one valid of three");
  check({{va, std::nanf("")}, {vb, 1.0F}}, false, "NaN is invalid");
  check({{va, -1.0F}, {vb, 1.0F}}, false, "negative RTT is invalid");
  check({{va, limit}, {vb, std::nanf("")}, {vb, limit}}, true,
        "invalid entries between the disjoint pair");
}

TEST(DetectKernel, PairDisjointByLessThanTheSlackDetects) {
  // Two disks apart by under the prefilter's 1 m slack: the witness is
  // the smaller disk, so the two excesses sum to exactly that margin and
  // the top-two bound must not prune the row.
  const auto vps = net::make_planetlab({.node_count = 60, .seed = 11});
  const analysis::CensusAnalyzer analyzer(vps, geo::world_index());
  const double max_rtt = core::Options{}.max_rtt_ms;
  const double apart_km =
      geodesy::distance_km(vps[0].believed_location, vps[1].believed_location);
  ASSERT_GT(apart_km, 100.0);
  const float small = static_cast<float>(
      geodesy::distance_to_min_rtt_ms(apart_km * 0.3));
  const double small_km = geodesy::rtt_to_radius_km(small);
  // The largest float RTT whose disk still misses the other by > 0 km.
  float large = static_cast<float>(
      geodesy::distance_to_min_rtt_ms(apart_km - small_km));
  while (apart_km - small_km - geodesy::rtt_to_radius_km(large) <= 0.0) {
    large = std::nextafter(large, 0.0F);
  }
  while (apart_km - small_km -
             geodesy::rtt_to_radius_km(std::nextafter(large, 1000.0F)) > 0.0) {
    large = std::nextafter(large, 1000.0F);
  }
  const double margin = apart_km - small_km - geodesy::rtt_to_radius_km(large);
  ASSERT_GT(margin, 0.0);
  ASSERT_LT(margin, 1e-3);
  const std::vector<census::VpRtt> row = {{0, small}, {1, large}};
  EXPECT_TRUE(oracle::detect_scan(vps, row, max_rtt));
  EXPECT_TRUE(analyzer.detect(row));
}

TEST(DetectKernel, RowsLongerThanTheStackBufferMatchFullSweep) {
  // More valid RTTs than the kernel's stack buffer holds (512).
  const auto vps = net::make_planetlab({.node_count = 700, .seed = 12});
  ASSERT_GT(vps.size(), 600u);
  const analysis::CensusAnalyzer analyzer(vps, geo::world_index());
  const double max_rtt = core::Options{}.max_rtt_ms;
  rng::Xoshiro256 gen(60603);
  int detected = 0;
  for (int round = 0; round < 60; ++round) {
    const std::size_t entries = 513 + rng::uniform_index(gen, vps.size() - 513);
    const auto row = random_row(vps, entries, round % 3 == 0 ? 8 : 0, gen);
    const bool fast = analyzer.detect(row);
    ASSERT_EQ(fast, oracle::detect_scan(vps, row, max_rtt)) << "round " << round;
    detected += fast ? 1 : 0;
  }
  // Long rows almost always hold a violation; a consistent one must not
  // detect.
  EXPECT_GT(detected, 0);
  std::vector<census::VpRtt> consistent;
  for (std::size_t i = 0; i < 600; ++i) {
    consistent.push_back({static_cast<std::uint16_t>(i), 599.0F});
  }
  EXPECT_FALSE(analyzer.detect(consistent));
  EXPECT_FALSE(oracle::detect_scan(vps, consistent, max_rtt));
}

// ---- Whole-pipeline equality: kernel vs oracle iGreedy and sweep ------------

/// Field-for-field equality of two iGreedy results, coordinates and radii
/// bitwise (not within tolerance).
void expect_identical(const core::Result& a, const core::Result& b) {
  ASSERT_EQ(a.anycast, b.anycast);
  ASSERT_EQ(a.iterations, b.iterations);
  ASSERT_EQ(a.usable_measurements, b.usable_measurements);
  ASSERT_EQ(a.first_round_replicas, b.first_round_replicas);
  ASSERT_EQ(a.replicas.size(), b.replicas.size());
  for (std::size_t r = 0; r < a.replicas.size(); ++r) {
    ASSERT_EQ(a.replicas[r].vp_id, b.replicas[r].vp_id);
    ASSERT_EQ(a.replicas[r].city, b.replicas[r].city);
    // Bitwise coordinate equality, not tolerance.
    ASSERT_EQ(a.replicas[r].location.latitude(),
              b.replicas[r].location.latitude());
    ASSERT_EQ(a.replicas[r].location.longitude(),
              b.replicas[r].location.longitude());
    ASSERT_EQ(a.replicas[r].disk.radius_km(), b.replicas[r].disk.radius_km());
  }
}

TEST(PipelineKernel, AnalyzeIsByteIdenticalToReferenceKernel) {
  const auto vps = net::make_planetlab({.node_count = 40, .seed = 5});
  const core::Options options;
  const core::IGreedy kernel(geo::world_index(), options);

  rng::Xoshiro256 gen(20151215);
  for (int round = 0; round < 300; ++round) {
    const int replica_count = 1 + static_cast<int>(rng::uniform_index(gen, 6));
    std::vector<GeoPoint> sites;
    for (int r = 0; r < replica_count; ++r) sites.push_back(random_point(gen));
    std::vector<core::Measurement> measurements;
    for (std::size_t v = 0; v < vps.size(); ++v) {
      double best = 1e18;
      for (const GeoPoint& site : sites) {
        best = std::min(
            best, geodesy::distance_km(vps[v].believed_location, site));
      }
      core::Measurement m;
      m.vp_id = static_cast<std::uint32_t>(v);
      m.vp_location = vps[v].believed_location;
      m.rtt_ms = best / 100.0 * rng::uniform(gen, 1.0, 1.4);
      measurements.push_back(m);
      if (rng::uniform01(gen) < 0.2) {  // duplicate VP, possibly tied RTT
        core::Measurement dup = m;
        if (rng::uniform01(gen) < 0.5) dup.rtt_ms += rng::uniform(gen, 0.0, 30.0);
        measurements.push_back(dup);
      }
    }
    SCOPED_TRACE("round " + std::to_string(round));
    ASSERT_NO_FATAL_FAILURE(expect_identical(
        kernel.analyze(measurements),
        oracle::igreedy_analyze(world_scan(), options, measurements)));
  }
}

TEST(PipelineKernel, CensusAnalyzeMatchesOracleSweep) {
  // A small simulated census (the full anycast catalog over a few hundred
  // unicast /24s), analyzed on the default one-shard plane and on
  // 37-target shards, serially and with four lanes.
  net::WorldConfig world_config;
  world_config.seed = 33;
  world_config.unicast_alive_slash24 = 300;
  world_config.unicast_dead_slash24 = 200;
  const net::SimulatedInternet world(world_config);
  const census::Hitlist hitlist =
      census::Hitlist::from_world(world).without_dead();
  const auto vps = net::make_planetlab({.node_count = 12, .seed = 14});
  census::FastPingConfig ping;
  ping.seed = 2015;
  census::Greylist blacklist;
  const census::ShardedCensusMatrix one_shard =
      census::run_census_sharded(world, vps, hitlist, blacklist, ping).data;

  census::DataPlaneConfig plane;
  plane.shard_targets = 37;
  census::ShardedCensusMatrixBuilder builder(one_shard.target_count(), plane);
  for (std::uint32_t t = 0; t < one_shard.target_count(); ++t) {
    for (const census::VpRtt& sample : one_shard.measurements(t)) {
      builder.add(t, sample.vp, sample.rtt_ms);
    }
  }
  const census::ShardedCensusMatrix sharded = builder.build();
  ASSERT_GT(sharded.shard_count(), 1u);

  const core::Options options;
  const analysis::CensusAnalyzer analyzer(vps, geo::world_index(), options);
  concurrency::ThreadPool pool(4);
  for (const census::ShardedCensusMatrix* data : {&one_shard, &sharded}) {
    const std::vector<analysis::TargetOutcome> expected =
        oracle::analyze(vps, world_scan(), options, *data, hitlist);
    ASSERT_GT(expected.size(), 100u);
    for (concurrency::ThreadPool* lanes :
         {static_cast<concurrency::ThreadPool*>(nullptr), &pool}) {
      SCOPED_TRACE("shards " + std::to_string(data->shard_count()) +
                   (lanes == nullptr ? ", serial" : ", 4 lanes"));
      const std::vector<analysis::TargetOutcome> got =
          analyzer.analyze(*data, hitlist, 2, lanes);
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE("outcome " + std::to_string(i));
        ASSERT_EQ(got[i].target_index, expected[i].target_index);
        ASSERT_EQ(got[i].slash24_index, expected[i].slash24_index);
        ASSERT_NO_FATAL_FAILURE(
            expect_identical(got[i].result, expected[i].result));
      }
    }
  }
}

}  // namespace
}  // namespace anycast
