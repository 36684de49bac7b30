#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "anycast/core/igreedy.hpp"
#include "anycast/geo/city_data.hpp"
#include "anycast/geo/city_index.hpp"
#include "anycast/geodesy/disk.hpp"
#include "anycast/rng/distributions.hpp"

namespace anycast::core {
namespace {

using geodesy::GeoPoint;

const geo::CityIndex& cities() { return geo::world_index(); }

/// Ideal RTT between two points: pure fibre propagation, no inflation.
double clean_rtt(const GeoPoint& a, const GeoPoint& b,
                 double extra_ms = 0.5) {
  return geodesy::distance_to_min_rtt_ms(geodesy::distance_km(a, b)) +
         extra_ms;
}

GeoPoint city_at(std::string_view name) {
  const geo::City* city = cities().by_name(name);
  EXPECT_NE(city, nullptr) << name;
  return city->location();
}

/// Builds measurements for VPs probing a single unicast host.
std::vector<Measurement> unicast_measurements(
    const std::vector<GeoPoint>& vps, const GeoPoint& host) {
  std::vector<Measurement> out;
  for (std::size_t i = 0; i < vps.size(); ++i) {
    out.push_back(Measurement{static_cast<std::uint32_t>(i), vps[i],
                              clean_rtt(vps[i], host)});
  }
  return out;
}

/// Builds measurements for VPs probing an anycast deployment: each VP
/// reaches its geographically nearest replica.
std::vector<Measurement> anycast_measurements(
    const std::vector<GeoPoint>& vps, const std::vector<GeoPoint>& replicas) {
  std::vector<Measurement> out;
  for (std::size_t i = 0; i < vps.size(); ++i) {
    double best = 1e18;
    for (const GeoPoint& replica : replicas) {
      best = std::min(best, clean_rtt(vps[i], replica));
    }
    out.push_back(
        Measurement{static_cast<std::uint32_t>(i), vps[i], best});
  }
  return out;
}

std::vector<GeoPoint> global_vps() {
  return {city_at("London"),   city_at("New York"), city_at("Tokyo"),
          city_at("Sydney"),   city_at("Sao Paulo"), city_at("Johannesburg"),
          city_at("Moscow"),   city_at("Singapore"), city_at("Los Angeles"),
          city_at("Frankfurt"), city_at("Mumbai"),   city_at("Toronto")};
}

TEST(IGreedy, UnicastTargetIsNotDetected) {
  const IGreedy igreedy(cities());
  const auto measurements =
      unicast_measurements(global_vps(), city_at("Vienna"));
  const Result result = igreedy.analyze(measurements);
  EXPECT_FALSE(result.anycast);
  ASSERT_EQ(result.replicas.size(), 1u);
}

TEST(IGreedy, UnicastGeolocationIsNearTruth) {
  const IGreedy igreedy(cities());
  const GeoPoint host = city_at("Vienna");
  const auto measurements = unicast_measurements(global_vps(), host);
  const Result result = igreedy.analyze(measurements);
  ASSERT_EQ(result.replicas.size(), 1u);
  ASSERT_NE(result.replicas[0].city, nullptr);
  // The smallest disk is from Frankfurt (~600 km away), so the population
  // bias can land on any West-European metropolis — the paper's ~350 km
  // median error at continental scale. Bound it loosely.
  EXPECT_LT(geodesy::distance_km(result.replicas[0].location, host), 1500.0);

  // With a vantage point in town, classification is exact.
  auto close_vps = global_vps();
  close_vps.push_back(geodesy::destination(host, 10.0, 15.0));
  const Result close_result =
      igreedy.analyze(unicast_measurements(close_vps, host));
  ASSERT_EQ(close_result.replicas.size(), 1u);
  ASSERT_NE(close_result.replicas[0].city, nullptr);
  EXPECT_EQ(close_result.replicas[0].city->name, "Vienna");
}

TEST(IGreedy, TwoDistantReplicasAreDetected) {
  const IGreedy igreedy(cities());
  const auto measurements = anycast_measurements(
      global_vps(), {city_at("Amsterdam"), city_at("Tokyo")});
  const Result result = igreedy.analyze(measurements);
  EXPECT_TRUE(result.anycast);
  EXPECT_GE(result.replicas.size(), 2u);
}

TEST(IGreedy, FirstRoundMisIsAStrictLowerBound) {
  // Property (conservative enumeration): the first-round MIS — pairwise
  // disjoint disks — can never exceed the true replica count. Later
  // collapse-and-resolve rounds only add heuristic recall.
  rng::Xoshiro256 gen(2024);
  const auto vps = global_vps();
  const auto all = geo::world_cities();
  for (int trial = 0; trial < 25; ++trial) {
    const int replica_count = 2 + static_cast<int>(rng::uniform_index(gen, 8));
    std::vector<GeoPoint> replicas;
    std::set<std::size_t> chosen;
    while (replicas.size() < static_cast<std::size_t>(replica_count)) {
      const std::size_t pick = rng::uniform_index(gen, 120);
      if (chosen.insert(pick).second) {
        replicas.push_back(all[pick].location());
      }
    }
    const IGreedy igreedy(cities());
    const Result result =
        igreedy.analyze(anycast_measurements(vps, replicas));
    EXPECT_LE(result.first_round_replicas, replicas.size());
    EXPECT_GE(result.replicas.size(), result.first_round_replicas);
  }
}

TEST(IGreedy, GeolocationRecoversPlantedCities) {
  // Replicas in three far-apart megacities, VPs colocated nearby: the
  // classification must name exactly those cities.
  const std::vector<GeoPoint> replicas{
      city_at("London"), city_at("Tokyo"), city_at("New York")};
  std::vector<GeoPoint> vps;
  for (const GeoPoint& replica : replicas) {
    vps.push_back(geodesy::destination(replica, 45.0, 30.0));
    vps.push_back(geodesy::destination(replica, 200.0, 80.0));
  }
  const IGreedy igreedy(cities());
  const Result result = igreedy.analyze(anycast_measurements(vps, replicas));
  EXPECT_TRUE(result.anycast);
  std::set<std::string_view> names;
  for (const Replica& replica : result.replicas) {
    ASSERT_NE(replica.city, nullptr);
    names.insert(replica.city->name);
  }
  EXPECT_EQ(names, (std::set<std::string_view>{"London", "Tokyo",
                                               "New York"}));
}

TEST(IGreedy, IterationIncreasesRecall) {
  // A VP ring where plain MIS finds fewer replicas than iGreedy's
  // collapse-and-resolve: verify iterations > 1 can add replicas.
  const std::vector<GeoPoint> replicas{
      city_at("London"), city_at("Paris"), city_at("Tokyo")};
  std::vector<GeoPoint> vps;
  // Close VPs for London/Tokyo; Paris seen only through a medium disk that
  // overlaps London's once uncollapsed.
  vps.push_back(geodesy::destination(city_at("London"), 0.0, 20.0));
  vps.push_back(geodesy::destination(city_at("Tokyo"), 0.0, 20.0));
  vps.push_back(geodesy::destination(city_at("Paris"), 180.0, 150.0));
  const IGreedy igreedy(cities());
  const Result result = igreedy.analyze(anycast_measurements(vps, replicas));
  EXPECT_TRUE(result.anycast);
  EXPECT_GE(result.replicas.size(), 2u);
}

TEST(IGreedy, DuplicateVpMeasurementsCollapseToMinimum) {
  const IGreedy igreedy(cities());
  const GeoPoint vp = city_at("London");
  std::vector<Measurement> measurements{
      {0, vp, 80.0},
      {0, vp, 12.0},   // the minimum: used
      {0, vp, 300.0},
  };
  const Result result = igreedy.analyze(measurements);
  EXPECT_EQ(result.usable_measurements, 1u);
  ASSERT_EQ(result.replicas.size(), 1u);
  EXPECT_NEAR(result.replicas[0].disk.radius_km(),
              geodesy::rtt_to_radius_km(12.0), 1e-9);
}

TEST(IGreedy, RejectsNonPositiveAndHugeRtts) {
  Options options;
  options.max_rtt_ms = 400.0;
  const IGreedy igreedy(cities(), options);
  std::vector<Measurement> measurements{
      {0, city_at("London"), -3.0},
      {1, city_at("Tokyo"), 0.0},
      {2, city_at("Sydney"), 500.0},
  };
  const Result result = igreedy.analyze(measurements);
  EXPECT_EQ(result.usable_measurements, 0u);
  EXPECT_TRUE(result.replicas.empty());
  EXPECT_FALSE(result.anycast);
}

TEST(IGreedy, EmptyInput) {
  const IGreedy igreedy(cities());
  const Result result = igreedy.analyze({});
  EXPECT_FALSE(result.anycast);
  EXPECT_TRUE(result.replicas.empty());
}

TEST(IGreedy, DetectStaticMatchesAnalyze) {
  rng::Xoshiro256 gen(5);
  const auto vps = global_vps();
  const auto all = geo::world_cities();
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<GeoPoint> replicas;
    const int count = 1 + static_cast<int>(rng::uniform_index(gen, 4));
    for (int i = 0; i < count; ++i) {
      replicas.push_back(
          all[rng::uniform_index(gen, 200)].location());
    }
    const auto measurements = anycast_measurements(vps, replicas);
    const IGreedy igreedy(cities());
    EXPECT_EQ(IGreedy::detect(measurements),
              igreedy.analyze(measurements).anycast);
  }
}

TEST(IGreedy, NoFalsePositiveUnderInflatedRtts) {
  // Property: RTT >= physical minimum implies no detection for unicast,
  // whatever the inflation pattern (the Sec. 4.2 false-positive argument).
  rng::Xoshiro256 gen(6);
  const auto vps = global_vps();
  const auto all = geo::world_cities();
  for (int trial = 0; trial < 40; ++trial) {
    const GeoPoint host = all[rng::uniform_index(gen, 300)].location();
    std::vector<Measurement> measurements;
    for (std::size_t i = 0; i < vps.size(); ++i) {
      const double physical = clean_rtt(vps[i], host, 0.0);
      const double inflated =
          physical * rng::uniform(gen, 1.0, 2.5) +
          rng::exponential(gen, 5.0);
      measurements.push_back(
          Measurement{static_cast<std::uint32_t>(i), vps[i], inflated});
    }
    EXPECT_FALSE(IGreedy::detect(measurements));
  }
}

TEST(IGreedy, PopulationBiasMisclassifiesAshburn) {
  // The paper's OpenDNS case study (Sec. 3.4): a replica physically in
  // Ashburn is classified as a larger city in the disk, because the
  // classifier is population-biased.
  const GeoPoint ashburn = city_at("Ashburn");
  // Two VPs a couple of ms away: the smallest disk spans the DC corridor
  // (Washington, Baltimore, Philadelphia) but stops short of New York.
  std::vector<Measurement> measurements{
      {0, geodesy::destination(ashburn, 90.0, 100.0), 2.2},
      {1, geodesy::destination(ashburn, 270.0, 160.0), 3.0},
  };
  const IGreedy igreedy(cities());
  const Result result = igreedy.analyze(measurements);
  ASSERT_EQ(result.replicas.size(), 1u);
  ASSERT_NE(result.replicas[0].city, nullptr);
  EXPECT_EQ(result.replicas[0].city->name, "Philadelphia");
}

TEST(IGreedy, CityPolicyNearestFixesAshburnCase) {
  const GeoPoint ashburn = city_at("Ashburn");
  std::vector<Measurement> measurements{
      {0, geodesy::destination(ashburn, 90.0, 3.0), 0.2},
  };
  Options options;
  options.city_policy = CityPolicy::kNearestToCenter;
  const IGreedy igreedy(cities(), options);
  const Result result = igreedy.analyze(measurements);
  ASSERT_EQ(result.replicas.size(), 1u);
  ASSERT_NE(result.replicas[0].city, nullptr);
  EXPECT_EQ(result.replicas[0].city->name, "Ashburn");
}

TEST(IGreedy, CityPolicyNoneKeepsDiskCenters) {
  Options options;
  options.city_policy = CityPolicy::kNone;
  const IGreedy igreedy(cities(), options);
  const auto measurements = anycast_measurements(
      global_vps(), {city_at("Amsterdam"), city_at("Tokyo")});
  const Result result = igreedy.analyze(measurements);
  EXPECT_TRUE(result.anycast);
  for (const Replica& replica : result.replicas) {
    EXPECT_EQ(replica.city, nullptr);
    EXPECT_EQ(replica.location, replica.disk.center());
  }
}

TEST(IGreedy, ExactEnumerationOptionNeverWorse) {
  rng::Xoshiro256 gen(9);
  const auto vps = global_vps();
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<GeoPoint> replicas;
    for (int i = 0; i < 5; ++i) {
      replicas.push_back(
          geo::world_cities()[rng::uniform_index(gen, 80)].location());
    }
    const auto measurements = anycast_measurements(vps, replicas);
    Options exact_options;
    exact_options.exact_enumeration = true;
    const Result greedy = IGreedy(cities()).analyze(measurements);
    const Result exact = IGreedy(cities(), exact_options).analyze(measurements);
    EXPECT_GE(exact.replicas.size() * 5 + 5, greedy.replicas.size());
    EXPECT_EQ(greedy.anycast, exact.anycast);
  }
}

TEST(IGreedy, SparseVpIdsMatchDenseIds) {
  // VP ids at or above 2^20 skip the dense per-VP collapse arena and take
  // the hash-map fallback. Offsetting every id must change nothing but
  // the replicas' vp_id: same verdicts, same iterations and counts, same
  // cities, bitwise-equal coordinates and radii.
  constexpr std::uint32_t kOffset = 1u << 20;
  rng::Xoshiro256 gen(1048576);
  const auto vps = global_vps();
  const auto all = geo::world_cities();
  const IGreedy igreedy(cities());
  int anycast = 0;
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<GeoPoint> replicas;
    const int count = 1 + static_cast<int>(rng::uniform_index(gen, 5));
    for (int i = 0; i < count; ++i) {
      replicas.push_back(all[rng::uniform_index(gen, 200)].location());
    }
    std::vector<Measurement> dense = anycast_measurements(vps, replicas);
    // Duplicate VPs, some with tied RTTs, so the collapse has work to do.
    for (std::size_t i = 0; i < vps.size(); i += 3) {
      Measurement dup = dense[i];
      dup.rtt_ms += (i % 2 == 0) ? 0.0 : 7.5;
      dense.push_back(dup);
    }
    std::vector<Measurement> sparse = dense;
    for (Measurement& m : sparse) m.vp_id += kOffset;

    SCOPED_TRACE("trial " + std::to_string(trial));
    ASSERT_EQ(IGreedy::detect(sparse), IGreedy::detect(dense));
    const Result a = igreedy.analyze(dense);
    const Result b = igreedy.analyze(sparse);
    ASSERT_EQ(b.anycast, a.anycast);
    ASSERT_EQ(b.iterations, a.iterations);
    ASSERT_EQ(b.usable_measurements, a.usable_measurements);
    ASSERT_EQ(b.first_round_replicas, a.first_round_replicas);
    ASSERT_EQ(b.replicas.size(), a.replicas.size());
    for (std::size_t r = 0; r < a.replicas.size(); ++r) {
      ASSERT_EQ(b.replicas[r].vp_id, a.replicas[r].vp_id + kOffset);
      ASSERT_EQ(b.replicas[r].city, a.replicas[r].city);
      ASSERT_EQ(b.replicas[r].location.latitude(),
                a.replicas[r].location.latitude());
      ASSERT_EQ(b.replicas[r].location.longitude(),
                a.replicas[r].location.longitude());
      ASSERT_EQ(b.replicas[r].disk.center().latitude(),
                a.replicas[r].disk.center().latitude());
      ASSERT_EQ(b.replicas[r].disk.center().longitude(),
                a.replicas[r].disk.center().longitude());
      ASSERT_EQ(b.replicas[r].disk.radius_km(), a.replicas[r].disk.radius_km());
    }
    anycast += a.anycast ? 1 : 0;
  }
  // Both verdicts must occur for the comparison to mean anything.
  EXPECT_GT(anycast, 5);
  EXPECT_LT(anycast, 35);
}

}  // namespace
}  // namespace anycast::core
