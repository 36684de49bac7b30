// Tier-1 guard for the paper's headline numbers (Figs. 7, 10, 12).
//
// The bench suite regenerates the full figures but only runs on demand;
// this test promotes the headline quantities — anycast /24 count, AS
// count, enumerated replica count and geolocation accuracy — into fast
// ctest so a regression fails `ctest`, not just the bench binaries.
//
// The scenario is the seed world at test scale: the anycast catalog is at
// full size (1,696 /24s in 346 ASes — it is not downsampled by
// WorldConfig), only the unicast background is small. Everything is
// deterministic, so the exact values below are pinned: a change means the
// pipeline's semantics changed, and the pin must be re-derived on purpose.
#include <gtest/gtest.h>

#include "anycast/analysis/analyzer.hpp"
#include "anycast/analysis/report.hpp"
#include "anycast/analysis/validation.hpp"
#include "anycast/census/sharded.hpp"
#include "anycast/geo/city_index.hpp"
#include "anycast/net/platform.hpp"

namespace anycast {
namespace {

struct HeadlineWorld {
  net::SimulatedInternet internet{[] {
    net::WorldConfig config;
    config.seed = 2015;  // census year, same flavour as the benches
    config.unicast_alive_slash24 = 600;
    config.unicast_dead_slash24 = 400;
    return config;
  }()};
  std::vector<net::VantagePoint> vps =
      net::make_planetlab({.node_count = 120, .seed = 2015 ^ 0xF1E1D});
  census::Hitlist hitlist =
      census::Hitlist::from_world(internet).without_dead();
  census::Greylist blacklist;
  census::ShardedCensusMatrix combined;
  analysis::CensusReport report;

  HeadlineWorld()
      : combined([this] {
          census::ShardedCensusMatrix acc(hitlist.size(), {});
          for (int c = 0; c < 2; ++c) {
            census::FastPingConfig fastping;
            fastping.seed = 2015 + static_cast<std::uint64_t>(c) * 101;
            acc.combine_min(
                run_census_sharded(internet, vps, hitlist, blacklist, fastping)
                    .data);
          }
          return acc;
        }()),
        report(internet,
               analysis::CensusAnalyzer(vps, geo::world_index())
                   .analyze(combined, hitlist, /*min_vps=*/2)) {}
};

const HeadlineWorld& world() {
  static const HeadlineWorld instance;
  return instance;
}

TEST(Headline, AnycastPrefixAndAsCounts) {
  // Fig. 10 "All" row shape: the combined census finds the bulk of the
  // 1,696-prefix / 346-AS anycast catalog and nothing that is not anycast
  // (unicast false positives are covered by integration_test).
  const analysis::GlanceRow all = world().report.glance_all();
  EXPECT_EQ(all.ip24, 1382u);
  EXPECT_EQ(all.ases, 266u);
  EXPECT_LE(all.ip24, 1696u);
  EXPECT_LE(all.ases, 346u);
}

TEST(Headline, ReplicaEnumeration) {
  // Fig. 12: the mean geographic footprint is O(10) replicas per anycast
  // /24 (paper: ~8.1 at 450 VPs; fewer VPs enumerate conservatively).
  const analysis::GlanceRow all = world().report.glance_all();
  EXPECT_EQ(all.replicas, 12091u);
  const double mean = static_cast<double>(all.replicas) /
                      static_cast<double>(all.ip24);
  EXPECT_GT(mean, 4.0);
  EXPECT_LT(mean, 12.0);
}

TEST(Headline, GeographicSpread) {
  // Fig. 10: replicas spread over dozens of cities in dozens of countries.
  const analysis::GlanceRow all = world().report.glance_all();
  EXPECT_EQ(all.cities, 56u);
  EXPECT_EQ(all.countries, 35u);
}

TEST(Headline, GeolocationAccuracy) {
  // Fig. 7: city-level true-positive rate against CloudFlare ground truth
  // (paper: 0.77, median misclassification error 434 km).
  const net::Deployment* cloudflare =
      world().internet.deployment_by_name("CLOUDFLARENET,US");
  ASSERT_NE(cloudflare, nullptr);
  const analysis::ValidationMetrics metrics = validate_deployment(
      world().internet, world().vps, *cloudflare,
      world().report.prefixes());
  EXPECT_GT(metrics.evaluated_prefixes, 0u);
  EXPECT_NEAR(metrics.tpr, 0.77, 0.15);  // paper shape
  EXPECT_NEAR(metrics.tpr, 0.67826261901551654, 1e-12);       // pinned
  EXPECT_NEAR(metrics.median_error_km, 301.28571174789715, 1e-9);  // pinned
}

TEST(Headline, CombinationDominatesSingleCensus) {
  // Fig. 12 headline: min-RTT combination never detects fewer anycast
  // /24s than a single census (checked here at glance scale; the per-/24
  // dominance is in integration_test).
  census::Greylist blacklist;
  census::FastPingConfig fastping;
  fastping.seed = 2015;
  const auto single = run_census_sharded(
      world().internet, world().vps, world().hitlist, blacklist, fastping);
  const auto outcomes =
      analysis::CensusAnalyzer(world().vps, geo::world_index())
          .analyze(single.data, world().hitlist, /*min_vps=*/2);
  EXPECT_LE(outcomes.size(), world().report.glance_all().ip24);
}

}  // namespace
}  // namespace anycast
