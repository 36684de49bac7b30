#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "anycast/analysis/analyzer.hpp"
#include "anycast/analysis/report.hpp"
#include "anycast/analysis/stats.hpp"
#include "anycast/analysis/validation.hpp"
#include "anycast/census/sharded.hpp"
#include "anycast/geo/city_index.hpp"
#include "anycast/net/platform.hpp"

namespace anycast::analysis {
namespace {

// --- Stats -------------------------------------------------------------------

TEST(Empirical, QuantilesAndMoments) {
  const Empirical dist({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_DOUBLE_EQ(dist.median(), 3.0);
  EXPECT_DOUBLE_EQ(dist.min(), 1.0);
  EXPECT_DOUBLE_EQ(dist.max(), 5.0);
  EXPECT_DOUBLE_EQ(dist.mean(), 3.0);
  EXPECT_NEAR(dist.stddev(), std::sqrt(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(dist.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(dist.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(dist.quantile(0.25), 2.0);
}

TEST(Empirical, CdfAndCcdf) {
  const Empirical dist({1.0, 1.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(dist.cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(dist.cdf(1.0), 0.5);
  EXPECT_DOUBLE_EQ(dist.cdf(3.0), 0.75);
  EXPECT_DOUBLE_EQ(dist.cdf(4.0), 1.0);
  EXPECT_DOUBLE_EQ(dist.ccdf(1.0), 0.5);
}

TEST(Empirical, SingleValueAndThrowOnEmpty) {
  const Empirical one({7.0});
  EXPECT_DOUBLE_EQ(one.median(), 7.0);
  EXPECT_DOUBLE_EQ(one.quantile(0.3), 7.0);
  EXPECT_THROW(Empirical({}), std::invalid_argument);
}

TEST(Correlation, PearsonPerfectAndInverse) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const std::vector<double> up{2, 4, 6, 8, 10};
  const std::vector<double> down{5, 4, 3, 2, 1};
  EXPECT_NEAR(pearson(xs, up), 1.0, 1e-12);
  EXPECT_NEAR(pearson(xs, down), -1.0, 1e-12);
}

TEST(Correlation, PearsonDegenerateInputs) {
  const std::vector<double> xs{1, 2, 3};
  const std::vector<double> constant{1, 1, 1};
  const std::vector<double> shorter{1, 2};
  const std::vector<double> one_x{1.0};
  const std::vector<double> one_y{2.0};
  EXPECT_DOUBLE_EQ(pearson(xs, constant), 0.0);  // constant side
  EXPECT_DOUBLE_EQ(pearson(xs, shorter), 0.0);   // size mismatch
  EXPECT_DOUBLE_EQ(pearson(one_x, one_y), 0.0);  // too small
}

TEST(Correlation, SpearmanIsRankBased) {
  // Monotone but nonlinear: Spearman 1, Pearson < 1.
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const std::vector<double> ys{1, 8, 27, 64, 125};
  EXPECT_NEAR(spearman(xs, ys), 1.0, 1e-12);
  EXPECT_LT(pearson(xs, ys), 1.0);
}

TEST(Correlation, AverageRanksHandleTies) {
  const auto ranks = average_ranks(std::vector<double>{10.0, 20.0, 10.0});
  EXPECT_DOUBLE_EQ(ranks[0], 1.5);
  EXPECT_DOUBLE_EQ(ranks[1], 3.0);
  EXPECT_DOUBLE_EQ(ranks[2], 1.5);
}

// --- End-to-end analyzer over a small census -------------------------------

struct Pipeline {
  net::SimulatedInternet internet;
  std::vector<net::VantagePoint> vps;
  census::Hitlist hitlist;
  census::ShardedCensusMatrix data;
  std::vector<TargetOutcome> outcomes;

  explicit Pipeline(std::uint64_t seed, int vp_count = 120)
      : internet([seed] {
          net::WorldConfig config;
          config.seed = seed;
          config.unicast_alive_slash24 = 600;
          config.unicast_dead_slash24 = 400;
          return config;
        }()),
        vps(net::make_planetlab({.node_count = vp_count,
                                 .seed = seed + 1})),
        hitlist(census::Hitlist::from_world(internet).without_dead()) {
    census::Greylist blacklist;
    census::FastPingConfig config;
    config.seed = seed + 2;
    data = run_census_sharded(internet, vps, hitlist, blacklist, config).data;
    const CensusAnalyzer analyzer(vps, geo::world_index());
    outcomes = analyzer.analyze(data, hitlist);
  }
};

const Pipeline& pipeline() {
  static const Pipeline instance(51);
  return instance;
}

TEST(CensusAnalyzer, DetectedTargetsAreTrulyAnycast) {
  // No false positives: every detection is a real anycast /24.
  for (const TargetOutcome& outcome : pipeline().outcomes) {
    const net::TargetInfo* info = pipeline().internet.target_for(
        ipaddr::IPv4Address::from_slash24_index(outcome.slash24_index, 1));
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->kind, net::TargetInfo::Kind::kAnycast);
  }
}

TEST(CensusAnalyzer, RecallCoversMostMultiSiteDeployments) {
  // Deployments with well-separated sites must be found; count how many
  // top-100 deployments have at least one detected /24.
  std::set<const net::Deployment*> detected;
  for (const TargetOutcome& outcome : pipeline().outcomes) {
    const net::TargetInfo* info = pipeline().internet.target_for(
        ipaddr::IPv4Address::from_slash24_index(outcome.slash24_index, 1));
    detected.insert(&pipeline().internet.deployments()[static_cast<std::size_t>(
        info->deployment_index)]);
  }
  std::size_t top100_detected = 0;
  for (std::size_t d = 0; d < 100; ++d) {
    if (detected.contains(&pipeline().internet.deployments()[d])) {
      ++top100_detected;
    }
  }
  EXPECT_GE(top100_detected, 90u);
}

TEST(CensusAnalyzer, DetectAgreesWithCoreDetect) {
  const CensusAnalyzer analyzer(pipeline().vps, geo::world_index());
  std::size_t checked = 0;
  for (std::uint32_t t = 0; t < pipeline().data.target_count() && checked < 400;
       t += 7) {
    const auto row = pipeline().data.measurements(t);
    if (row.size() < 2) continue;
    ++checked;
    std::vector<core::Measurement> measurements;
    for (const census::VpRtt& sample : row) {
      measurements.push_back(core::Measurement{
          sample.vp, pipeline().vps[sample.vp].believed_location,
          sample.rtt_ms});
    }
    EXPECT_EQ(analyzer.detect(row), core::IGreedy::detect(measurements))
        << "target " << t;
  }
  EXPECT_GT(checked, 100u);
}

TEST(CensusAnalyzer, AnalyzeRowMatchesDetection) {
  for (std::size_t i = 0; i < std::min<std::size_t>(
                              20, pipeline().outcomes.size());
       ++i) {
    const TargetOutcome& outcome = pipeline().outcomes[i];
    EXPECT_TRUE(outcome.result.anycast);
    EXPECT_GE(outcome.result.replicas.size(), 2u);
  }
}

// --- CensusReport -------------------------------------------------------------

const CensusReport& report() {
  static const CensusReport instance(pipeline().internet,
                                     pipeline().outcomes);
  return instance;
}

TEST(CensusReport, EveryPrefixAttributed) {
  EXPECT_EQ(report().prefixes().size(), pipeline().outcomes.size());
  for (const PrefixReport& prefix : report().prefixes()) {
    EXPECT_NE(prefix.deployment, nullptr);
    EXPECT_GE(prefix.prefix_index, 0);
  }
}

TEST(CensusReport, AsAggregatesAreConsistent) {
  std::size_t total_prefixes = 0;
  for (const AsReport& as_report : report().ases()) {
    total_prefixes += as_report.detected_ip24;
    EXPECT_GT(as_report.mean_replicas, 0.0);
    EXPECT_GE(static_cast<double>(as_report.max_replicas),
              as_report.mean_replicas);
    EXPECT_LE(as_report.cities.size(),
              static_cast<std::size_t>(as_report.total_replicas));
  }
  EXPECT_EQ(total_prefixes, report().prefixes().size());
  // Sorted by decreasing footprint.
  const auto ases = report().ases();
  for (std::size_t i = 1; i < ases.size(); ++i) {
    EXPECT_GE(ases[i - 1].mean_replicas, ases[i].mean_replicas);
  }
}

TEST(CensusReport, GlanceRowsNest) {
  const GlanceRow all = report().glance_all();
  const GlanceRow top = report().glance_min_replicas(5);
  const GlanceRow caida = report().glance_caida_top100();
  const GlanceRow alexa = report().glance_alexa();
  EXPECT_GE(all.ip24, top.ip24);
  EXPECT_GE(all.ases, top.ases);
  EXPECT_GE(all.replicas, top.replicas);
  EXPECT_GE(all.ases, caida.ases);
  EXPECT_GE(all.ases, alexa.ases);
  EXPECT_GT(all.cities, 30u);
  EXPECT_GT(all.countries, 15u);
  // The CAIDA/Alexa intersections are small, as in Fig. 10.
  EXPECT_LE(caida.ases, 8u);
  EXPECT_LE(alexa.ases, 15u);
  EXPECT_GT(caida.ases, 0u);
  EXPECT_GT(alexa.ases, 5u);
}

TEST(CensusReport, CategoryBreakdownDominatedByDns) {
  const auto breakdown = report().category_breakdown();
  std::size_t total = 0;
  for (const auto& [category, count] : breakdown) total += count;
  ASSERT_GT(total, 0u);
  const auto dns = breakdown.find(net::Category::kDns);
  ASSERT_NE(dns, breakdown.end());
  // Fig. 11: DNS is the largest class, about a third of anycast ASes.
  const double share = static_cast<double>(dns->second) / total;
  EXPECT_GT(share, 0.2);
  EXPECT_LT(share, 0.55);
  for (const auto& [category, count] : breakdown) {
    EXPECT_LE(count, dns->second) << to_string(category);
  }
}

TEST(CensusReport, ByNameAndFootprintOrdering) {
  const AsReport* cloudflare = report().by_name("CLOUDFLARENET,US");
  ASSERT_NE(cloudflare, nullptr);
  EXPECT_GT(cloudflare->detected_ip24, 250u);  // most of its 328 /24s
  EXPECT_EQ(report().by_name("NOPE"), nullptr);
  // CloudFlare has the largest /24 footprint (Fig. 13).
  for (const AsReport& as_report : report().ases()) {
    EXPECT_LE(as_report.detected_ip24, cloudflare->detected_ip24);
  }
}

TEST(CensusReport, DataVectorsMatchCounts) {
  EXPECT_EQ(report().replicas_per_prefix().size(),
            report().prefixes().size());
  EXPECT_EQ(report().ip24_per_as().size(), report().ases().size());
}

// --- Validation ---------------------------------------------------------------

TEST(Validation, CloudflareMetricsInPaperBallpark) {
  const net::Deployment* cloudflare =
      pipeline().internet.deployment_by_name("CLOUDFLARENET,US");
  const ValidationMetrics metrics = validate_deployment(
      pipeline().internet, pipeline().vps, *cloudflare, report().prefixes());
  EXPECT_GT(metrics.evaluated_prefixes, 100u);
  // Fig. 7: TPR ~0.65-0.8; median error a few hundred km.
  EXPECT_GT(metrics.tpr, 0.45);
  EXPECT_LE(metrics.tpr, 1.0);
  EXPECT_GT(metrics.gt_over_pai, 0.3);
  EXPECT_LE(metrics.gt_over_pai, 1.0);
  if (metrics.misclassified_replicas > 0) {
    EXPECT_GT(metrics.median_error_km, 0.0);
    EXPECT_LT(metrics.median_error_km, 2000.0);
  }
}

TEST(Validation, NoPrefixesYieldsZeroedMetrics) {
  const net::Deployment* cloudflare =
      pipeline().internet.deployment_by_name("CLOUDFLARENET,US");
  const ValidationMetrics metrics = validate_deployment(
      pipeline().internet, pipeline().vps, *cloudflare, {});
  EXPECT_EQ(metrics.evaluated_prefixes, 0u);
  EXPECT_DOUBLE_EQ(metrics.tpr, 0.0);
}

}  // namespace
}  // namespace anycast::analysis
