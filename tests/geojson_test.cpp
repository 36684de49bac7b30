#include <gtest/gtest.h>

#include "anycast/analysis/geojson.hpp"
#include "anycast/geo/city_index.hpp"
#include "anycast/obs/metrics.hpp"

namespace anycast::analysis {
namespace {

/// The project's one JSON string escaper, as a value-returning helper.
std::string json_escape(std::string_view text) {
  std::string out;
  obs::append_json_escaped(out, text);
  return out;
}

TEST(JsonEscape, HandlesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
  EXPECT_EQ(json_escape("tab\tcr\r"), "tab\\tcr\\r");
  EXPECT_EQ(json_escape(std::string_view("\x1f\x7f", 2)), "\\u001f\x7f");
}

std::vector<TargetOutcome> sample_outcomes() {
  const geo::City* london = geo::world_index().by_name("London");
  const geo::City* tokyo = geo::world_index().by_name("Tokyo");
  TargetOutcome outcome;
  outcome.slash24_index = 104u << 16;
  outcome.result.anycast = true;
  core::Replica r1;
  r1.city = london;
  r1.location = london->location();
  r1.disk = geodesy::Disk(london->location(), 120.0);
  core::Replica r2;
  r2.city = tokyo;
  r2.location = tokyo->location();
  r2.disk = geodesy::Disk(tokyo->location(), 90.0);
  core::Replica r3;  // unclassified replica
  r3.city = nullptr;
  r3.location = geodesy::GeoPoint(10.0, 20.0);
  r3.disk = geodesy::Disk(r3.location, 500.0);
  outcome.result.replicas = {r1, r2, r3};
  return {outcome};
}

TEST(Geojson, CensusExportIsWellFormedFeatureCollection) {
  net::WorldConfig config;
  config.unicast_alive_slash24 = 10;
  config.unicast_dead_slash24 = 10;
  const net::SimulatedInternet internet(config);
  const CensusReport report(internet, sample_outcomes());
  const std::string json = census_geojson(report);
  EXPECT_TRUE(json.starts_with(
      "{\"type\":\"FeatureCollection\",\"features\":["));
  EXPECT_TRUE(json.ends_with("]}"));
  // One feature per replica.
  std::size_t features = 0;
  for (std::size_t at = json.find("\"Feature\"");
       at != std::string::npos; at = json.find("\"Feature\"", at + 1)) {
    ++features;
  }
  EXPECT_EQ(features, 3u);
  EXPECT_NE(json.find("\"city\":\"London\""), std::string::npos);
  EXPECT_NE(json.find("\"city\":\"Tokyo\""), std::string::npos);
  EXPECT_NE(json.find("\"classified\":false"), std::string::npos);
  EXPECT_NE(json.find("\"prefix\":\"104.0.0.0/24\""), std::string::npos);
  // Balanced braces (cheap well-formedness check).
  long depth = 0;
  for (const char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(Geojson, DeploymentExportFiltersByAs) {
  net::WorldConfig config;
  config.unicast_alive_slash24 = 10;
  config.unicast_dead_slash24 = 10;
  const net::SimulatedInternet internet(config);
  const CensusReport report(internet, sample_outcomes());
  ASSERT_FALSE(report.ases().empty());
  const AsReport& as_report = report.ases().front();
  const std::string json = deployment_geojson(report, as_report);
  EXPECT_NE(json.find(json_escape(as_report.deployment->whois_name)),
            std::string::npos);
  EXPECT_TRUE(json.starts_with("{\"type\":\"FeatureCollection\""));
}

TEST(Geojson, CoordinatesAreLonLatOrder) {
  net::WorldConfig config;
  config.unicast_alive_slash24 = 10;
  config.unicast_dead_slash24 = 10;
  const net::SimulatedInternet internet(config);
  const CensusReport report(internet, sample_outcomes());
  const std::string json = census_geojson(report);
  // London: lon -0.13, lat 51.51 — GeoJSON mandates [lon, lat].
  EXPECT_NE(json.find("[-0.1300,51.5100]"), std::string::npos);
}

}  // namespace
}  // namespace anycast::analysis
