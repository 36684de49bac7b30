// GeoJSON export of census results.
//
// The paper publishes its census as a browsable map with per-deployment
// and aggregated visualisations (ref [21], Figs. 5/10). This module
// serialises analysis output into standard GeoJSON FeatureCollections that
// any web map renders directly: one Feature per geolocated replica, with
// deployment metadata in `properties`.
#pragma once

#include <string>

#include "anycast/analysis/report.hpp"

namespace anycast::analysis {

/// One deployment's replicas as a FeatureCollection (the Fig. 5-style
/// per-deployment view). Replicas lacking a city classification export
/// their disk centre with "classified": false.
std::string deployment_geojson(const CensusReport& report,
                               const AsReport& as_report);

/// The whole census as a FeatureCollection of replica points, each tagged
/// with its AS and /24 (the Fig. 10-style aggregated density view).
std::string census_geojson(const CensusReport& report);

}  // namespace anycast::analysis
