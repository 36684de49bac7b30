#include "anycast/analysis/geojson.hpp"

#include <cstdio>

#include "anycast/ipaddr/ipv4.hpp"
#include "anycast/obs/metrics.hpp"

namespace anycast::analysis {
namespace {

void append_number(std::string& out, double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.4f", value);
  out += buffer;
}

void append_replica_feature(std::string& out, const core::Replica& replica,
                            std::string_view whois,
                            std::uint32_t slash24_index, bool& first) {
  if (!first) out += ",";
  first = false;
  out += "{\"type\":\"Feature\",\"geometry\":{\"type\":\"Point\","
         "\"coordinates\":[";
  append_number(out, replica.location.longitude());
  out += ",";
  append_number(out, replica.location.latitude());
  out += "]},\"properties\":{";
  out += "\"as\":\"";
  obs::append_json_escaped(out, whois);
  out += "\",";
  out += "\"prefix\":\"" +
         ipaddr::IPv4Address::from_slash24_index(slash24_index, 0)
             .to_string() +
         "/24\",";
  if (replica.city != nullptr) {
    out += "\"classified\":true,\"city\":\"";
    obs::append_json_escaped(out, replica.city->name);
    out += "\",\"country\":\"";
    obs::append_json_escaped(out, replica.city->country);
    out += "\",";
  } else {
    out += "\"classified\":false,";
  }
  out += "\"disk_radius_km\":";
  append_number(out, replica.disk.radius_km());
  out += "}}";
}

}  // namespace

std::string deployment_geojson(const CensusReport& report,
                               const AsReport& as_report) {
  std::string out = "{\"type\":\"FeatureCollection\",\"features\":[";
  bool first = true;
  for (const PrefixReport& prefix : report.prefixes()) {
    if (prefix.deployment != as_report.deployment) continue;
    for (const core::Replica& replica : prefix.result.replicas) {
      append_replica_feature(out, replica,
                             as_report.deployment->whois_name,
                             prefix.slash24_index, first);
    }
  }
  out += "]}";
  return out;
}

std::string census_geojson(const CensusReport& report) {
  std::string out = "{\"type\":\"FeatureCollection\",\"features\":[";
  bool first = true;
  for (const PrefixReport& prefix : report.prefixes()) {
    const std::string_view whois = prefix.deployment != nullptr
                                       ? prefix.deployment->whois_name
                                       : std::string_view("unknown");
    for (const core::Replica& replica : prefix.result.replicas) {
      append_replica_feature(out, replica, whois, prefix.slash24_index,
                             first);
    }
  }
  out += "]}";
  return out;
}

}  // namespace anycast::analysis
