// Scalar detection sweep and the pre-kernel iGreedy driver (see
// oracle.hpp).
#include <algorithm>
#include <unordered_map>

#include "oracle.hpp"

namespace anycast::oracle {
namespace {

/// The CensusAnalyzer constructor's VP-to-VP distance matrix for one VP
/// set, kept per thread and rebuilt whenever the believed locations
/// differ from the last call's.
struct VpDistances {
  std::vector<geodesy::GeoPoint> locations;
  std::vector<double> km;  // dense vp x vp

  const std::vector<double>& for_vps(std::span<const net::VantagePoint> vps) {
    bool same = locations.size() == vps.size();
    for (std::size_t i = 0; same && i < vps.size(); ++i) {
      same = locations[i].latitude() == vps[i].believed_location.latitude() &&
             locations[i].longitude() == vps[i].believed_location.longitude();
    }
    if (same) return km;
    locations.clear();
    for (const net::VantagePoint& vp : vps) {
      locations.push_back(vp.believed_location);
    }
    km.assign(vps.size() * vps.size(), 0.0);
    for (std::size_t i = 0; i < vps.size(); ++i) {
      for (std::size_t j = i + 1; j < vps.size(); ++j) {
        const double d = geodesy::distance_km(vps[i].believed_location,
                                              vps[j].believed_location);
        km[i * vps.size() + j] = d;
        km[j * vps.size() + i] = d;
      }
    }
    return km;
  }
};

/// Collapse to one disk per VP at its minimum RTT (hash map + sort by VP
/// id). Tie RTTs keep the first measurement seen.
std::vector<geodesy::Disk> make_disks_map(
    std::span<const core::Measurement> measurements, double max_rtt_ms,
    std::vector<std::uint32_t>* vp_ids) {
  std::unordered_map<std::uint32_t, core::Measurement> best;
  best.reserve(measurements.size());
  for (const core::Measurement& m : measurements) {
    if (m.rtt_ms <= 0.0 || m.rtt_ms > max_rtt_ms) continue;
    const auto [it, inserted] = best.emplace(m.vp_id, m);
    if (!inserted && m.rtt_ms < it->second.rtt_ms) it->second = m;
  }
  std::vector<geodesy::Disk> disks;
  disks.reserve(best.size());
  vp_ids->clear();
  vp_ids->reserve(best.size());
  // Deterministic order (by VP id) regardless of hash-map iteration.
  std::vector<const core::Measurement*> ordered;
  ordered.reserve(best.size());
  for (const auto& [id, m] : best) ordered.push_back(&m);
  std::sort(ordered.begin(), ordered.end(),
            [](const core::Measurement* a, const core::Measurement* b) {
              return a->vp_id < b->vp_id;
            });
  for (const core::Measurement* m : ordered) {
    disks.push_back(geodesy::Disk::from_rtt(m->vp_location, m->rtt_ms));
    vp_ids->push_back(m->vp_id);
  }
  return disks;
}

core::Replica geolocate(const CityScan& cities, const core::Options& options,
                        const geodesy::Disk& disk, std::uint32_t vp_id) {
  core::Replica replica;
  replica.disk = disk;
  replica.vp_id = vp_id;
  replica.location = disk.center();
  switch (options.city_policy) {
    case core::CityPolicy::kLargestPopulation:
      replica.city = cities.most_populated_in(disk);
      break;
    case core::CityPolicy::kNearestToCenter: {
      const geo::City* nearest = cities.nearest(disk.center());
      if (nearest != nullptr && disk.contains(nearest->location())) {
        replica.city = nearest;
      }
      break;
    }
    case core::CityPolicy::kNone:
      break;
  }
  if (replica.city != nullptr) replica.location = replica.city->location();
  return replica;
}

}  // namespace

bool detect_scan(std::span<const net::VantagePoint> vps,
                 std::span<const census::VpRtt> row, double max_rtt_ms) {
  thread_local VpDistances distances;
  const std::vector<double>& vp_distance_km = distances.for_vps(vps);
  // Radii from the per-VP minimum RTTs; a pair of VPs whose mutual
  // distance exceeds the radius sum cannot both contain the target.
  thread_local std::vector<double> radii;
  radii.clear();
  radii.reserve(row.size());
  for (const census::VpRtt& sample : row) {
    radii.push_back(sample.rtt_ms <= max_rtt_ms
                        ? geodesy::rtt_to_radius_km(sample.rtt_ms)
                        : -1.0);
  }
  const std::size_t n = row.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (radii[i] < 0.0) continue;
    const double* distance_row = &vp_distance_km[row[i].vp * vps.size()];
    for (std::size_t j = i + 1; j < n; ++j) {
      if (radii[j] < 0.0) continue;
      if (distance_row[row[j].vp] > radii[i] + radii[j]) return true;
    }
  }
  return false;
}

std::vector<core::Measurement> row_measurements(
    std::span<const net::VantagePoint> vps,
    std::span<const census::VpRtt> row) {
  std::vector<core::Measurement> measurements;
  measurements.reserve(row.size());
  for (const census::VpRtt& sample : row) {
    core::Measurement m;
    m.vp_id = sample.vp;
    m.vp_location = vps[sample.vp].believed_location;
    m.rtt_ms = sample.rtt_ms;
    measurements.push_back(m);
  }
  return measurements;
}

core::Result igreedy_analyze(const CityScan& cities,
                             const core::Options& options,
                             std::span<const core::Measurement> measurements) {
  core::Result result;
  std::vector<std::uint32_t> vp_ids;
  const std::vector<geodesy::Disk> disks =
      make_disks_map(measurements, options.max_rtt_ms, &vp_ids);
  result.usable_measurements = disks.size();
  if (disks.empty()) return result;

  result.anycast = has_disjoint_pair(disks);
  if (!result.anycast) {
    // Unicast: latency geolocation in the smallest disk.
    std::size_t smallest = 0;
    for (std::size_t i = 1; i < disks.size(); ++i) {
      if (disks[i].radius_km() < disks[smallest].radius_km()) smallest = i;
    }
    result.replicas.push_back(
        geolocate(cities, options, disks[smallest], vp_ids[smallest]));
    result.first_round_replicas = 1;
    return result;
  }

  std::vector<core::Replica> fixed;
  std::vector<char> consumed(disks.size(), 0);
  for (int round = 0; round < options.max_iterations; ++round) {
    // Unconsumed disks not already explained by a collapsed replica.
    std::vector<std::size_t> candidates;
    for (std::size_t idx = 0; idx < disks.size(); ++idx) {
      if (consumed[idx] != 0) continue;
      const bool explained = std::any_of(
          fixed.begin(), fixed.end(), [&](const core::Replica& replica) {
            return disks[idx].contains(replica.location);
          });
      if (!explained) candidates.push_back(idx);
    }
    if (candidates.empty()) break;

    std::vector<geodesy::Disk> candidate_disks;
    candidate_disks.reserve(candidates.size());
    for (const std::size_t idx : candidates) {
      candidate_disks.push_back(disks[idx]);
    }
    const std::vector<std::size_t> picked =
        options.exact_enumeration ? exact_mis(candidate_disks)
                                  : greedy_mis(candidate_disks);
    if (picked.empty()) break;
    if (round == 0) result.first_round_replicas = picked.size();

    // Geolocate this round's disks and collapse them onto their cities.
    bool progress = false;
    for (const std::size_t p : picked) {
      const std::size_t idx = candidates[p];
      core::Replica replica =
          geolocate(cities, options, disks[idx], vp_ids[idx]);
      const bool duplicate = std::any_of(
          fixed.begin(), fixed.end(), [&](const core::Replica& existing) {
            return existing.city != nullptr && existing.city == replica.city;
          });
      if (!duplicate || replica.city == nullptr) {
        fixed.push_back(replica);
        progress = true;
      }
      consumed[idx] = 1;
    }
    ++result.iterations;
    if (!progress) break;
  }
  result.replicas = std::move(fixed);
  return result;
}

std::vector<analysis::TargetOutcome> analyze(
    std::span<const net::VantagePoint> vps, const CityScan& cities,
    const core::Options& options, const census::ShardedCensusMatrix& data,
    const census::Hitlist& hitlist, std::size_t min_vps) {
  std::vector<analysis::TargetOutcome> out;
  const std::size_t targets = std::min(data.target_count(), hitlist.size());
  for (std::size_t t = 0; t < targets; ++t) {
    const auto row = data.measurements(static_cast<std::uint32_t>(t));
    if (row.size() < min_vps) continue;
    if (!detect_scan(vps, row, options.max_rtt_ms)) continue;
    analysis::TargetOutcome outcome;
    outcome.target_index = static_cast<std::uint32_t>(t);
    outcome.slash24_index = hitlist[t].representative.slash24_index();
    outcome.result =
        igreedy_analyze(cities, options, row_measurements(vps, row));
    if (outcome.result.anycast) out.push_back(std::move(outcome));
  }
  return out;
}

}  // namespace anycast::oracle
