// Spatial queries over the city table.
//
// The geolocation step repeatedly asks "which cities lie inside this disk,
// and which has the largest population?". The index buckets cities into a
// 2D latitude/longitude grid (geodesy::LatLonGrid, the same pruning
// structure the MIS adjacency build uses) with per-city unit vectors
// precomputed, so a disk query visits only the cells the disk can reach
// and tests each candidate in chord space — no per-city trigonometry.
// Name lookup is a hash map; nearest() is an expanding row search over
// the grid scored with the batch haversine.
//
// Every query keeps the exact semantics of the original latitude-band
// scan, including its tie-breaking and its band arithmetic. That scan
// lives on as the test-only oracle::CityScan (tests/oracle), which
// kernel_test and bench_analysis_kernel pin these queries to.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "anycast/geo/city.hpp"
#include "anycast/geodesy/chord.hpp"
#include "anycast/geodesy/disk.hpp"
#include "anycast/geodesy/grid.hpp"

namespace anycast::geo {

/// Immutable spatial index over a set of cities.
class CityIndex {
 public:
  /// Indexes the given cities (views must outlive the index). The default
  /// constructor indexes the embedded world table.
  CityIndex();
  explicit CityIndex(std::span<const City> cities);

  /// All cities whose centre lies inside `disk`, in descending population
  /// order.
  [[nodiscard]] std::vector<const City*> cities_in(
      const geodesy::Disk& disk) const;

  /// The most populated city inside `disk` — the paper's geolocation
  /// criterion ("picking the largest city in that disk"). Nullptr when the
  /// disk holds no known city.
  [[nodiscard]] const City* most_populated_in(const geodesy::Disk& disk) const;

  /// The city nearest to `point` (nullptr only for an empty index).
  /// Used to resolve simulator sites and to score geolocation error.
  [[nodiscard]] const City* nearest(const geodesy::GeoPoint& point) const;

  /// Case-sensitive lookup by exact name; nullptr when absent. Duplicate
  /// names resolve to the same city the original linear scan found (the
  /// first in ascending-latitude order).
  [[nodiscard]] const City* by_name(std::string_view name) const;

  [[nodiscard]] std::size_t size() const { return by_latitude_.size(); }

 private:
  /// Grid-pruned candidate sweep with the band scan's exact membership
  /// test (band arithmetic + chord-space contains with scalar fallback).
  /// Visits positions into by_latitude_, unordered.
  template <typename Visitor>  // Visitor(std::uint32_t position)
  void visit_grid(const geodesy::Disk& disk, Visitor&& visit) const;

  std::vector<const City*> by_latitude_;  // ascending latitude

  // Kernel caches, all aligned with by_latitude_ positions.
  std::vector<geodesy::GeoPoint> locations_;
  std::vector<geodesy::Unit3> units_;
  geodesy::LatLonGrid grid_;
  // SoA coordinates in grid-slot order (grid_.row_indices interleaves with
  // these by slot), for batch-haversine scoring in nearest().
  std::vector<double> slot_lat_deg_;
  std::vector<double> slot_lon_deg_;
  std::unordered_map<std::string_view, const City*> name_map_;
};

/// Process-wide index over the embedded world-city table.
const CityIndex& world_index();

}  // namespace anycast::geo
