#include "anycast/geo/city_index.hpp"

#include <algorithm>
#include <limits>

#include "anycast/geo/city_data.hpp"
#include "anycast/geodesy/geopoint.hpp"

namespace anycast::geo {

namespace {

// Kilometres per degree of latitude (constant on the sphere).
constexpr double kKmPerLatDegree = 111.195;

/// Slightly BELOW the true pi*R/180 = 111.19493 km/deg, so gap*floor is a
/// strict lower bound on any great-circle distance spanning that latitude
/// gap — safe for pruning rows in nearest().
constexpr double kKmPerLatDegreeFloor = 111.194;

/// Grid cell edge for the city table (~480 cities; 36x72 cells keeps rows
/// a handful of cities while staying coarse enough that typical latency
/// disks touch few rows).
constexpr double kCityCellDeg = 5.0;

}  // namespace

CityIndex::CityIndex() : CityIndex(world_cities()) {}

CityIndex::CityIndex(std::span<const City> cities) {
  by_latitude_.reserve(cities.size());
  for (const City& city : cities) by_latitude_.push_back(&city);
  std::sort(by_latitude_.begin(), by_latitude_.end(),
            [](const City* a, const City* b) {
              return a->latitude_deg < b->latitude_deg;
            });

  locations_.reserve(by_latitude_.size());
  units_.reserve(by_latitude_.size());
  name_map_.reserve(by_latitude_.size());
  for (const City* city : by_latitude_) {
    locations_.push_back(city->location());
    units_.push_back(geodesy::unit_vector(locations_.back()));
    // emplace keeps the first occurrence, so duplicate names resolve to
    // the same city the linear by_name scan finds.
    name_map_.emplace(city->name, city);
  }

  grid_ = geodesy::LatLonGrid(locations_, kCityCellDeg);
  slot_lat_deg_.resize(by_latitude_.size());
  slot_lon_deg_.resize(by_latitude_.size());
  for (std::size_t row = 0; row < grid_.rows(); ++row) {
    const std::size_t base = grid_.row_offset(row);
    const auto row_positions = grid_.row_indices(row);
    for (std::size_t k = 0; k < row_positions.size(); ++k) {
      slot_lat_deg_[base + k] = by_latitude_[row_positions[k]]->latitude_deg;
      slot_lon_deg_[base + k] = by_latitude_[row_positions[k]]->longitude_deg;
    }
  }
}

template <typename Visitor>
void CityIndex::visit_grid(const geodesy::Disk& disk, Visitor&& visit) const {
  // The grid visit is a superset of the within-radius set; membership must
  // then match the band scan exactly, which means reapplying BOTH of its
  // tests: the [lo, hi] latitude band (its 111.195 constant sits a hair
  // ABOVE the true km-per-degree, so the band very slightly undercovers
  // true containment — a contained city outside the band is excluded by
  // the scan and must be excluded here too) and the containment predicate
  // (chord-space with scalar fallback, bit-identical to Disk::contains).
  const double band_deg = disk.radius_km() / kKmPerLatDegree;
  const double lo = disk.center().latitude() - band_deg;
  const double hi = disk.center().latitude() + band_deg;
  const geodesy::Unit3 ucenter = geodesy::unit_vector(disk.center());
  const geodesy::CapTrig cap = geodesy::cap_trig(disk.radius_km());
  grid_.visit_within(
      disk.center(), disk.radius_km(), [&](std::uint32_t position) {
        const double lat = by_latitude_[position]->latitude_deg;
        if (lat < lo || lat > hi) return;
        if (geodesy::cap_contains(ucenter, units_[position], cap,
                                  disk.center(), locations_[position])) {
          visit(position);
        }
      });
}

std::vector<const City*> CityIndex::cities_in(
    const geodesy::Disk& disk) const {
  // The population sort below is unstable, so with tied populations its
  // result depends on the input sequence: feed it the band scan's exact
  // visit order, which is ascending by_latitude_ position.
  std::vector<std::uint32_t> positions;
  visit_grid(disk, [&](std::uint32_t position) { positions.push_back(position); });
  std::sort(positions.begin(), positions.end());
  std::vector<const City*> out;
  out.reserve(positions.size());
  for (const std::uint32_t position : positions) {
    out.push_back(by_latitude_[position]);
  }
  std::sort(out.begin(), out.end(), [](const City* a, const City* b) {
    return a->population > b->population;
  });
  return out;
}

const City* CityIndex::most_populated_in(const geodesy::Disk& disk) const {
  // The band scan keeps the FIRST maximum in ascending-latitude order
  // (strict >); order-free equivalent: lexicographic max of
  // (population, -position).
  std::uint32_t best_position = 0;
  const City* best = nullptr;
  visit_grid(disk, [&](std::uint32_t position) {
    const City* city = by_latitude_[position];
    if (best == nullptr || city->population > best->population ||
        (city->population == best->population && position < best_position)) {
      best = city;
      best_position = position;
    }
  });
  return best;
}

const City* CityIndex::nearest(const geodesy::GeoPoint& point) const {
  if (by_latitude_.empty()) return nullptr;
  // Expanding row search out from the point's latitude row. Each visited
  // row is scored with the batch haversine (bit-identical to the scalar
  // distance_km); the winner is the lexicographic minimum of
  // (distance, by_latitude_ position), which is what the linear scan's
  // strict `km < best` update over ascending positions returns. A row is
  // skipped only when its latitude gap alone — a strict lower bound on
  // every distance in the row, via the floor constant — beats the current
  // best strictly, so no potential winner (or tie) is ever pruned.
  thread_local std::vector<double> row_km;
  const std::size_t center_row = grid_.row_of(point.latitude());
  double best_km = std::numeric_limits<double>::infinity();
  std::uint32_t best_position = std::numeric_limits<std::uint32_t>::max();
  const City* best = nullptr;

  const auto row_bound_km = [&](std::size_t row) {
    double gap_deg = 0.0;
    if (point.latitude() < grid_.row_min_lat(row)) {
      gap_deg = grid_.row_min_lat(row) - point.latitude();
    } else if (point.latitude() > grid_.row_max_lat(row)) {
      gap_deg = point.latitude() - grid_.row_max_lat(row);
    }
    return gap_deg * kKmPerLatDegreeFloor;
  };

  const auto score_row = [&](std::size_t row) {
    const auto row_positions = grid_.row_indices(row);
    if (row_positions.empty()) return;
    const std::size_t base = grid_.row_offset(row);
    row_km.resize(row_positions.size());
    geodesy::batch_distance_km(
        point,
        std::span<const double>(slot_lat_deg_)
            .subspan(base, row_positions.size()),
        std::span<const double>(slot_lon_deg_)
            .subspan(base, row_positions.size()),
        row_km);
    for (std::size_t k = 0; k < row_positions.size(); ++k) {
      const double km = row_km[k];
      const std::uint32_t position = row_positions[k];
      if (km < best_km || (km == best_km && position < best_position)) {
        best_km = km;
        best_position = position;
        best = by_latitude_[position];
      }
    }
  };

  score_row(center_row);
  std::ptrdiff_t down = static_cast<std::ptrdiff_t>(center_row) - 1;
  std::size_t up = center_row + 1;
  bool down_alive = down >= 0;
  bool up_alive = up < grid_.rows();
  while (down_alive || up_alive) {
    if (down_alive) {
      const auto row = static_cast<std::size_t>(down);
      if (best != nullptr && row_bound_km(row) > best_km) {
        down_alive = false;  // gaps only grow further down
      } else {
        score_row(row);
        down_alive = --down >= 0;
      }
    }
    if (up_alive) {
      if (best != nullptr && row_bound_km(up) > best_km) {
        up_alive = false;  // gaps only grow further up
      } else {
        score_row(up);
        up_alive = ++up < grid_.rows();
      }
    }
  }
  return best;
}

const City* CityIndex::by_name(std::string_view name) const {
  const auto it = name_map_.find(name);
  return it == name_map_.end() ? nullptr : it->second;
}

const CityIndex& world_index() {
  static const CityIndex index;
  return index;
}

}  // namespace anycast::geo
