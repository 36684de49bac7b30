// Scalar MIS solvers and latitude-band city scans: the pre-kernel code,
// verbatim (see oracle.hpp).
#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "oracle.hpp"

namespace anycast::oracle {

// ---- Maximum independent set ------------------------------------------------

namespace {

/// Adjacency as vector<vector<bool>>; instances beyond a few hundred
/// disks never reach the exact solver.
std::vector<std::vector<bool>> intersection_matrix(
    std::span<const geodesy::Disk> disks) {
  const std::size_t n = disks.size();
  std::vector<std::vector<bool>> adj(n, std::vector<bool>(n, false));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const bool overlap = disks[i].intersects(disks[j]);
      adj[i][j] = overlap;
      adj[j][i] = overlap;
    }
  }
  return adj;
}

struct BranchState {
  const std::vector<std::vector<bool>>* adj;
  std::vector<std::size_t> best;
  std::vector<std::size_t> current;

  void branch(std::vector<std::size_t>& candidates) {
    if (current.size() + candidates.size() <= best.size()) return;  // bound
    if (candidates.empty()) {
      if (current.size() > best.size()) best = current;
      return;
    }
    // Branch on the candidate with the most remaining conflicts first —
    // resolves dense cores early and tightens the bound.
    std::size_t pick_pos = 0;
    std::size_t max_degree = 0;
    for (std::size_t p = 0; p < candidates.size(); ++p) {
      std::size_t degree = 0;
      for (const std::size_t other : candidates) {
        if ((*adj)[candidates[p]][other]) ++degree;
      }
      if (degree >= max_degree) {
        max_degree = degree;
        pick_pos = p;
      }
    }
    const std::size_t pick = candidates[pick_pos];

    // Include `pick`.
    std::vector<std::size_t> reduced;
    reduced.reserve(candidates.size());
    for (const std::size_t other : candidates) {
      if (other != pick && !(*adj)[pick][other]) reduced.push_back(other);
    }
    current.push_back(pick);
    branch(reduced);
    current.pop_back();

    // Exclude `pick`.
    candidates.erase(candidates.begin() +
                     static_cast<std::ptrdiff_t>(pick_pos));
    branch(candidates);
  }
};

}  // namespace

std::vector<std::size_t> greedy_mis(std::span<const geodesy::Disk> disks) {
  std::vector<std::size_t> order(disks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return disks[a].radius_km() < disks[b].radius_km();
                   });
  std::vector<std::size_t> kept;
  for (const std::size_t candidate : order) {
    const bool clear = std::none_of(
        kept.begin(), kept.end(), [&](std::size_t held) {
          return disks[candidate].intersects(disks[held]);
        });
    if (clear) kept.push_back(candidate);
  }
  return kept;
}

std::vector<std::size_t> exact_mis(std::span<const geodesy::Disk> disks) {
  const auto adj = intersection_matrix(disks);
  BranchState state;
  state.adj = &adj;
  // Seed the bound with the greedy solution: exact can only improve on it.
  state.best = greedy_mis(disks);
  std::vector<std::size_t> candidates(disks.size());
  std::iota(candidates.begin(), candidates.end(), std::size_t{0});
  state.branch(candidates);
  std::sort(state.best.begin(), state.best.end());
  return state.best;
}

bool has_disjoint_pair(std::span<const geodesy::Disk> disks) {
  for (std::size_t i = 0; i < disks.size(); ++i) {
    for (std::size_t j = i + 1; j < disks.size(); ++j) {
      if (!disks[i].intersects(disks[j])) return true;
    }
  }
  return false;
}

// ---- City scans -------------------------------------------------------------

namespace {

// Kilometres per degree of latitude (constant on the sphere).
constexpr double kKmPerLatDegree = 111.195;

}  // namespace

CityScan::CityScan(std::span<const geo::City> cities) {
  // The same sort, comparator and input sequence as the CityIndex
  // constructor, so both see the same ascending-latitude order.
  by_latitude_.reserve(cities.size());
  for (const geo::City& city : cities) by_latitude_.push_back(&city);
  std::sort(by_latitude_.begin(), by_latitude_.end(),
            [](const geo::City* a, const geo::City* b) {
              return a->latitude_deg < b->latitude_deg;
            });
}

template <typename Visitor>
void CityScan::visit_band(const geodesy::Disk& disk, Visitor&& visit) const {
  // A disk of radius r km can only contain cities within r/111 degrees of
  // latitude of its centre; binary-search that band, then test exactly.
  const double band_deg = disk.radius_km() / kKmPerLatDegree;
  const double lo = disk.center().latitude() - band_deg;
  const double hi = disk.center().latitude() + band_deg;
  auto first = std::lower_bound(
      by_latitude_.begin(), by_latitude_.end(), lo,
      [](const geo::City* c, double v) { return c->latitude_deg < v; });
  for (; first != by_latitude_.end() && (*first)->latitude_deg <= hi;
       ++first) {
    if (disk.contains((*first)->location())) visit(**first);
  }
}

std::vector<const geo::City*> CityScan::cities_in(
    const geodesy::Disk& disk) const {
  std::vector<const geo::City*> out;
  visit_band(disk, [&](const geo::City& city) { out.push_back(&city); });
  std::sort(out.begin(), out.end(), [](const geo::City* a, const geo::City* b) {
    return a->population > b->population;
  });
  return out;
}

const geo::City* CityScan::most_populated_in(const geodesy::Disk& disk) const {
  const geo::City* best = nullptr;
  visit_band(disk, [&](const geo::City& city) {
    if (best == nullptr || city.population > best->population) best = &city;
  });
  return best;
}

const geo::City* CityScan::nearest(const geodesy::GeoPoint& point) const {
  const geo::City* best = nullptr;
  double best_km = std::numeric_limits<double>::infinity();
  for (const geo::City* city : by_latitude_) {
    // Latitude pruning: if even the latitude difference alone exceeds the
    // best distance so far, the city cannot win.
    const double lat_gap_km =
        std::abs(city->latitude_deg - point.latitude()) * kKmPerLatDegree;
    if (lat_gap_km >= best_km) continue;
    const double km = geodesy::distance_km(city->location(), point);
    if (km < best_km) {
      best_km = km;
      best = city;
    }
  }
  return best;
}

const geo::City* CityScan::by_name(std::string_view name) const {
  for (const geo::City* city : by_latitude_) {
    if (city->name == name) return city;
  }
  return nullptr;
}

}  // namespace anycast::oracle
