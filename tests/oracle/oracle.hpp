// Test oracles for the analysis kernel: the pre-kernel scalar
// implementations of every geometry step, kept verbatim so property tests
// and the bench_analysis_kernel duel can pin the shipped chord-space /
// bitset kernel to them bit for bit.
//
// This is a test-only target (anycast_oracle); nothing under src/ links
// or includes it. Every function here is deliberately naive — full
// pairwise sweeps, vector<vector<bool>> adjacency, hash-map collapse,
// latitude-band city scans — and must never be "optimised": the oracle's
// only job is to be obviously the algorithm of the paper (Sec. 2.1,
// Fig. 3). Any change here invalidates every equality test built on it.
#pragma once

#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

#include "anycast/analysis/analyzer.hpp"
#include "anycast/census/census.hpp"
#include "anycast/census/hitlist.hpp"
#include "anycast/census/sharded.hpp"
#include "anycast/core/igreedy.hpp"
#include "anycast/geo/city.hpp"
#include "anycast/geodesy/disk.hpp"
#include "anycast/geodesy/geopoint.hpp"
#include "anycast/net/types.hpp"

namespace anycast::oracle {

// ---- Maximum independent set (core::greedy_mis / exact_mis) ---------------

/// Greedy 5-approximation by increasing radius; scalar Disk::intersects.
std::vector<std::size_t> greedy_mis(std::span<const geodesy::Disk> disks);
/// Branch-and-bound over a vector<vector<bool>> intersection graph.
std::vector<std::size_t> exact_mis(std::span<const geodesy::Disk> disks);
/// Full O(n^2) pairwise disjointness sweep.
bool has_disjoint_pair(std::span<const geodesy::Disk> disks);

// ---- City queries (geo::CityIndex) ------------------------------------------

/// Latitude-band scans over the same cities a geo::CityIndex indexes.
/// Build it from the SAME span as the index under test: the latitude
/// order comes from the same std::sort over the same sequence, so tie
/// order (and the unstable population sort in cities_in) matches, and
/// returned pointers compare equal.
class CityScan {
 public:
  explicit CityScan(std::span<const geo::City> cities);

  /// Cities inside `disk`, in descending population order.
  [[nodiscard]] std::vector<const geo::City*> cities_in(
      const geodesy::Disk& disk) const;
  /// First most-populated city inside `disk` in ascending latitude order.
  [[nodiscard]] const geo::City* most_populated_in(
      const geodesy::Disk& disk) const;
  /// Latitude-pruned linear nearest-city scan.
  [[nodiscard]] const geo::City* nearest(const geodesy::GeoPoint& point) const;
  /// Linear scan by exact name (first in ascending latitude order).
  [[nodiscard]] const geo::City* by_name(std::string_view name) const;

 private:
  template <typename Visitor>  // Visitor(const geo::City&)
  void visit_band(const geodesy::Disk& disk, Visitor&& visit) const;

  std::vector<const geo::City*> by_latitude_;  // ascending latitude
};

// ---- Detection (analysis::CensusAnalyzer::detect) ---------------------------

/// Full pairwise detection sweep over one census row. VP-to-VP distances
/// come from a matrix filled exactly as the CensusAnalyzer constructor
/// fills its own (distance_km for i < j, mirrored), memoised per thread
/// for the current VP set.
bool detect_scan(std::span<const net::VantagePoint> vps,
                 std::span<const census::VpRtt> row, double max_rtt_ms);

// ---- iGreedy (core::IGreedy::analyze) ---------------------------------------

/// One census row as iGreedy measurements at the VPs' believed locations
/// (what CensusAnalyzer::analyze_row feeds IGreedy).
std::vector<core::Measurement> row_measurements(
    std::span<const net::VantagePoint> vps,
    std::span<const census::VpRtt> row);

/// The pre-kernel IGreedy::analyze: hash-map collapse, scalar
/// Disk::contains candidate filter, oracle MIS, oracle city scans.
core::Result igreedy_analyze(const CityScan& cities,
                             const core::Options& options,
                             std::span<const core::Measurement> measurements);

/// Serial census sweep: min-VP gate, detect_scan, igreedy_analyze on the
/// detected rows, keeping the anycast verdicts — the oracle for
/// CensusAnalyzer::analyze over any shard plane and thread count.
std::vector<analysis::TargetOutcome> analyze(
    std::span<const net::VantagePoint> vps, const CityScan& cities,
    const core::Options& options, const census::ShardedCensusMatrix& data,
    const census::Hitlist& hitlist, std::size_t min_vps = 2);

}  // namespace anycast::oracle
