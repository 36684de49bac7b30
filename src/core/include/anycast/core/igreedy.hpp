// iGreedy: anycast detection, enumeration, and geolocation from latency.
//
// Implements the analysis technique of the paper (Sec. 2.1, Fig. 3, after
// Cicalese et al., INFOCOM'15 [17]):
//   (a) map each per-VP minimum RTT to a disk around the VP;
//   (b) DETECT anycast when two disks are disjoint (speed-of-light
//       violation — no single point can satisfy both measurements);
//   (c) ENUMERATE replicas as a Maximum Independent Set of disks, solved
//       greedily by increasing radius (5-approximation);
//   (d) GEOLOCATE each MIS disk with a maximum-likelihood classifier
//       biased toward city population — in practice, the largest city in
//       the disk (≈75% city-level accuracy per the paper);
//   (e) ITERATE: collapse geolocated disks onto their city and re-solve,
//       which frees space for more disks and raises recall, until the
//       replica set converges.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "anycast/core/mis.hpp"
#include "anycast/geo/city_index.hpp"
#include "anycast/geodesy/disk.hpp"
#include "anycast/geodesy/geopoint.hpp"

namespace anycast::core {

/// One latency observation: the (believed) position of the vantage point
/// and the minimum RTT it measured toward the target.
struct Measurement {
  std::uint32_t vp_id = 0;
  geodesy::GeoPoint vp_location;
  double rtt_ms = 0.0;
};

/// One discovered replica.
struct Replica {
  geodesy::Disk disk;              // the MIS disk that isolated it
  std::uint32_t vp_id = 0;         // VP whose disk this is
  const geo::City* city = nullptr; // classification (nullptr: no city known
                                   // inside the disk)
  geodesy::GeoPoint location;      // city centre, or disk centre fallback
};

struct Result {
  bool anycast = false;          // detection verdict
  std::vector<Replica> replicas; // enumeration + geolocation (>=1 if any
                                 // measurement was usable)
  int iterations = 0;            // iGreedy rounds until convergence
  std::size_t usable_measurements = 0;
  /// Size of the first-round MIS: pairwise-disjoint disks, each provably
  /// holding a distinct replica — the strict conservative lower bound.
  /// Later rounds raise recall but inherit classification error, so
  /// `replicas.size() >= first_round_replicas` with no upper guarantee.
  std::size_t first_round_replicas = 0;
};

/// Geolocation policy, for the ablation bench: the paper's population
/// bias versus naive alternatives.
enum class CityPolicy {
  kLargestPopulation,  // the paper's classifier
  kNearestToCenter,    // closest city to the VP (pure proximity)
  kNone,               // keep disk centres (no side channel)
};

struct Options {
  int max_iterations = 16;
  /// Measurements above this RTT produce near-useless disks covering most
  /// of the planet; the paper discards them. 300 ms one-way ~ antipodal.
  double max_rtt_ms = 600.0;
  /// Use the exact branch-and-bound MIS instead of the greedy
  /// 5-approximation (validation/ablation only — exponential worst case).
  bool exact_enumeration = false;
  CityPolicy city_policy = CityPolicy::kLargestPopulation;
};

/// The analysis engine. Stateless apart from configuration; one instance
/// can process millions of targets (the paper: ~0.1 s per target, ~3 h for
/// a census). Every geometry step runs on the chord-space/bitset kernel
/// (dense per-VP collapse, chord-space containment, mis.hpp solvers,
/// grid-indexed city queries). The pre-kernel scalar driver is the
/// test-only oracle::igreedy_analyze (tests/oracle); kernel_test pins
/// analyze() to it field for field, coordinates bit for bit.
class IGreedy {
 public:
  explicit IGreedy(const geo::CityIndex& cities, Options options = {})
      : cities_(&cities), options_(options) {}

  /// Full pipeline on one target's measurements. Multiple measurements
  /// from the same VP are collapsed to their minimum RTT first (the
  /// combination step of Sec. 4.1 at single-census granularity).
  [[nodiscard]] Result analyze(std::span<const Measurement> measurements) const;

  /// Detection only — the cheap O(n^2) disjointness test, no enumeration.
  [[nodiscard]] static bool detect(std::span<const Measurement> measurements,
                                   double max_rtt_ms = 600.0);

  [[nodiscard]] const Options& options() const { return options_; }

 private:
  std::vector<geodesy::Disk> make_disks(
      std::span<const Measurement> measurements,
      std::vector<std::uint32_t>* vp_ids) const;
  Replica geolocate(const geodesy::Disk& disk, std::uint32_t vp_id) const;

  const geo::CityIndex* cities_;
  Options options_;
};

}  // namespace anycast::core
