// Geography-consistent census generator for the paper-scale stages.
//
// The paper's census is a 6.6M-/24 hitlist probed from ~300 PlanetLab
// VPs, with ~1.7k anycast /24s among them. Probing that for real costs
// hours, so the generated census stage builds the per-VP row fragments
// directly, with RTTs that obey the same geometry the simulator's prober
// would measure:
//
//   rtt = distance_to_min_rtt_ms(great-circle km) x (1 + lognormal stretch)
//         + VP access + target access
//
// using the net::WorldConfig RTT model (stretch mu/sigma, access maxima).
// A unicast /24 sits in one city of the embedded city table; an anycast
// /24 is one (deployment, prefix) of the simulator's catalog and answers
// each VP from the nearest of the sites that announce it. Because every
// RTT is at least the propagation delay to a real location, a unicast row
// can never violate the speed of light, so detection has a known ground
// truth: recall and precision are measured against it.
//
// A census row holds only the VPs that answered. Each unicast /24 answers
// a seeded share of the VPs (`unicast_density`), each anycast /24 a larger
// share (kAnycastDensity); the real census has rows of ~250 VPs, which
// at 6.6M rows would need tens of GB.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "anycast/census/census.hpp"
#include "anycast/census/hitlist.hpp"
#include "anycast/census/sharded.hpp"
#include "anycast/geodesy/geopoint.hpp"
#include "anycast/net/internet.hpp"

namespace anycast::concurrency {
class ThreadPool;
}

namespace perfbench {

/// Hitlist size: the paper's 6.6M /24s.
constexpr std::size_t kTargets = 6'600'000;
/// PlanetLab-like platform size.
constexpr std::size_t kVps = 300;
/// Share of VPs answering an anycast /24.
constexpr double kAnycastDensity = 0.85;

struct GeneratorConfig {
  std::uint64_t seed = 1;
  double unicast_density = 0.05;  // share of VPs answering a unicast /24
};

class CensusGenerator {
 public:
  explicit CensusGenerator(const GeneratorConfig& config);

  [[nodiscard]] const std::vector<anycast::net::VantagePoint>& vps() const {
    return vps_;
  }
  [[nodiscard]] const anycast::census::Hitlist& hitlist() const {
    return hitlist_;
  }
  /// Ground truth: hitlist indices of the anycast /24s, ascending.
  [[nodiscard]] std::span<const std::uint32_t> anycast_targets() const {
    return anycast_targets_;
  }
  /// Ground truth as a per-target flag vector.
  [[nodiscard]] const std::vector<bool>& truth() const { return is_anycast_; }

  /// VP `vp`'s row fragment: per-target minimum RTTs, ascending target
  /// index — the shape vp_row_fragment hands the census reduction.
  [[nodiscard]] std::vector<anycast::census::TargetRtt> fragment(
      std::size_t vp) const;

  /// Every VP's fragment, generated across the pool's lanes.
  [[nodiscard]] std::vector<std::vector<anycast::census::TargetRtt>>
  fragments(anycast::concurrency::ThreadPool& pool) const;

  /// One churn round: ~targets/256 /24s (drawn from `round`) are
  /// re-measured over re-routed paths from the same locations, and one in
  /// a thousand churned unicast /24s also answers from a second city. The
  /// new RTTs come back as a matrix to fold into the previous round with
  /// combine_min, so a row changes wherever a new path is faster.
  [[nodiscard]] anycast::census::ShardedCensusMatrix churn(
      std::uint64_t round, const anycast::census::DataPlaneConfig& plane) const;

 private:
  struct AnycastSite {
    anycast::geodesy::GeoPoint location;
  };

  /// RTT over the path named by (vp, target, path_salt); a fresh salt is
  /// a re-routed path with a new stretch draw.
  [[nodiscard]] double rtt_ms(std::size_t vp, std::uint32_t target,
                              double propagation_ms,
                              std::uint64_t path_salt = 0) const;
  [[nodiscard]] double anycast_rtt_ms(std::size_t vp, std::size_t slot,
                                      std::uint64_t path_salt = 0) const;

  GeneratorConfig config_;
  anycast::net::WorldConfig world_;  // RTT-model constants
  std::unique_ptr<anycast::net::SimulatedInternet> catalog_;
  std::vector<anycast::net::VantagePoint> vps_;
  anycast::census::Hitlist hitlist_;
  std::vector<std::uint32_t> anycast_targets_;
  std::vector<bool> is_anycast_;
  // Anycast slot k (the k-th anycast target) answers from these sites.
  std::vector<std::vector<AnycastSite>> anycast_sites_;
  // Propagation-only min RTT from VP v to city c: vp_city_ms_[v * C + c].
  std::vector<float> vp_city_ms_;
  std::size_t city_count_ = 0;
  std::vector<double> vp_access_ms_;
  static constexpr std::size_t kStretchLevels = 4096;
  std::vector<double> stretch_;  // path-stretch quantiles
};

}  // namespace perfbench
