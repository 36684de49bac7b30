// The simulated IPv4 Internet.
//
// Builds a world from the deployment catalog: anycast deployments with
// replica sites placed in PoP cities, a unicast background population, and
// dead address space. Answers probes with BGP-like nearest-replica routing
// and a realistic RTT model (propagation at 2/3 c, deterministic per-path
// inflation, per-probe jitter, loss). The census pipeline and iGreedy see
// only (VP, target, protocol) -> ProbeReply, exactly the interface the real
// Internet gave the paper's fastping prober.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "anycast/geodesy/geopoint.hpp"
#include "anycast/ipaddr/ipv4.hpp"
#include "anycast/ipaddr/prefix_table.hpp"
#include "anycast/net/catalog.hpp"
#include "anycast/net/types.hpp"
#include "anycast/rng/random.hpp"

namespace anycast::net {

/// World-building parameters. Defaults produce a 1:66-scale universe
/// (~100k routed /24s vs the paper's 6.6M) with the paper's anycast
/// population at full size, so anycast-side statistics are directly
/// comparable while unicast-side counts scale linearly.
struct WorldConfig {
  std::uint64_t seed = 1;

  // Anycast side (full size by default; see catalog.hpp).
  int tail_as_count = 246;
  int tail_ip24_total = 799;

  // Unicast background: routed-and-alive, routed-but-silent (the hitlist
  // still carries them with a positive score, but nothing answers — why
  // "less than half send a reply" in Fig. 4), and confirmed-dead /24s
  // (hitlist score <= -2, dropped after the first census).
  std::uint32_t unicast_alive_slash24 = 47000;
  std::uint32_t unicast_silent_slash24 = 0;
  std::uint32_t unicast_dead_slash24 = 51000;

  // Fraction of alive unicast targets whose routers return prohibited
  // ICMP errors instead of echo replies (greylist feed, Sec. 3.3).
  double prohibited_fraction = 0.022;

  // RTT model.
  double vp_access_ms_max = 1.5;      // last-mile at the vantage point
  double target_access_ms_max = 2.0;  // last-mile at the target
  double inflation_sigma = 0.18;      // lognormal sigma of path stretch
  double inflation_mu = 0.22;         // lognormal mu (mean stretch ~1.27)
  double jitter_mean_ms = 0.4;        // per-probe queueing jitter
  double spike_probability = 0.01;    // occasional congestion spikes
  double spike_mean_ms = 25.0;
  double base_loss = 0.008;           // per-probe loss floor

  // BGP catchment imperfection: replica choice minimises
  // distance x (1 + bgp_detour_spread x U) with U deterministic per
  // (VP, AS, site); larger values mean worse user-replica mapping.
  double bgp_detour_spread = 0.35;

  // Fraction of replica sites that are poorly peered ("local-only"): their
  // catchment score is multiplied by `local_site_penalty`, so only nearby
  // VPs reach them. This is what makes a sparse platform's footprint
  // conservative (Fig. 5: PlanetLab sees 21 Microsoft replicas, RIPE 54).
  double local_site_fraction = 0.5;
  double local_site_penalty = 12.0;
};

/// What a /24-granularity target really is (ground truth for validation).
struct TargetInfo {
  enum class Kind { kAnycast, kUnicast, kDead };
  Kind kind = Kind::kDead;
  std::uint32_t slash24_index = 0;  // dense /24 index of the prefix
  // Anycast targets:
  std::int32_t deployment_index = -1;
  std::int32_t prefix_index = -1;
  // Unicast targets:
  geodesy::GeoPoint unicast_location;
  bool alive = true;
  ReplyKind error_kind = ReplyKind::kEchoReply;  // != kEchoReply when the
                                                 // path answers with an
                                                 // ICMP prohibition
  bool unicast_web = false;  // answers TCP/80
  bool unicast_dns = false;  // answers port 53 / DNS queries
};

/// The simulated Internet. Its const members — `probe`, `catchment` and
/// the lookups — only read the world, so any number of threads may call
/// them at once: the census runs `probe` on every lane of its pool. The
/// one mutator, `set_prefix_site_mask`, must not overlap any of them.
class SimulatedInternet {
 public:
  /// Probes from one VP, remembering what stays constant across its
  /// walk: the VP's access delay, and the replica site it reaches per
  /// (deployment, announcement mask). Keyed by the mask *value*, so a
  /// `set_prefix_site_mask` between two probes can never make it serve a
  /// stale site. Holds references to the world and the VP, so it must not
  /// outlive either; not thread-safe: each walk owns one.
  class VpProber {
   public:
    VpProber(const SimulatedInternet& internet, const VantagePoint& vp);

    /// `SimulatedInternet::probe` to an already resolved target
    /// (`target_for`'s answer; nullptr times out like an unrouted
    /// address): the same reply and the same draws from `gen`.
    [[nodiscard]] ProbeReply probe(const TargetInfo* target,
                                   Protocol protocol, rng::Xoshiro256& gen,
                                   double extra_drop_probability = 0.0);

   private:
    struct CatchmentKey {
      std::uint64_t mask;
      std::size_t deployment;
      bool operator==(const CatchmentKey&) const = default;
    };
    struct CatchmentKeyHash {
      std::size_t operator()(const CatchmentKey& key) const {
        return std::hash<std::uint64_t>{}(
            key.mask ^ (key.deployment * 0x9E3779B97F4A7C15ull));
      }
    };

    const SimulatedInternet& internet_;
    const VantagePoint& vp_;
    double vp_access_ms_;
    std::unordered_map<CatchmentKey, const ReplicaSite*, CatchmentKeyHash>
        catchments_;
  };

  explicit SimulatedInternet(const WorldConfig& config = {});

  [[nodiscard]] const WorldConfig& config() const { return config_; }
  [[nodiscard]] std::span<const Deployment> deployments() const {
    return deployments_;
  }
  [[nodiscard]] const Deployment* deployment_by_name(
      std::string_view whois) const;

  /// Every routed /24 in the world (anycast + unicast + dead), in address
  /// order: the raw material for the hitlist.
  [[nodiscard]] std::span<const TargetInfo> targets() const {
    return targets_;
  }
  [[nodiscard]] const TargetInfo* target_for(ipaddr::IPv4Address addr) const;

  /// The announced-prefix table (deployment prefixes are announced as the
  /// aggregates they form; unicast /24s individually), for the a-posteriori
  /// /24 -> origin-AS mapping of Sec. 3.1.
  [[nodiscard]] const ipaddr::PrefixTable& route_table() const {
    return route_table_;
  }

  /// Sends one probe. `gen` supplies per-probe noise (jitter, loss);
  /// routing and path inflation are deterministic so repeated probes
  /// to the same target from the same VP measure the same path.
  /// `extra_drop_probability` models reply aggregation loss near an
  /// overdriven VP (the Sec. 3.5 rate-limit effect); the census prober
  /// derives it from its sending rate.
  [[nodiscard]] ProbeReply probe(const VantagePoint& vp,
                                 ipaddr::IPv4Address dst, Protocol protocol,
                                 rng::Xoshiro256& gen,
                                 double extra_drop_probability = 0.0) const {
    return VpProber(*this, vp).probe(target_for(dst), protocol, gen,
                                     extra_drop_probability);
  }

  /// A CHAOS-class TXT query ("hostname.bind" / "id.server"), the
  /// DNS-specific enumeration side channel of Fan et al. [25]: DNS servers
  /// reveal a per-replica server id. Returns that id when the target
  /// answers DNS queries, nullopt otherwise (the technique is not
  /// applicable beyond DNS — Sec. 2.2). Subject to the same loss model as
  /// other probes.
  [[nodiscard]] std::optional<std::string> chaos_query(
      const VantagePoint& vp, ipaddr::IPv4Address dst,
      rng::Xoshiro256& gen) const;

  /// An edns-client-subnet query: "which PoP would serve a client at
  /// `client_location`?" — the technique of [15, 45]. A single vantage
  /// point can sweep millions of client subnets; but only ECS-capable
  /// deployments answer (nullopt otherwise), and the reply describes the
  /// operator's *L7* user-mapping, not BGP catchments.
  [[nodiscard]] const ReplicaSite* ecs_query(
      std::size_t deployment_index,
      const geodesy::GeoPoint& client_location) const;

  /// The replica site a probe from `vp` reaches for a given deployment
  /// prefix — BGP ground truth for recall/geolocation validation.
  [[nodiscard]] const ReplicaSite* catchment(const VantagePoint& vp,
                                             std::size_t deployment_index,
                                             std::size_t prefix_index) const;

  /// All sites of `deployment_index` reached by at least one VP in `vps`:
  /// the best recall any RTT-based method could achieve from that platform.
  [[nodiscard]] std::vector<const ReplicaSite*> reachable_sites(
      std::span<const VantagePoint> vps, std::size_t deployment_index,
      std::size_t prefix_index) const;

  /// Rewrites which sites announce a deployment prefix (bit i => site i)
  /// and returns the previous mask. Bits beyond the deployment's site
  /// count are ignored; a zero mask withdraws the prefix entirely (probes
  /// to it time out). `catchment` and `probe` read the mask live, so this
  /// is how watch-mode worlds grow, shrink, and move replicas between
  /// rounds (a `VpProber` keys catchments by mask, so it follows too).
  /// Unsynchronised — mutate only between censuses.
  std::uint64_t set_prefix_site_mask(std::size_t deployment_index,
                                     std::size_t prefix_index,
                                     std::uint64_t mask);

 private:
  double path_inflation(const VantagePoint& vp,
                        std::uint32_t slash24_index) const;
  double vp_access_ms(const VantagePoint& vp) const;
  double base_rtt_ms(const VantagePoint& vp, double vp_access_ms,
                     const geodesy::GeoPoint& where,
                     std::uint32_t slash24_index) const;
  const ReplicaSite* catchment_for_mask(const VantagePoint& vp,
                                        std::size_t deployment_index,
                                        std::uint64_t mask) const;

  WorldConfig config_;
  std::vector<Deployment> deployments_;
  std::vector<TargetInfo> targets_;
  std::unordered_map<std::uint32_t, std::size_t> by_slash24_;
  ipaddr::PrefixTable route_table_;
};

}  // namespace anycast::net
