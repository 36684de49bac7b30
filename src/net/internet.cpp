#include "anycast/net/internet.hpp"

#include "anycast/net/platform.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <stdexcept>

#include "anycast/geo/city_data.hpp"
#include "anycast/ipaddr/aggregate.hpp"
#include "anycast/geo/city_index.hpp"
#include "anycast/geodesy/disk.hpp"
#include "anycast/rng/distributions.hpp"

namespace anycast::net {
namespace {

// PoP city pool: where anycast replicas live. Weights reflect peering
// importance (major IXP metros host nearly every large deployment). The
// pool spans ~50 countries so the census-wide city/country counts land in
// the ballpark of Fig. 10's 77 cities / 38 countries.
struct PopCity {
  std::string_view name;
  double weight;
};

constexpr PopCity kPopPool[] = {
    // Tier-1 interconnection hubs.
    {"Amsterdam", 10}, {"Frankfurt", 10}, {"London", 10}, {"Paris", 8},
    {"Ashburn", 10},   {"New York", 9},   {"San Jose", 9}, {"Chicago", 8},
    {"Dallas", 8},     {"Los Angeles", 8}, {"Miami", 8},   {"Seattle", 6},
    {"Singapore", 9},  {"Tokyo", 9},      {"Hong Kong", 9}, {"Sydney", 7},
    {"Sao Paulo", 7},
    // Strong regional hubs.
    {"Stockholm", 5},  {"Milan", 5},      {"Madrid", 5},   {"Vienna", 5},
    {"Prague", 5},     {"Warsaw", 5},     {"Zurich", 5},   {"Brussels", 4},
    {"Dublin", 5},     {"Copenhagen", 4}, {"Oslo", 4},     {"Helsinki", 4},
    {"Lisbon", 3},     {"Bucharest", 3},  {"Sofia", 3},    {"Budapest", 3},
    {"Istanbul", 4},   {"Moscow", 4},     {"Kiev", 3},     {"Atlanta", 5},
    {"Denver", 5},     {"Toronto", 5},    {"Montreal", 4}, {"Vancouver", 4},
    {"Phoenix", 3},    {"Houston", 3},    {"Boston", 4},   {"Newark", 3},
    {"Washington", 3}, {"Mexico City", 4}, {"Osaka", 5},   {"Seoul", 5},
    {"Taipei", 4},     {"Mumbai", 5},     {"Delhi", 3},    {"Chennai", 4},
    {"Bangalore", 3},  {"Kuala Lumpur", 4}, {"Jakarta", 3}, {"Bangkok", 3},
    {"Manila", 3},     {"Dubai", 4},      {"Tel Aviv", 3}, {"Doha", 2},
    {"Melbourne", 4},  {"Auckland", 3},   {"Brisbane", 2}, {"Perth", 2},
    {"Rio de Janeiro", 3}, {"Buenos Aires", 3}, {"Santiago", 3},
    {"Bogota", 3},     {"Lima", 2},       {"Medellin", 2},
    {"Johannesburg", 4}, {"Cape Town", 3}, {"Nairobi", 2}, {"Lagos", 2},
    {"Cairo", 2},      {"Casablanca", 2}, {"Mombasa", 1},
    {"Marseille", 2},  {"Munich", 3},     {"Hamburg", 3},  {"Dusseldorf", 2},
    {"Barcelona", 3},  {"Rome", 3},       {"Manchester", 2},
    {"St. Louis", 2},  {"Minneapolis", 2}, {"Kansas City", 2},
    {"Salt Lake City", 2}, {"San Francisco", 4}, {"Palo Alto", 3},
};

/// /24 index where anycast allocations start: 104.0.0.0 (a block that in
/// the real Internet is indeed dense with anycast CDNs).
constexpr std::uint32_t kAnycastBase = 104u << 16;
/// /24 index where the unicast background starts: 16.0.0.0.
constexpr std::uint32_t kUnicastBase = 16u << 16;

double hash01(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  return rng::hash_uniform01(rng::hash_key(a, b, c));
}

}  // namespace

SimulatedInternet::SimulatedInternet(const WorldConfig& config)
    : config_(config) {
  const geo::CityIndex& cities = geo::world_index();
  rng::Xoshiro256 gen(config.seed);

  // ---- Anycast deployments ----------------------------------------------
  std::vector<AsSpec> specs(top100_specs().begin(), top100_specs().end());
  const auto tail =
      tail_specs(config.tail_as_count, config.tail_ip24_total,
                 config.seed ^ 0x7A11ull);
  specs.insert(specs.end(), tail.begin(), tail.end());

  // Resolve the PoP pool against the city table once.
  std::vector<const geo::City*> pool;
  std::vector<double> pool_weights;
  for (const PopCity& pop : kPopPool) {
    const geo::City* city = cities.by_name(pop.name);
    if (city == nullptr) {
      throw std::logic_error("PoP pool city missing from city table: " +
                             std::string(pop.name));
    }
    pool.push_back(city);
    pool_weights.push_back(pop.weight);
  }

  std::uint32_t next_anycast_index = kAnycastBase;
  deployments_.reserve(specs.size());
  for (const AsSpec& spec : specs) {
    Deployment deployment;
    deployment.as_number = spec.as_number;
    deployment.whois_name = std::string(spec.whois);
    deployment.category = spec.category;
    deployment.tier1 = spec.tier1;
    deployment.caida_rank = spec.caida_rank;
    deployment.alexa_sites = spec.alexa_sites;
    deployment.tcp_services = make_services(spec, config.seed);
    deployment.serves_dns =
        profile_serves_dns(spec.profile) || spec.category == Category::kDns;
    if (spec.whois == "CLOUDFLARENET,US") {
      deployment.local_site_fraction_override = 0.15;  // uniform announcer
    } else if (spec.whois == "EDGECAST,US" || spec.whois == "EDGECAST-IR,") {
      deployment.local_site_fraction_override = 0.85;  // regional peering
    }
    // ECS adoption circa 2015: Google pioneered it; a handful of other
    // operators followed. The bulk of anycasters (and every
    // HTTP-redirection design) are invisible to ECS-based mapping.
    for (const std::string_view adopter :
         {"GOOGLE,US", "EDGECAST,US", "OPENDNS,US", "CDNETWORKSUS-"}) {
      if (spec.whois == adopter) deployment.ecs_capable = true;
    }

    // Pick `sites` distinct PoP cities, weighted by hub importance.
    // OpenDNS is pinned to start in Ashburn so the Sec. 3.4 population-bias
    // case study (Ashburn replica classified as a nearby metropolis) can be
    // reproduced deterministically.
    rng::Xoshiro256 site_gen = gen.split(spec.as_number);
    std::vector<double> weights = pool_weights;
    const int site_count =
        std::min<int>(spec.sites, static_cast<int>(pool.size()));
    std::vector<std::size_t> chosen;
    if (spec.whois == "OPENDNS,US") {
      for (std::size_t i = 0; i < pool.size(); ++i) {
        if (pool[i]->name == "Ashburn") {
          chosen.push_back(i);
          weights[i] = 0.0;
          break;
        }
      }
    }
    // Tail deployments are usually regional operators: their few sites
    // cluster in one region, which makes their disks overlap for most VPs
    // — the marginally-detectable population whose /24s flip in and out of
    // individual censuses and are only reliably caught by the combination
    // (Fig. 12's ~200-prefix gap).
    const bool is_tail = spec.as_number >= 200000;
    if (is_tail && rng::bernoulli(site_gen, 0.6)) {
      const std::size_t anchor = rng::weighted_index(site_gen, weights);
      const Region home = region_of(pool[anchor]->country);
      for (std::size_t i = 0; i < pool.size(); ++i) {
        if (region_of(pool[i]->country) != home) weights[i] = 0.0;
      }
    }
    while (static_cast<int>(chosen.size()) < site_count) {
      double remaining = 0.0;
      for (const double w : weights) remaining += w;
      if (remaining <= 0.0) break;  // region exhausted: fewer sites
      const std::size_t pick = rng::weighted_index(site_gen, weights);
      chosen.push_back(pick);
      weights[pick] = 0.0;
      if (is_tail) {
        // Anycast sites closer than ~400 km serve no purpose (their
        // catchments collapse); operators space them out, which also keeps
        // the deployment on the *marginally* detectable side rather than
        // the invisible one.
        for (std::size_t i = 0; i < pool.size(); ++i) {
          if (weights[i] > 0.0 &&
              geodesy::distance_km(pool[pick]->location(),
                                   pool[i]->location()) < 400.0) {
            weights[i] = 0.0;
          }
        }
      }
    }
    deployment.sites.reserve(chosen.size());
    for (const std::size_t pick : chosen) {
      ReplicaSite site;
      site.city = pool[pick];
      site.location = geodesy::destination(
          site.city->location(), rng::uniform(site_gen, 0.0, 360.0),
          rng::uniform(site_gen, 0.0, 20.0));
      deployment.sites.push_back(site);
    }

    // Allocate /24s and per-prefix announcement masks. Most prefixes are
    // announced everywhere; some from a subset of sites, producing the
    // per-/24 replica-count variance of Fig. 9's error bars.
    const std::uint64_t all_sites_mask =
        deployment.sites.size() >= 64
            ? ~std::uint64_t{0}
            : ((std::uint64_t{1} << deployment.sites.size()) - 1);
    deployment.prefixes.reserve(static_cast<std::size_t>(spec.ip24));
    for (int p = 0; p < spec.ip24; ++p) {
      deployment.prefixes.push_back(ipaddr::Prefix(
          ipaddr::IPv4Address::from_slash24_index(next_anycast_index, 0),
          24));
      ++next_anycast_index;
      std::uint64_t mask = all_sites_mask;
      if (deployment.sites.size() > 2 &&
          rng::bernoulli(site_gen, 0.3)) {
        // Announce from a random >= half subset.
        const auto min_sites =
            std::max<std::size_t>(1, deployment.sites.size() / 2);
        const auto keep = min_sites + rng::uniform_index(
            site_gen, deployment.sites.size() - min_sites + 1);
        mask = 0;
        std::size_t kept = 0;
        // Walk sites in a rotated order so subsets differ across prefixes.
        const auto start =
            rng::uniform_index(site_gen, deployment.sites.size());
        for (std::size_t s = 0; s < deployment.sites.size() && kept < keep;
             ++s) {
          const std::size_t idx = (start + s) % deployment.sites.size();
          mask |= std::uint64_t{1} << idx;
          ++kept;
        }
      }
      deployment.prefix_site_masks.push_back(mask);
    }
    deployments_.push_back(std::move(deployment));
  }

  // ---- Target universe ----------------------------------------------------
  // Anycast targets first (address order), then the unicast background.
  std::vector<ipaddr::Route> routes;
  for (std::size_t d = 0; d < deployments_.size(); ++d) {
    const Deployment& deployment = deployments_[d];
    for (std::size_t p = 0; p < deployment.prefixes.size(); ++p) {
      TargetInfo info;
      info.kind = TargetInfo::Kind::kAnycast;
      info.slash24_index = deployment.prefixes[p].network().slash24_index();
      info.deployment_index = static_cast<std::int32_t>(d);
      info.prefix_index = static_cast<std::int32_t>(p);
      info.alive = true;
      targets_.push_back(info);
    }
    // Deployments announce their contiguous /24 run as the minimal CIDR
    // aggregate (Sec. 3.1: announced prefixes are often shorter than /24;
    // the census probes each covered /24 and re-aggregates a posteriori).
    if (!deployment.prefixes.empty()) {
      for (const ipaddr::Prefix& aggregate : ipaddr::aggregate_slash24_range(
               deployment.prefixes.front().network().slash24_index(),
               static_cast<std::uint32_t>(deployment.prefixes.size()))) {
        routes.push_back(ipaddr::Route{aggregate, deployment.as_number});
      }
    }
  }

  const std::uint32_t unicast_total = config.unicast_alive_slash24 +
                                      config.unicast_silent_slash24 +
                                      config.unicast_dead_slash24;
  const double dead_fraction =
      unicast_total == 0
          ? 0.0
          : static_cast<double>(config.unicast_dead_slash24) / unicast_total;
  const std::uint32_t live_total =
      config.unicast_alive_slash24 + config.unicast_silent_slash24;
  const double silent_fraction =
      live_total == 0 ? 0.0
                      : static_cast<double>(config.unicast_silent_slash24) /
                            live_total;
  std::vector<double> city_pop_weights;
  const auto all_cities = geo::world_cities();
  city_pop_weights.reserve(all_cities.size());
  for (const geo::City& city : all_cities) {
    city_pop_weights.push_back(static_cast<double>(city.population));
  }
  rng::Xoshiro256 unicast_gen = gen.split(0xC0FFEE);
  for (std::uint32_t i = 0; i < unicast_total; ++i) {
    TargetInfo info;
    info.kind = TargetInfo::Kind::kUnicast;
    info.slash24_index = kUnicastBase + i;
    const geo::City& city =
        all_cities[rng::weighted_index(unicast_gen, city_pop_weights)];
    info.unicast_location = geodesy::destination(
        city.location(), rng::uniform(unicast_gen, 0.0, 360.0),
        rng::exponential(unicast_gen, 60.0));
    if (rng::bernoulli(unicast_gen, dead_fraction)) {
      info.kind = TargetInfo::Kind::kDead;
      info.alive = false;
    } else if (rng::bernoulli(unicast_gen, silent_fraction)) {
      // Routed but currently unresponsive: stays in the hitlist (positive
      // score) yet answers nothing, so less than half the probed targets
      // send a reply (Fig. 4).
      info.alive = false;
    } else if (rng::bernoulli(unicast_gen, config.prohibited_fraction)) {
      // Split of prohibited codes per Sec. 3.3: 98.5% administratively
      // filtered (type 3 code 13), 1.3% host (code 10), 0.2% net (code 9).
      const double split = rng::uniform01(unicast_gen);
      info.error_kind = split < 0.985 ? ReplyKind::kAdminProhibited
                        : split < 0.998 ? ReplyKind::kHostProhibited
                                        : ReplyKind::kNetProhibited;
    }
    info.unicast_web = rng::bernoulli(unicast_gen, 0.12);
    info.unicast_dns = rng::bernoulli(unicast_gen, 0.015);
    targets_.push_back(info);
    routes.push_back(ipaddr::Route{
        ipaddr::Prefix(
            ipaddr::IPv4Address::from_slash24_index(info.slash24_index, 0),
            24),
        64512 + i % 20000});
  }

  by_slash24_.reserve(targets_.size());
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    by_slash24_.emplace(targets_[i].slash24_index, i);
  }
  route_table_ = ipaddr::PrefixTable(std::move(routes));
}

const Deployment* SimulatedInternet::deployment_by_name(
    std::string_view whois) const {
  for (const Deployment& deployment : deployments_) {
    if (deployment.whois_name == whois) return &deployment;
  }
  return nullptr;
}

const TargetInfo* SimulatedInternet::target_for(
    ipaddr::IPv4Address addr) const {
  const auto it = by_slash24_.find(addr.slash24_index());
  return it == by_slash24_.end() ? nullptr : &targets_[it->second];
}

double SimulatedInternet::path_inflation(const VantagePoint& vp,
                                         std::uint32_t slash24_index) const {
  // Deterministic per (VP, /24): the path is fixed, only queueing varies.
  // 1 + lognormal keeps inflation strictly above 1 so a measured RTT can
  // never violate physics (iGreedy's no-false-positive precondition).
  const double u1 = hash01(config_.seed, vp.id, slash24_index);
  const double u2 = hash01(config_.seed ^ 1, vp.id, slash24_index);
  const double z = std::sqrt(-2.0 * std::log(std::max(u1, 0x1.0p-53))) *
                   std::cos(6.283185307179586 * u2);
  return 1.0 +
         std::exp(config_.inflation_mu + config_.inflation_sigma * z);
}

double SimulatedInternet::vp_access_ms(const VantagePoint& vp) const {
  return hash01(config_.seed ^ 2, vp.id, 0) * config_.vp_access_ms_max;
}

double SimulatedInternet::base_rtt_ms(const VantagePoint& vp,
                                      double vp_access_ms,
                                      const geodesy::GeoPoint& where,
                                      std::uint32_t slash24_index) const {
  const double distance = geodesy::distance_km(vp.location, where);
  const double propagation = geodesy::distance_to_min_rtt_ms(distance);
  const double target_access =
      hash01(config_.seed ^ 3, slash24_index, 0) * config_.target_access_ms_max;
  return propagation * path_inflation(vp, slash24_index) + vp_access_ms +
         target_access;
}

const ReplicaSite* SimulatedInternet::ecs_query(
    std::size_t deployment_index,
    const geodesy::GeoPoint& client_location) const {
  const Deployment& deployment = deployments_[deployment_index];
  if (!deployment.ecs_capable) return nullptr;
  // L7 user-mapping: the operator assigns the client to its geographically
  // nearest PoP — finer-grained than BGP, with none of its detours.
  const ReplicaSite* best = nullptr;
  double best_km = 0.0;
  for (const ReplicaSite& site : deployment.sites) {
    const double km = geodesy::distance_km(client_location, site.location);
    if (best == nullptr || km < best_km) {
      best = &site;
      best_km = km;
    }
  }
  return best;
}

std::optional<std::string> SimulatedInternet::chaos_query(
    const VantagePoint& vp, ipaddr::IPv4Address dst,
    rng::Xoshiro256& gen) const {
  const TargetInfo* info = target_for(dst);
  if (info == nullptr || !info->alive ||
      info->error_kind != ReplyKind::kEchoReply) {
    return std::nullopt;
  }
  if (rng::bernoulli(gen, config_.base_loss)) return std::nullopt;
  if (info->kind == TargetInfo::Kind::kUnicast) {
    if (!info->unicast_dns) return std::nullopt;
    return "ns1.host" + std::to_string(info->slash24_index) + ".example";
  }
  const Deployment& deployment =
      deployments_[static_cast<std::size_t>(info->deployment_index)];
  if (!deployment.serves_dns) return std::nullopt;
  const ReplicaSite* site =
      catchment(vp, static_cast<std::size_t>(info->deployment_index),
                static_cast<std::size_t>(info->prefix_index));
  if (site == nullptr) return std::nullopt;
  const auto site_index =
      static_cast<std::size_t>(site - deployment.sites.data());
  // Operator-style id: "s03.ams.as13335".
  std::string code(site->city->name.substr(0, 3));
  for (char& c : code) c = static_cast<char>(std::tolower(c));
  return "s" + std::to_string(site_index) + "." + code + ".as" +
         std::to_string(deployment.as_number);
}

const ReplicaSite* SimulatedInternet::catchment(
    const VantagePoint& vp, std::size_t deployment_index,
    std::size_t prefix_index) const {
  return catchment_for_mask(
      vp, deployment_index,
      deployments_[deployment_index].prefix_site_masks[prefix_index]);
}

const ReplicaSite* SimulatedInternet::catchment_for_mask(
    const VantagePoint& vp, std::size_t deployment_index,
    std::uint64_t mask) const {
  const Deployment& deployment = deployments_[deployment_index];
  const ReplicaSite* best = nullptr;
  double best_score = 0.0;
  for (std::size_t s = 0; s < deployment.sites.size(); ++s) {
    if ((mask >> s & 1u) == 0) continue;
    const ReplicaSite& site = deployment.sites[s];
    const double distance =
        geodesy::distance_km(vp.location, site.location);
    // BGP prefers short AS paths, not short distances: model the gap with
    // a deterministic per-(VP, AS, site) detour factor.
    const double detour =
        1.0 + config_.bgp_detour_spread *
                  hash01(config_.seed ^ 4,
                         (std::uint64_t{vp.id} << 32) | deployment.as_number,
                         s);
    // Poorly-peered sites only attract nearby networks (deterministic per
    // (AS, site)): the source of the sparse-platform recall gap (Fig. 5).
    const double local_fraction =
        deployment.local_site_fraction_override >= 0.0
            ? deployment.local_site_fraction_override
            : config_.local_site_fraction;
    const double locality =
        hash01(config_.seed ^ 5, deployment.as_number, s) < local_fraction
            ? config_.local_site_penalty
            : 1.0;
    const double score =
        (distance + 50.0) * detour * locality;  // +50km: peering floor
    if (best == nullptr || score < best_score) {
      best = &site;
      best_score = score;
    }
  }
  return best;
}

std::vector<const ReplicaSite*> SimulatedInternet::reachable_sites(
    std::span<const VantagePoint> vps, std::size_t deployment_index,
    std::size_t prefix_index) const {
  std::vector<const ReplicaSite*> out;
  for (const VantagePoint& vp : vps) {
    const ReplicaSite* site = catchment(vp, deployment_index, prefix_index);
    if (site != nullptr &&
        std::find(out.begin(), out.end(), site) == out.end()) {
      out.push_back(site);
    }
  }
  return out;
}

std::uint64_t SimulatedInternet::set_prefix_site_mask(
    std::size_t deployment_index, std::size_t prefix_index,
    std::uint64_t mask) {
  Deployment& deployment = deployments_.at(deployment_index);
  std::uint64_t& slot = deployment.prefix_site_masks.at(prefix_index);
  const std::uint64_t previous = slot;
  const std::size_t sites = deployment.sites.size();
  const std::uint64_t valid =
      sites >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << sites) - 1;
  slot = mask & valid;
  return previous;
}

SimulatedInternet::VpProber::VpProber(const SimulatedInternet& internet,
                                      const VantagePoint& vp)
    : internet_(internet), vp_(vp), vp_access_ms_(internet.vp_access_ms(vp)) {}

ProbeReply SimulatedInternet::VpProber::probe(const TargetInfo* info,
                                              Protocol protocol,
                                              rng::Xoshiro256& gen,
                                              double extra_drop_probability) {
  const WorldConfig& config = internet_.config_;
  if (info == nullptr || !info->alive ||
      info->kind == TargetInfo::Kind::kDead) {
    return {ReplyKind::kTimeout, 0.0};
  }
  if (info->error_kind != ReplyKind::kEchoReply) {
    // Filtering routers answer every protocol with the same prohibition.
    return {info->error_kind, 0.0};
  }

  // Does anything answer this protocol?
  geodesy::GeoPoint where;
  if (info->kind == TargetInfo::Kind::kAnycast) {
    const auto d = static_cast<std::size_t>(info->deployment_index);
    const Deployment& deployment = internet_.deployments_[d];
    const auto open = [&deployment](std::uint16_t port) {
      return std::any_of(
          deployment.tcp_services.begin(), deployment.tcp_services.end(),
          [port](const ServicePort& s) { return s.port == port; });
    };
    const bool answers = protocol == Protocol::kIcmpEcho ||
                         (protocol == Protocol::kTcpSyn53 && open(53)) ||
                         (protocol == Protocol::kTcpSyn80 && open(80)) ||
                         ((protocol == Protocol::kDnsUdp ||
                           protocol == Protocol::kDnsTcp) &&
                          deployment.serves_dns);
    if (!answers) return {ReplyKind::kTimeout, 0.0};
    const std::uint64_t mask =
        deployment.prefix_site_masks[static_cast<std::size_t>(
            info->prefix_index)];
    const auto [it, inserted] = catchments_.try_emplace({mask, d}, nullptr);
    if (inserted) it->second = internet_.catchment_for_mask(vp_, d, mask);
    const ReplicaSite* site = it->second;
    if (site == nullptr) return {ReplyKind::kTimeout, 0.0};
    where = site->location;
  } else {
    const bool answers =
        protocol == Protocol::kIcmpEcho ||
        (protocol == Protocol::kTcpSyn80 && info->unicast_web) ||
        ((protocol == Protocol::kTcpSyn53 || protocol == Protocol::kDnsUdp ||
          protocol == Protocol::kDnsTcp) &&
         info->unicast_dns);
    if (!answers) return {ReplyKind::kTimeout, 0.0};
    where = info->unicast_location;
  }

  // Loss: floor + the census prober's self-inflicted reply aggregation
  // drops (Sec. 3.5).
  if (rng::bernoulli(gen, config.base_loss) ||
      rng::bernoulli(gen, extra_drop_probability)) {
    return {ReplyKind::kTimeout, 0.0};
  }

  double rtt =
      internet_.base_rtt_ms(vp_, vp_access_ms_, where, info->slash24_index);
  rtt += rng::exponential(gen, config.jitter_mean_ms);
  if (rng::bernoulli(gen, config.spike_probability)) {
    rtt += rng::exponential(gen, config.spike_mean_ms);
  }
  return {ReplyKind::kEchoReply, rtt};
}

}  // namespace anycast::net
