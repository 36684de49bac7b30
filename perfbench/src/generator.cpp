#include "generator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "anycast/concurrency/thread_pool.hpp"
#include "anycast/geo/city_data.hpp"
#include "anycast/geodesy/disk.hpp"
#include "anycast/net/platform.hpp"

namespace perfbench {
namespace {

using anycast::census::TargetRtt;

std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Uniform in [0, 1), a pure function of its three arguments.
double hash01(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  const std::uint64_t h = mix(seed ^ mix(a * 0x100000001B3ULL + mix(b)));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// First /24 of the synthetic address plan (1.0.0.0/24). Target t owns
/// /24 number kBase + t + t/2, so every third /24 is absent from the
/// hitlist; the plan ends below 160.0.0.0.
constexpr std::uint32_t kSlash24Base = 0x010000;

std::uint32_t slash24_of(std::uint32_t target) {
  return kSlash24Base + target + target / 2;
}

}  // namespace

CensusGenerator::CensusGenerator(const GeneratorConfig& config)
    : config_(config) {
  world_.seed = config.seed;
  // The catalog world: every anycast deployment of the simulator, no
  // unicast background (the generator supplies that itself).
  anycast::net::WorldConfig catalog_config = world_;
  catalog_config.unicast_alive_slash24 = 0;
  catalog_config.unicast_silent_slash24 = 0;
  catalog_config.unicast_dead_slash24 = 0;
  catalog_ = std::make_unique<anycast::net::SimulatedInternet>(catalog_config);

  vps_ = anycast::net::make_planetlab(
      {.node_count = static_cast<int>(kVps),
       .seed = config.seed ^ 0xF1E1DULL});
  for (std::size_t v = 0; v < vps_.size(); ++v) {
    if (vps_[v].id != v) throw std::logic_error("VP ids must be dense");
  }

  for (const anycast::net::Deployment& deployment : catalog_->deployments()) {
    for (std::size_t p = 0; p < deployment.prefixes.size(); ++p) {
      std::vector<AnycastSite> sites;
      for (const anycast::net::ReplicaSite* site :
           deployment.sites_for_prefix(p)) {
        sites.push_back({site->location});
      }
      if (!sites.empty()) anycast_sites_.push_back(std::move(sites));
    }
  }
  const std::size_t n = kTargets;
  const std::size_t a = anycast_sites_.size();
  if (a == 0 || n < 2 * a) throw std::invalid_argument("hitlist too small");

  std::vector<anycast::census::HitlistEntry> entries(n);
  for (std::size_t t = 0; t < n; ++t) {
    entries[t].representative = anycast::ipaddr::IPv4Address(
        slash24_of(static_cast<std::uint32_t>(t)) << 8 | 1u);
    entries[t].score = 1;
  }
  hitlist_ = anycast::census::Hitlist(std::move(entries));

  // Anycast /24 k lands at a seeded offset inside the k-th of `a` equal
  // strides of the hitlist: spread over the whole key space, ascending.
  const std::size_t stride = n / a;
  is_anycast_.assign(n, false);
  anycast_targets_.reserve(a);
  for (std::size_t k = 0; k < a; ++k) {
    const auto t = static_cast<std::uint32_t>(
        k * stride + mix(config.seed ^ 0xA11CA57ULL ^ k) % stride);
    anycast_targets_.push_back(t);
    is_anycast_[t] = true;
  }

  // The stretch distribution 1 + exp(mu + sigma z), z ~ N(0, 1), at
  // kStretchLevels equiprobable quantiles: one table load per sample in
  // place of a Box-Muller draw.
  stretch_.resize(kStretchLevels);
  for (std::size_t i = 0; i < kStretchLevels; ++i) {
    const double p = (static_cast<double>(i) + 0.5) /
                     static_cast<double>(kStretchLevels);
    double lo = -10.0, hi = 10.0;  // invert Phi(z) = p by bisection
    for (int k = 0; k < 80; ++k) {
      const double mid = (lo + hi) / 2.0;
      (0.5 * std::erfc(-mid / std::sqrt(2.0)) < p ? lo : hi) = mid;
    }
    stretch_[i] = 1.0 + std::exp(world_.inflation_mu +
                                 world_.inflation_sigma * (lo + hi) / 2.0);
  }

  const std::span<const anycast::geo::City> cities =
      anycast::geo::world_cities();
  city_count_ = cities.size();
  vp_city_ms_.resize(vps_.size() * city_count_);
  vp_access_ms_.resize(vps_.size());
  for (std::size_t v = 0; v < vps_.size(); ++v) {
    for (std::size_t c = 0; c < city_count_; ++c) {
      vp_city_ms_[v * city_count_ + c] = static_cast<float>(
          anycast::geodesy::distance_to_min_rtt_ms(anycast::geodesy::distance_km(
              vps_[v].location, cities[c].location())));
    }
    vp_access_ms_[v] =
        hash01(config.seed ^ 2, v, 0) * world_.vp_access_ms_max;
  }
}

double CensusGenerator::rtt_ms(std::size_t vp, std::uint32_t target,
                               double propagation_ms,
                               std::uint64_t path_salt) const {
  // The simulator's path model: 1 + lognormal stretch, deterministic per
  // (VP, /24, path), so a measured RTT never undercuts propagation.
  const std::uint64_t h =
      mix(config_.seed ^ path_salt ^ mix(vp * 0x100000001B3ULL + target));
  const double target_access =
      hash01(config_.seed ^ 3, target, 0) * world_.target_access_ms_max;
  return propagation_ms * stretch_[h % kStretchLevels] + vp_access_ms_[vp] +
         target_access;
}

double CensusGenerator::anycast_rtt_ms(std::size_t vp, std::size_t slot,
                                       std::uint64_t path_salt) const {
  double best = 1e30;
  for (const AnycastSite& site : anycast_sites_[slot]) {
    best = std::min(best, anycast::geodesy::distance_to_min_rtt_ms(
                              anycast::geodesy::distance_km(
                                  vps_[vp].location, site.location)));
  }
  return rtt_ms(vp, anycast_targets_[slot], best, path_salt);
}

std::vector<TargetRtt> CensusGenerator::fragment(std::size_t vp) const {
  const std::size_t n = kTargets;
  std::vector<TargetRtt> out;
  out.reserve(static_cast<std::size_t>(
      static_cast<double>(n) * config_.unicast_density * 1.05 +
      static_cast<double>(anycast_targets_.size())));
  // Unicast responders by geometric skipping: the gap to the next
  // answering /24 is Geometric(unicast_density), one draw per sample.
  const double log_miss = std::log1p(-config_.unicast_density);
  std::uint64_t state = mix(config_.seed ^ 0x5EEDULL ^ (vp + 1) * 0x9E37ULL);
  const auto next_gap = [&]() -> std::uint64_t {
    state += 0x9E3779B97F4A7C15ULL;
    const double u =
        (static_cast<double>(mix(state) >> 11) + 1.0) * 0x1.0p-53;  // (0, 1]
    return static_cast<std::uint64_t>(std::log(u) / log_miss);
  };
  const float* city_ms = vp_city_ms_.data() + vp * city_count_;
  std::size_t slot = 0;
  const auto flush_anycast_below = [&](std::uint64_t limit) {
    for (; slot < anycast_targets_.size() && anycast_targets_[slot] < limit;
         ++slot) {
      const std::uint32_t t = anycast_targets_[slot];
      if (hash01(config_.seed ^ 5, vp, t) < kAnycastDensity) {
        out.push_back({t, static_cast<float>(anycast_rtt_ms(vp, slot))});
      }
    }
  };
  for (std::uint64_t t = next_gap(); t < n; t += 1 + next_gap()) {
    const auto target = static_cast<std::uint32_t>(t);
    if (is_anycast_[target]) continue;
    flush_anycast_below(t);
    const std::size_t city = mix(config_.seed ^ 0xC17ULL ^ t) % city_count_;
    out.push_back({target, static_cast<float>(rtt_ms(vp, target,
                                                     city_ms[city]))});
  }
  flush_anycast_below(n);
  return out;
}

std::vector<std::vector<TargetRtt>> CensusGenerator::fragments(
    anycast::concurrency::ThreadPool& pool) const {
  return pool.parallel_map(vps_.size(),
                           [this](std::size_t v) { return fragment(v); });
}

anycast::census::ShardedCensusMatrix CensusGenerator::churn(
    std::uint64_t round, const anycast::census::DataPlaneConfig& plane) const {
  const std::size_t n = kTargets;
  const std::uint64_t round_seed = mix(config_.seed ^ 0xC4A5ULL ^ round);
  std::vector<std::uint32_t> churned(n / 256);
  for (std::size_t j = 0; j < churned.size(); ++j) {
    churned[j] = static_cast<std::uint32_t>(mix(round_seed ^ j) % n);
  }
  std::sort(churned.begin(), churned.end());
  churned.erase(std::unique(churned.begin(), churned.end()), churned.end());

  anycast::census::ShardedCensusMatrixBuilder builder(n, plane);
  for (const std::uint32_t t : churned) {
    const bool anycast = is_anycast_[t];
    const double density =
        anycast ? kAnycastDensity : config_.unicast_density;
    const auto slot = static_cast<std::size_t>(
        std::lower_bound(anycast_targets_.begin(), anycast_targets_.end(), t) -
        anycast_targets_.begin());
    const std::size_t home = mix(config_.seed ^ 0xC17ULL ^ t) % city_count_;
    // One churned unicast /24 in a thousand starts answering from a second
    // site as well (a new anycast deployment); the rest are re-routed.
    const bool new_site = !anycast && hash01(round_seed ^ 0xA5, t, 0) < 1e-3;
    const std::size_t site = mix(round_seed ^ 0x517EULL ^ t) % city_count_;
    for (std::size_t v = 0; v < vps_.size(); ++v) {
      if (hash01(round_seed, v, t) >= density) continue;
      const float* city_ms = vp_city_ms_.data() + v * city_count_;
      double rtt = anycast ? anycast_rtt_ms(v, slot, round_seed)
                           : rtt_ms(v, t, city_ms[home], round_seed);
      if (new_site) rtt = std::min(rtt, rtt_ms(v, t, city_ms[site], round_seed));
      builder.add(t, static_cast<std::uint16_t>(v), static_cast<float>(rtt));
    }
  }
  return builder.build();
}

}  // namespace perfbench
