// Ablation — recall vs platform size (Sec. 2.1 / 3.2).
//
// Related DNS-only work achieves ~90% replica recall with O(10^4..10^5)
// vantage points on O(1) targets; the census trades completeness for scale
// with O(10^2) VPs. This bench sweeps the platform size and reports the
// detected anycast /24s and mean replicas per /24 at each size — the
// quantitative form of "our footprint estimates are conservative".
#include "common.hpp"

int main() {
  using namespace anycast;
  using namespace anycast::bench;

  net::WorldConfig world_config;
  world_config.seed = 2015;
  world_config.unicast_alive_slash24 = 3000;
  world_config.unicast_silent_slash24 = 3000;
  world_config.unicast_dead_slash24 = 3000;
  const net::SimulatedInternet internet(world_config);
  const census::Hitlist hitlist =
      census::Hitlist::from_world(internet).without_dead();

  print_title("Ablation — detection/enumeration recall vs platform size");
  std::printf("  %8s %14s %18s %14s\n", "VPs", "anycast /24",
              "mean replicas//24", "total replicas");

  std::size_t previous_prefixes = 0;
  bool monotone = true;
  for (const int vp_count : {25, 50, 100, 200, 300, 600}) {
    const auto vps = net::make_planetlab(
        {.node_count = vp_count, .seed = 9});
    census::Greylist blacklist;
    census::FastPingConfig fastping;
    fastping.seed = 1;
    const auto output = census::run_census_sharded(internet, vps, hitlist,
                                                   blacklist, fastping);
    const analysis::CensusAnalyzer analyzer(vps, geo::world_index());
    const auto outcomes = analyzer.analyze(output.data, hitlist);
    std::uint64_t replicas = 0;
    for (const auto& outcome : outcomes) {
      replicas += outcome.result.replicas.size();
    }
    std::printf("  %8d %14zu %18.2f %14s\n", vp_count, outcomes.size(),
                outcomes.empty()
                    ? 0.0
                    : static_cast<double>(replicas) /
                          static_cast<double>(outcomes.size()),
                fmt_int(replicas).c_str());
    if (outcomes.size() + 20 < previous_prefixes) monotone = false;
    previous_prefixes = outcomes.size();
  }
  std::printf(
      "\n  shape: both detection and enumeration grow with platform size\n"
      "  and saturate slowly — the O(10^2)-VP census is a conservative\n"
      "  lower bound on the anycast footprint (Sec. 4.1).\n");
  return monotone ? 0 : 1;
}
