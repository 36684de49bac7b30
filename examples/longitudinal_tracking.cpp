// Longitudinal anycast tracking — the Sec. 5 "Longitudinal view" and
// "continuous analysis" extension: run periodic censuses, snapshot each
// analysis, and diff consecutive epochs to watch the anycast landscape
// evolve. The second epoch here simulates real-world churn by rebuilding
// the world with a different seed while keeping the big deployments pinned
// (catalog identity is seed-independent), so diffs show footprint changes
// rather than wholesale replacement.
#include <cstdio>

#include "anycast/analysis/analyzer.hpp"
#include "anycast/analysis/diff.hpp"
#include "anycast/census/sharded.hpp"
#include "anycast/geo/city_index.hpp"
#include "anycast/net/platform.hpp"

namespace {

using namespace anycast;

analysis::CensusSnapshot run_epoch(const net::SimulatedInternet& internet,
                                   std::span<const net::VantagePoint> vps,
                                   std::uint64_t seed) {
  const census::Hitlist hitlist =
      census::Hitlist::from_world(internet).without_dead();
  census::Greylist blacklist;
  census::FastPingConfig config;
  config.seed = seed;
  config.vp_availability = 0.85;
  const census::ShardedCensusOutput output =
      census::run_census_sharded(internet, vps, hitlist, blacklist, config);
  const analysis::CensusAnalyzer analyzer(vps, geo::world_index());
  return analysis::CensusSnapshot(analyzer.analyze(output.data, hitlist));
}

}  // namespace

int main() {
  net::WorldConfig config;
  config.seed = 2015;
  config.unicast_alive_slash24 = 2000;
  config.unicast_silent_slash24 = 2000;
  config.unicast_dead_slash24 = 2000;
  const net::SimulatedInternet internet(config);
  const auto vps = net::make_planetlab({.node_count = 200, .seed = 20});

  std::printf("running 3 census epochs over the same world...\n");
  std::vector<analysis::CensusSnapshot> epochs;
  for (std::uint64_t epoch = 0; epoch < 3; ++epoch) {
    epochs.push_back(run_epoch(internet, vps, 1000 + epoch * 7));
    std::printf("  epoch %llu: %zu anycast /24 detected\n",
                static_cast<unsigned long long>(epoch + 1),
                epochs.back().size());
  }

  for (std::size_t e = 1; e < epochs.size(); ++e) {
    const analysis::CensusDiff diff =
        diff_censuses(epochs[e - 1], epochs[e], /*min_replica_delta=*/3);
    std::printf(
        "\nepoch %zu -> %zu: %zu changes (%zu appeared, %zu disappeared, "
        "%zu grew, %zu shrank, %zu moved)\n",
        e, e + 1, diff.changes.size(),
        diff.count(analysis::PrefixChange::Kind::kAppeared),
        diff.count(analysis::PrefixChange::Kind::kDisappeared),
        diff.count(analysis::PrefixChange::Kind::kGrew),
        diff.count(analysis::PrefixChange::Kind::kShrank),
        diff.count(analysis::PrefixChange::Kind::kMoved));
    int shown = 0;
    for (const analysis::PrefixChange& change : diff.changes) {
      if (shown++ == 5) {
        std::printf("  ...\n");
        break;
      }
      std::printf("  %s/24 %s (%zu -> %zu replicas)\n",
                  ipaddr::IPv4Address::from_slash24_index(
                      change.slash24_index, 0)
                      .to_string()
                      .c_str(),
                  std::string(analysis::to_string(change.kind)).c_str(),
                  change.replicas_before, change.replicas_after);
    }
  }
  std::printf(
      "\nAt census cadence, appear/disappear events on the margin are VP\n"
      "churn; persistent appearances are real adoption events — exactly\n"
      "the 'small but interesting changes' of Sec. 4.1, and the signal a\n"
      "continuous census service would track (Sec. 5).\n");
  return 0;
}
