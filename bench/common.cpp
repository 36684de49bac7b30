#include "common.hpp"

#include <algorithm>
#include <cinttypes>

namespace anycast::bench {

BenchWorld::BenchWorld(const BenchConfig& config)
    : internet([&config] {
        net::WorldConfig world_config;
        world_config.seed = config.seed;
        world_config.unicast_alive_slash24 = config.unicast_alive_slash24;
        world_config.unicast_silent_slash24 = config.unicast_silent_slash24;
        world_config.unicast_dead_slash24 = config.unicast_dead_slash24;
        return world_config;
      }()),
      vps(net::make_planetlab(
          {.node_count = config.vp_count,
           .seed = config.seed ^ 0xF1E1D})),
      full_hitlist(census::Hitlist::from_world(internet)),
      hitlist(full_hitlist.without_dead()) {
  combined = census::ShardedCensusMatrix(hitlist.size(), {});
  concurrency::ThreadPool pool(
      static_cast<std::size_t>(std::max(0, config.threads)));
  for (int c = 0; c < config.census_count; ++c) {
    census::FastPingConfig fastping;
    fastping.seed = config.seed + static_cast<std::uint64_t>(c) * 101;
    fastping.probe_rate_pps = config.probe_rate_pps;
    fastping.vp_availability = config.vp_availability;
    census::ShardedCensusOutput output = census::run_census_sharded(
        internet, vps, hitlist, blacklist, fastping, {}, /*faults=*/nullptr,
        &pool);
    summaries.push_back(std::move(output.summary));
    combined.combine_min(output.data);
    censuses.push_back(std::move(output.data));
  }
}

bool scaling_valid() { return concurrency::default_thread_count() >= 2; }

void warn_if_scaling_invalid(const char* bench_name) {
  if (scaling_valid()) return;
  std::printf(
      "\n"
      "  ********************************************************************\n"
      "  *  WARNING: %zu hardware thread(s) — scaling numbers are INVALID.  \n"
      "  *  Every thread sweep below serializes on one core; speedups are   \n"
      "  *  flat by construction. %s emits \"scaling_valid\": false.\n"
      "  ********************************************************************\n",
      concurrency::default_thread_count(), bench_name);
}

analysis::CensusReport analyze_combined(const BenchWorld& world,
                                        concurrency::ThreadPool* pool) {
  return analysis::CensusReport(world.internet,
                                analyze_data(world, world.combined, pool));
}

std::vector<analysis::TargetOutcome> analyze_data(
    const BenchWorld& world, const census::ShardedCensusMatrix& data,
    concurrency::ThreadPool* pool) {
  const analysis::CensusAnalyzer analyzer(world.vps, geo::world_index());
  return analyzer.analyze(data, world.hitlist, /*min_vps=*/2, pool);
}

void print_title(const std::string& title) {
  std::printf("\n");
  print_rule();
  std::printf("  %s\n", title.c_str());
  print_rule();
}

void print_subtitle(const std::string& subtitle) {
  std::printf("\n--- %s ---\n", subtitle.c_str());
}

void print_rule() {
  std::printf("=======================================================================\n");
}

void print_compare(const char* metric, const std::string& paper,
                   const std::string& measured) {
  std::printf("  %-38s %16s %16s\n", metric, paper.c_str(),
              measured.c_str());
}

std::string fmt(double value, int decimals) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.*f", decimals, value);
  return buffer;
}

std::string fmt_int(std::uint64_t value) {
  // Group thousands for readability.
  const std::string digits = std::to_string(value);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count != 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  return {out.rbegin(), out.rend()};
}

std::string fmt_pct(double fraction, int decimals) {
  return fmt(fraction * 100.0, decimals) + "%";
}

}  // namespace anycast::bench
