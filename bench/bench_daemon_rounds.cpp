// Continuous-census daemon economics: what does a watch round cost, and
// what does incremental re-analysis buy on the low-churn rounds the
// longitudinal campaign is made of?
//
// Ten rounds probe the same world with a fixed census seed; from round 2
// on, one deployment prefix toggles a replica site per round (the watch
// daemon's churn model), so each round dirties a handful of rows out of
// thousands. Every round is analyzed twice — a full detection + iGreedy
// sweep and the incremental splice over the dirty rows — and the bench
// asserts the two are element-identical before reporting the speedup.
// Results land in BENCH_daemon.json: per-round wall/CPU for the census
// and both analysis passes, dirty-row counts, and RSS across the rounds
// (the daemon must not accrete memory round over round).
//
// A second leg times serving rounds derived from the last published
// snapshot, as a publisher republishing a churned census does: copy the
// published matrix, combine_min a ~0.4% churn, then dirty_rows,
// incremental_analyze, SnapshotView::build and publish. dirty_rows must
// answer from the combine_min change record (the "derived" path) and
// agree with the same diff forced through the full scan; the leg reports
// per-round seconds for each step and the path taken. The copy (copy_s)
// and the combine_min (combine_s) are timed apart from round_s, which
// starts at dirty_rows: both share storage with the published matrix, so
// they cost O(rows changed), not O(matrix).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <thread>
#include <vector>

#include "common.hpp"
#include "anycast/analysis/incremental.hpp"
#include "anycast/obs/metrics.hpp"
#include "anycast/rng/distributions.hpp"
#include "anycast/serving/snapshot.hpp"
#include "anycast/serving/store.hpp"

namespace {

using namespace anycast;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds() {
#if defined(__linux__) || defined(__APPLE__)
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
#endif
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

std::size_t current_rss_kb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  std::size_t kb = 0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kb = static_cast<std::size_t>(std::strtoull(line + 6, nullptr, 10));
      break;
    }
  }
  std::fclose(status);
  return kb;
}

/// The watch daemon's churn model, replicated: toggle one replica site of
/// one prefix, drawn purely from (seed, round).
void apply_round_churn(net::SimulatedInternet& internet, std::uint64_t seed,
                       int round) {
  const auto draw = [&](std::uint64_t tag) {
    return rng::hash_uniform01(
        rng::hash_key(seed, static_cast<std::uint64_t>(round), tag));
  };
  const auto deployments = internet.deployments();
  const std::size_t start = static_cast<std::size_t>(
      draw(1) * static_cast<double>(deployments.size()));
  for (std::size_t i = 0; i < deployments.size(); ++i) {
    const std::size_t dep = (start + i) % deployments.size();
    if (deployments[dep].sites.size() < 2 ||
        deployments[dep].prefix_site_masks.empty()) {
      continue;
    }
    const std::size_t prefix = static_cast<std::size_t>(
        draw(2) *
        static_cast<double>(deployments[dep].prefix_site_masks.size()));
    const std::size_t site = static_cast<std::size_t>(
        draw(3) * static_cast<double>(deployments[dep].sites.size()));
    const std::uint64_t mask = deployments[dep].prefix_site_masks[prefix];
    internet.set_prefix_site_mask(dep, prefix,
                                  mask ^ (std::uint64_t{1} << site));
    return;
  }
}

bool same_outcomes(const std::vector<analysis::TargetOutcome>& a,
                   const std::vector<analysis::TargetOutcome>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].target_index != b[i].target_index ||
        a[i].slash24_index != b[i].slash24_index ||
        a[i].result.anycast != b[i].result.anycast ||
        a[i].result.replicas.size() != b[i].result.replicas.size()) {
      return false;
    }
  }
  return true;
}

struct RoundCost {
  int round = 0;
  double census_s = 0.0;
  double census_cpu_s = 0.0;
  double full_s = 0.0;
  double incremental_s = 0.0;  // 0 on round 1 (nothing to splice against)
  std::size_t dirty = 0;
  std::size_t anycast = 0;
  std::size_t rss_kb = 0;
};

/// One serving round derived from the last published snapshot.
struct DerivedCost {
  int round = 0;
  std::size_t dirty = 0;
  bool derived = false;       // dirty_rows answered from the change record
  double copy_s = 0.0;        // copying the published matrix
  double combine_s = 0.0;     // combine_min of the churn into the copy
  double dirty_s = 0.0;       // dirty_rows as the round ran it
  double scan_s = 0.0;        // the same diff forced through the full scan
  double incremental_s = 0.0;
  double build_s = 0.0;
  double publish_s = 0.0;
  double round_s = 0.0;       // dirty + incremental + build + publish
};

std::uint64_t derived_path_calls() {
  for (const obs::MetricValue& value : obs::metrics().scrape()) {
    if (value.name == "analysis_dirty_rows_derived") return value.value;
  }
  return 0;
}

/// Churn for derived round `round`: ~0.4% of rows, drawn purely from
/// (seed, round, target). A chosen row's first RTT is halved; an empty
/// row gains one VP-0 sample.
census::ShardedCensusMatrix derived_churn(
    const census::ShardedCensusMatrix& base, std::uint64_t seed, int round) {
  census::ShardedCensusMatrixBuilder builder(base.target_count(),
                                             base.plane());
  for (std::uint32_t t = 0; t < base.target_count(); ++t) {
    const double draw = rng::hash_uniform01(
        rng::hash_key(seed, static_cast<std::uint64_t>(round), t));
    if (draw >= 0.004) continue;
    const auto row = base.measurements(t);
    if (row.empty()) {
      builder.add(t, 0, 50.0F);
    } else {
      builder.add(t, row.front().vp, row.front().rtt_ms * 0.5F);
    }
  }
  return builder.build();
}

}  // namespace

int main() {
  constexpr int kRounds = 10;
  constexpr std::uint64_t kChurnSeed = 77;

  net::WorldConfig world_config;
  world_config.seed = 2015;
  world_config.unicast_alive_slash24 = 6000;
  world_config.unicast_dead_slash24 = 2000;
  net::SimulatedInternet internet(world_config);
  const auto vps = net::make_planetlab({.node_count = 120, .seed = 7});
  const census::Hitlist hitlist =
      census::Hitlist::from_world(internet).without_dead();
  census::FastPingConfig fastping;
  fastping.seed = 90;  // fixed across rounds: static rows replay exactly
  concurrency::ThreadPool pool(0);
  const analysis::CensusAnalyzer analyzer(vps, geo::world_index());

  bench::print_title(
      "Continuous daemon rounds — census + incremental re-analysis cost");
  std::printf("  %zu targets, %zu VPs, %d rounds, 1 site toggle per round\n",
              hitlist.size(), vps.size(), kRounds);
  std::printf("  %-6s %10s %10s %10s %10s %8s %8s %10s\n", "round",
              "census s", "cpu s", "full s", "incr s", "dirty", "anycast",
              "rss MB");

  census::ShardedCensusMatrix prev;
  std::vector<analysis::TargetOutcome> prev_outcomes;
  std::vector<RoundCost> costs;
  bool identical = true;
  for (int round = 1; round <= kRounds; ++round) {
    if (round >= 2) apply_round_churn(internet, kChurnSeed, round);

    RoundCost cost;
    cost.round = round;
    census::Greylist blacklist;
    const double cpu0 = cpu_seconds();
    auto start = Clock::now();
    census::ShardedCensusMatrix data =
        census::run_census_sharded(internet, vps, hitlist, blacklist,
                                   fastping, {}, nullptr, &pool)
            .data;
    cost.census_s = seconds_since(start);
    cost.census_cpu_s = cpu_seconds() - cpu0;

    start = Clock::now();
    const auto full = analyzer.analyze(data, hitlist, 2, &pool);
    cost.full_s = seconds_since(start);
    cost.anycast = full.size();

    if (round >= 2) {
      start = Clock::now();
      auto incremental = analysis::incremental_analyze(
          analyzer, prev_outcomes, prev, data, hitlist, 2, &pool);
      cost.incremental_s = seconds_since(start);
      cost.dirty = incremental.dirty.size();
      identical = identical && same_outcomes(incremental.outcomes, full);
    }
    cost.rss_kb = current_rss_kb();
    std::printf("  %-6d %10.3f %10.3f %10.3f %10.3f %8zu %8zu %10.1f\n",
                round, cost.census_s, cost.census_cpu_s, cost.full_s,
                cost.incremental_s, cost.dirty, cost.anycast,
                static_cast<double>(cost.rss_kb) / 1024.0);
    costs.push_back(cost);

    prev = std::move(data);
    prev_outcomes = full;
  }

  // Derived serving rounds over the last census round's matrix.
  constexpr int kDerivedRounds = 10;
  std::printf("\n  derived serving rounds (copy + combine_min churn, then "
              "timed):\n");
  std::printf("  %-6s %8s %8s %11s %11s %11s %11s %11s %11s %11s %11s\n",
              "round", "dirty", "path", "copy s", "combine s", "dirty s",
              "scan s", "incr s", "build s", "publish s", "round s");
  serving::SnapshotStore store;
  store.publish(serving::SnapshotView::build(prev, prev_outcomes, 0, &hitlist));
  std::vector<DerivedCost> derived_costs;
  bool derived_identical = true;
  for (int round = 1; round <= kDerivedRounds; ++round) {
    serving::ReadGuard last = store.acquire();
    const census::ShardedCensusMatrix churn =
        derived_churn(last->matrix(), kChurnSeed, round);
    DerivedCost cost;
    cost.round = round;
    auto start = Clock::now();
    census::ShardedCensusMatrix next = last->matrix();
    cost.copy_s = seconds_since(start);
    start = Clock::now();
    next.combine_min(churn);
    cost.combine_s = seconds_since(start);

    const std::uint64_t derived_before = derived_path_calls();
    start = Clock::now();
    const std::vector<std::uint32_t> dirty =
        analysis::dirty_rows(last->matrix(), next, &pool);
    cost.dirty_s = seconds_since(start);
    cost.derived = derived_path_calls() == derived_before + 1;
    cost.dirty = dirty.size();

    // Untimed: the same diff through the full scan. A write access through
    // shard() draws a fresh stamp without changing a row.
    census::ShardedCensusMatrix forced = next;
    (void)forced.shard(0);
    start = Clock::now();
    const std::vector<std::uint32_t> scanned =
        analysis::dirty_rows(last->matrix(), forced, &pool);
    cost.scan_s = seconds_since(start);

    start = Clock::now();
    analysis::IncrementalResult incremental = analysis::incremental_analyze(
        analyzer, last->outcomes(), last->matrix(), next, hitlist, 2, &pool);
    cost.incremental_s = seconds_since(start);
    start = Clock::now();
    serving::SnapshotView view = serving::SnapshotView::build(
        std::move(next), std::move(incremental.outcomes),
        static_cast<std::uint64_t>(round), &hitlist);
    cost.build_s = seconds_since(start);
    start = Clock::now();
    last.release();
    store.publish(std::move(view));
    cost.publish_s = seconds_since(start);
    cost.round_s =
        cost.dirty_s + cost.incremental_s + cost.build_s + cost.publish_s;

    derived_identical = derived_identical && cost.derived &&
                        dirty == scanned && incremental.dirty == dirty;
    std::printf(
        "  %-6d %8zu %8s %11.9f %11.9f %11.6f %11.6f %11.6f %11.6f %11.6f "
        "%11.6f\n",
        round, cost.dirty, cost.derived ? "derived" : "scanned", cost.copy_s,
        cost.combine_s, cost.dirty_s, cost.scan_s, cost.incremental_s,
        cost.build_s, cost.publish_s, cost.round_s);
    derived_costs.push_back(cost);
  }
  {
    // The final published round must equal a full analysis of its matrix.
    const serving::ReadGuard final_round = store.acquire();
    const auto full =
        analyzer.analyze(final_round->matrix(), hitlist, 2, &pool);
    const std::vector<analysis::TargetOutcome> served(
        final_round->outcomes().begin(), final_round->outcomes().end());
    derived_identical = derived_identical && same_outcomes(served, full);
  }
  double dirty_total = 0.0, scan_total = 0.0;
  for (const DerivedCost& cost : derived_costs) {
    dirty_total += cost.dirty_s;
    scan_total += cost.scan_s;
  }
  const double derived_speedup =
      dirty_total > 0.0 ? scan_total / dirty_total : 0.0;
  std::printf("  derived dirty_rows vs full scan: %.1fx  (%s)\n",
              derived_speedup,
              derived_identical
                  ? "record path taken, dirty rows and outcomes identical"
                  : "DERIVED ROUNDS DIVERGED OR SCANNED");

  double full_total = 0.0, incr_total = 0.0;
  for (const RoundCost& cost : costs) {
    if (cost.round >= 2) {
      full_total += cost.full_s;
      incr_total += cost.incremental_s;
    }
  }
  const double speedup = incr_total > 0.0 ? full_total / incr_total : 0.0;
  bench::print_rule();
  std::printf("  incremental vs full (rounds 2-%d): %.1fx  (%s)\n", kRounds,
              speedup,
              identical ? "outcomes element-identical"
                        : "OUTCOMES DIVERGED — INCREMENTAL BUG");
  const double rss_growth =
      static_cast<double>(costs.back().rss_kb) -
      static_cast<double>(costs[1].rss_kb);
  std::printf("  RSS drift rounds 2->%d: %+.1f MB\n", kRounds,
              rss_growth / 1024.0);

  std::FILE* json = std::fopen("BENCH_daemon.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"bench\": \"daemon_rounds\",\n"
                 "  \"hardware_threads\": %u,\n"
                 "  \"targets\": %zu,\n  \"vps\": %zu,\n"
                 "  \"round_count\": %d,\n"
                 "  \"incremental_identical\": %s,\n"
                 "  \"incremental_speedup\": %.2f,\n  \"rounds\": [\n",
                 std::thread::hardware_concurrency(), hitlist.size(),
                 vps.size(), kRounds, identical ? "true" : "false", speedup);
    for (std::size_t i = 0; i < costs.size(); ++i) {
      const RoundCost& cost = costs[i];
      std::fprintf(json,
                   "    {\"round\": %d, \"census_s\": %.6f, "
                   "\"census_cpu_s\": %.6f, \"full_analyze_s\": %.6f, "
                   "\"incremental_s\": %.6f, \"dirty\": %zu, "
                   "\"anycast\": %zu, \"rss_kb\": %zu}%s\n",
                   cost.round, cost.census_s, cost.census_cpu_s, cost.full_s,
                   cost.incremental_s, cost.dirty, cost.anycast, cost.rss_kb,
                   i + 1 < costs.size() ? "," : "");
    }
    std::fprintf(json,
                 "  ],\n  \"derived_identical\": %s,\n"
                 "  \"derived_dirty_speedup\": %.2f,\n"
                 "  \"derived_rounds\": [\n",
                 derived_identical ? "true" : "false", derived_speedup);
    for (std::size_t i = 0; i < derived_costs.size(); ++i) {
      const DerivedCost& cost = derived_costs[i];
      std::fprintf(json,
                   "    {\"round\": %d, \"dirty\": %zu, \"path\": \"%s\", "
                   "\"copy_s\": %.9f, \"combine_s\": %.9f, "
                   "\"dirty_s\": %.6f, \"scan_s\": %.6f, "
                   "\"incremental_s\": %.6f, \"build_s\": %.6f, "
                   "\"publish_s\": %.6f, \"round_s\": %.6f}%s\n",
                   cost.round, cost.dirty,
                   cost.derived ? "derived" : "scanned", cost.copy_s,
                   cost.combine_s, cost.dirty_s,
                   cost.scan_s, cost.incremental_s, cost.build_s,
                   cost.publish_s, cost.round_s,
                   i + 1 < derived_costs.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("  wrote BENCH_daemon.json\n");
  }
  return identical && derived_identical ? 0 : 1;
}
