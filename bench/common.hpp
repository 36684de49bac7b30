// Shared infrastructure for the per-figure bench binaries.
//
// Each bench regenerates one table or figure of the paper's evaluation on
// a scaled-down world: the anycast population is at full catalog size
// (1,696 /24s in 346 ASes), while the unicast background is sampled at
// roughly 1:160 of the real Internet so a full census takes seconds, not
// hours. Where a paper number depends on the absolute universe size (e.g.
// the Fig. 4 funnel), benches print both the measured value and the value
// extrapolated back to the paper's 6.6M-target hitlist.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "anycast/analysis/analyzer.hpp"
#include "anycast/analysis/report.hpp"
#include "anycast/census/sharded.hpp"
#include "anycast/concurrency/thread_pool.hpp"
#include "anycast/geo/city_index.hpp"
#include "anycast/net/internet.hpp"
#include "anycast/net/platform.hpp"

namespace anycast::bench {

/// Paper-scale constants, for extrapolation columns.
inline constexpr double kPaperHitlistSize = 6.6e6;
inline constexpr double kPaperRoutedSlash24 = 10.6e6;

struct BenchConfig {
  std::uint64_t seed = 2015;  // census year, for flavour
  std::uint32_t unicast_alive_slash24 = 22000;
  std::uint32_t unicast_silent_slash24 = 26000;
  std::uint32_t unicast_dead_slash24 = 28000;
  int vp_count = 250;
  int census_count = 4;
  double probe_rate_pps = 1000.0;
  double vp_availability = 0.85;  // PL node churn across censuses
  /// Census worker threads (0 = all cores). Results are thread-count
  /// invariant — the merge order is fixed — so every bench regenerates
  /// the same numbers at any setting; 1 keeps the exact serial path.
  int threads = 1;
};

/// A fully-built world with a completed (multi-)census and its analysis.
struct BenchWorld {
  net::SimulatedInternet internet;
  std::vector<net::VantagePoint> vps;
  census::Hitlist full_hitlist;  // including dead space
  census::Hitlist hitlist;       // probed targets
  census::Greylist blacklist;
  std::vector<census::ShardedCensusMatrix> censuses;
  std::vector<census::CensusSummary> summaries;
  census::ShardedCensusMatrix combined;

  explicit BenchWorld(const BenchConfig& config = {});

  /// Scale factor from this world's probed hitlist to the paper's.
  [[nodiscard]] double hitlist_scale() const {
    return kPaperHitlistSize / static_cast<double>(hitlist.size());
  }
};

/// Whether speedup/scaling numbers measured on this host mean anything:
/// with fewer than 2 hardware threads every "parallel" phase serializes
/// on one core, so thread-sweep curves are flat by construction, not by
/// defect. Benches that report scaling MUST emit this as
/// `"scaling_valid"` in their JSON and print a prominent warning when it
/// is false, so a single-core CI host cannot masquerade as a scaling
/// regression (or a scaling win).
[[nodiscard]] bool scaling_valid();

/// Prints the prominent single-core disclaimer when !scaling_valid().
void warn_if_scaling_invalid(const char* bench_name);

/// Analysis over the combined census (detection + iGreedy + attribution).
/// A multi-lane `pool` shards the sweep; the report is identical either
/// way.
analysis::CensusReport analyze_combined(const BenchWorld& world,
                                        concurrency::ThreadPool* pool =
                                            nullptr);
std::vector<analysis::TargetOutcome> analyze_data(
    const BenchWorld& world, const census::ShardedCensusMatrix& data,
    concurrency::ThreadPool* pool = nullptr);

// ---- Table rendering -------------------------------------------------------

void print_title(const std::string& title);
void print_subtitle(const std::string& subtitle);
void print_rule();

/// "paper vs measured" convenience row.
void print_compare(const char* metric, const std::string& paper,
                   const std::string& measured);

std::string fmt(double value, int decimals = 1);
std::string fmt_int(std::uint64_t value);
std::string fmt_pct(double fraction, int decimals = 0);

}  // namespace anycast::bench
