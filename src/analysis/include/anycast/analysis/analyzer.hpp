// Census analysis driver: from collected RTTs to anycast verdicts.
//
// Processing a census means running detection over O(10^6) responsive
// targets and full iGreedy only on the few that violate the speed of
// light. Detection here is exact pairwise disjointness but runs on a
// precomputed VP-to-VP distance matrix, so the per-target cost is pure
// arithmetic — this is the optimisation that brought the paper's analysis
// from days (Census 0) to under three hours (Sec. 3.5).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "anycast/census/census.hpp"
#include "anycast/census/hitlist.hpp"
#include "anycast/census/sharded.hpp"
#include "anycast/core/igreedy.hpp"
#include "anycast/net/types.hpp"

namespace anycast::concurrency {
class ThreadPool;
}

namespace anycast::analysis {

/// Analysis outcome for one target that was detected as anycast.
struct TargetOutcome {
  std::uint32_t target_index = 0;   // dense hitlist index
  std::uint32_t slash24_index = 0;  // the /24 it represents
  core::Result result;
};

class CensusAnalyzer {
 public:
  /// `vps` must outlive the analyzer; believed VP locations are used (the
  /// analysis can only know what the platform metadata claims).
  CensusAnalyzer(std::span<const net::VantagePoint> vps,
                 const geo::CityIndex& cities, core::Options options = {});

  /// Detection sweep + full iGreedy on detected targets. Only targets with
  /// at least `min_vps` echo replies are considered (a single disk can
  /// never violate the speed of light). Shards are swept in index order;
  /// with a multi-lane `pool`, each shard's targets are split into
  /// contiguous row ranges over its CSR offset array — balanced by stored
  /// measurements, not row count — analysed concurrently, and the
  /// per-range outcomes are concatenated in index order. Outcomes carry
  /// global target indices, so the result — and the single semantic
  /// analysis.summary event — is element-identical for any shard size
  /// and thread count. Reads work on spilled shards; their pages fault
  /// back from the spill files as the sweep touches them.
  [[nodiscard]] std::vector<TargetOutcome> analyze(
      const census::ShardedCensusMatrix& data, const census::Hitlist& hitlist,
      std::size_t min_vps = 2, concurrency::ThreadPool* pool = nullptr) const;

  /// The cheap detection predicate on one target row. Runs a witness-point
  /// prefilter (O(n log n) for the typical unicast row) in front of the
  /// exact pairwise test; the verdict is identical to the full O(n^2)
  /// sweep, which `detect_scan` retains as the oracle.
  [[nodiscard]] bool detect(std::span<const census::VpRtt> row) const;

  /// Pre-kernel full pairwise detection sweep (oracle for property tests
  /// and the scalar side of the bench_analysis_kernel duel).
  [[nodiscard]] bool detect_scan(std::span<const census::VpRtt> row) const;

  /// Full iGreedy on one target row (used for detected targets and for
  /// focused studies like the Fig. 5 platform comparison).
  [[nodiscard]] core::Result analyze_row(
      std::span<const census::VpRtt> row) const;

  [[nodiscard]] std::size_t vp_count() const { return vps_.size(); }

 private:
  std::span<const net::VantagePoint> vps_;
  const geo::CityIndex* cities_;
  core::Options options_;
  core::IGreedy igreedy_;
  std::vector<double> vp_distance_km_;  // dense vp x vp matrix
};

}  // namespace anycast::analysis
