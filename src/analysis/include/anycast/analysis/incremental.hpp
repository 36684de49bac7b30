// Incremental re-analysis for recurring censuses (watch mode).
//
// Between two rounds of a steady deployment most /24 RTT vectors are
// bit-identical — the census seed is fixed, so a static world replays the
// same rows. Re-running detection + iGreedy over every row would make each
// watch round cost a full census analysis; instead the daemon diffs the
// frozen CSR snapshot row-by-row and re-analyzes only the dirty rows,
// splicing fresh outcomes over the previous epoch's. The merged result is
// element-identical to a full re-analyze of the new matrix — the invariant
// `daemon_test` pins — because analysis is per-row pure: a row that did not
// change cannot change its verdict.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "anycast/analysis/analyzer.hpp"

namespace anycast::analysis {

/// Target indices (dense hitlist rows) whose RTT vectors differ between
/// two sharded CSR snapshots, ascending. Shard pairs are diffed in index
/// order and rows compared element-wise (vp and rtt) — never by memcmp,
/// which would read struct padding. Snapshots with different layouts
/// (target count or shard size) are incomparable: every row of `next` is
/// dirty.
[[nodiscard]] std::vector<std::uint32_t> dirty_rows(
    const census::ShardedCensusMatrix& prev,
    const census::ShardedCensusMatrix& next,
    concurrency::ThreadPool* pool = nullptr);

/// Outcome of an incremental pass.
struct IncrementalResult {
  /// Element-identical to `analyzer.analyze(next, hitlist, min_vps, pool)`
  /// when `prev_outcomes` is the analysis of `prev` under the same
  /// analyzer and `min_vps`.
  std::vector<TargetOutcome> outcomes;
  /// The rows that were re-analyzed (ascending) — also the only rows whose
  /// hijack verdict can have changed, so the daemon scans exactly these.
  std::vector<std::uint32_t> dirty;
};

/// Re-analyzes only the rows of `next` that differ from `prev`, reusing
/// `prev_outcomes` (the full analysis of `prev`, sorted by target_index)
/// for every clean row. Global-index row routing is O(1) and dirty
/// detection diffs shard pairs. Emits one `analysis.incremental` semantic
/// event and commits the journal, mirroring the full sweep's boundary.
[[nodiscard]] IncrementalResult incremental_analyze(
    const CensusAnalyzer& analyzer,
    std::span<const TargetOutcome> prev_outcomes,
    const census::ShardedCensusMatrix& prev,
    const census::ShardedCensusMatrix& next, const census::Hitlist& hitlist,
    std::size_t min_vps = 2, concurrency::ThreadPool* pool = nullptr);

}  // namespace anycast::analysis
