// Pieces the workloads share: the ready stage (matrix -> analysis ->
// published snapshot), output checks, and the serial analysis sweeps the
// traced run uses for its per-row ledger.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <span>
#include <vector>

#include "anycast/analysis/analyzer.hpp"
#include "anycast/census/sharded.hpp"
#include "anycast/concurrency/thread_pool.hpp"
#include "anycast/serving/store.hpp"
#include "bench.hpp"

namespace perfbench {

/// One shard per 2^18 targets, never spilled: the paper-scale shape the
/// sharded data plane was built for, with every shard resident.
anycast::census::DataPlaneConfig data_plane();

/// Wall times of one pass from census matrix to published snapshot.
struct ReadyTimes {
  double verdict_s = 0.0;      // CensusAnalyzer::analyze
  double verdict_cpu_s = 0.0;  // process CPU during analyze
  double snapshot_build_s = 0.0;
  double publish_s = 0.0;
};

/// Analyzes `matrix` on the pool, freezes it with the outcomes into a
/// snapshot and publishes it. Returns a copy of the outcomes (the view
/// keeps its own) for the output checks.
std::vector<anycast::analysis::TargetOutcome> analyze_and_publish(
    const anycast::analysis::CensusAnalyzer& analyzer,
    anycast::census::ShardedCensusMatrix matrix,
    const anycast::census::Hitlist& hitlist, std::uint64_t id,
    anycast::concurrency::ThreadPool& pool,
    anycast::serving::SnapshotStore& store, Tracer& tracer,
    std::uint32_t parent, ReadyTimes& times);

/// Share of true anycast /24s detected, and share of detections that are
/// true anycast.
struct Accuracy {
  double recall = 0.0;
  double precision = 0.0;
  std::size_t detected = 0;
  std::size_t true_positives = 0;
};
Accuracy accuracy(std::span<const anycast::analysis::TargetOutcome> outcomes,
                  const std::vector<bool>& truth, std::size_t truth_count);

/// FNV-1a digest of an outcome list (targets, replica VPs and positions), so
/// two runs on one seed can be compared from their printed output.
std::uint64_t outcome_digest(
    std::span<const anycast::analysis::TargetOutcome> outcomes);

/// Element-wise equality of two outcome lists (target, /24, verdict and
/// every replica's VP, city and position).
bool same_outcomes(std::span<const anycast::analysis::TargetOutcome> a,
                   std::span<const anycast::analysis::TargetOutcome> b);

/// Element-wise equality of two census matrices (never memcmp: VpRtt has
/// padding).
bool same_matrix(const anycast::census::ShardedCensusMatrix& a,
                 const anycast::census::ShardedCensusMatrix& b);

/// Serial per-row sweeps for the traced ledger: detect() over every row
/// with at least two measurements, then analyze_row() on each detected
/// row. Emits the analysis.* row metrics and core.replicas, and fails the
/// run when the enumerated replicas differ from `outcomes` (the pooled
/// analysis of the same matrix).
void analysis_sweeps(
    const anycast::analysis::CensusAnalyzer& analyzer,
    const anycast::census::ShardedCensusMatrix& matrix,
    std::span<const anycast::analysis::TargetOutcome> outcomes,
    Ledger& ledger);

/// Emits the median under `p50_name`, the `tail_q` quantile under
/// `tail_name` (lowered to the highest percentile that leaves ten samples
/// beyond it when there are too few), and the sample count under
/// `samples_name`. `quantile(q)` returns values already in `unit`.
template <typename Quantile>
void emit_percentiles(Ledger& ledger, std::uint64_t samples,
                      Quantile quantile, const char* p50_name,
                      const char* tail_name, double tail_q,
                      const char* samples_name, const char* unit) {
  const double tail = std::min(tail_q, tail_fraction(samples));
  ledger.metric(p50_name, quantile(0.5), unit);
  ledger.metric(tail_name, quantile(tail), unit);
  ledger.metric(samples_name, static_cast<double>(samples), "count");
  std::printf("  %-34s n=%llu, tail metric is p%g\n", tail_name,
              static_cast<unsigned long long>(samples), tail * 100.0);
}

/// Relative cost of `treated` over `baseline` as a percentage.
double overhead_pct(double treated, double baseline);

}  // namespace perfbench
