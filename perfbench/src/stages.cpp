#include "stages.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "anycast/serving/snapshot.hpp"

namespace perfbench {

using anycast::analysis::TargetOutcome;

anycast::census::DataPlaneConfig data_plane() {
  anycast::census::DataPlaneConfig plane;
  plane.shard_targets = std::size_t{1} << 18;
  return plane;
}

std::vector<TargetOutcome> analyze_and_publish(
    const anycast::analysis::CensusAnalyzer& analyzer,
    anycast::census::ShardedCensusMatrix matrix,
    const anycast::census::Hitlist& hitlist, std::uint64_t id,
    anycast::concurrency::ThreadPool& pool,
    anycast::serving::SnapshotStore& store, Tracer& tracer,
    std::uint32_t parent, ReadyTimes& times) {
  std::vector<TargetOutcome> outcomes;
  {
    const ScopedSpan span(tracer, "analysis.verdict", parent);
    const double cpu0 = process_cpu_s();
    const std::uint64_t t0 = now_ns();
    outcomes = analyzer.analyze(matrix, hitlist, /*min_vps=*/2, &pool);
    times.verdict_s = seconds_between(t0, now_ns());
    times.verdict_cpu_s = process_cpu_s() - cpu0;
  }
  anycast::serving::SnapshotView view;
  {
    const ScopedSpan span(tracer, "serving.snapshot_build", parent);
    const std::uint64_t t0 = now_ns();
    view = anycast::serving::SnapshotView::build(std::move(matrix), outcomes,
                                                 id, &hitlist);
    times.snapshot_build_s = seconds_between(t0, now_ns());
  }
  {
    const ScopedSpan span(tracer, "serving.publish", parent);
    const std::uint64_t t0 = now_ns();
    store.publish(std::move(view));
    times.publish_s = seconds_between(t0, now_ns());
  }
  return outcomes;
}

Accuracy accuracy(std::span<const TargetOutcome> outcomes,
                  const std::vector<bool>& truth, std::size_t truth_count) {
  Accuracy out;
  for (const TargetOutcome& outcome : outcomes) {
    if (!outcome.result.anycast) continue;
    ++out.detected;
    if (outcome.target_index < truth.size() && truth[outcome.target_index]) {
      ++out.true_positives;
    }
  }
  out.recall = truth_count == 0 ? 0.0
                                : static_cast<double>(out.true_positives) /
                                      static_cast<double>(truth_count);
  out.precision = out.detected == 0
                      ? 0.0
                      : static_cast<double>(out.true_positives) /
                            static_cast<double>(out.detected);
  return out;
}

std::uint64_t outcome_digest(std::span<const TargetOutcome> outcomes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 0x100000001B3ULL; };
  for (const TargetOutcome& outcome : outcomes) {
    mix(outcome.target_index);
    for (const anycast::core::Replica& replica : outcome.result.replicas) {
      std::uint64_t lat = 0, lon = 0;
      const double lat_deg = replica.location.latitude();
      const double lon_deg = replica.location.longitude();
      std::memcpy(&lat, &lat_deg, sizeof lat);
      std::memcpy(&lon, &lon_deg, sizeof lon);
      mix(replica.vp_id);
      mix(lat);
      mix(lon);
    }
  }
  return h;
}

bool same_outcomes(std::span<const TargetOutcome> a,
                   std::span<const TargetOutcome> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const TargetOutcome& x = a[i];
    const TargetOutcome& y = b[i];
    if (x.target_index != y.target_index ||
        x.slash24_index != y.slash24_index ||
        x.result.anycast != y.result.anycast ||
        x.result.replicas.size() != y.result.replicas.size()) {
      return false;
    }
    for (std::size_t r = 0; r < x.result.replicas.size(); ++r) {
      const anycast::core::Replica& p = x.result.replicas[r];
      const anycast::core::Replica& q = y.result.replicas[r];
      if (p.vp_id != q.vp_id || p.city != q.city ||
          p.location.latitude() != q.location.latitude() ||
          p.location.longitude() != q.location.longitude()) {
        return false;
      }
    }
  }
  return true;
}

bool same_matrix(const anycast::census::ShardedCensusMatrix& a,
                 const anycast::census::ShardedCensusMatrix& b) {
  if (a.target_count() != b.target_count() ||
      a.observation_count() != b.observation_count()) {
    return false;
  }
  for (std::uint32_t t = 0; t < a.target_count(); ++t) {
    const auto x = a.measurements(t);
    const auto y = b.measurements(t);
    if (x.size() != y.size()) return false;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (x[i].vp != y[i].vp || x[i].rtt_ms != y[i].rtt_ms) return false;
    }
  }
  return true;
}

void analysis_sweeps(const anycast::analysis::CensusAnalyzer& analyzer,
                     const anycast::census::ShardedCensusMatrix& matrix,
                     std::span<const TargetOutcome> outcomes,
                     Ledger& ledger) {
  std::vector<std::uint32_t> detected;
  std::size_t considered = 0;
  const std::uint64_t t0 = now_ns();
  for (std::uint32_t t = 0; t < matrix.target_count(); ++t) {
    const auto row = matrix.measurements(t);
    if (row.size() < 2) continue;
    ++considered;
    if (analyzer.detect(row)) detected.push_back(t);
  }
  const double detect_s = seconds_between(t0, now_ns());

  Histogram igreedy_ns;
  double igreedy_s = 0.0;
  std::uint64_t replicas = 0;
  for (const std::uint32_t t : detected) {
    const std::uint64_t r0 = now_ns();
    const anycast::core::Result result =
        analyzer.analyze_row(matrix.measurements(t));
    const std::uint64_t r1 = now_ns();
    igreedy_s += seconds_between(r0, r1);
    igreedy_ns.add(r1 - r0);
    if (result.anycast) replicas += result.replicas.size();
  }
  ledger.metric("analysis.rows_considered", static_cast<double>(considered),
                "count");
  ledger.metric("analysis.detected", static_cast<double>(detected.size()),
                "count");
  ledger.metric("analysis.detect_ns_per_row",
                considered == 0 ? 0.0
                                : detect_s * 1e9 / static_cast<double>(considered),
                "ns");
  emit_percentiles(
      ledger, igreedy_ns.count(),
      [&](double q) { return igreedy_ns.quantile(q) / 1e6; },
      "analysis.igreedy_ms_per_row_p50", "analysis.igreedy_ms_per_row_p95",
      0.95, "analysis.igreedy_samples", "ms");
  ledger.metric("analysis.igreedy_s", igreedy_s, "s");
  ledger.metric("core.replicas", static_cast<double>(replicas), "count");
  std::uint64_t served = 0;
  for (const TargetOutcome& outcome : outcomes) {
    served += outcome.result.replicas.size();
  }
  if (served != replicas) {
    ledger.fail_check("serial iGreedy enumerated " + std::to_string(replicas) +
                      " replicas, the pooled analysis " +
                      std::to_string(served));
  }
}

double overhead_pct(double treated, double baseline) {
  return baseline <= 0.0 ? 0.0 : (treated / baseline - 1.0) * 100.0;
}

}  // namespace perfbench
