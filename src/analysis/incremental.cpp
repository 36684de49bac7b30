#include "anycast/analysis/incremental.hpp"

#include <algorithm>
#include <numeric>

#include "anycast/concurrency/thread_pool.hpp"
#include "anycast/obs/journal.hpp"
#include "anycast/obs/metrics.hpp"

namespace anycast::analysis {
namespace {

/// Which path each dirty_rows call took. kTiming: the path depends on how
/// the caller produced its matrices, never on what the rows hold, and the
/// answer is the same either way.
struct DirtyRowInstruments {
  obs::Counter derived = obs::metrics().counter(
      "analysis_dirty_rows_derived", obs::MetricClass::kTiming,
      "dirty_rows calls answered from a combine_min change record");
  obs::Counter scanned = obs::metrics().counter(
      "analysis_dirty_rows_scanned", obs::MetricClass::kTiming,
      "dirty_rows calls answered without a record (full scan, or every "
      "row for incomparable layouts)");
};

const DirtyRowInstruments& dirty_row_instruments() {
  static const DirtyRowInstruments instruments;
  return instruments;
}

/// The change record that links `a` and `b`, or null when neither was
/// derived from the other by their last combine_min. Equal stamps mean
/// equal rows: the empty record of `a` stands for "nothing changed".
const std::vector<std::uint32_t>* linking_record(
    const census::ShardedCensusMatrix& a,
    const census::ShardedCensusMatrix& b) {
  static const std::vector<std::uint32_t> kNone;
  if (a.stamp() == b.stamp()) return &kNone;
  if (b.last_change().base == a.stamp()) return &b.last_change().rows;
  if (a.last_change().base == b.stamp()) return &a.last_change().rows;
  return nullptr;
}

/// Element-wise row equality. VpRtt has padding between `vp` and `rtt_ms`,
/// so memcmp over rows would compare garbage bytes.
bool rows_equal(std::span<const census::VpRtt> a,
                std::span<const census::VpRtt> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].vp != b[i].vp || a[i].rtt_ms != b[i].rtt_ms) return false;
  }
  return true;
}

/// Dirty rows of one shard pair of equal target count (local indices,
/// ascending).
std::vector<std::uint32_t> dirty_shard_rows(const census::CensusMatrix& prev,
                                            const census::CensusMatrix& next,
                                            concurrency::ThreadPool* pool) {
  const std::size_t targets = next.target_count();
  const auto scan = [&](std::size_t begin, std::size_t end) {
    std::vector<std::uint32_t> out;
    for (std::size_t t = begin; t < end; ++t) {
      const auto index = static_cast<std::uint32_t>(t);
      if (!rows_equal(prev.measurements(index), next.measurements(index))) {
        out.push_back(index);
      }
    }
    return out;
  };

  // Contiguous ranges weighted by stored measurements (the compare cost),
  // concatenated in index order: identical to the serial scan.
  return concurrency::ordered_concat(
      pool, targets, scan, next.row_offsets().subspan(0, targets + 1));
}

}  // namespace

std::vector<std::uint32_t> dirty_rows(const census::ShardedCensusMatrix& prev,
                                      const census::ShardedCensusMatrix& next,
                                      concurrency::ThreadPool* pool) {
  const std::size_t targets = next.target_count();
  if (!prev.same_layout(next)) {
    dirty_row_instruments().scanned.inc();
    std::vector<std::uint32_t> all(targets);
    std::iota(all.begin(), all.end(), 0u);
    return all;
  }
  if (const auto* record = linking_record(prev, next)) {
    dirty_row_instruments().derived.inc();
    return *record;
  }
  dirty_row_instruments().scanned.inc();
  // Shard pairs in index order, local diffs lifted to global indices:
  // ascending, and the same rows for any shard size.
  std::vector<std::uint32_t> out;
  for (std::size_t s = 0; s < next.shard_count(); ++s) {
    const auto base = static_cast<std::uint32_t>(next.shard_base(s));
    for (const std::uint32_t local :
         dirty_shard_rows(prev.shard(s), next.shard(s), pool)) {
      out.push_back(base + local);
    }
  }
  return out;
}

IncrementalResult incremental_analyze(
    const CensusAnalyzer& analyzer,
    std::span<const TargetOutcome> prev_outcomes,
    const census::ShardedCensusMatrix& prev,
    const census::ShardedCensusMatrix& next, const census::Hitlist& hitlist,
    std::size_t min_vps, concurrency::ThreadPool* pool) {
  IncrementalResult result;
  const std::size_t targets = std::min(next.target_count(), hitlist.size());
  result.dirty = dirty_rows(prev, next, pool);
  while (!result.dirty.empty() && result.dirty.back() >= targets) {
    result.dirty.pop_back();
  }

  // Re-run the full sweep's per-row kernel on the dirty rows only, without
  // its semantic tallies (those count full sweeps). Even chunks over the
  // dirty list concatenate in chunk order, so any lane count agrees; a
  // small dirty set is not worth a fork.
  const auto analyze_some = [&](std::size_t begin, std::size_t end) {
    std::vector<TargetOutcome> out;
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t t = result.dirty[i];
      (void)analyzer.analyze_target(next.measurements(t), t, hitlist, min_vps,
                                    out);
    }
    return out;
  };
  std::vector<TargetOutcome> fresh = concurrency::ordered_concat(
      pool, result.dirty.size(), analyze_some, {}, /*min_parallel=*/32);

  // Splice: carry the previous epoch's outcome for every clean row, take
  // the fresh outcome for every dirty one. Both sequences are sorted by
  // target_index and disjoint, so this is a plain merge.
  result.outcomes.reserve(prev_outcomes.size() + fresh.size());
  std::size_t f = 0;
  for (const TargetOutcome& outcome : prev_outcomes) {
    if (outcome.target_index >= targets) continue;
    if (std::binary_search(result.dirty.begin(), result.dirty.end(),
                           outcome.target_index)) {
      continue;  // superseded (or dropped) by the fresh pass
    }
    while (f < fresh.size() &&
           fresh[f].target_index < outcome.target_index) {
      result.outcomes.push_back(std::move(fresh[f++]));
    }
    result.outcomes.push_back(outcome);
  }
  while (f < fresh.size()) result.outcomes.push_back(std::move(fresh[f++]));

  obs::Journal& j = obs::journal();
  j.emit(obs::MetricClass::kSemantic, obs::Severity::kInfo,
         "analysis.incremental", j.next_order(),
         {{"targets", targets},
          {"dirty", result.dirty.size()},
          {"reused", result.outcomes.size() - fresh.size()},
          {"anycast", result.outcomes.size()}});
  j.commit();
  return result;
}

}  // namespace anycast::analysis
