#include "anycast/analysis/incremental.hpp"

#include <algorithm>
#include <numeric>

#include "anycast/concurrency/thread_pool.hpp"
#include "anycast/obs/journal.hpp"

namespace anycast::analysis {
namespace {

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

  if (pool == nullptr || pool->thread_count() <= 1) {
    return scan(0, targets);
  }
  // Contiguous ranges weighted by stored measurements (the compare cost),
  // concatenated in index order: identical to the serial scan.
  const auto ranges = concurrency::shard_ranges_weighted(
      next.row_offsets().subspan(0, targets + 1), pool->thread_count() * 8);
  auto parts = pool->parallel_map(ranges.size(), [&](std::size_t r) {
    return scan(ranges[r].first, ranges[r].second);
  });
  std::vector<std::uint32_t> out;
  std::size_t total = 0;
  for (const auto& part : parts) total += part.size();
  out.reserve(total);
  for (const auto& part : parts) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

}  // namespace

std::vector<std::uint32_t> dirty_rows(const census::ShardedCensusMatrix& prev,
                                      const census::ShardedCensusMatrix& next,
                                      concurrency::ThreadPool* pool) {
  const std::size_t targets = next.target_count();
  if (!prev.same_layout(next)) {
    std::vector<std::uint32_t> all(targets);
    std::iota(all.begin(), all.end(), 0u);
    return all;
  }
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

  // Re-run the full sweep's per-row contract on the dirty rows only:
  // min-VP gate, detection pre-filter, iGreedy, keep anycast verdicts.
  const auto analyze_some = [&](std::size_t begin, std::size_t end) {
    std::vector<TargetOutcome> out;
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t t = result.dirty[i];
      const auto row = next.measurements(t);
      if (row.size() < min_vps) continue;
      if (!analyzer.detect(row)) continue;
      TargetOutcome outcome;
      outcome.target_index = t;
      outcome.slash24_index = hitlist[t].representative.slash24_index();
      outcome.result = analyzer.analyze_row(row);
      if (outcome.result.anycast) out.push_back(std::move(outcome));
    }
    return out;
  };

  std::vector<TargetOutcome> fresh;
  if (pool == nullptr || pool->thread_count() <= 1 ||
      result.dirty.size() < 32) {
    fresh = analyze_some(0, result.dirty.size());
  } else {
    // Even chunks over the dirty list; concatenation in chunk order is
    // invariant to the chunk boundaries, so any lane count agrees.
    const std::size_t chunks =
        std::min(result.dirty.size(), pool->thread_count() * std::size_t{8});
    auto shards = pool->parallel_map(chunks, [&](std::size_t c) {
      const std::size_t begin = c * result.dirty.size() / chunks;
      const std::size_t end = (c + 1) * result.dirty.size() / chunks;
      return analyze_some(begin, end);
    });
    std::size_t total = 0;
    for (const auto& shard : shards) total += shard.size();
    fresh.reserve(total);
    for (auto& shard : shards) {
      for (auto& outcome : shard) fresh.push_back(std::move(outcome));
    }
  }

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
