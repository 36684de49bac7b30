#include "anycast/analysis/analyzer.hpp"

#include <algorithm>
#include <limits>

#include "anycast/concurrency/thread_pool.hpp"
#include "anycast/geodesy/disk.hpp"
#include "anycast/obs/journal.hpp"
#include "anycast/obs/metrics.hpp"
#include "anycast/obs/trace.hpp"

namespace anycast::analysis {
namespace {

/// Sweep instruments, flushed once per analyzed range from a range-local
/// tally (integer sums commute, so the totals are identical however the
/// sweep is sharded).
struct AnalysisInstruments {
  obs::Counter targets_considered = obs::metrics().counter(
      "analysis_targets_considered", obs::MetricClass::kSemantic,
      "targets with enough VPs to enter detection");
  obs::Counter targets_detected = obs::metrics().counter(
      "analysis_targets_detected", obs::MetricClass::kSemantic,
      "targets passing the speed-of-light disjointness pre-filter");
  obs::Counter targets_anycast = obs::metrics().counter(
      "analysis_targets_anycast", obs::MetricClass::kSemantic,
      "targets iGreedy confirmed as anycast");
};

const AnalysisInstruments& analysis_instruments() {
  static const AnalysisInstruments instruments;
  return instruments;
}

}  // namespace

CensusAnalyzer::CensusAnalyzer(std::span<const net::VantagePoint> vps,
                               const geo::CityIndex& cities,
                               core::Options options)
    : vps_(vps),
      cities_(&cities),
      options_(options),
      igreedy_(cities, options) {
  vp_distance_km_.resize(vps.size() * vps.size());
  for (std::size_t i = 0; i < vps.size(); ++i) {
    for (std::size_t j = i + 1; j < vps.size(); ++j) {
      const double km = geodesy::distance_km(vps[i].believed_location,
                                             vps[j].believed_location);
      vp_distance_km_[i * vps.size() + j] = km;
      vp_distance_km_[j * vps.size() + i] = km;
    }
  }
}

bool CensusAnalyzer::detect_scan(std::span<const census::VpRtt> row) const {
  // Radii from the per-VP minimum RTTs; a pair of VPs whose mutual
  // distance exceeds the radius sum cannot both contain the target.
  // Row entries are vp-sorted and unique; all arithmetic is precomputed
  // distances, no trigonometry on the hot path.
  thread_local std::vector<double> radii;
  radii.clear();
  radii.reserve(row.size());
  for (const census::VpRtt& sample : row) {
    radii.push_back(sample.rtt_ms <= options_.max_rtt_ms
                        ? geodesy::rtt_to_radius_km(sample.rtt_ms)
                        : -1.0);
  }
  const std::size_t n = row.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (radii[i] < 0.0) continue;
    const std::size_t vi = row[i].vp;
    const double* distance_row = &vp_distance_km_[vi * vps_.size()];
    for (std::size_t j = i + 1; j < n; ++j) {
      if (radii[j] < 0.0) continue;
      if (distance_row[row[j].vp] > radii[i] + radii[j]) return true;
    }
  }
  return false;
}

namespace {

/// Slack for the witness-point bound, far above the floating-point error
/// of any chain of precomputed haversine distances (<~1e-6 km even near
/// the antipode), so the prefilter never skips a pair the exact strict
/// `>` comparison would call disjoint.
constexpr double kWitnessSlackKm = 1e-3;

}  // namespace

bool CensusAnalyzer::detect(std::span<const census::VpRtt> row) const {
  if (options_.reference_kernel) return detect_scan(row);
  // Witness-point prefilter in front of the exact test. Pick the witness
  // P = centre of the smallest valid disk and define each disk's excess
  //     e_i = d(vp_i, P) - r_i.
  // If disks i and j are disjoint, d(i,j) > r_i + r_j, and the triangle
  // inequality d(i,j) <= d(i,P) + d(j,P) forces e_i + e_j > 0. The
  // contrapositive prunes: a pair with e_i + e_j <= -slack provably
  // intersects and needs no distance lookup. Scanning pairs in descending
  // excess order makes the prune monotone — once the sum dips below the
  // slack for the best remaining partner, every later pair is bounded
  // too. A unicast target's disks all roughly contain its one location,
  // so nearly all excesses are <= 0 and the typical row costs one sort
  // and no pair tests, instead of the full O(n^2) sweep. Only provably
  // intersecting pairs are skipped and the surviving pairs run the exact
  // comparison, so the verdict is identical to detect_scan for every row.
  thread_local std::vector<double> radii;
  thread_local std::vector<double> excess;
  thread_local std::vector<std::uint32_t> order;
  const std::size_t n = row.size();
  radii.clear();
  radii.reserve(n);
  order.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const double rtt = row[i].rtt_ms;
    radii.push_back(rtt <= options_.max_rtt_ms
                        ? geodesy::rtt_to_radius_km(rtt)
                        : -1.0);
    if (radii[i] >= 0.0) order.push_back(static_cast<std::uint32_t>(i));
  }
  if (order.size() < 2) return false;

  std::uint32_t witness = order[0];
  for (const std::uint32_t i : order) {
    if (radii[i] < radii[witness]) witness = i;
  }
  const double* witness_row = &vp_distance_km_[row[witness].vp * vps_.size()];
  excess.assign(n, 0.0);
  for (const std::uint32_t i : order) {
    excess[i] = witness_row[row[i].vp] - radii[i];
  }
  // Top-2 shortcut: every pair sum is bounded by the two largest excesses,
  // so the typical unicast row exits here in O(n) without sorting.
  double top1 = -std::numeric_limits<double>::infinity();
  double top2 = top1;
  for (const std::uint32_t i : order) {
    if (excess[i] > top1) {
      top2 = top1;
      top1 = excess[i];
    } else if (excess[i] > top2) {
      top2 = excess[i];
    }
  }
  if (top1 + top2 <= -kWitnessSlackKm) return false;
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (excess[a] != excess[b]) return excess[a] > excess[b];
              return a < b;
            });

  for (std::size_t a = 0; a + 1 < order.size(); ++a) {
    const std::uint32_t i = order[a];
    const double* distance_row = &vp_distance_km_[row[i].vp * vps_.size()];
    for (std::size_t b = a + 1; b < order.size(); ++b) {
      const std::uint32_t j = order[b];
      if (excess[i] + excess[j] <= -kWitnessSlackKm) {
        if (b == a + 1) return false;  // all later pairs are bounded too
        break;
      }
      if (distance_row[row[j].vp] > radii[i] + radii[j]) return true;
    }
  }
  return false;
}

core::Result CensusAnalyzer::analyze_row(
    std::span<const census::VpRtt> row) const {
  std::vector<core::Measurement> measurements;
  measurements.reserve(row.size());
  for (const census::VpRtt& sample : row) {
    core::Measurement m;
    m.vp_id = sample.vp;
    m.vp_location = vps_[sample.vp].believed_location;
    m.rtt_ms = sample.rtt_ms;
    measurements.push_back(m);
  }
  return igreedy_.analyze(measurements);
}

namespace {

/// One shard's rows [0, targets), whose first global target is `base`:
/// min-VP gate, detection, iGreedy, semantic tallies — no summary event
/// (the caller emits exactly one per sweep).
std::vector<TargetOutcome> analyze_shard(const CensusAnalyzer& analyzer,
                                         const census::CensusMatrix& data,
                                         std::size_t base, std::size_t targets,
                                         const census::Hitlist& hitlist,
                                         std::size_t min_vps,
                                         concurrency::ThreadPool* pool) {
  if (targets == 0) return {};

  // The per-target work (detection pre-filter, then iGreedy on the few
  // detected rows) only reads `analyzer`, `data`, and `hitlist`, so a
  // range of targets is an independent task. Indices are local to `data`;
  // outcomes carry the global index `base + t`.
  const auto analyze_range = [&](std::size_t begin, std::size_t end) {
    const obs::Span range_span("analysis_range", base + begin);
    std::uint64_t considered = 0;
    std::uint64_t detected = 0;
    std::vector<TargetOutcome> out;
    for (std::size_t t = begin; t < end; ++t) {
      const auto row = data.measurements(static_cast<std::uint32_t>(t));
      if (row.size() < min_vps) continue;
      ++considered;
      if (!analyzer.detect(row)) continue;
      ++detected;
      TargetOutcome outcome;
      outcome.target_index = static_cast<std::uint32_t>(base + t);
      outcome.slash24_index =
          hitlist[base + t].representative.slash24_index();
      outcome.result = analyzer.analyze_row(row);
      if (outcome.result.anycast) out.push_back(std::move(outcome));
    }
    const AnalysisInstruments& in = analysis_instruments();
    in.targets_considered.add(considered);
    in.targets_detected.add(detected);
    in.targets_anycast.add(out.size());
    return out;
  };

  std::vector<TargetOutcome> out;
  if (pool == nullptr || pool->thread_count() <= 1) {
    out = analyze_range(0, targets);
  } else {
    // Split into contiguous row ranges balanced by stored-measurement
    // weight via the CSR offset array (several per lane, so a dense range
    // cannot straggle the whole sweep) and concatenate the per-range
    // outcomes in index order: element-identical to the serial sweep.
    const auto ranges = concurrency::shard_ranges_weighted(
        data.row_offsets().subspan(0, targets + 1),
        pool->thread_count() * 8);
    auto parts = pool->parallel_map(ranges.size(), [&](std::size_t r) {
      return analyze_range(ranges[r].first, ranges[r].second);
    });
    std::size_t total = 0;
    for (const auto& part : parts) total += part.size();
    out.reserve(total);
    for (auto& part : parts) {
      for (auto& outcome : part) out.push_back(std::move(outcome));
    }
  }
  return out;
}

void emit_analysis_summary(std::size_t targets, std::size_t min_vps,
                           std::size_t anycast) {
  obs::Journal& j = obs::journal();
  j.emit(obs::MetricClass::kSemantic, obs::Severity::kInfo,
         "analysis.summary", j.next_order(),
         {{"targets", targets},
          {"min_vps", min_vps},
          {"anycast", anycast}});
  j.commit();  // the sweep's end is a deterministic boundary, like a
               // census reduction's
}

}  // namespace

std::vector<TargetOutcome> CensusAnalyzer::analyze(
    const census::ShardedCensusMatrix& data, const census::Hitlist& hitlist,
    std::size_t min_vps, concurrency::ThreadPool* pool) const {
  const std::size_t targets = std::min(data.target_count(), hitlist.size());
  if (targets == 0) return {};
  // Adoption point: range spans on worker threads attach here.
  const obs::Span sweep_span(obs::Span::Root::kAdoptionPoint, "analysis",
                             targets);
  // Shards in index order, each swept over its local range; the semantic
  // tallies are integer sums that commute across shards, and exactly one
  // summary event closes the sweep — so shard size cannot leak into the
  // semantic stream.
  std::vector<TargetOutcome> out;
  for (std::size_t s = 0; s < data.shard_count(); ++s) {
    const std::size_t base = data.shard_base(s);
    if (base >= targets) break;
    const std::size_t local =
        std::min(data.shard(s).target_count(), targets - base);
    auto block = analyze_shard(*this, data.shard(s), base, local, hitlist,
                               min_vps, pool);
    out.insert(out.end(), std::make_move_iterator(block.begin()),
               std::make_move_iterator(block.end()));
  }
  emit_analysis_summary(targets, min_vps, out.size());
  return out;
}

}  // namespace anycast::analysis
