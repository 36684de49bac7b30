#include "anycast/analysis/analyzer.hpp"

#include <algorithm>
#include <limits>
#include <vector>

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

namespace {

/// Slack for the witness-point bound, far above the floating-point error
/// of any chain of precomputed haversine distances (<~1e-6 km even near
/// the antipode), so the prefilter never skips a pair the exact strict
/// `>` comparison would call disjoint.
constexpr double kWitnessSlackKm = 1e-3;

}  // namespace

bool CensusAnalyzer::detect(std::span<const census::VpRtt> row) const {
  // Witness-point prefilter in front of the exact test. Pick the witness
  // P = centre of the smallest valid disk and define each disk's excess
  //     e_i = d(vp_i, P) - r_i.
  // If disks i and j are disjoint, d(i,j) > r_i + r_j, and the triangle
  // inequality d(i,j) <= d(i,P) + d(j,P) forces e_i + e_j > 0. The
  // contrapositive prunes: a pair with e_i + e_j <= -slack provably
  // intersects and needs no distance lookup. So when the two largest
  // excesses sum below the slack, no pair can be disjoint: a unicast
  // target's disks all roughly contain its one location, so nearly every
  // row exits there in O(n), with no allocation, sort or pair test.
  // The rest scan pairs in descending excess order, which makes the prune
  // monotone: once the sum dips below the slack for the best remaining
  // partner, every later pair is bounded too. Only provably intersecting
  // pairs are skipped and the surviving pairs run the exact comparison,
  // so the verdict is identical to the full sweep for every row.
  const std::size_t n = row.size();
  if (n < 2) return false;
  // The valid disks, compacted in row order. A row longer than the stack
  // buffer (more VPs than any platform here) takes one heap buffer.
  struct Disk {
    double radius;
    double excess;     // filled only for the exact test
    std::uint32_t vp;
    std::uint32_t at;  // position among the valid disks: the sort's tie
  };
  constexpr std::size_t kStackDisks = 512;
  Disk stack[kStackDisks];  // uninitialised: [0, k) is written before read
  std::vector<Disk> heap;
  Disk* disks = stack;
  if (n > kStackDisks) {
    heap.resize(n);
    disks = heap.data();
  }
  std::size_t k = 0;
  std::size_t witness = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double rtt = row[i].rtt_ms;
    const double radius = geodesy::rtt_to_radius_km(rtt);
    if (!(rtt <= options_.max_rtt_ms && radius >= 0.0)) continue;
    // The first disk of the smallest radius is the witness.
    if (k == 0 || radius < disks[witness].radius) witness = k;
    disks[k] = Disk{radius, 0.0, row[i].vp, static_cast<std::uint32_t>(k)};
    ++k;
  }
  if (k < 2) return false;

  // Top-two bound: every pair sum is at most the two largest excesses.
  const double* witness_row = &vp_distance_km_[disks[witness].vp * vps_.size()];
  double top1 = -std::numeric_limits<double>::infinity();
  double top2 = top1;
  for (std::size_t i = 0; i < k; ++i) {
    const double e = witness_row[disks[i].vp] - disks[i].radius;
    top2 = std::max(top2, std::min(top1, e));
    top1 = std::max(top1, e);
  }
  if (top1 + top2 <= -kWitnessSlackKm) return false;

  // Exact pair test in descending excess order (ties in row order).
  for (std::size_t i = 0; i < k; ++i) {
    disks[i].excess = witness_row[disks[i].vp] - disks[i].radius;
  }
  std::sort(disks, disks + k, [](const Disk& a, const Disk& b) {
    if (a.excess != b.excess) return a.excess > b.excess;
    return a.at < b.at;
  });
  for (std::size_t a = 0; a + 1 < k; ++a) {
    const Disk& i = disks[a];
    const double* distance_row = &vp_distance_km_[i.vp * vps_.size()];
    for (std::size_t b = a + 1; b < k; ++b) {
      const Disk& j = disks[b];
      if (i.excess + j.excess <= -kWitnessSlackKm) {
        if (b == a + 1) return false;  // all later pairs are bounded too
        break;
      }
      if (distance_row[j.vp] > i.radius + j.radius) return true;
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

CensusAnalyzer::RowStage CensusAnalyzer::analyze_target(
    std::span<const census::VpRtt> row, std::uint32_t target,
    const census::Hitlist& hitlist, std::size_t min_vps,
    std::vector<TargetOutcome>& out) const {
  if (row.size() < min_vps) return RowStage::kTooFewVps;
  if (!detect(row)) return RowStage::kNotDetected;
  TargetOutcome outcome;
  outcome.target_index = target;
  outcome.slash24_index = hitlist[target].representative.slash24_index();
  outcome.result = analyze_row(row);
  if (outcome.result.anycast) out.push_back(std::move(outcome));
  return RowStage::kDetected;
}

namespace {

/// One shard's rows [0, targets), whose first global target is `base`:
/// the per-row kernel plus the sweep's semantic tallies — no summary
/// event (the caller emits exactly one per sweep).
std::vector<TargetOutcome> analyze_shard(const CensusAnalyzer& analyzer,
                                         const census::CensusMatrix& data,
                                         std::size_t base, std::size_t targets,
                                         const census::Hitlist& hitlist,
                                         std::size_t min_vps,
                                         concurrency::ThreadPool* pool) {
  if (targets == 0) return {};

  // The per-target work only reads `analyzer`, `data`, and `hitlist`, so
  // a range of targets is an independent task. Indices are local to
  // `data`; outcomes carry the global index `base + t`. Pooled, ranges
  // are balanced by stored-measurement weight via the CSR offset array
  // (several per lane, so a dense range cannot straggle the sweep) and
  // concatenated in index order: element-identical to the serial sweep.
  const auto analyze_range = [&](std::size_t begin, std::size_t end) {
    const obs::Span range_span("analysis_range", base + begin);
    std::uint64_t considered = 0;
    std::uint64_t detected = 0;
    std::vector<TargetOutcome> out;
    for (std::size_t t = begin; t < end; ++t) {
      const auto stage = analyzer.analyze_target(
          data.measurements(static_cast<std::uint32_t>(t)),
          static_cast<std::uint32_t>(base + t), hitlist, min_vps, out);
      considered += stage != CensusAnalyzer::RowStage::kTooFewVps;
      detected += stage == CensusAnalyzer::RowStage::kDetected;
    }
    const AnalysisInstruments& in = analysis_instruments();
    in.targets_considered.add(considered);
    in.targets_detected.add(detected);
    in.targets_anycast.add(out.size());
    return out;
  };
  return concurrency::ordered_concat(
      pool, targets, analyze_range,
      data.row_offsets().subspan(0, targets + 1));
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
