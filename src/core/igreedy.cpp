#include "anycast/core/igreedy.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "anycast/geodesy/chord.hpp"
#include "anycast/obs/metrics.hpp"

namespace anycast::core {
namespace {

/// iGreedy instruments, flushed once per analyze() call. iGreedy runs only
/// on targets that pass detection, so this is far off the probe hot path.
struct IGreedyInstruments {
  obs::Counter runs = obs::metrics().counter(
      "igreedy_runs", obs::MetricClass::kSemantic,
      "IGreedy::analyze calls");
  obs::Counter iterations = obs::metrics().counter(
      "igreedy_iterations", obs::MetricClass::kSemantic,
      "collapse-and-resolve rounds across all runs");
  obs::LatencyHisto& replicas = obs::metrics().histogram(
      "igreedy_replicas", obs::MetricClass::kSemantic, "count",
      "replicas enumerated per anycast run (MIS growth included)");
  obs::LatencyHisto& first_round_mis = obs::metrics().histogram(
      "igreedy_first_round_mis", obs::MetricClass::kSemantic, "count",
      "maximum-independent-set size of the first round");
};

const IGreedyInstruments& igreedy_instruments() {
  static const IGreedyInstruments instruments;
  return instruments;
}

/// VP ids at or above this are too sparse for the dense arrays; the
/// collapse falls back to a hash map. Census VPs number in the hundreds,
/// so in practice the dense path always runs.
constexpr std::uint32_t kDenseVpLimit = 1u << 20;

/// Thread-local collapse arena: dense per-VP min-RTT slots validated by an
/// epoch stamp, so reuse across targets is O(touched) — no clearing, no
/// hashing, no per-target allocation once warm.
struct CollapseScratch {
  std::vector<std::uint32_t> stamp;      // slot valid iff stamp[vp] == epoch
  std::vector<double> min_rtt;
  std::vector<geodesy::GeoPoint> location;
  std::vector<std::uint32_t> touched;    // VPs seen this epoch
  std::vector<geodesy::Disk> disks;      // detect() reuse
  std::uint32_t epoch = 0;

  void begin() {
    touched.clear();
    if (++epoch == 0) {  // wrapped: stale stamps could alias, reset them
      std::fill(stamp.begin(), stamp.end(), 0);
      epoch = 1;
    }
  }
};

CollapseScratch& collapse_scratch() {
  thread_local CollapseScratch scratch;
  return scratch;
}

/// Collapses measurements to one (min RTT, location) per VP into `s`, with
/// `s.touched` sorted ascending afterwards. Tie RTTs keep the FIRST
/// measurement seen — the same winner the hash-map original's strict `<`
/// replacement kept. Returns false (scratch unspecified) when a VP id
/// exceeds the dense limit; the caller falls back to the map path.
bool collapse_dense(std::span<const Measurement> measurements,
                    double max_rtt_ms, CollapseScratch& s) {
  std::uint32_t max_vp = 0;
  bool any = false;
  for (const Measurement& m : measurements) {
    if (m.rtt_ms <= 0.0 || m.rtt_ms > max_rtt_ms) continue;
    if (m.vp_id >= kDenseVpLimit) return false;
    max_vp = std::max(max_vp, m.vp_id);
    any = true;
  }
  s.begin();
  if (!any) return true;
  if (s.stamp.size() <= max_vp) {
    const std::size_t need =
        std::max<std::size_t>(max_vp + 1, s.stamp.size() * 2);
    s.stamp.resize(need, 0);  // zero-filled: never equal to epoch (>= 1)
    s.min_rtt.resize(need);
    s.location.resize(need);
  }
  for (const Measurement& m : measurements) {
    if (m.rtt_ms <= 0.0 || m.rtt_ms > max_rtt_ms) continue;
    if (s.stamp[m.vp_id] != s.epoch) {
      s.stamp[m.vp_id] = s.epoch;
      s.min_rtt[m.vp_id] = m.rtt_ms;
      s.location[m.vp_id] = m.vp_location;
      s.touched.push_back(m.vp_id);
    } else if (m.rtt_ms < s.min_rtt[m.vp_id]) {
      s.min_rtt[m.vp_id] = m.rtt_ms;
      s.location[m.vp_id] = m.vp_location;
    }
  }
  std::sort(s.touched.begin(), s.touched.end());
  return true;
}

/// Sparse-VP-id fallback collapse (hash map + sort): the same ascending
/// (vp, min-rtt, location) sequence the dense arena produces.
std::vector<geodesy::Disk> make_disks_map(
    std::span<const Measurement> measurements, double max_rtt_ms,
    std::vector<std::uint32_t>* vp_ids) {
  std::unordered_map<std::uint32_t, Measurement> best;
  best.reserve(measurements.size());
  for (const Measurement& m : measurements) {
    if (m.rtt_ms <= 0.0 || m.rtt_ms > max_rtt_ms) continue;
    const auto [it, inserted] = best.emplace(m.vp_id, m);
    if (!inserted && m.rtt_ms < it->second.rtt_ms) it->second = m;
  }
  std::vector<geodesy::Disk> disks;
  disks.reserve(best.size());
  vp_ids->clear();
  vp_ids->reserve(best.size());
  // Deterministic order (by VP id) regardless of hash-map iteration.
  std::vector<const Measurement*> ordered;
  ordered.reserve(best.size());
  for (const auto& [id, m] : best) ordered.push_back(&m);
  std::sort(ordered.begin(), ordered.end(),
            [](const Measurement* a, const Measurement* b) {
              return a->vp_id < b->vp_id;
            });
  for (const Measurement* m : ordered) {
    disks.push_back(geodesy::Disk::from_rtt(m->vp_location, m->rtt_ms));
    vp_ids->push_back(m->vp_id);
  }
  return disks;
}

}  // namespace

std::vector<geodesy::Disk> IGreedy::make_disks(
    std::span<const Measurement> measurements,
    std::vector<std::uint32_t>* vp_ids) const {
  // Collapse to one disk per VP at its minimum RTT: queueing jitter only
  // ever inflates RTT, so the minimum is the best propagation estimate.
  // Output is ascending by VP id on both paths: the dense arena sorts its
  // touched list, the map path sorts its collapsed entries — identical
  // (vp, min-rtt, location) sequences, hence identical disks.
  CollapseScratch& s = collapse_scratch();
  if (!collapse_dense(measurements, options_.max_rtt_ms, s)) {
    return make_disks_map(measurements, options_.max_rtt_ms, vp_ids);
  }
  std::vector<geodesy::Disk> disks;
  disks.reserve(s.touched.size());
  vp_ids->clear();
  vp_ids->reserve(s.touched.size());
  for (const std::uint32_t vp : s.touched) {
    disks.push_back(geodesy::Disk::from_rtt(s.location[vp], s.min_rtt[vp]));
    vp_ids->push_back(vp);
  }
  return disks;
}

Replica IGreedy::geolocate(const geodesy::Disk& disk,
                           std::uint32_t vp_id) const {
  Replica replica;
  replica.disk = disk;
  replica.vp_id = vp_id;
  replica.location = disk.center();
  switch (options_.city_policy) {
    case CityPolicy::kLargestPopulation:
      replica.city = cities_->most_populated_in(disk);
      break;
    case CityPolicy::kNearestToCenter: {
      const geo::City* nearest = cities_->nearest(disk.center());
      if (nearest != nullptr && disk.contains(nearest->location())) {
        replica.city = nearest;
      }
      break;
    }
    case CityPolicy::kNone:
      break;
  }
  if (replica.city != nullptr) replica.location = replica.city->location();
  return replica;
}

bool IGreedy::detect(std::span<const Measurement> measurements,
                     double max_rtt_ms) {
  // Cheapest form: disks per VP-minimum, pairwise disjointness.
  CollapseScratch& s = collapse_scratch();
  if (!collapse_dense(measurements, max_rtt_ms, s)) {
    std::vector<std::uint32_t> vp_ids;
    return has_disjoint_pair(make_disks_map(measurements, max_rtt_ms, &vp_ids));
  }
  s.disks.clear();
  s.disks.reserve(s.touched.size());
  for (const std::uint32_t vp : s.touched) {
    s.disks.push_back(geodesy::Disk::from_rtt(s.location[vp], s.min_rtt[vp]));
  }
  return has_disjoint_pair(s.disks);
}

Result IGreedy::analyze(std::span<const Measurement> measurements) const {
  Result result;
  igreedy_instruments().runs.inc();
  std::vector<std::uint32_t> vp_ids;
  std::vector<geodesy::Disk> disks = make_disks(measurements, &vp_ids);
  result.usable_measurements = disks.size();
  if (disks.empty()) return result;

  // Detection is the strict speed-of-light criterion: at least one pair of
  // disjoint disks. The collapse-and-resolve iteration below raises
  // enumeration recall but must not drive detection — an overlapping disk
  // whose city classification happens to fall outside a neighbour is not
  // evidence of anycast.
  result.anycast = has_disjoint_pair(disks);
  if (!result.anycast) {
    // Unicast (or undetectable): classic latency geolocation in the
    // smallest disk.
    std::size_t smallest = 0;
    for (std::size_t i = 1; i < disks.size(); ++i) {
      if (disks[i].radius_km() < disks[smallest].radius_km()) smallest = i;
    }
    result.replicas.push_back(geolocate(disks[smallest], vp_ids[smallest]));
    result.first_round_replicas = 1;
    return result;
  }

  // Per-disk trig, computed once: the candidate filter below tests every
  // unconsumed disk against every fixed replica each round, and chord-space
  // containment (scalar fallback in the guard band — identical boolean to
  // Disk::contains) makes each of those tests one dot product.
  thread_local std::vector<geodesy::Unit3> disk_units;
  thread_local std::vector<geodesy::CapTrig> disk_caps;
  disk_units.resize(disks.size());
  disk_caps.resize(disks.size());
  for (std::size_t i = 0; i < disks.size(); ++i) {
    disk_units[i] = geodesy::unit_vector(disks[i].center());
    disk_caps[i] = geodesy::cap_trig(disks[i].radius_km());
  }

  // Working state: `fixed` holds replicas already geolocated (their disks
  // collapsed onto the classified city); `consumed` flags disks already
  // part of the solution. A flag sweep per round replaces the former
  // per-pick vector erase (which cost O(disks) per picked disk).
  std::vector<Replica> fixed;
  std::vector<geodesy::Unit3> fixed_units;  // unit vectors of fixed locations
  std::vector<char> consumed(disks.size(), 0);

  const auto explained_by_fixed = [&](std::size_t idx) {
    for (std::size_t f = 0; f < fixed.size(); ++f) {
      if (geodesy::cap_contains(disk_units[idx], fixed_units[f],
                                disk_caps[idx], disks[idx].center(),
                                fixed[f].location)) {
        return true;
      }
    }
    return false;
  };

  for (int round = 0; round < options_.max_iterations; ++round) {
    // Candidate disks this round: unconsumed disks that do not intersect
    // any collapsed replica point (those are already explained).
    std::vector<std::size_t> candidates;
    candidates.reserve(disks.size());
    for (std::size_t idx = 0; idx < disks.size(); ++idx) {
      if (consumed[idx] != 0) continue;
      if (!explained_by_fixed(idx)) candidates.push_back(idx);
    }
    if (candidates.empty()) break;

    std::vector<geodesy::Disk> candidate_disks;
    candidate_disks.reserve(candidates.size());
    for (const std::size_t idx : candidates) {
      candidate_disks.push_back(disks[idx]);
    }
    const std::vector<std::size_t> picked =
        options_.exact_enumeration ? exact_mis(candidate_disks)
                                   : greedy_mis(candidate_disks);
    if (picked.empty()) break;
    if (round == 0) result.first_round_replicas = picked.size();

    // Geolocate this round's disks and collapse them.
    bool progress = false;
    for (const std::size_t p : picked) {
      const std::size_t idx = candidates[p];
      Replica replica = geolocate(disks[idx], vp_ids[idx]);
      // Collapse (Fig. 3e): reclassification at the same city as an
      // existing replica adds no information.
      const bool duplicate = std::any_of(
          fixed.begin(), fixed.end(), [&](const Replica& existing) {
            return existing.city != nullptr && existing.city == replica.city;
          });
      if (!duplicate || replica.city == nullptr) {
        fixed_units.push_back(geodesy::unit_vector(replica.location));
        fixed.push_back(replica);
        progress = true;
      }
      // Disk is consumed either way.
      consumed[idx] = 1;
    }
    ++result.iterations;
    if (!progress) break;
  }

  result.replicas = std::move(fixed);
  const IGreedyInstruments& in = igreedy_instruments();
  in.iterations.add(result.iterations);
  in.replicas.record(result.replicas.size());
  in.first_round_mis.record(result.first_round_replicas);
  return result;
}

}  // namespace anycast::core
