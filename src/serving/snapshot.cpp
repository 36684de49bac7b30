#include "anycast/serving/snapshot.hpp"

#include <algorithm>
#include <utility>

#include "anycast/analysis/incremental.hpp"
#include "anycast/geodesy/geopoint.hpp"

namespace anycast::serving {

SnapshotView SnapshotView::build(census::ShardedCensusMatrix matrix,
                                 std::vector<analysis::TargetOutcome> outcomes,
                                 std::uint64_t id,
                                 const census::Hitlist* hitlist) {
  SnapshotView view;
  view.id_ = id;
  view.matrix_ = std::move(matrix);
  view.outcomes_ = std::move(outcomes);

  view.outcome_of_.assign(view.matrix_.target_count(), kNoOutcome);
  view.replica_unit_offset_.reserve(view.outcomes_.size() + 1);
  std::size_t total_replicas = 0;
  for (const analysis::TargetOutcome& outcome : view.outcomes_) {
    total_replicas += outcome.result.replicas.size();
  }
  view.replica_units_.reserve(total_replicas);
  for (std::size_t i = 0; i < view.outcomes_.size(); ++i) {
    const analysis::TargetOutcome& outcome = view.outcomes_[i];
    if (outcome.target_index < view.outcome_of_.size()) {
      view.outcome_of_[outcome.target_index] = static_cast<std::uint32_t>(i);
    }
    view.replica_unit_offset_.push_back(
        static_cast<std::uint32_t>(view.replica_units_.size()));
    for (const core::Replica& replica : outcome.result.replicas) {
      view.replica_units_.push_back(geodesy::unit_vector(replica.location));
    }
  }
  view.replica_unit_offset_.push_back(
      static_cast<std::uint32_t>(view.replica_units_.size()));

  if (hitlist != nullptr) {
    const std::size_t indexed =
        std::min(hitlist->size(), view.matrix_.target_count());
    view.address_index_.reserve(indexed);
    for (std::size_t t = 0; t < indexed; ++t) {
      view.address_index_.emplace_back(
          (*hitlist)[t].representative.slash24_index(),
          static_cast<std::uint32_t>(t));
    }
    std::sort(view.address_index_.begin(), view.address_index_.end());
  }
  return view;
}

std::optional<std::uint32_t> SnapshotView::target_of_address(
    std::uint32_t slash24_index) const {
  const auto it = std::lower_bound(
      address_index_.begin(), address_index_.end(),
      std::make_pair(slash24_index, std::uint32_t{0}));
  if (it == address_index_.end() || it->first != slash24_index) {
    return std::nullopt;
  }
  return it->second;
}

void SnapshotView::lookup_batch(std::span<const std::uint32_t> targets,
                                PointAnswer* out) const {
  const std::size_t known = outcome_of_.size();
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const std::uint32_t t = targets[i];
    PointAnswer answer;
    if (t < known) {
      const std::span<const census::VpRtt> row = matrix_.measurements(t);
      answer.responsive = row.empty() ? 0 : 1;
      answer.vp_count = static_cast<std::uint16_t>(
          std::min<std::size_t>(row.size(), 0xFFFF));
      const std::uint32_t oi = outcome_of_[t];
      if (oi != kNoOutcome) {
        answer.anycast = 1;
        answer.replica_count =
            static_cast<std::uint32_t>(outcomes_[oi].result.replicas.size());
      }
    }
    out[i] = answer;
  }
}

const core::Replica* SnapshotView::nearest_replica(std::uint32_t target,
                                                   double lat_deg,
                                                   double lon_deg,
                                                   double* distance_km) const {
  if (target >= outcome_of_.size()) return nullptr;
  const std::uint32_t oi = outcome_of_[target];
  if (oi == kNoOutcome) return nullptr;
  const analysis::TargetOutcome& outcome = outcomes_[oi];
  if (outcome.result.replicas.empty()) return nullptr;

  const geodesy::GeoPoint query(lat_deg, lon_deg);
  const geodesy::Unit3 uq = geodesy::unit_vector(query);
  const std::uint32_t base = replica_unit_offset_[oi];
  std::size_t best = 0;
  double best_chord2 = geodesy::chord2(uq, replica_units_[base]);
  for (std::size_t k = 1; k < outcome.result.replicas.size(); ++k) {
    const double c2 = geodesy::chord2(uq, replica_units_[base + k]);
    if (c2 < best_chord2) {
      best_chord2 = c2;
      best = k;
    }
  }
  const core::Replica* winner = &outcome.result.replicas[best];
  if (distance_km != nullptr) {
    *distance_km = geodesy::distance_km(query, winner->location);
  }
  return winner;
}

SnapshotDelta SnapshotView::changed_since(const SnapshotView& prev,
                                          std::size_t min_replica_delta,
                                          concurrency::ThreadPool* pool) const {
  SnapshotDelta delta;
  delta.dirty = analysis::dirty_rows(prev.matrix_, matrix_, pool);

  // Candidate prefixes: everything a dirty row can have touched, on either
  // side. Clean rows are per-row pure — same RTT vector, same analyzer,
  // same verdict — so restricting the landscape diff to these prefixes
  // loses nothing (the invariant serving_test pins against the full
  // oracle). Incomparable layouts make every prefix a candidate: dirty
  // enumerates rows of *this* matrix, which misses prev-only targets.
  std::vector<std::uint32_t> candidates;
  if (prev.matrix_.target_count() != matrix_.target_count()) {
    candidates.reserve(prev.outcomes_.size() + outcomes_.size());
    for (const analysis::TargetOutcome& o : prev.outcomes_) {
      candidates.push_back(o.slash24_index);
    }
    for (const analysis::TargetOutcome& o : outcomes_) {
      candidates.push_back(o.slash24_index);
    }
  } else {
    candidates.reserve(delta.dirty.size() * 2);
    for (const std::uint32_t t : delta.dirty) {
      if (const analysis::TargetOutcome* o = prev.outcome(t)) {
        candidates.push_back(o->slash24_index);
      }
      if (const analysis::TargetOutcome* o = outcome(t)) {
        candidates.push_back(o->slash24_index);
      }
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  const auto restrict_to = [&candidates](
                               std::span<const analysis::TargetOutcome> all) {
    std::vector<analysis::TargetOutcome> sub;
    for (const analysis::TargetOutcome& o : all) {
      if (std::binary_search(candidates.begin(), candidates.end(),
                             o.slash24_index)) {
        sub.push_back(o);
      }
    }
    return sub;
  };
  const std::vector<analysis::TargetOutcome> before = restrict_to(prev.outcomes_);
  const std::vector<analysis::TargetOutcome> after = restrict_to(outcomes_);
  delta.diff = analysis::diff_censuses(analysis::CensusSnapshot(before),
                                       analysis::CensusSnapshot(after),
                                       min_replica_delta);
  return delta;
}

}  // namespace anycast::serving
