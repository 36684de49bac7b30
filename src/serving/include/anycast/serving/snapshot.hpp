// The census query plane's unit of publication: one frozen census epoch.
//
// A census is only useful if it can be asked questions — "is this /24
// anycast, where are its replicas, what changed since last week" — and at
// paper scale those questions arrive as serving traffic, not as offline
// analysis jobs. A SnapshotView binds one frozen sharded CSR census
// matrix to its analysis outcomes and answers point, batch, and diff
// queries over them with zero mutation: every field is written once at
// build() time and only ever read afterwards, which is what lets
// SnapshotStore hand the same view to any number of concurrent readers
// with no locks (store.hpp).
//
// Query cost model:
//   - is_anycast / outcome / replicas: one bounds check + one load in the
//     dense target->outcome index, then (for replicas) the outcome row.
//   - lookup_batch: the same lookup unrolled over a span of targets into
//     a caller-owned answer buffer — the millions-of-QPS path, one pin
//     per batch instead of one per question.
//   - nearest_replica: chord-space scan over the target's replica list
//     (unit vectors precomputed per city by the PR 7 kernels).
//   - changed_since: the daemon's dirty-row machinery (analysis/
//     incremental.hpp) prunes the prefix set, then the restricted
//     landscape diff is element-identical to the full analysis::diff
//     oracle — the invariant tests/serving_test.cpp pins.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "anycast/analysis/analyzer.hpp"
#include "anycast/analysis/diff.hpp"
#include "anycast/census/hitlist.hpp"
#include "anycast/census/sharded.hpp"
#include "anycast/geodesy/chord.hpp"

namespace anycast::serving {

/// One batch-API answer cell: plain data, sized for vectorized fills.
struct PointAnswer {
  std::uint8_t anycast = 0;        // 1 when the target is anycast
  std::uint8_t responsive = 0;     // 1 when the target has any row
  std::uint16_t vp_count = 0;      // measurements in the row (capped)
  std::uint32_t replica_count = 0; // enumerated replicas (0 for unicast)
};

/// What `changed_since` produced: the dirty rows that were compared plus
/// the landscape delta, element-identical to the full-diff oracle.
struct SnapshotDelta {
  std::vector<std::uint32_t> dirty;  // rows whose RTT vectors differ
  analysis::CensusDiff diff;
};

class SnapshotView {
 public:
  static constexpr std::uint32_t kNoOutcome =
      std::numeric_limits<std::uint32_t>::max();

  SnapshotView() = default;

  /// Freezes `matrix` + `outcomes` (the analyzer's output for exactly
  /// that matrix, sorted by target_index as analyze() returns it) into an
  /// immutable view. `id` names the epoch (watch round, census id) for
  /// answer attribution. When `hitlist` is non-null an address index is
  /// built so queries can be keyed by dotted /24 as well as dense index.
  static SnapshotView build(census::ShardedCensusMatrix matrix,
                            std::vector<analysis::TargetOutcome> outcomes,
                            std::uint64_t id,
                            const census::Hitlist* hitlist = nullptr);

  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] std::size_t target_count() const {
    return matrix_.target_count();
  }
  [[nodiscard]] std::size_t anycast_count() const { return outcomes_.size(); }
  [[nodiscard]] const census::ShardedCensusMatrix& matrix() const {
    return matrix_;
  }
  [[nodiscard]] std::span<const analysis::TargetOutcome> outcomes() const {
    return outcomes_;
  }

  /// Point lookups. Out-of-range targets answer "not anycast"/nullptr —
  /// a serving plane must never crash on a hostile query.
  [[nodiscard]] bool is_anycast(std::uint32_t target) const {
    return target < outcome_of_.size() && outcome_of_[target] != kNoOutcome;
  }
  [[nodiscard]] const analysis::TargetOutcome* outcome(
      std::uint32_t target) const {
    if (target >= outcome_of_.size() || outcome_of_[target] == kNoOutcome) {
      return nullptr;
    }
    return &outcomes_[outcome_of_[target]];
  }
  /// The geolocated replica set of an anycast target (empty for unicast
  /// or unknown targets).
  [[nodiscard]] std::span<const core::Replica> replicas(
      std::uint32_t target) const {
    const analysis::TargetOutcome* hit = outcome(target);
    if (hit == nullptr) return {};
    return hit->result.replicas;
  }

  /// Resolves a dotted-quad query key to the dense target index of its
  /// covering /24 (nullopt when no hitlist index was built or the /24 is
  /// not in the hitlist).
  [[nodiscard]] std::optional<std::uint32_t> target_of_address(
      std::uint32_t slash24_index) const;

  /// The batch API: answers `targets.size()` point lookups into `out`
  /// (caller-sized). One epoch pin amortizes over the whole span; the
  /// fill itself is branch-light array indexing.
  void lookup_batch(std::span<const std::uint32_t> targets,
                    PointAnswer* out) const;

  /// The replica of `target` nearest to (lat, lon), by chord-space
  /// comparison (one unit-vector dot per replica, no libm in the loop).
  /// nullptr when the target has no replicas. `distance_km`, when
  /// non-null, receives the haversine distance of the winner only.
  [[nodiscard]] const core::Replica* nearest_replica(
      std::uint32_t target, double lat_deg, double lon_deg,
      double* distance_km = nullptr) const;

  /// Everything that changed between `prev` and this snapshot: dirty rows
  /// from the CSR diff, and the landscape delta restricted to prefixes
  /// those rows can have touched. When both snapshots were produced by
  /// the same analyzer configuration (the serving plane's invariant —
  /// analysis is per-row pure, so a clean row cannot change its verdict)
  /// the delta is element-identical to
  /// `analysis::diff_censuses(CensusSnapshot(prev), CensusSnapshot(this))`.
  [[nodiscard]] SnapshotDelta changed_since(
      const SnapshotView& prev, std::size_t min_replica_delta = 1,
      concurrency::ThreadPool* pool = nullptr) const;

 private:
  std::uint64_t id_ = 0;
  census::ShardedCensusMatrix matrix_;
  std::vector<analysis::TargetOutcome> outcomes_;  // sorted by target_index
  std::vector<std::uint32_t> outcome_of_;  // target -> outcomes_ index
  // Unit vectors of every replica location, concatenated in outcome order;
  // replica_units_[replica_unit_offset_[i] + k] is replica k of outcome i.
  // Precomputed once so nearest_replica runs libm-free dot products.
  std::vector<geodesy::Unit3> replica_units_;
  std::vector<std::uint32_t> replica_unit_offset_;
  // Sorted (slash24_index, target_index) pairs for address-keyed queries;
  // empty when built without a hitlist.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> address_index_;
};

}  // namespace anycast::serving
