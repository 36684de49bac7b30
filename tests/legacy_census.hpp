// Legacy row-of-vectors census container — TEST/BENCH ORACLE ONLY.
//
// This is the pre-CSR `CensusData` layout (one heap-allocated vp-sorted
// vector per hitlist target), kept verbatim so tests can cross-check
// `CensusMatrix`/`CensusMatrixBuilder` against the original semantics and
// so the columnar bench can measure the layout win instead of asserting
// it. It lives under tests/ so nothing in the library can link against
// it; new code must use `CensusMatrix`.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "anycast/census/census.hpp"

namespace anycast::census {

class LegacyCensusData {
 public:
  LegacyCensusData() = default;
  explicit LegacyCensusData(std::size_t target_count) : rows_(target_count) {}

  /// Records a measurement, keeping the minimum per (target, vp).
  void record(std::uint32_t target_index, std::uint16_t vp, float rtt_ms) {
    auto& row = rows_[target_index];
    // Fast path: VP results are reduced in ascending id order, so nearly
    // every record appends past the current maximum.
    if (row.empty() || row.back().vp < vp) {
      row.push_back(VpRtt{vp, rtt_ms});
      return;
    }
    if (row.back().vp == vp) {
      row.back().rtt_ms = std::min(row.back().rtt_ms, rtt_ms);
      return;
    }
    const auto it = std::lower_bound(
        row.begin(), row.end(), vp,
        [](const VpRtt& entry, std::uint16_t v) { return entry.vp < v; });
    if (it != row.end() && it->vp == vp) {
      it->rtt_ms = std::min(it->rtt_ms, rtt_ms);
    } else {
      row.insert(it, VpRtt{vp, rtt_ms});
    }
  }

  /// Records one VP's whole row fragment (per-target minima, any order).
  void record_fragment(std::uint16_t vp,
                       std::span<const TargetRtt> fragment) {
    for (const TargetRtt& entry : fragment) {
      record(entry.target_index, vp, entry.rtt_ms);
    }
  }

  [[nodiscard]] std::span<const VpRtt> measurements(
      std::uint32_t target_index) const {
    return rows_[target_index];
  }
  [[nodiscard]] std::size_t target_count() const { return rows_.size(); }

  [[nodiscard]] std::size_t responsive_targets(
      std::size_t min_vps = 1) const {
    std::size_t count = 0;
    for (const auto& row : rows_) {
      if (row.size() >= min_vps) ++count;
    }
    return count;
  }

  /// Point-wise minimum with `other` (same hitlist required).
  void combine_min(const LegacyCensusData& other) {
    if (rows_.size() < other.rows_.size()) rows_.resize(other.rows_.size());
    std::vector<VpRtt> merged;  // reused across rows
    for (std::size_t t = 0; t < other.rows_.size(); ++t) {
      const auto& theirs = other.rows_[t];
      auto& ours = rows_[t];
      if (theirs.empty()) continue;
      if (ours.empty()) {
        ours = theirs;
        continue;
      }
      merged.clear();
      merged.reserve(ours.size() + theirs.size());
      std::size_t i = 0;
      std::size_t j = 0;
      while (i < ours.size() && j < theirs.size()) {
        if (ours[i].vp < theirs[j].vp) {
          merged.push_back(ours[i++]);
        } else if (theirs[j].vp < ours[i].vp) {
          merged.push_back(theirs[j++]);
        } else {
          merged.push_back(
              VpRtt{ours[i].vp, std::min(ours[i].rtt_ms, theirs[j].rtt_ms)});
          ++i;
          ++j;
        }
      }
      for (; i < ours.size(); ++i) merged.push_back(ours[i]);
      for (; j < theirs.size(); ++j) merged.push_back(theirs[j]);
      ours.assign(merged.begin(), merged.end());
    }
  }

 private:
  std::vector<std::vector<VpRtt>> rows_;
};

}  // namespace anycast::census
