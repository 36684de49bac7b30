// The census hitlist: one representative /32 per routed /24.
//
// Sec. 3.1: /24 is the census granularity (BGP ignores longer prefixes),
// and any alive address in a /24 is equivalent for anycast detection, so
// the hitlist carries one representative IP per /24 plus a liveness score
// (after the USC/LANDER hitlist the paper uses). Entries with score <= -2
// had no alive address observed and hold an arbitrary address from the
// /24; the paper drops them after the first census confirms
// unreachability.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "anycast/census/rank_bitmap.hpp"
#include "anycast/ipaddr/ipv4.hpp"

namespace anycast::net {
class SimulatedInternet;
}

namespace anycast::census {

struct HitlistEntry {
  ipaddr::IPv4Address representative;
  std::int8_t score = 0;  // >0: repeatedly alive; <= -2: never seen alive
};

/// An ordered target list; the dense index into it is the census-wide
/// target id used by probers, record files, and the analysis.
class Hitlist {
 public:
  /// /24 -> lowest target, as a rank bitmap. One `{64-bit word, prefix
  /// rank}` pair covers 64 /24s, up to the highest /24 in the hitlist
  /// (at most 2^18 words, 4 MiB); `first_targets()[rank]` holds the lowest
  /// target of each distinct /24, in /24 order. A lookup is one bit test,
  /// one popcount and one load; the index is ~30 MB at the paper's 6.6M
  /// /24s.
  class AddressIndex {
   public:
    /// Indexes `entries` (target t is entries[t]), in any order: one pass
    /// finds the top /24, one sets the bits, one hands each /24 its first
    /// target.
    static AddressIndex build(std::span<const HitlistEntry> entries);

    /// The lowest target of `slash24`, or nullopt when no entry has it.
    [[nodiscard]] std::optional<std::uint32_t> lowest_target(
        std::uint32_t slash24) const {
      const std::optional<std::uint32_t> rank = slash24s_.rank_if_set(slash24);
      if (!rank) return std::nullopt;
      return first_target_[*rank];
    }
    /// One entry per distinct /24 of the hitlist, in /24 order: the lowest
    /// target holding that /24.
    [[nodiscard]] std::span<const std::uint32_t> first_targets() const {
      return first_target_;
    }

   private:
    RankBitmap slash24s_;  // the hitlist's distinct /24s
    std::vector<std::uint32_t> first_target_;
  };

  Hitlist() = default;
  explicit Hitlist(std::vector<HitlistEntry> entries)
      : entries_(std::move(entries)) {}

  /// Builds the full hitlist from the simulated world's routed /24s:
  /// alive targets get positive scores, dead space gets score -2 (as the
  /// provider's list does for never-responding /24s).
  static Hitlist from_world(const net::SimulatedInternet& internet);

  /// Drops entries with score <= -2 — the reduction from ~10^7 routed to
  /// 6.6M probed targets per VP described in Sec. 3.1.
  [[nodiscard]] Hitlist without_dead() const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const HitlistEntry& operator[](std::size_t i) const {
    return entries_[i];
  }
  [[nodiscard]] const std::vector<HitlistEntry>& entries() const {
    return entries_;
  }

  /// The address index, built on first use (thread-safe) and shared by
  /// every caller: each snapshot served from this hitlist holds the same
  /// index, which outlives the hitlist while anyone holds it. Entries that
  /// already come in /24 order (what `from_world` produces) build it in
  /// one pass with no intermediate pairs; only out-of-order entries sort
  /// `(slash24, target)` pairs first. Entries never change, so copies of
  /// a hitlist share one index too.
  [[nodiscard]] std::shared_ptr<const AddressIndex> address_index() const;

 private:
  struct IndexCache;  // once-flag + index, shared by copies
  static std::shared_ptr<IndexCache> new_index_cache();

  std::vector<HitlistEntry> entries_;
  std::shared_ptr<IndexCache> cache_ = new_index_cache();  // null if moved
};

}  // namespace anycast::census
