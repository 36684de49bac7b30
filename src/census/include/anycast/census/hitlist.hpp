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
#include <utility>
#include <vector>

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
  /// `(slash24_index, target_index)` for every entry, sorted: the lowest
  /// target of a repeated /24 comes first.
  using AddressIndex = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

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
  /// already come in /24 order (what `from_world` produces) cost one
  /// linear check, not a sort. Entries never change, so copies of a
  /// hitlist share one index too.
  [[nodiscard]] std::shared_ptr<const AddressIndex> address_index() const;

 private:
  struct IndexCache;  // once-flag + index, shared by copies
  static std::shared_ptr<IndexCache> new_index_cache();

  std::vector<HitlistEntry> entries_;
  std::shared_ptr<IndexCache> cache_ = new_index_cache();  // null if moved
};

}  // namespace anycast::census
