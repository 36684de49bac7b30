#include "anycast/census/hitlist.hpp"

#include <algorithm>
#include <limits>
#include <mutex>

#include "anycast/net/internet.hpp"

namespace anycast::census {

Hitlist Hitlist::from_world(const net::SimulatedInternet& internet) {
  std::vector<HitlistEntry> entries;
  entries.reserve(internet.targets().size());
  for (const net::TargetInfo& info : internet.targets()) {
    HitlistEntry entry;
    // Representative: host .1 of the /24 for live space; an arbitrary host
    // for never-responding /24s (as the provider's hitlist does).
    entry.representative =
        ipaddr::IPv4Address::from_slash24_index(info.slash24_index, 1);
    entry.score =
        info.kind == net::TargetInfo::Kind::kDead ? std::int8_t{-2}
                                                  : std::int8_t{3};
    entries.push_back(entry);
  }
  return Hitlist(std::move(entries));
}

Hitlist Hitlist::without_dead() const {
  std::vector<HitlistEntry> kept;
  kept.reserve(entries_.size());
  for (const HitlistEntry& entry : entries_) {
    if (entry.score > -2) kept.push_back(entry);
  }
  return Hitlist(std::move(kept));
}

struct Hitlist::IndexCache {
  std::once_flag once;
  std::shared_ptr<const AddressIndex> index;
};

std::shared_ptr<Hitlist::IndexCache> Hitlist::new_index_cache() {
  return std::make_shared<IndexCache>();
}

Hitlist::AddressIndex Hitlist::AddressIndex::build(
    std::span<const HitlistEntry> entries) {
  AddressIndex index;
  if (entries.empty()) return index;
  // Nothing here depends on the entries' order: mark every /24, rank the
  // marks, then hand each rank the first target, scanning up, that has it.
  std::uint32_t top = 0;
  for (const HitlistEntry& entry : entries) {
    top = std::max(top, entry.representative.slash24_index());
  }
  index.slash24s_ = RankBitmap(std::size_t{top} + 1);
  for (const HitlistEntry& entry : entries) {
    index.slash24s_.set(entry.representative.slash24_index());
  }
  constexpr std::uint32_t kUnset = std::numeric_limits<std::uint32_t>::max();
  index.first_target_.assign(index.slash24s_.finish(), kUnset);
  for (std::size_t t = 0; t < entries.size(); ++t) {
    std::uint32_t& first = index.first_target_[*index.slash24s_.rank_if_set(
        entries[t].representative.slash24_index())];
    if (first == kUnset) first = static_cast<std::uint32_t>(t);
  }
  return index;
}

std::shared_ptr<const Hitlist::AddressIndex> Hitlist::address_index() const {
  if (cache_ == nullptr) return std::make_shared<const AddressIndex>();
  std::call_once(cache_->once, [this] {
    cache_->index =
        std::make_shared<const AddressIndex>(AddressIndex::build(entries_));
  });
  return cache_->index;
}

}  // namespace anycast::census
