#include "anycast/census/hitlist.hpp"

#include <algorithm>
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

std::shared_ptr<const Hitlist::AddressIndex> Hitlist::address_index() const {
  if (cache_ == nullptr) return std::make_shared<const AddressIndex>();
  std::call_once(cache_->once, [this] {
    auto index = std::make_shared<AddressIndex>();
    index->reserve(entries_.size());
    for (std::size_t t = 0; t < entries_.size(); ++t) {
      index->emplace_back(entries_[t].representative.slash24_index(),
                          static_cast<std::uint32_t>(t));
    }
    if (!std::is_sorted(index->begin(), index->end())) {
      std::sort(index->begin(), index->end());
    }
    cache_->index = std::move(index);
  });
  return cache_->index;
}

}  // namespace anycast::census
