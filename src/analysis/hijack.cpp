#include "anycast/analysis/hijack.hpp"

namespace anycast::analysis {

HijackMonitor::HijackMonitor(std::span<const net::VantagePoint> vps,
                             const geo::CityIndex& cities,
                             core::Options options)
    : analyzer_(vps, cities, options) {}

void HijackMonitor::set_reference(const census::ShardedCensusMatrix& reference,
                                  const census::Hitlist& hitlist,
                                  std::size_t min_vps) {
  unicast_reference_.clear();
  const std::size_t targets =
      std::min(reference.target_count(), hitlist.size());
  for (std::uint32_t t = 0; t < targets; ++t) {
    const auto row = reference.measurements(t);
    if (row.size() < min_vps) continue;
    if (!analyzer_.detect(row)) {
      unicast_reference_.insert(hitlist[t].representative.slash24_index());
    }
  }
}

std::optional<HijackAlarm> HijackMonitor::scan_one(
    const census::ShardedCensusMatrix& data, const census::Hitlist& hitlist,
    std::uint32_t target_index, std::size_t min_vps) const {
  const std::uint32_t slash24 =
      hitlist[target_index].representative.slash24_index();
  if (!unicast_reference_.contains(slash24)) return std::nullopt;
  const auto row = data.measurements(target_index);
  if (row.size() < min_vps) return std::nullopt;
  if (!analyzer_.detect(row)) return std::nullopt;
  HijackAlarm alarm;
  alarm.slash24_index = slash24;
  alarm.target_index = target_index;
  alarm.result = analyzer_.analyze_row(row);
  return alarm;
}

std::vector<HijackAlarm> HijackMonitor::scan(
    const census::ShardedCensusMatrix& data, const census::Hitlist& hitlist,
    std::size_t min_vps) const {
  std::vector<HijackAlarm> alarms;
  const std::size_t targets = std::min(data.target_count(), hitlist.size());
  for (std::uint32_t t = 0; t < targets; ++t) {
    if (auto alarm = scan_one(data, hitlist, t, min_vps)) {
      alarms.push_back(std::move(*alarm));
    }
  }
  return alarms;
}

std::vector<HijackAlarm> HijackMonitor::scan_targets(
    const census::ShardedCensusMatrix& data, const census::Hitlist& hitlist,
    std::span<const std::uint32_t> targets, std::size_t min_vps) const {
  std::vector<HijackAlarm> alarms;
  const std::size_t limit = std::min(data.target_count(), hitlist.size());
  for (const std::uint32_t t : targets) {
    if (t >= limit) continue;
    if (auto alarm = scan_one(data, hitlist, t, min_vps)) {
      alarms.push_back(std::move(*alarm));
    }
  }
  return alarms;
}

}  // namespace anycast::analysis
