#include "anycast/obs/latency.hpp"

#include <algorithm>
#include <cmath>

#include "anycast/obs/metrics.hpp"

namespace anycast::obs {

std::uint64_t LatencyHisto::slot_lower(std::uint32_t slot) {
  const std::uint32_t octave = slot >> kSubBits;
  if (octave == 0) return slot;
  const std::uint64_t sub = slot & (kSubCount - 1);
  return (kSubCount + sub) << (octave - 1);
}

std::uint64_t LatencyHisto::slot_upper(std::uint32_t slot) {
  const std::uint32_t octave = slot >> kSubBits;
  if (octave == 0) return static_cast<std::uint64_t>(slot) + 1;
  return slot_lower(slot) + (1ull << (octave - 1));
}

double LatencyHisto::Snapshot::quantile(double q) const {
  if (count == 0 || counts.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  rank = std::clamp<std::uint64_t>(rank, 1, count);
  std::uint64_t seen = 0;
  for (std::uint32_t s = 0; s < counts.size(); ++s) {
    seen += counts[s];
    if (seen >= rank) {
      return static_cast<double>(LatencyHisto::slot_upper(s) - 1);
    }
  }
  return static_cast<double>(LatencyHisto::kMaxValue);
}

std::uint64_t LatencyHisto::Snapshot::min() const {
  for (std::uint32_t s = 0; s < counts.size(); ++s) {
    if (counts[s] != 0) return LatencyHisto::slot_lower(s);
  }
  return 0;
}

std::uint64_t LatencyHisto::Snapshot::max() const {
  for (std::uint32_t s = static_cast<std::uint32_t>(counts.size()); s-- > 0;) {
    if (counts[s] != 0) return LatencyHisto::slot_upper(s) - 1;
  }
  return 0;
}

std::uint64_t LatencyHisto::Snapshot::count_above(
    std::uint64_t threshold) const {
  std::uint64_t above = 0;
  for (std::uint32_t s = 0; s < counts.size(); ++s) {
    if (counts[s] != 0 && LatencyHisto::slot_lower(s) > threshold) {
      above += counts[s];
    }
  }
  return above;
}

LatencyHisto::Snapshot LatencyHisto::Snapshot::delta_since(
    const Snapshot& prev) const {
  Snapshot out;
  out.name = name;
  out.unit = unit;
  out.help = help;
  out.count = count - std::min(count, prev.count);
  out.sum = sum - std::min(sum, prev.sum);
  if (out.count == 0) return out;
  out.counts.assign(LatencyHisto::kSlots, 0);
  for (std::uint32_t s = 0; s < LatencyHisto::kSlots; ++s) {
    const std::uint64_t cur = s < counts.size() ? counts[s] : 0;
    const std::uint64_t old = s < prev.counts.size() ? prev.counts[s] : 0;
    out.counts[s] = cur - std::min(cur, old);
  }
  return out;
}

LatencyHisto& LatencyHisto::get(std::string_view name, std::string_view unit,
                                std::string_view help) {
  return metrics().histogram(name, MetricClass::kTiming, unit, help);
}

}  // namespace anycast::obs
