#pragma once

/// The one histogram type: lock-free log-linear ("HDR-style") histograms
/// over non-negative integers (latencies in ns/us/ms, RTTs in us, replica
/// counts).
///
/// Buckets are log-linear: values below 2^kSubBits land in exact
/// unit-wide buckets; above that, each power-of-two octave is split into
/// 2^kSubBits equal-width sub-buckets, so bucket width never exceeds
/// value / 2^kSubBits. Quantile estimates are therefore within
/// kMaxRelativeError (1/128 < 1%) of the exact order statistic, and
/// `slot_of` is a handful of bit ops — no search, no floating point.
///
/// Histograms are registry-owned (metrics.hpp): `MetricsRegistry::
/// histogram` registers one by name, class and unit, and the registry
/// shards, folds, resets and scrapes it alongside its counters. Each
/// recording thread's slot block hangs off that thread's registry shard
/// and is allocated on its first record; `record` takes no locks after
/// that, and, the block having one writer, bumps a bucket and the sum
/// with relaxed load+stores rather than locked adds. Bucket counts and
/// the sum are integers, so merged values commute across shards and a
/// kSemantic histogram is as deterministic as a counter.

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace anycast::obs {

class MetricsRegistry;

class LatencyHisto {
 public:
  /// Sub-bucket resolution: 2^7 = 128 sub-buckets per octave.
  static constexpr std::uint32_t kSubBits = 7;
  static constexpr std::uint64_t kSubCount = 1ull << kSubBits;
  /// Documented quantile error bound: an estimate e for exact order
  /// statistic x satisfies x <= e <= x * (1 + kMaxRelativeError).
  static constexpr double kMaxRelativeError =
      1.0 / static_cast<double>(kSubCount);
  /// Values saturate at 2^38 - 1 (~4.6 minutes in ns, ~76 hours in us);
  /// larger values clamp into the top bucket.
  static constexpr std::uint32_t kValueBits = 38;
  static constexpr std::uint64_t kMaxValue = (1ull << kValueBits) - 1;
  /// Dense slot count: the exact region plus one octave of sub-buckets per
  /// power of two above it. 4096 slots = 32 KiB per (thread, histogram).
  static constexpr std::uint32_t kSlots =
      static_cast<std::uint32_t>((kValueBits - kSubBits + 1) * kSubCount);

  /// Merged view of a histogram at one scrape. Bucket `s` counts values in
  /// [slot_lower(s), slot_upper(s)).
  struct Snapshot {
    std::string name;
    std::string unit;
    std::string help;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::vector<std::uint64_t> counts;  // dense, size kSlots (empty if count==0)

    /// Upper-representative quantile estimate: the largest value in the
    /// bucket holding the ceil(q * count)-th smallest sample. Exact for
    /// values < kSubCount; within kMaxRelativeError above. 0 when empty.
    double quantile(double q) const;
    /// Smallest / largest recorded value's bucket bounds (0 when empty).
    std::uint64_t min() const;
    std::uint64_t max() const;
    /// Samples recorded strictly above `threshold`, counting only buckets
    /// whose entire range exceeds it (undercounts by at most one bucket —
    /// deterministic, which is what the SLO window math needs).
    std::uint64_t count_above(std::uint64_t threshold) const;
    /// Per-window delta: this snapshot minus an earlier one of the same
    /// histogram. min/max/quantiles of the result describe the window.
    Snapshot delta_since(const Snapshot& prev) const;
  };

  LatencyHisto(const LatencyHisto&) = delete;
  LatencyHisto& operator=(const LatencyHisto&) = delete;

  /// Record one value (saturating at kMaxValue). Lock-free after the
  /// calling thread's first record; a no-op while latency recording or
  /// the owning registry is disabled.
  void record(std::uint64_t value) const;

  /// Merge every live and retired shard into one Snapshot.
  Snapshot snapshot() const;

  /// Bucket arithmetic, exposed so tests can probe edges directly.
  static std::uint32_t slot_of(std::uint64_t value) {
    if (value > kMaxValue) value = kMaxValue;
    if (value < kSubCount) return static_cast<std::uint32_t>(value);
    const int msb = 63 - std::countl_zero(value);
    const int shift = msb - static_cast<int>(kSubBits);
    const auto octave = static_cast<std::uint32_t>(shift + 1);
    const auto sub =
        static_cast<std::uint32_t>((value >> shift) & (kSubCount - 1));
    return octave * static_cast<std::uint32_t>(kSubCount) + sub;
  }
  static std::uint64_t slot_lower(std::uint32_t slot);
  static std::uint64_t slot_upper(std::uint32_t slot);

  /// The kTiming histogram `name` on the process-global registry
  /// (`metrics().histogram(name, MetricClass::kTiming, unit, help)`).
  static LatencyHisto& get(std::string_view name, std::string_view unit,
                           std::string_view help);

 private:
  friend class MetricsRegistry;
  LatencyHisto(MetricsRegistry* registry, std::uint32_t index)
      : registry_(registry), index_(index) {}
  MetricsRegistry* registry_;
  std::uint32_t index_;  // the registry's histogram index
};

/// Global histogram-recording kill switch (default on): while off,
/// `record` returns immediately. Benches measure hot-path overhead by
/// toggling this around identical workloads.
void set_latency_recording(bool enabled);
bool latency_recording();

}  // namespace anycast::obs
