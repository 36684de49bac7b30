// Observability: the census pipeline's metrics registry.
//
// The paper's census is an operational pipeline — four censuses, millions
// of targets, greylisting, convergence loops — and its accounting (probes
// sent, ICMP errors, greylist hits, retry outcomes, iGreedy iterations)
// is as much a result as the RTT matrix. This registry collects exactly
// those per-phase counters, under two hard constraints:
//
//  1. **Lock-free on the hot path.** Counters and histograms write into
//     per-thread shards (one cache-friendly slot array per thread, plus a
//     slot block per histogram the thread records into). Each slot has
//     one writer, its owner, so an increment is a relaxed load+store, not
//     a locked read-modify-write; shards are merged at scrape time and
//     folded into retired totals when their thread exits. No shared
//     atomics, no locks, anywhere a probe loop runs.
//
//  2. **Semantic metrics are deterministic.** Every metric declares a
//     class at registration: `kSemantic` values depend only on what the
//     pipeline computed (probe counts, greylist sizes, simulated RTTs) and
//     are *byte-identical* across thread counts and across
//     crash+resume — integer sums and integer bucket counts commute, so
//     shard merge order cannot leak in. `kTiming` values (wall-clock
//     durations, pool busy time, per-lane task counts) may vary run to
//     run and are excluded from `semantic_snapshot()`. The snapshot is
//     therefore a cheap end-to-end oracle: tier-1 tests pin it the same
//     way they pin census digests.
//
// There is one process-global registry (`metrics()`); unit tests may
// construct private registries. Registration is idempotent by name, so
// modules declare their instruments in function-local statics.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "anycast/obs/latency.hpp"

namespace anycast::obs {

class MetricsRegistry;

/// Determinism class, declared — deliberately, no default — per metric.
/// Semantic: identical for identical pipeline inputs, whatever the thread
/// count and whether the run was live or resumed from checkpoints.
/// Timing: wall-clock or scheduling dependent; excluded from the
/// deterministic snapshot (tests keep an explicit allowlist of these, so
/// a forgotten classification fails loudly).
enum class MetricClass : std::uint8_t { kSemantic, kTiming };

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

std::string_view to_string(MetricClass cls);
std::string_view to_string(MetricKind kind);

/// Monotonic integer counter. A value-type handle: copy freely, `add` from
/// any thread — increments land in the calling thread's shard.
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t n = 1) const;
  inline void inc() const { add(1); }

 private:
  friend class MetricsRegistry;
  Counter(MetricsRegistry* registry, std::uint32_t slot)
      : registry_(registry), slot_(slot) {}
  MetricsRegistry* registry_ = nullptr;
  std::uint32_t slot_ = 0;
};

/// Last-write-wins double gauge. Not sharded: gauges record states, not
/// flows, and every semantic gauge in the pipeline is set from the
/// deterministic reduction thread. (A gauge set concurrently from racing
/// threads is last-writer-wins and should be declared kTiming.)
class Gauge {
 public:
  Gauge() = default;
  void set(double value) const;

 private:
  friend class MetricsRegistry;
  Gauge(MetricsRegistry* registry, std::uint32_t index)
      : registry_(registry), index_(index) {}
  MetricsRegistry* registry_ = nullptr;
  std::uint32_t index_ = 0;
};

/// One scraped metric, fully merged.
struct MetricValue {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  MetricClass cls = MetricClass::kSemantic;
  std::uint64_t value = 0;           // counter
  double gauge = 0.0;                // gauge
  LatencyHisto::Snapshot histogram;  // histogram (carries the unit)
};

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers (or looks up) an instrument. Idempotent by name; a name
  /// re-registered with a different kind, class, or unit throws
  /// std::logic_error — one name means one instrument, forever. Names
  /// must match [A-Za-z0-9_]. A histogram is owned by the registry, so
  /// the returned reference lives as long as it does.
  Counter counter(std::string_view name, MetricClass cls,
                  std::string_view help = {});
  Gauge gauge(std::string_view name, MetricClass cls,
              std::string_view help = {});
  LatencyHisto& histogram(std::string_view name, MetricClass cls,
                          std::string_view unit, std::string_view help = {});

  /// All registered metrics with fully merged values, sorted by name.
  [[nodiscard]] std::vector<MetricValue> scrape() const;

  /// JSON export of `scrape()` (stable field order, sorted by name): a
  /// `metrics` array of counters and gauges, and a `latency` array with
  /// one summary (unit, count, sum, min, max, quantiles) per histogram.
  [[nodiscard]] std::string scrape_json() const;

  /// Prometheus text exposition of `scrape()` (counters as `_total`,
  /// histograms with cumulative `le` buckets over their non-empty slots).
  [[nodiscard]] std::string scrape_prometheus() const;

  /// Canonical text of **semantic** metrics only: the deterministic
  /// fingerprint of a run. Byte-identical across thread counts and across
  /// crash+resume for the same pipeline input. A histogram renders its
  /// non-empty buckets (`name{le=<inclusive upper>} count`) and its
  /// integer `name_sum`.
  [[nodiscard]] std::string semantic_snapshot() const;

  /// Zeroes every value (counters, gauges, histograms, live and retired
  /// shards). Registrations survive. Call only while no thread is
  /// writing — between pipeline phases, not during one: a record racing
  /// the reset may store its pre-reset total back.
  void reset();

  /// Kill switch for overhead measurement: while disabled, add/record/set
  /// return immediately. Enabled by default.
  void set_enabled(bool enabled);
  [[nodiscard]] bool enabled() const;

  /// Shards ever created (live + retired): visible for tests.
  [[nodiscard]] std::size_t shard_count() const;

  struct Impl;  // public so implementation-file helpers can name it

 private:
  friend class Counter;
  friend class Gauge;
  friend class LatencyHisto;
  Impl* impl_;  // raw: the global registry is intentionally leaked
};

/// The process-global registry every pipeline stage reports into. Leaked
/// on purpose (constructed on first use, never destroyed) so worker
/// threads retiring their shards at thread exit can never outlive it.
MetricsRegistry& metrics();

/// Prometheus exposition escaping, per the text-format spec: HELP text
/// escapes `\` and newline; label values additionally escape `"`.
/// Exposed so exposition tests can exercise them directly.
[[nodiscard]] std::string prometheus_escape_help(std::string_view text);
[[nodiscard]] std::string prometheus_escape_label(std::string_view text);

/// Appends `text` escaped for a JSON string literal: `"` and `\` get a
/// backslash, newline/CR/tab their short escapes, and every other control
/// character `\u00XX`. Every JSON writer in the project escapes through
/// this (the journal's fixed-buffer writer keeps its own loop).
void append_json_escaped(std::string& out, std::string_view text);

}  // namespace anycast::obs
