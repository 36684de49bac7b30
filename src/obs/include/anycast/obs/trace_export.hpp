// Observability: Chrome-trace / Perfetto export of the span tree.
//
// Spans record *structure* (what nested under what, per VP, per shard);
// this exporter renders them in the Trace Event Format that
// ui.perfetto.dev and chrome://tracing load directly. Spans become async
// begin/end pairs keyed by span id — async events tolerate the
// overlapping lifetimes that parallel sibling walks produce, where
// stack-style "X" events would not. Counter tracks come from the metrics
// registry, sampled over time by a CounterSampler (the progress heartbeat
// samples each tick, plus one final sample at export), so a loaded trace
// shows probe/reply/greylist counters advancing under the span timeline.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "anycast/obs/metrics.hpp"
#include "anycast/obs/trace.hpp"

namespace anycast::obs {

/// One sampled counter value. `t_ns` is relative to the trace
/// collector's epoch so samples land on the span timeline.
struct CounterSample {
  std::int64_t t_ns = 0;
  std::string name;
  double value = 0.0;
};

/// Bounded time-series store of registry scrapes. Sampling takes the
/// store mutex plus one scrape — heartbeat-frequency work, never
/// hot-path. When the cap is hit further samples are counted as dropped,
/// mirroring the span collector's policy.
class CounterSampler {
 public:
  CounterSampler();
  ~CounterSampler();
  CounterSampler(const CounterSampler&) = delete;
  CounterSampler& operator=(const CounterSampler&) = delete;

  /// Scrapes `registry` and appends one sample per counter (value),
  /// gauge (value), and histogram (observation count), stamped `t_ns`
  /// past the trace epoch.
  void sample(const MetricsRegistry& registry, std::int64_t t_ns);

  /// Convenience: samples the global metrics() at now − trace().epoch_ns().
  void sample_now();

  [[nodiscard]] std::vector<CounterSample> samples() const;
  [[nodiscard]] std::size_t dropped() const;

  /// Max retained samples before drops begin. Default 65536.
  void set_capacity(std::size_t capacity);

  void reset();

 private:
  struct Impl;
  Impl* impl_;
};

/// The process-global sampler feeding --trace-out. Leaked on purpose,
/// like obs::metrics().
CounterSampler& counter_sampler();

/// Renders spans + counter samples as a Trace Event Format JSON object
/// (`{"traceEvents": [...], "displayTimeUnit": "ms", "otherData": ...}`).
/// Pure function of its inputs; `dropped_spans`/`orphan_spans` are
/// surfaced in otherData so a truncated trace says so.
[[nodiscard]] std::string chrome_trace_json(
    const std::vector<SpanRecord>& spans,
    const std::vector<CounterSample>& samples, std::size_t dropped_spans,
    std::size_t orphan_spans);

/// Takes a final sample of the global registry, then writes the global
/// collector's spans plus all counter samples to `path` through
/// write_file_atomic. Returns false (leaving `path` as it was) on failure.
bool write_chrome_trace(const std::filesystem::path& path);

}  // namespace anycast::obs
