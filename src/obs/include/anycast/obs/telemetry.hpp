#pragma once

/// The live telemetry plane: one process-global aggregation point tying
/// the registry's histograms (metrics.hpp, latency.hpp), windowed series
/// (timeseries.hpp), and SLO tracker (slo.hpp) together for the
/// serving/watch daemons.
///
/// Feeding happens at three chokepoints:
///  * `serving::answer_query` records per-stage LatencyHisto samples and
///    calls `note_query_error` on malformed input;
///  * any ~1ms polling loop (the watch serve thread, the
///    `--metrics-interval` flusher) calls `tick()`, which rotates the
///    per-second series at most once per wall-clock second and evaluates
///    latency-class SLO objectives;
///  * the watch round loop calls `note_round` + `observe_slo_ratio` once
///    per round on the deterministic reduction thread.
///
/// Everything here is kTiming-class. Ratio (availability) SLO windows are
/// fed from semantic round aggregates, so *their* transitions are safe to
/// journal as kSemantic — the caller (watch.cpp) owns that emit; the
/// plane itself journals only kTiming latency transitions from `tick`.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "anycast/obs/slo.hpp"
#include "anycast/obs/timeseries.hpp"

namespace anycast::obs {

class TelemetryPlane {
 public:
  TelemetryPlane();
  TelemetryPlane(const TelemetryPlane&) = delete;
  TelemetryPlane& operator=(const TelemetryPlane&) = delete;

  /// Per-second serving aggregates: qps, errors_per_s, p50_us, p99_us,
  /// p999_us (quantiles over that second's serving_query_ns window).
  TimeSeries& per_second() { return per_second_; }
  /// Per-round census aggregates: coverage, completed, active, probes,
  /// echo_rate, dirty, anycast, round_ms (t = round index).
  TimeSeries& per_round() { return per_round_; }

  /// Malformed serving queries (also mirrored to the serving_errors
  /// counter by the serving layer).
  void note_query_error();
  [[nodiscard]] std::uint64_t query_errors() const;

  /// Rotate the per-second series if >= 1s has passed since the last
  /// rotation and evaluate latency-class SLO objectives. Cheap when
  /// called more often (one relaxed clock read + compare). Thread-safe.
  void tick();
  /// Deterministic test hook: same logic against a caller-supplied
  /// monotonic timestamp in seconds.
  void tick_at(double now_seconds);

  /// Push one census round into the per-round series.
  void note_round(std::uint64_t round, double coverage, double completed,
                  double active, double probes, double echo_rate,
                  double dirty, double anycast, double round_ms);

  /// Install (replacing any previous) SLO objectives; empty clears.
  void set_slo(std::vector<SloObjective> objectives);
  void set_slo(std::vector<SloObjective> objectives,
               SloTracker::Config config);
  [[nodiscard]] bool has_slo() const;

  /// Feed one ratio-objective window (watch round, reduction thread).
  /// Returns the transition, if any, for the caller to journal with the
  /// class of its choosing.
  std::optional<SloTracker::Transition> observe_slo_ratio(
      std::string_view objective, std::uint64_t t, std::uint64_t good,
      std::uint64_t bad);

  [[nodiscard]] std::vector<SloTracker::State> slo_states() const;

  /// Full telemetry document: MetricsRegistry scrape_json() (its
  /// `metrics` array of counters and gauges and its `latency` array of
  /// histograms) extended with "series" and "slo" sections.
  [[nodiscard]] std::string document_json() const;
  /// Prometheus exposition of the registry (counters, gauges, histograms).
  [[nodiscard]] std::string document_prometheus() const;

  /// Clears series, error counts, tick state, and the SLO tracker (not
  /// the histograms, which belong to the registry). Test hook.
  void reset();

 private:
  TimeSeries per_second_;
  TimeSeries per_round_;
  std::atomic<std::uint64_t> query_errors_{0};

  mutable std::mutex mutex_;
  bool ticked_ = false;
  double last_tick_s_ = 0.0;
  std::uint64_t tick_index_ = 0;
  LatencyHisto::Snapshot prev_query_;   // cumulative at last rotation
  std::uint64_t prev_errors_ = 0;
  std::optional<SloTracker> slo_;
};

/// The process-global plane (leaked, like obs::metrics()).
TelemetryPlane& telemetry();

}  // namespace anycast::obs
