#include "anycast/obs/telemetry.hpp"

#include <array>
#include <chrono>

#include "anycast/obs/journal.hpp"
#include "anycast/obs/latency.hpp"
#include "anycast/obs/metrics.hpp"

namespace anycast::obs {
namespace {

double steady_seconds() {
  static const auto start = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

constexpr std::size_t kPerSecondCapacity = 600;  // 10 minutes of seconds
constexpr std::size_t kPerRoundCapacity = 1024;

}  // namespace

TelemetryPlane::TelemetryPlane()
    : per_second_("serving_per_second",
                  {"qps", "errors_per_s", "p50_us", "p99_us", "p999_us"},
                  kPerSecondCapacity),
      per_round_("census_per_round",
                 {"coverage", "completed", "active", "probes", "echo_rate",
                  "dirty", "anycast", "round_ms"},
                 kPerRoundCapacity) {}

void TelemetryPlane::note_query_error() {
  query_errors_.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t TelemetryPlane::query_errors() const {
  return query_errors_.load(std::memory_order_relaxed);
}

void TelemetryPlane::tick() { tick_at(steady_seconds()); }

void TelemetryPlane::tick_at(double now_seconds) {
  const std::lock_guard lock(mutex_);
  if (!ticked_) {
    // First observation anchors the window; nothing to aggregate yet.
    ticked_ = true;
    last_tick_s_ = now_seconds;
    prev_query_ =
        LatencyHisto::get("serving_query_ns", "ns", "serving query latency")
            .snapshot();
    prev_errors_ = query_errors();
    return;
  }
  const double dt = now_seconds - last_tick_s_;
  if (dt < 1.0) return;
  last_tick_s_ = now_seconds;
  ++tick_index_;

  const LatencyHisto::Snapshot cur =
      LatencyHisto::get("serving_query_ns", "ns", "serving query latency")
          .snapshot();
  const LatencyHisto::Snapshot window = cur.delta_since(prev_query_);
  prev_query_ = cur;
  const std::uint64_t errors_now = query_errors();
  const std::uint64_t errors_delta = errors_now - prev_errors_;
  prev_errors_ = errors_now;

  const std::array<double, 5> point = {
      static_cast<double>(window.count) / dt,
      static_cast<double>(errors_delta) / dt,
      window.quantile(0.5) / 1e3,
      window.quantile(0.99) / 1e3,
      window.quantile(0.999) / 1e3,
  };
  per_second_.push(tick_index_, point);

  if (!slo_) return;
  for (const SloObjective& obj : slo_->objectives()) {
    if (obj.input != SloObjective::Input::kLatency) continue;
    const LatencyHisto::Snapshot snap =
        LatencyHisto::get(obj.histo_name, "ns", "serving stage latency")
            .snapshot();
    const auto transition =
        slo_->observe_histogram(obj.name, tick_index_, snap);
    if (!transition || !journal().recording()) continue;
    // Latency SLO transitions are wall-clock phenomena: kTiming, stamped
    // in completion order, never part of the drift-gated stream.
    journal().emit(MetricClass::kTiming,
                   transition->entered ? Severity::kWarn : Severity::kInfo,
                   transition->entered ? "slo.violation" : "slo.recovered",
                   transition->t,
                   {{"objective", transition->objective},
                    {"tick", transition->t},
                    {"burn_short_permille", transition->burn_short_permille},
                    {"burn_long_permille", transition->burn_long_permille}});
  }
}

void TelemetryPlane::note_round(std::uint64_t round, double coverage,
                                double completed, double active,
                                double probes, double echo_rate, double dirty,
                                double anycast, double round_ms) {
  const std::array<double, 8> point = {coverage, completed, active, probes,
                                       echo_rate, dirty,    anycast, round_ms};
  per_round_.push(round, point);
}

void TelemetryPlane::set_slo(std::vector<SloObjective> objectives) {
  set_slo(std::move(objectives), SloTracker::Config());
}

void TelemetryPlane::set_slo(std::vector<SloObjective> objectives,
                             SloTracker::Config config) {
  const std::lock_guard lock(mutex_);
  if (objectives.empty()) {
    slo_.reset();
  } else {
    slo_.emplace(std::move(objectives), config);
  }
}

bool TelemetryPlane::has_slo() const {
  const std::lock_guard lock(mutex_);
  return slo_.has_value();
}

std::optional<SloTracker::Transition> TelemetryPlane::observe_slo_ratio(
    std::string_view objective, std::uint64_t t, std::uint64_t good,
    std::uint64_t bad) {
  const std::lock_guard lock(mutex_);
  if (!slo_) return std::nullopt;
  return slo_->observe(objective, t, good, bad);
}

std::vector<SloTracker::State> TelemetryPlane::slo_states() const {
  const std::lock_guard lock(mutex_);
  if (!slo_) return {};
  return slo_->states();
}

std::string TelemetryPlane::document_json() const {
  std::string out = metrics().scrape_json();
  // scrape_json ends with "  ]\n}\n"; splice the telemetry sections in
  // before the closing brace so its `metrics` and `latency` arrays keep
  // their exact shape.
  const std::size_t brace = out.rfind('}');
  if (brace != std::string::npos) out.erase(brace);
  while (!out.empty() && (out.back() == '\n' || out.back() == ' ')) {
    out.pop_back();
  }
  out += ",\n  \"series\": [\n    ";
  out += per_second_.to_json();
  out += ",\n    ";
  out += per_round_.to_json();
  out += "\n  ],\n  \"slo\": ";
  {
    const std::lock_guard lock(mutex_);
    out += slo_ ? slo_->to_json() : std::string("[]");
  }
  out += "\n}\n";
  return out;
}

std::string TelemetryPlane::document_prometheus() const {
  return metrics().scrape_prometheus();
}

void TelemetryPlane::reset() {
  const std::lock_guard lock(mutex_);
  per_second_.clear();
  per_round_.clear();
  query_errors_.store(0, std::memory_order_relaxed);
  ticked_ = false;
  last_tick_s_ = 0.0;
  tick_index_ = 0;
  prev_query_ = {};
  prev_errors_ = 0;
  slo_.reset();
}

TelemetryPlane& telemetry() {
  static TelemetryPlane* global = new TelemetryPlane();
  return *global;
}

}  // namespace anycast::obs
