#pragma once

/// Service-level objectives with multi-window burn-rate tracking.
///
/// Objectives come from a `--slo` spec string, e.g.
///
///   --slo "p99_lookup_us=50,availability=0.999"
///
/// Two objective shapes exist:
///
///  * `availability=<ratio>` — a ratio objective: each evaluation window
///    supplies (good, bad) event counts (the watch daemon feeds
///    completed / non-completed VP walks per round). The error budget is
///    1 - ratio. These inputs are semantic round aggregates, so their
///    violation transitions emit kSemantic journal events and are
///    drift-gated across thread counts.
///  * `p<q>_<stage>_<unit>=<bound>` — a latency objective over a serving
///    stage histogram (stage in lookup|nearest|diff|query, unit in
///    us|ms, q in {50, 90, 99, 999, ...} read as a quantile digit string).
///    The implied budget is 1 - q: `p99_lookup_us=50` means "at most 1% of
///    lookups may exceed 50us". Windows are fed from LatencyHisto snapshot
///    deltas. Latency is wall-clock, so these transitions are
///    kTiming-class.
///
/// Burn rate per window = (bad fraction) / budget; a burn of 1.0 spends
/// the budget exactly. The tracker keeps a short and a long trailing
/// window and flags a violation only when the short-window burn clears
/// `burn_threshold` AND the long-window burn has consumed the budget —
/// the standard multi-window guard against paging on a single bad blip.
///
/// All arithmetic is over integer event counts on logical time (round or
/// tick index), so a given input sequence produces one transition
/// sequence regardless of thread count or wall clock.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "anycast/obs/latency.hpp"
#include "anycast/obs/metrics.hpp"

namespace anycast::obs {

struct SloObjective {
  enum class Input { kRatio, kLatency };

  std::string name;       // spec key, e.g. "availability", "p99_lookup_us"
  double threshold = 0.0; // required ratio, or latency bound in `unit`
  double budget = 0.0;    // allowed bad fraction per window
  Input input = Input::kRatio;
  MetricClass cls = MetricClass::kSemantic;

  // Latency objectives only:
  double quantile = 0.0;
  std::string stage;            // lookup|nearest|diff|query
  std::uint64_t threshold_ns = 0;
  std::string histo_name;       // "serving_<stage>_ns"
};

/// Parse a comma-separated spec. Returns nullopt and sets `error` on any
/// malformed entry; an empty spec yields an empty vector.
std::optional<std::vector<SloObjective>> parse_slo_spec(
    std::string_view spec, std::string* error);

class SloTracker {
 public:
  struct Config {
    std::size_t short_window = 1;   // windows in the fast burn average
    std::size_t long_window = 4;    // windows in the slow burn average
    double burn_threshold = 2.0;    // short-window burn that trips paging
  };

  struct Transition {
    std::string objective;
    bool entered = false;  // true: ok -> violating, false: recovered
    std::uint64_t t = 0;
    std::uint64_t burn_short_permille = 0;
    std::uint64_t burn_long_permille = 0;
  };

  struct State {
    SloObjective objective;
    std::uint64_t windows = 0;
    std::uint64_t violations = 0;   // enter transitions
    std::uint64_t burn_short_permille = 0;
    std::uint64_t burn_long_permille = 0;
    bool violating = false;
  };

  explicit SloTracker(std::vector<SloObjective> objectives);
  SloTracker(std::vector<SloObjective> objectives, Config config);

  /// Record one evaluation window of (good, bad) event counts for a ratio
  /// objective and re-evaluate; returns a transition when the violating
  /// state flips. Unknown objective names are ignored (returns nullopt).
  std::optional<Transition> observe(std::string_view objective,
                                    std::uint64_t t, std::uint64_t good,
                                    std::uint64_t bad);

  /// Record one window for a latency objective from a cumulative histogram
  /// snapshot: the delta since this objective's previous snapshot becomes
  /// the window (bad = samples above threshold_ns).
  std::optional<Transition> observe_histogram(
      std::string_view objective, std::uint64_t t,
      const LatencyHisto::Snapshot& cumulative);

  std::vector<State> states() const;
  const std::vector<SloObjective>& objectives() const { return objectives_; }
  const Config& config() const { return config_; }

  /// JSON array body for the "slo" telemetry document section.
  std::string to_json() const;

 private:
  struct Window {
    std::uint64_t good = 0;
    std::uint64_t bad = 0;
  };
  struct Track {
    std::vector<Window> recent;  // ring, size <= config_.long_window
    std::size_t next = 0;
    std::uint64_t windows = 0;
    std::uint64_t violations = 0;
    std::uint64_t burn_short_permille = 0;
    std::uint64_t burn_long_permille = 0;
    bool violating = false;
    LatencyHisto::Snapshot prev;  // latency objectives: last cumulative
  };

  std::optional<Transition> push_window(std::size_t index, std::uint64_t t,
                                        std::uint64_t good, std::uint64_t bad);
  void refresh_worst_burn() const;

  std::vector<SloObjective> objectives_;
  Config config_;
  std::vector<Track> tracks_;
};

}  // namespace anycast::obs
