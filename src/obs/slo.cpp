#include "anycast/obs/slo.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace anycast::obs {
namespace {

/// Operational SLO telemetry. kTiming: violation counts depend on wall
/// clock (latency objectives) and configuration, never on census
/// semantics, so they stay out of pinned semantic snapshots.
struct SloInstruments {
  Counter violations = metrics().counter(
      "slo_violations", MetricClass::kTiming,
      "SLO objectives entering the violating state");
  Counter recoveries = metrics().counter(
      "slo_recoveries", MetricClass::kTiming,
      "SLO objectives leaving the violating state");
  Gauge worst_burn = metrics().gauge(
      "slo_worst_burn_permille", MetricClass::kTiming,
      "Highest short-window burn rate across objectives, in permille");
};

const SloInstruments& slo_instruments() {
  static const SloInstruments instruments;
  return instruments;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

/// A finite decimal number: nan, inf and hex spellings are refused.
bool parse_double(std::string_view text, double* out) {
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(),
                                         value, std::chars_format::general);
  if (ec != std::errc{} || ptr != text.data() + text.size() ||
      !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

bool valid_stage(std::string_view stage) {
  return stage == "lookup" || stage == "nearest" || stage == "diff" ||
         stage == "query";
}

bool parse_latency_key(std::string_view key, SloObjective* obj,
                       std::string* error) {
  // p<digits>_<stage>_<us|ms>
  std::string_view rest = key.substr(1);
  const std::size_t first_us = rest.find('_');
  const std::size_t last_us = rest.rfind('_');
  if (first_us == std::string_view::npos || first_us == last_us) {
    *error = "latency objective must be p<q>_<stage>_<unit>: " +
             std::string(key);
    return false;
  }
  const std::string_view digits = rest.substr(0, first_us);
  const std::string_view stage = rest.substr(first_us + 1,
                                             last_us - first_us - 1);
  const std::string_view unit = rest.substr(last_us + 1);
  if (digits.empty() ||
      !std::all_of(digits.begin(), digits.end(),
                   [](char c) { return c >= '0' && c <= '9'; })) {
    *error = "bad quantile in SLO objective: " + std::string(key);
    return false;
  }
  double q = 0.0;
  double scale = 0.1;
  for (const char c : digits) {
    q += static_cast<double>(c - '0') * scale;
    scale *= 0.1;
  }
  if (q <= 0.0 || q >= 1.0) {
    *error = "quantile out of range in SLO objective: " + std::string(key);
    return false;
  }
  if (!valid_stage(stage)) {
    *error = "unknown stage in SLO objective (want lookup|nearest|diff|"
             "query): " + std::string(key);
    return false;
  }
  if (unit != "us" && unit != "ms") {
    *error = "unknown unit in SLO objective (want us|ms): " + std::string(key);
    return false;
  }
  obj->input = SloObjective::Input::kLatency;
  obj->cls = MetricClass::kTiming;
  obj->quantile = q;
  obj->budget = 1.0 - q;
  obj->stage = std::string(stage);
  obj->histo_name = "serving_" + obj->stage + "_ns";
  const double unit_ns = unit == "us" ? 1e3 : 1e6;
  obj->threshold_ns =
      static_cast<std::uint64_t>(std::llround(obj->threshold * unit_ns));
  return true;
}

std::uint64_t burn_permille(double bad_fraction_mean, double budget) {
  if (budget <= 0.0) return 0;
  const double burn = bad_fraction_mean / budget;
  return static_cast<std::uint64_t>(std::llround(burn * 1000.0));
}

}  // namespace

std::optional<std::vector<SloObjective>> parse_slo_spec(
    std::string_view spec, std::string* error) {
  std::vector<SloObjective> out;
  std::string_view rest = spec;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    std::string_view entry = trim(rest.substr(0, comma));
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos) {
      if (error) *error = "SLO objective missing '=': " + std::string(entry);
      return std::nullopt;
    }
    const std::string_view key = trim(entry.substr(0, eq));
    const std::string_view value = trim(entry.substr(eq + 1));
    SloObjective obj;
    obj.name = std::string(key);
    std::string local_error;
    if (!parse_double(value, &obj.threshold)) {
      if (error) *error = "bad SLO value: " + std::string(entry);
      return std::nullopt;
    }
    if (key == "availability") {
      if (obj.threshold <= 0.0 || obj.threshold >= 1.0) {
        if (error) {
          *error = "availability objective must be in (0,1): " +
                   std::string(entry);
        }
        return std::nullopt;
      }
      obj.input = SloObjective::Input::kRatio;
      obj.cls = MetricClass::kSemantic;
      obj.budget = 1.0 - obj.threshold;
    } else if (!key.empty() && key.front() == 'p') {
      if (obj.threshold <= 0.0) {
        if (error) {
          *error = "latency bound must be positive: " + std::string(entry);
        }
        return std::nullopt;
      }
      if (!parse_latency_key(key, &obj, &local_error)) {
        if (error) *error = local_error;
        return std::nullopt;
      }
    } else {
      if (error) *error = "unknown SLO objective: " + std::string(key);
      return std::nullopt;
    }
    out.push_back(std::move(obj));
  }
  return out;
}

SloTracker::SloTracker(std::vector<SloObjective> objectives)
    : SloTracker(std::move(objectives), Config()) {}

SloTracker::SloTracker(std::vector<SloObjective> objectives, Config config)
    : objectives_(std::move(objectives)), config_(config) {
  config_.short_window = std::max<std::size_t>(1, config_.short_window);
  config_.long_window = std::max(config_.short_window, config_.long_window);
  tracks_.resize(objectives_.size());
  for (Track& track : tracks_) {
    track.recent.reserve(config_.long_window);
  }
  (void)slo_instruments();  // register the telemetry metrics up front
}

std::optional<SloTracker::Transition> SloTracker::push_window(
    std::size_t index, std::uint64_t t, std::uint64_t good,
    std::uint64_t bad) {
  Track& track = tracks_[index];
  const Window window{good, bad};
  if (track.recent.size() < config_.long_window) {
    track.recent.push_back(window);
    track.next = track.recent.size() % config_.long_window;
  } else {
    track.recent[track.next] = window;
    track.next = (track.next + 1) % config_.long_window;
  }
  ++track.windows;

  // Mean bad fraction over the most recent k windows (newest first from
  // `next`), over however many windows exist so early rounds still burn.
  const auto mean_fraction = [&](std::size_t k) {
    const std::size_t have = track.recent.size();
    const std::size_t take = std::min(k, have);
    double total = 0.0;
    for (std::size_t i = 0; i < take; ++i) {
      const std::size_t pos =
          (track.next + have - 1 - i) % have;
      const Window& w = track.recent[pos];
      const std::uint64_t events = w.good + w.bad;
      if (events != 0) {
        total += static_cast<double>(w.bad) / static_cast<double>(events);
      }
    }
    return take == 0 ? 0.0 : total / static_cast<double>(take);
  };

  const double budget = objectives_[index].budget;
  track.burn_short_permille =
      burn_permille(mean_fraction(config_.short_window), budget);
  track.burn_long_permille =
      burn_permille(mean_fraction(config_.long_window), budget);

  const bool violating =
      static_cast<double>(track.burn_short_permille) >=
          config_.burn_threshold * 1000.0 &&
      track.burn_long_permille >= 1000;

  std::optional<Transition> transition;
  if (violating != track.violating) {
    track.violating = violating;
    if (violating) {
      ++track.violations;
      slo_instruments().violations.inc();
    } else {
      slo_instruments().recoveries.inc();
    }
    transition = Transition{objectives_[index].name, violating, t,
                            track.burn_short_permille,
                            track.burn_long_permille};
  }
  refresh_worst_burn();
  return transition;
}

void SloTracker::refresh_worst_burn() const {
  std::uint64_t worst = 0;
  for (const Track& track : tracks_) {
    worst = std::max(worst, track.burn_short_permille);
  }
  slo_instruments().worst_burn.set(static_cast<double>(worst));
}

std::optional<SloTracker::Transition> SloTracker::observe(
    std::string_view objective, std::uint64_t t, std::uint64_t good,
    std::uint64_t bad) {
  for (std::size_t i = 0; i < objectives_.size(); ++i) {
    if (objectives_[i].name == objective) return push_window(i, t, good, bad);
  }
  return std::nullopt;
}

std::optional<SloTracker::Transition> SloTracker::observe_histogram(
    std::string_view objective, std::uint64_t t,
    const LatencyHisto::Snapshot& cumulative) {
  for (std::size_t i = 0; i < objectives_.size(); ++i) {
    if (objectives_[i].name != objective) continue;
    const SloObjective& obj = objectives_[i];
    if (obj.input != SloObjective::Input::kLatency) return std::nullopt;
    const LatencyHisto::Snapshot window =
        cumulative.delta_since(tracks_[i].prev);
    tracks_[i].prev = cumulative;
    const std::uint64_t bad = window.count_above(obj.threshold_ns);
    const std::uint64_t good = window.count - std::min(window.count, bad);
    return push_window(i, t, good, bad);
  }
  return std::nullopt;
}

std::vector<SloTracker::State> SloTracker::states() const {
  std::vector<State> out;
  out.reserve(objectives_.size());
  for (std::size_t i = 0; i < objectives_.size(); ++i) {
    State state;
    state.objective = objectives_[i];
    state.windows = tracks_[i].windows;
    state.violations = tracks_[i].violations;
    state.burn_short_permille = tracks_[i].burn_short_permille;
    state.burn_long_permille = tracks_[i].burn_long_permille;
    state.violating = tracks_[i].violating;
    out.push_back(std::move(state));
  }
  return out;
}

std::string SloTracker::to_json() const {
  std::string out = "[\n";
  const std::vector<State> all = states();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const State& s = all[i];
    char line[512];
    std::snprintf(
        line, sizeof line,
        "    {\"objective\": \"%s\", \"threshold\": %.6g, "
        "\"budget\": %.6g, \"windows\": %llu, \"violations\": %llu, "
        "\"burn_short_permille\": %llu, \"burn_long_permille\": %llu, "
        "\"violating\": %s}",
        s.objective.name.c_str(), s.objective.threshold, s.objective.budget,
        static_cast<unsigned long long>(s.windows),
        static_cast<unsigned long long>(s.violations),
        static_cast<unsigned long long>(s.burn_short_permille),
        static_cast<unsigned long long>(s.burn_long_permille),
        s.violating ? "true" : "false");
    out += line;
    out += i + 1 < all.size() ? ",\n" : "\n";
  }
  out += "  ]";
  return out;
}

}  // namespace anycast::obs
