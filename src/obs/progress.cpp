#include "anycast/obs/progress.hpp"

#include <vector>

#include "anycast/obs/trace.hpp"

namespace anycast::obs {
namespace {

std::uint64_t counter_value(const std::vector<MetricValue>& values,
                            std::string_view name) {
  for (const MetricValue& v : values) {
    if (v.name == name) return v.value;
  }
  return 0;
}

double rate_of(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : 100.0 * static_cast<double>(part) /
                          static_cast<double>(whole);
}

}  // namespace

ProgressTracker::ProgressTracker(ProgressConfig config)
    : config_(std::move(config)), start_ns_(steady_ns()) {}

std::string ProgressTracker::tick(std::size_t done, std::size_t total) {
  return tick(done, total,
              static_cast<double>(steady_ns() - start_ns_) / 1e9);
}

std::string ProgressTracker::tick(std::size_t done, std::size_t total,
                                  double elapsed_seconds) {
  ++ticks_;
  const MetricsRegistry& registry =
      config_.registry != nullptr ? *config_.registry : metrics();
  const std::vector<MetricValue> values = registry.scrape();
  const std::uint64_t sent = counter_value(values, "census_probes_sent");
  const std::uint64_t echo = counter_value(values, "census_replies_echo");
  const std::uint64_t timeouts =
      counter_value(values, "census_timeouts_organic") +
      counter_value(values, "census_timeouts_injected");
  const std::uint64_t greylist =
      counter_value(values, "census_greylist_new");

  char line[256];
  int n = std::snprintf(
      line, sizeof line,
      "[%s] %zu/%zu VPs (%.1f%%) | probes %llu | echo %.1f%% | "
      "timeout %.1f%% | greylist +%llu",
      config_.phase.c_str(), done, total,
      total == 0 ? 0.0
                 : 100.0 * static_cast<double>(done) /
                       static_cast<double>(total),
      static_cast<unsigned long long>(sent), rate_of(echo, sent),
      rate_of(timeouts, sent), static_cast<unsigned long long>(greylist));
  std::string out(line, n > 0 ? static_cast<std::size_t>(n) : 0);
  if (done > 0 && done < total && elapsed_seconds > 0.0) {
    const double eta = elapsed_seconds *
                       static_cast<double>(total - done) /
                       static_cast<double>(done);
    n = std::snprintf(line, sizeof line, " | ETA %.1fs", eta);
  } else {
    n = std::snprintf(line, sizeof line, " | elapsed %.1fs",
                      elapsed_seconds);
  }
  if (n > 0) out.append(line, static_cast<std::size_t>(n));

  if (config_.sink != nullptr) {
    std::fprintf(config_.sink, "%s\n", out.c_str());
    std::fflush(config_.sink);
  }
  if (config_.journal != nullptr) {
    config_.journal->emit(
        MetricClass::kTiming, Severity::kInfo, "progress.heartbeat",
        static_cast<std::uint64_t>(ticks_),
        {{"phase", config_.phase},
         {"done", static_cast<std::uint64_t>(done)},
         {"total", static_cast<std::uint64_t>(total)},
         {"probes_sent", sent},
         {"echo_rate_pct", rate_of(echo, sent)},
         {"timeout_rate_pct", rate_of(timeouts, sent)},
         {"greylist_new", greylist},
         {"elapsed_s", elapsed_seconds}});
    // Stream accumulated timing events mid-run; never commit here —
    // tick timing is wall-clock, commit points must stay deterministic.
    config_.journal->flush();
  }
  if (config_.sampler != nullptr) {
    config_.sampler->sample(registry, steady_ns() - trace().epoch_ns());
  }
  return out;
}

}  // namespace anycast::obs
