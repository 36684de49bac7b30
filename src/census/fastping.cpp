#include "anycast/census/fastping.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "anycast/net/fault.hpp"
#include "anycast/obs/journal.hpp"
#include "anycast/obs/metrics.hpp"
#include "anycast/rng/distributions.hpp"
#include "anycast/rng/lfsr.hpp"

namespace anycast::census {
namespace {

/// The prober's instruments, registered once. Every count is flushed from
/// a finished walk's local tally (see flush_walk_metrics); the probe loop
/// itself never touches these.
struct WalkInstruments {
  obs::Counter walks = obs::metrics().counter(
      "census_walks", obs::MetricClass::kSemantic,
      "fastping walks flushed (live or replayed from checkpoint)");
  obs::Counter probes_sent = obs::metrics().counter(
      "census_probes_sent", obs::MetricClass::kSemantic,
      "probes sent across all walks, retries included");
  obs::Counter replies_echo = obs::metrics().counter(
      "census_replies_echo", obs::MetricClass::kSemantic,
      "ICMP echo replies received");
  obs::Counter replies_prohibited = obs::metrics().counter(
      "census_replies_prohibited", obs::MetricClass::kSemantic,
      "prohibited/error replies (greylist feed)");
  obs::Counter timeouts_organic = obs::metrics().counter(
      "census_timeouts_organic", obs::MetricClass::kSemantic,
      "probes that timed out on their own (not fault-injected)");
  obs::Counter timeouts_injected = obs::metrics().counter(
      "census_timeouts_injected", obs::MetricClass::kSemantic,
      "probes lost to injected outage windows");
  obs::Counter retry_probes = obs::metrics().counter(
      "census_retry_probes", obs::MetricClass::kSemantic,
      "probes spent in retry passes");
  obs::Counter retry_recovered = obs::metrics().counter(
      "census_retry_recovered", obs::MetricClass::kSemantic,
      "timed-out targets a retry pass recovered");
  obs::LatencyHisto& rtt_us = obs::metrics().histogram(
      "census_rtt_us", obs::MetricClass::kSemantic, "us",
      "echo RTTs (codec-quantised, so live == replayed)");
  obs::LatencyHisto& vp_duration_s = obs::metrics().histogram(
      "census_vp_duration_s", obs::MetricClass::kTiming, "s",
      "per-VP walk duration (coarser for replayed checkpoints)");
  obs::Counter blacklist_skips = obs::metrics().counter(
      "census_blacklist_skips", obs::MetricClass::kTiming,
      "walk positions skipped for blacklisted /24s (live walks only; a "
      "checkpoint replay records no trace of a skip)");
};

const WalkInstruments& walk_instruments() {
  static const WalkInstruments instruments;
  return instruments;
}

}  // namespace

double reply_drop_probability(double probe_rate_pps, double threshold_pps,
                              double slope) {
  if (probe_rate_pps <= threshold_pps || threshold_pps <= 0.0) return 0.0;
  return std::min(0.9, slope * (probe_rate_pps / threshold_pps - 1.0));
}

double vp_drop_threshold(const net::VantagePoint& vp,
                         const FastPingConfig& config) {
  const double u = rng::hash_uniform01(
      config.seed ^ (0x9E3779B97F4A7C15ull * (vp.id + 1)));
  return config.min_drop_threshold_pps +
         u * (config.max_drop_threshold_pps - config.min_drop_threshold_pps);
}

void flush_walk_metrics(const FastPingResult& result, std::uint64_t vp_id) {
  const WalkInstruments& in = walk_instruments();
  in.walks.inc();
  in.probes_sent.add(result.probes_sent);
  in.replies_echo.add(result.echo_replies);
  in.replies_prohibited.add(result.errors);
  in.timeouts_organic.add(result.timeouts - result.injected_timeouts);
  in.timeouts_injected.add(result.injected_timeouts);
  in.retry_probes.add(result.retry_probes);
  in.retry_recovered.add(result.retry_recovered);
  for (const Observation& obs : result.observations) {
    if (obs.kind == net::ReplyKind::kEchoReply) {
      in.rtt_us.record(quantised_rtt_us(obs.rtt_ms));
    }
  }
  in.vp_duration_s.record(
      static_cast<std::uint64_t>(std::llround(result.duration_hours * 3600.0)));
  // The walk's semantic journal event mirrors exactly the values flushed
  // above (duration is wall-clock and stays out), so the event is as
  // deterministic as the metrics: byte-identical across thread counts,
  // and live == replayed through this same chokepoint.
  obs::journal().emit(
      obs::MetricClass::kSemantic,
      result.outcome == VpOutcome::kCompleted ? obs::Severity::kInfo
                                              : obs::Severity::kWarn,
      "census.walk", vp_id,
      {{"vp", vp_id},
       {"probes", result.probes_sent},
       {"echo", result.echo_replies},
       {"prohibited", result.errors},
       {"timeouts_organic", result.timeouts - result.injected_timeouts},
       {"timeouts_injected", result.injected_timeouts},
       {"retry_probes", result.retry_probes},
       {"retry_recovered", result.retry_recovered},
       {"outcome", to_string(result.outcome)}});
}

std::string_view to_string(VpOutcome outcome) {
  switch (outcome) {
    case VpOutcome::kCompleted: return "completed";
    case VpOutcome::kCrashed: return "crashed";
    case VpOutcome::kCutOff: return "cut_off";
    case VpOutcome::kQuarantined: return "quarantined";
    case VpOutcome::kSkipped: return "skipped";
  }
  return "unknown";
}

ResolvedHitlist resolve_targets(const net::SimulatedInternet& internet,
                                const Hitlist& hitlist,
                                const Greylist& blacklist) {
  ResolvedHitlist resolved;
  resolved.targets.reserve(hitlist.size());
  resolved.blacklisted.assign(hitlist.size(), false);
  for (std::size_t i = 0; i < hitlist.size(); ++i) {
    const auto& representative = hitlist[i].representative;
    resolved.targets.push_back(internet.target_for(representative));
    if (blacklist.size() != 0 &&
        blacklist.contains(representative.slash24_index())) {
      resolved.blacklisted[i] = true;
    }
  }
  return resolved;
}

FastPingResult run_fastping(const net::SimulatedInternet& internet,
                            const net::VantagePoint& vp,
                            const Hitlist& hitlist, const Greylist& blacklist,
                            Greylist& greylist, const FastPingConfig& config,
                            const net::FaultPlan* faults) {
  return run_fastping(internet, vp, hitlist,
                      resolve_targets(internet, hitlist, blacklist), greylist,
                      config, faults);
}

FastPingResult run_fastping(const net::SimulatedInternet& internet,
                            const net::VantagePoint& vp,
                            const Hitlist& hitlist,
                            const ResolvedHitlist& resolved,
                            Greylist& greylist, const FastPingConfig& config,
                            const net::FaultPlan* faults) {
  if (resolved.targets.size() != hitlist.size() ||
      resolved.blacklisted.size() != hitlist.size()) {
    throw std::invalid_argument(
        "run_fastping: resolved targets do not match the hitlist");
  }
  const std::vector<const net::TargetInfo*>& targets = resolved.targets;
  const std::vector<bool>& blacklisted = resolved.blacklisted;
  FastPingResult result;
  if (hitlist.size() == 0) return result;
  result.drop_probability = reply_drop_probability(
      config.probe_rate_pps, vp_drop_threshold(vp, config),
      config.drop_slope);

  net::FaultInjector injector;
  if (faults != nullptr) {
    injector = net::FaultInjector(faults->schedule_for(vp.id),
                                  hitlist.size());
  }

  rng::Xoshiro256 gen(config.seed ^ (vp.id * 0xD1B54A32D192ED03ull));
  // LFSR-ordered walk: every VP visits the same cycle from a different
  // offset, so no target sees bursts from many VPs at once (Sec. 3.5).
  rng::LfsrPermutation order(static_cast<std::uint32_t>(hitlist.size()),
                             static_cast<std::uint32_t>(vp.id * 2654435761u +
                                                        1u));
  result.observations.reserve(hitlist.size());
  const double seconds_per_probe =
      vp.host_load / std::max(1.0, config.probe_rate_pps);
  const double deadline_s = config.vp_deadline_hours > 0.0
                                ? config.vp_deadline_hours * 3600.0
                                : 0.0;
  double clock_s = 0.0;
  net::SimulatedInternet::VpProber prober(internet, vp);

  // One probe to `target_index`, at fault-schedule position `step` (the
  // walk's LFSR step during the main pass, past-the-end during retries).
  const auto probe_once = [&](std::uint32_t target_index,
                              std::uint64_t step) {
    ++result.probes_sent;
    clock_s += seconds_per_probe * injector.dilation_at(step);

    net::ProbeReply reply;
    if (injector.outage_at(step)) {
      // The node lost connectivity: the probe (or its reply) never made
      // it. No RNG draw — the simulated Internet never saw the packet.
      reply = net::ProbeReply{net::ReplyKind::kTimeout, 0.0};
      ++result.injected_timeouts;
    } else {
      reply = prober.probe(
          targets[target_index], net::Protocol::kIcmpEcho, gen,
          std::min(0.999,
                   result.drop_probability + injector.extra_drop_at(step)));
      if (injector.hijacked(target_index)) {
        // Staged hijack: the attacker's AS answers in place of the victim.
        // The probe above still runs — consuming the exact RNG draws the
        // legitimate path would — so every non-hijacked row stays
        // bit-identical and the hijack dirties only its own targets.
        reply = net::ProbeReply{net::ReplyKind::kEchoReply,
                                injector.hijack_rtt_ms(target_index)};
      } else if (reply.kind == net::ReplyKind::kEchoReply) {
        // Route flap in progress: replies detour through the re-converging
        // path. Applied after the probe so the RNG sequence is unchanged.
        reply.rtt_ms += injector.flap_extra_ms_at(step);
      }
    }
    Observation obs;
    obs.target_index = target_index;
    obs.time_s = clock_s;
    obs.kind = reply.kind;
    obs.rtt_ms = reply.rtt_ms;
    result.observations.push_back(obs);

    switch (reply.kind) {
      case net::ReplyKind::kEchoReply:
        ++result.echo_replies;
        break;
      case net::ReplyKind::kTimeout:
        ++result.timeouts;
        break;
      default:
        ++result.errors;
        greylist.add(hitlist[target_index].representative.slash24_index(),
                     reply.kind);
        break;
    }
    return reply.kind;
  };

  // --- Main walk -----------------------------------------------------------
  std::uint64_t step = 0;
  std::uint64_t blacklist_skips = 0;  // walk-local tally, flushed once
  while (const auto index = order.next()) {
    if (injector.crashed_before(step)) {
      result.outcome = VpOutcome::kCrashed;
      break;
    }
    const std::uint64_t this_step = step++;
    if (blacklisted[*index]) {
      ++blacklist_skips;
      continue;
    }
    probe_once(*index, this_step);
    if (deadline_s > 0.0 && clock_s > deadline_s) {
      result.outcome = VpOutcome::kCutOff;
      break;
    }
  }

  // --- Retry passes over timed-out targets ---------------------------------
  // Bounded and backed-off: transient outages recover, dead space does
  // not, and the budget keeps a broken VP from hammering the hitlist.
  if (config.retry_max_attempts > 0 &&
      result.outcome == VpOutcome::kCompleted && result.timeouts > 0) {
    std::vector<std::uint32_t> pending;
    for (const Observation& obs : result.observations) {
      if (obs.kind == net::ReplyKind::kTimeout) {
        pending.push_back(obs.target_index);
      }
    }
    // The main-walk reserve covered one probe per target; retry passes
    // append beyond it. Reserve the worst case up front (every pending
    // target re-probed every pass, clipped to the budget) so the retry
    // loop never reallocates the observation stream.
    std::size_t retry_worst_case =
        pending.size() * static_cast<std::size_t>(config.retry_max_attempts);
    if (config.retry_probe_budget != 0) {
      retry_worst_case = std::min(
          retry_worst_case,
          static_cast<std::size_t>(config.retry_probe_budget));
    }
    result.observations.reserve(result.observations.size() +
                                retry_worst_case);
    const std::uint64_t walk_end = hitlist.size();  // past every window
    double backoff_s = std::max(0.0, config.retry_backoff_s);
    bool out_of_time = false;
    for (int attempt = 0;
         attempt < config.retry_max_attempts && !pending.empty() &&
         !out_of_time;
         ++attempt, backoff_s *= 2.0) {
      clock_s += backoff_s;
      std::vector<std::uint32_t> still_pending;
      for (const std::uint32_t target : pending) {
        if (config.retry_probe_budget != 0 &&
            result.retry_probes >= config.retry_probe_budget) {
          still_pending.push_back(target);
          continue;
        }
        if (deadline_s > 0.0 && clock_s > deadline_s) {
          result.outcome = VpOutcome::kCutOff;
          out_of_time = true;
          break;
        }
        ++result.retry_probes;
        const net::ReplyKind kind = probe_once(target, walk_end);
        if (kind == net::ReplyKind::kTimeout) {
          still_pending.push_back(target);
        } else if (kind == net::ReplyKind::kEchoReply) {
          ++result.retry_recovered;
        }
      }
      pending = std::move(still_pending);
      if (config.retry_probe_budget != 0 &&
          result.retry_probes >= config.retry_probe_budget) {
        break;
      }
    }
  }

  result.duration_hours = clock_s / 3600.0;
  walk_instruments().blacklist_skips.add(blacklist_skips);
  return result;
}

}  // namespace anycast::census
