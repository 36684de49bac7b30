// FastPing: the census prober (simulated).
//
// Models the measurement software of Sec. 3.3/3.5: an ICMP prober that
// walks the hitlist in Galois-LFSR order (desynchronising VPs and
// defeating per-target rate limits), honours the blacklist, feeds newly
// prohibited targets to a greylist, and — crucially — suffers reply
// aggregation loss near the VP when driven too fast: requests spread over
// the Internet but replies converge on the VP at the full probing rate,
// and some hosting networks drop them. The paper's counter-intuitive fix
// was to *slow the prober down* by an order of magnitude (10^4 -> 10^3
// probes/s); the model reproduces that trade-off.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "anycast/census/greylist.hpp"
#include "anycast/census/hitlist.hpp"
#include "anycast/census/record.hpp"
#include "anycast/net/internet.hpp"

namespace anycast::net {
class FaultPlan;
}

namespace anycast::census {

struct FastPingConfig {
  /// Probes per second. 1,000 is the paper's safe rate; 10,000 triggers
  /// heterogeneous reply drops at many VPs.
  double probe_rate_pps = 1000.0;
  /// Per-VP reply-rate tolerance model: drops start when the reply rate
  /// exceeds the VP's threshold, drawn uniformly in
  /// [min_drop_threshold_pps, max_drop_threshold_pps] per VP.
  double min_drop_threshold_pps = 1200.0;
  double max_drop_threshold_pps = 12000.0;
  /// Fraction of replies dropped per unit of relative overdrive;
  /// drop = min(0.9, slope * (rate/threshold - 1)) when rate > threshold.
  double drop_slope = 0.45;
  /// Probability that a VP is up for a given census. PlanetLab nodes come
  /// and go: the paper's four censuses ran from 261/255/269/240 nodes, 308
  /// distinct overall — the main reason combining censuses finds ~200 more
  /// anycast /24s (Fig. 12).
  double vp_availability = 1.0;
  std::uint64_t seed = 7;

  // --- Resilience knobs (defaults preserve the classic single-pass walk,
  // so every existing census is byte-identical). ---

  /// Extra passes over timed-out targets after the main walk. Pass k waits
  /// `retry_backoff_s * 2^k` before starting (exponential backoff); every
  /// retry probe is counted in `duration_hours` and the funnel counters.
  int retry_max_attempts = 0;
  double retry_backoff_s = 1.0;
  /// Hard cap on retry probes per VP across all passes (0 = unlimited):
  /// footprint discipline — a broken VP must not hammer the hitlist.
  std::uint64_t retry_probe_budget = 0;

  /// Straggler deadline: when > 0, a VP whose wall clock exceeds this
  /// budget is cut off (outcome kCutOff), keeping its partial rows — the
  /// Fig. 8 completion-time tail is bounded instead of waited out.
  double vp_deadline_hours = 0.0;

  /// Quarantine threshold: a VP whose observed timeout fraction exceeds
  /// this is marked kQuarantined and its rows are excluded from the
  /// census data (its replies are untrustworthy). 1.0 disables.
  double quarantine_drop_rate = 1.0;
};

/// How one VP's census walk ended (Fig. 8's per-VP fates, made explicit).
enum class VpOutcome : std::uint8_t {
  kCompleted,    // walked the full hitlist (retries included)
  kCrashed,      // died mid-walk; partial observations kept
  kCutOff,       // exceeded vp_deadline_hours; partial observations kept
  kQuarantined,  // drop rate over threshold; rows excluded from the data
  kSkipped,      // down for the whole census (availability coin)
};

std::string_view to_string(VpOutcome outcome);

struct FastPingResult {
  std::vector<Observation> observations;  // one per probe (incl. retries)
  double duration_hours = 0.0;            // wall-clock for this VP
  std::uint64_t probes_sent = 0;
  std::uint64_t echo_replies = 0;
  std::uint64_t errors = 0;    // prohibited replies (greylist feed)
  std::uint64_t timeouts = 0;
  double drop_probability = 0.0;  // the reply-aggregation loss in effect
  VpOutcome outcome = VpOutcome::kCompleted;
  std::uint64_t injected_timeouts = 0;  // probes lost to injected outages
  std::uint64_t retry_probes = 0;       // probes spent in retry passes
  std::uint64_t retry_recovered = 0;    // targets a retry pass recovered
};

/// Every hitlist entry's world target (the `TargetInfo` of its
/// representative's /24; nullptr when the world has none), in hitlist
/// order. A census resolves its hitlist once, in index order, and every
/// walk reads the result, so no probe pays for an address lookup. This
/// is the one address lookup under src/census (a CI gate keeps it so).
std::vector<const net::TargetInfo*> resolve_targets(
    const net::SimulatedInternet& internet, const Hitlist& hitlist);

/// Probes every non-blacklisted hitlist entry once from `vp`, in LFSR
/// order, then (when configured) retries timed-out targets with
/// exponential backoff. Newly prohibited targets are recorded into
/// `greylist`. When `faults` is non-null the walk runs under that plan's
/// schedule for this VP: it may crash mid-walk, time out through an
/// outage window, lose replies to a storm, or stall; with no plan the
/// walk is bit-identical to the fault-free implementation. This form
/// resolves the hitlist itself; a census resolves it once for all walks.
FastPingResult run_fastping(const net::SimulatedInternet& internet,
                            const net::VantagePoint& vp,
                            const Hitlist& hitlist, const Greylist& blacklist,
                            Greylist& greylist, const FastPingConfig& config,
                            const net::FaultPlan* faults = nullptr);

/// The same walk over an already resolved hitlist: `targets` is
/// `resolve_targets(internet, hitlist)`, one entry per hitlist entry
/// (std::invalid_argument otherwise). Read-only, so concurrent walks
/// share one.
FastPingResult run_fastping(const net::SimulatedInternet& internet,
                            const net::VantagePoint& vp,
                            const Hitlist& hitlist,
                            std::span<const net::TargetInfo* const> targets,
                            const Greylist& blacklist, Greylist& greylist,
                            const FastPingConfig& config,
                            const net::FaultPlan* faults = nullptr);

/// Flushes one finished walk's funnel tally into the global metrics
/// registry (obs::metrics()): probe/reply/timeout/retry counters plus the
/// echo-RTT histogram, observed through the checkpoint codec's
/// quantisation so a live walk and its replayed checkpoint report the
/// same values. Also emits the `census.walk` semantic journal event
/// (ordered by `vp_id`, mirroring exactly the values flushed here — the
/// flight recorder inherits this chokepoint's live == replayed
/// guarantee). One call per walk — the probe loop itself touches only
/// its walk-local `FastPingResult` tally, never a shared counter. Called
/// by the census runner and the resume path (which also replays reused
/// checkpoints through it); call it yourself only when driving
/// `run_fastping` directly and wanting it metered.
void flush_walk_metrics(const FastPingResult& result, std::uint64_t vp_id);

/// The reply-aggregation drop probability a VP with the given tolerance
/// threshold suffers at a probing rate (exposed for tests and the probing
/// rate ablation).
double reply_drop_probability(double probe_rate_pps, double threshold_pps,
                              double slope);

/// The per-VP threshold drawn for `vp` under `config` (deterministic).
double vp_drop_threshold(const net::VantagePoint& vp,
                         const FastPingConfig& config);

}  // namespace anycast::census
