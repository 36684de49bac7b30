// The census pass: one per-VP map and one VP-order reduction behind both
// `run_census_sharded` (live) and `resume_census_sharded` (checkpointed).
// A checkpoint directory only changes each VP's step — reuse a complete
// checkpoint or walk again and rewrite it, with RTTs quantised like the
// file — and adds the resume accounting; everything else is shared.
#include "anycast/census/resume.hpp"

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "anycast/census/fastping.hpp"
#include "anycast/concurrency/thread_pool.hpp"
#include "anycast/obs/journal.hpp"
#include "anycast/obs/latency.hpp"
#include "anycast/obs/metrics.hpp"
#include "anycast/obs/trace.hpp"

namespace anycast::census {
namespace {

/// Resume-path instruments. These are run-history dependent — how many
/// checkpoints exist decides reused vs rerun — so they are kTiming class:
/// real operational data, deliberately outside the deterministic
/// snapshot (see DESIGN.md §10).
struct ResumeInstruments {
  obs::Counter vps_reused = obs::metrics().counter(
      "resume_vps_reused", obs::MetricClass::kTiming,
      "VPs whose complete checkpoint was reused as-is");
  obs::Counter vps_rerun = obs::metrics().counter(
      "resume_vps_rerun", obs::MetricClass::kTiming,
      "VPs re-walked (checkpoint missing, partial, or mislabelled)");
  obs::Counter files_salvaged = obs::metrics().counter(
      "resume_files_salvaged", obs::MetricClass::kTiming,
      "damaged checkpoints partially recovered");
};

const ResumeInstruments& resume_instruments() {
  static const ResumeInstruments instruments;
  return instruments;
}

/// Rebuilds a FastPingResult from a checkpoint's observation stream. The
/// funnel counters are exact (one observation per probe, retries
/// included); duration is coarse because the binary format quantises
/// timestamps to 64 s.
FastPingResult result_from_observations(std::vector<Observation> observations,
                                        const Hitlist& hitlist,
                                        Greylist& greylist) {
  FastPingResult result;
  result.observations = std::move(observations);
  for (const Observation& obs : result.observations) {
    ++result.probes_sent;
    switch (obs.kind) {
      case net::ReplyKind::kEchoReply:
        ++result.echo_replies;
        break;
      case net::ReplyKind::kTimeout:
        ++result.timeouts;
        break;
      default:
        ++result.errors;
        if (obs.target_index < hitlist.size()) {
          greylist.add(
              hitlist[obs.target_index].representative.slash24_index(),
              obs.kind);
        }
        break;
    }
  }
  if (!result.observations.empty()) {
    result.duration_hours = result.observations.back().time_s / 3600.0;
  }
  return result;
}

/// `run_fastping`, timed into the wall-clock `census_walk_us` histogram
/// (kTiming by construction — never part of the semantic contract, unlike
/// the simulated duration_hours the walk flush records).
FastPingResult timed_walk(const net::SimulatedInternet& internet,
                          const net::VantagePoint& vp, const Hitlist& hitlist,
                          const ResolvedHitlist& resolved, Greylist& greylist,
                          const FastPingConfig& config,
                          const net::FaultPlan* faults) {
  const auto walk_start = std::chrono::steady_clock::now();
  FastPingResult result = run_fastping(internet, vp, hitlist, resolved,
                                       greylist, config, faults);
  obs::LatencyHisto::get("census_walk_us", "us",
                         "wall-clock per-VP census walk latency")
      .record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - walk_start)
              .count()));
  return result;
}

/// Where a checkpointed pass keeps its per-VP files.
struct Checkpoints {
  const std::filesystem::path& dir;
  std::uint32_t census_id;
};

/// One VP's finished step, produced by its (possibly concurrent) task and
/// consumed by the in-order reduction on the calling thread.
struct VpWork {
  bool ran = false;       // false: the availability coin skipped this VP
  bool reused = false;    // complete checkpoint kept as-is
  bool salvaged = false;  // damaged checkpoint partially recovered
  FastPingResult result;
  Greylist greylist;               // private; merged in VP order
  std::vector<TargetRtt> fragment; // per-target minima, merged in VP order
};

/// Reuse-or-rerun for one VP of a checkpointed pass: a complete checkpoint
/// of this VP and census is replayed; anything else (missing, incomplete,
/// salvaged, mislabelled) is walked again and its checkpoint rewritten.
/// The walk is deterministic in (seed, vp), so the rewritten checkpoint
/// matches what an uninterrupted census would have saved.
void recover_vp(VpWork& work, const net::SimulatedInternet& internet,
                const net::VantagePoint& vp, const Hitlist& hitlist,
                const ResolvedHitlist& resolved, const FastPingConfig& config,
                const net::FaultPlan* faults, const Checkpoints& checkpoints) {
  auto checkpoint = salvage_census_file(
      census_checkpoint_path(checkpoints.dir, checkpoints.census_id, vp.id));
  work.salvaged = checkpoint.has_value() && checkpoint->salvaged;
  work.reused = checkpoint.has_value() && checkpoint->header.complete() &&
                checkpoint->header.vp_id == vp.id &&
                checkpoint->header.census_id == checkpoints.census_id;
  if (work.reused) {
    work.result = result_from_observations(
        std::move(checkpoint->observations), hitlist, work.greylist);
  } else {
    work.result = checkpointed_walk(internet, vp, hitlist, resolved,
                                    work.greylist, config, faults,
                                    checkpoints.dir, checkpoints.census_id);
  }
  // The reuse-or-rerun decision is run-history dependent, so it is a
  // kTiming event — real operational data, outside the semantic
  // contract, exactly like the resume_* metrics.
  obs::journal().emit(obs::MetricClass::kTiming,
                      work.salvaged ? obs::Severity::kWarn
                                    : obs::Severity::kInfo,
                      "resume.vp", vp.id,
                      {{"vp", vp.id},
                       {"reused", work.reused},
                       {"salvaged", work.salvaged}});
}

/// The census pass. Without `checkpoints` every available VP walks live;
/// with them each VP reuses or reruns its checkpoint. Either way the
/// shard size and spill budget only change where the matrix lives, so
/// the summary, greylist, journal stream, and semantic metrics never
/// depend on `plane`.
ShardedResumeReport census_pass(const net::SimulatedInternet& internet,
                                std::span<const net::VantagePoint> vps,
                                const Hitlist& hitlist, Greylist& blacklist,
                                const FastPingConfig& config,
                                const DataPlaneConfig& plane,
                                const net::FaultPlan* faults,
                                concurrency::ThreadPool* pool,
                                const Checkpoints* checkpoints) {
  ShardedResumeReport report;
  ShardedCensusMatrixBuilder builder(hitlist.size(), plane);
  if (checkpoints != nullptr) {
    std::filesystem::create_directories(checkpoints->dir);
  }
  // Adoption point: per-VP spans on worker threads attach here.
  const obs::Span pass_span(obs::Span::Root::kAdoptionPoint,
                            checkpoints != nullptr ? "resume_census"
                                                   : "census");
  CensusSummary& summary = report.output.summary;
  summary.vp_duration_hours.reserve(vps.size());
  summary.vp_outcomes.reserve(vps.size());
  // Resolved once, in index order on this thread, then read by every
  // lane: no probe of any walk repeats the address lookup.
  const ResolvedHitlist resolved =
      resolve_targets(internet, hitlist, blacklist);

  // Map: each available VP walks (or recovers) with a *private* greylist
  // and reduces its own observations to a row fragment. Steps only read
  // shared state (`internet`, `hitlist`, `resolved`) and touch
  // only their own checkpoint file, so they are independent.
  const auto vp_step = [&](std::size_t i) -> VpWork {
    VpWork work;
    const net::VantagePoint& vp = vps[i];
    if (!vp_available(vp, config)) return work;
    work.ran = true;
    const obs::Span vp_span(checkpoints != nullptr ? "vp_recover" : "vp_walk",
                            vp.id);
    if (checkpoints != nullptr) {
      recover_vp(work, internet, vp, hitlist, resolved, config,
                 faults, *checkpoints);
    } else {
      work.result = timed_walk(internet, vp, hitlist, resolved,
                               work.greylist, config, faults);
    }
    // Live, reused and rerun walks flush through one chokepoint (RTTs
    // recorded codec-quantised either way), so the semantic snapshot of a
    // resumed census matches its uninterrupted twin byte for byte.
    flush_walk_metrics(work.result, vp.id);
    work.fragment = vp_row_fragment(work.result, hitlist.size());
    // The reduction reads only the counters, the outcome, and the
    // fragment; drop the raw stream so the retained state per VP is the
    // compact fragment, not O(hitlist) observations held for every VP.
    work.result.observations = {};
    return work;
  };
  std::vector<VpWork> done =
      concurrency::ordered_map(pool, vps.size(), vp_step);

  // Reduce in VP order on this thread: the summary, quarantine decisions,
  // matrix fragments, and greylist merge all see VPs in exactly the
  // serial order, so the output is byte-identical for any thread count.
  Greylist census_greylist;
  for (std::size_t i = 0; i < vps.size(); ++i) {
    const net::VantagePoint& vp = vps[i];
    VpWork& work = done[i];
    if (!work.ran) {
      summary.vp_outcomes.push_back({vp.id, VpOutcome::kSkipped});
      ++report.vps_skipped;
      continue;
    }
    ++summary.active_vps;
    if (work.salvaged) ++report.files_salvaged;
    ++(work.reused ? report.vps_reused : report.vps_rerun);
    const FastPingResult& result = work.result;
    summary.probes_sent += result.probes_sent;
    summary.echo_replies += result.echo_replies;
    summary.errors += result.errors;
    summary.timeouts += result.timeouts;
    summary.injected_timeouts += result.injected_timeouts;
    summary.retry_probes += result.retry_probes;
    summary.retry_recovered += result.retry_recovered;
    summary.vp_duration_hours.push_back(result.duration_hours);
    const VpOutcome outcome = census_vp_outcome(result, config);
    summary.vp_outcomes.push_back({vp.id, outcome});
    census_greylist.merge(work.greylist);
    if (outcome == VpOutcome::kQuarantined) continue;
    builder.add_fragment(static_cast<std::uint16_t>(vp.id),
                         std::move(work.fragment));
  }
  report.output.data = builder.build();
  summary.greylist_new = census_greylist.size();
  blacklist.merge(census_greylist);
  flush_census_summary_metrics(summary);
  if (checkpoints != nullptr) {
    const ResumeInstruments& in = resume_instruments();
    in.vps_reused.add(report.vps_reused);
    in.vps_rerun.add(report.vps_rerun);
    in.files_salvaged.add(report.files_salvaged);
  }
  return report;
}

}  // namespace

std::filesystem::path census_checkpoint_path(const std::filesystem::path& dir,
                                             std::uint32_t census_id,
                                             std::uint32_t vp_id) {
  return dir / ("census" + std::to_string(census_id) + "_vp" +
                std::to_string(vp_id) + ".anc");
}

FastPingResult checkpointed_walk(
    const net::SimulatedInternet& internet, const net::VantagePoint& vp,
    const Hitlist& hitlist, const ResolvedHitlist& resolved, Greylist& greylist,
    const FastPingConfig& config, const net::FaultPlan* faults,
    const std::filesystem::path& dir, std::uint32_t census_id) {
  FastPingResult result =
      timed_walk(internet, vp, hitlist, resolved, greylist, config, faults);
  CensusFileHeader header{vp.id, census_id, 0};
  if (result.outcome == VpOutcome::kCompleted) {
    header.flags |= kCensusFileComplete;
  }
  // Encoded once: the file's payload is also the in-memory stream, so the
  // rows carry exactly the RTT quantisation a later collation of the
  // on-disk state reads back.
  const EncodedCensusFile file =
      encode_census_file(header, result.observations);
  write_census_file(census_checkpoint_path(dir, census_id, vp.id), file);
  auto decoded = decode_binary(file.payload());
  result.observations =
      decoded.has_value() ? std::move(*decoded) : std::vector<Observation>{};
  return result;
}

ShardedCensusOutput run_census_sharded(
    const net::SimulatedInternet& internet,
    std::span<const net::VantagePoint> vps, const Hitlist& hitlist,
    Greylist& blacklist, const FastPingConfig& config,
    const DataPlaneConfig& plane, const net::FaultPlan* faults,
    concurrency::ThreadPool* pool) {
  return census_pass(internet, vps, hitlist, blacklist, config, plane, faults,
                     pool, nullptr)
      .output;
}

ShardedResumeReport resume_census_sharded(
    const net::SimulatedInternet& internet,
    std::span<const net::VantagePoint> vps, const Hitlist& hitlist,
    Greylist& blacklist, const FastPingConfig& config,
    const std::filesystem::path& dir, std::uint32_t census_id,
    const DataPlaneConfig& plane, const net::FaultPlan* faults,
    concurrency::ThreadPool* pool) {
  const Checkpoints checkpoints{dir, census_id};
  return census_pass(internet, vps, hitlist, blacklist, config, plane, faults,
                     pool, &checkpoints);
}

}  // namespace anycast::census
