#include "anycast/census/resume.hpp"

#include <chrono>
#include <string>
#include <utility>

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

/// The binary checkpoint quantises RTTs to 1/50 ms; run the live stream
/// through the codec so in-memory rows are byte-identical to what a later
/// collation of the on-disk state would produce.
std::vector<Observation> quantised(
    const std::vector<Observation>& observations) {
  auto decoded = decode_binary(encode_binary(observations));
  return decoded.has_value() ? std::move(*decoded)
                             : std::vector<Observation>{};
}

/// One VP's recovered-or-reprobed walk: the per-VP task of a resume pass.
struct VpWork {
  bool ran = false;       // false: skipped by the availability coin
  bool reused = false;    // complete checkpoint kept as-is
  bool salvaged = false;  // damaged checkpoint partially recovered
  FastPingResult result;
  Greylist greylist;               // private; merged in VP order
  std::vector<TargetRtt> fragment; // per-target minima, merged in VP order
};

}  // namespace

std::filesystem::path census_checkpoint_path(const std::filesystem::path& dir,
                                             std::uint32_t census_id,
                                             std::uint32_t vp_id) {
  return dir / ("census" + std::to_string(census_id) + "_vp" +
                std::to_string(vp_id) + ".anc");
}

ShardedResumeReport resume_census_sharded(
    const net::SimulatedInternet& internet,
    std::span<const net::VantagePoint> vps, const Hitlist& hitlist,
    Greylist& blacklist, const FastPingConfig& config,
    const std::filesystem::path& dir, std::uint32_t census_id,
    const DataPlaneConfig& plane, const net::FaultPlan* faults,
    concurrency::ThreadPool* pool) {
  // The same flow as run_census_sharded, with each VP's walk replaced by
  // reuse-or-rerun: recovery decisions are made in identical order for
  // any plane shape, so everything but the matrix layout — report
  // counters, summary, checkpoint files, journal stream, semantic
  // metrics — is independent of `plane`.
  ShardedResumeReport report;
  ShardedCensusMatrixBuilder builder(hitlist.size(), plane);
  std::filesystem::create_directories(dir);
  // Adoption point: per-VP recovery spans on worker threads attach here.
  const obs::Span resume_span(obs::Span::Root::kAdoptionPoint,
                              "resume_census");
  auto& out = report.output;
  out.summary.vp_duration_hours.reserve(vps.size());
  out.summary.vp_outcomes.reserve(vps.size());

  // Map: each available VP reuses its checkpoint or re-walks, touching
  // only its own file — tasks are independent, so the pool runs them on
  // every lane. All greylist feeding happens into the task's private list.
  const auto recover_vp = [&](std::size_t i) -> VpWork {
    VpWork work;
    const net::VantagePoint& vp = vps[i];
    if (!vp_available(vp, config)) return work;
    work.ran = true;
    const obs::Span recover_span("vp_recover", vp.id);

    const std::filesystem::path path =
        census_checkpoint_path(dir, census_id, vp.id);
    auto checkpoint = salvage_census_file(path);
    work.salvaged = checkpoint.has_value() && checkpoint->salvaged;
    work.reused = checkpoint.has_value() && checkpoint->header.complete() &&
                  checkpoint->header.vp_id == vp.id &&
                  checkpoint->header.census_id == census_id;
    if (work.reused) {
      work.result = result_from_observations(
          std::move(checkpoint->observations), hitlist, work.greylist);
    } else {
      // Missing, incomplete, salvaged, or mislabelled: pay for this VP
      // again. The walk is deterministic in (seed, vp), so the rewritten
      // checkpoint matches what an uninterrupted census would have saved.
      const auto walk_start = std::chrono::steady_clock::now();
      work.result = run_fastping(internet, vp, hitlist, blacklist,
                                 work.greylist, config, faults);
      obs::LatencyHisto::get("census_walk_us", "us",
                             "wall-clock per-VP census walk latency")
          .record(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - walk_start)
                  .count()));
      CensusFileHeader header{vp.id, census_id, 0};
      if (work.result.outcome == VpOutcome::kCompleted) {
        header.flags |= kCensusFileComplete;
      }
      write_census_file(path, header, work.result.observations);
      work.result.observations = quantised(work.result.observations);
    }
    // The reuse-or-rerun decision is run-history dependent, so it is a
    // kTiming event — real operational data, outside the semantic
    // contract, exactly like the resume_* metrics below.
    obs::journal().emit(obs::MetricClass::kTiming,
                        work.salvaged ? obs::Severity::kWarn
                                      : obs::Severity::kInfo,
                        "resume.vp", vp.id,
                        {{"vp", vp.id},
                         {"reused", work.reused},
                         {"salvaged", work.salvaged}});
    // Reused and rerun walks alike flush through the same chokepoint as a
    // live census (RTTs quantised either way), so the semantic snapshot
    // of a resumed census matches its uninterrupted twin byte for byte.
    flush_walk_metrics(work.result, vp.id);
    work.fragment = vp_row_fragment(work.result, hitlist.size());
    // The reduction reads only the counters, the outcome, and the
    // fragment; drop the raw stream so the retained state per VP is the
    // compact fragment, not O(hitlist) observations held for every VP.
    work.result.observations = {};
    return work;
  };
  std::vector<VpWork> done;
  if (pool != nullptr && pool->thread_count() > 1) {
    done = pool->parallel_map(vps.size(), recover_vp);
  } else {
    done.reserve(vps.size());
    for (std::size_t i = 0; i < vps.size(); ++i) {
      done.push_back(recover_vp(i));
    }
  }

  // Reduce in VP order on this thread (see run_census_sharded):
  // byte-identical output for any thread count, including the resumed
  // checkpoints.
  Greylist census_greylist;
  for (std::size_t i = 0; i < vps.size(); ++i) {
    const net::VantagePoint& vp = vps[i];
    VpWork& work = done[i];
    if (!work.ran) {
      out.summary.vp_outcomes.push_back({vp.id, VpOutcome::kSkipped});
      ++report.vps_skipped;
      continue;
    }
    ++out.summary.active_vps;
    if (work.salvaged) ++report.files_salvaged;
    if (work.reused) {
      ++report.vps_reused;
    } else {
      ++report.vps_rerun;
    }

    const FastPingResult& result = work.result;
    out.summary.probes_sent += result.probes_sent;
    out.summary.echo_replies += result.echo_replies;
    out.summary.errors += result.errors;
    out.summary.timeouts += result.timeouts;
    out.summary.injected_timeouts += result.injected_timeouts;
    out.summary.retry_probes += result.retry_probes;
    out.summary.retry_recovered += result.retry_recovered;
    out.summary.vp_duration_hours.push_back(result.duration_hours);
    const VpOutcome outcome = census_vp_outcome(result, config);
    out.summary.vp_outcomes.push_back({vp.id, outcome});
    census_greylist.merge(work.greylist);
    if (outcome == VpOutcome::kQuarantined) continue;
    builder.add_fragment(static_cast<std::uint16_t>(vp.id),
                         std::move(work.fragment));
  }
  out.data = builder.build();
  out.summary.greylist_new = census_greylist.size();
  blacklist.merge(census_greylist);
  flush_census_summary_metrics(out.summary);
  const ResumeInstruments& in = resume_instruments();
  in.vps_reused.add(report.vps_reused);
  in.vps_rerun.add(report.vps_rerun);
  in.files_salvaged.add(report.files_salvaged);
  return report;
}

}  // namespace anycast::census
