// Checkpoint/resume for the census runner.
//
// A census is hours of paid-for probing; a killed run must not forfeit
// it. Every VP's observation stream is a checkpoint file (storage.hpp):
// complete walks carry the kCensusFileComplete flag, crashed or cut-off
// walks do not. `resume_census_sharded` collates whatever checkpoints a
// directory holds — salvaging truncated ones down to their valid prefix —
// and re-runs only the VPs whose walks are missing or incomplete. Because
// every VP's walk is deterministic in (config.seed, vp.id) alone, the
// resumed run's files are byte-identical to an uninterrupted census on
// the same seed.
#pragma once

#include <filesystem>
#include <span>

#include "anycast/census/census.hpp"
#include "anycast/census/storage.hpp"

namespace anycast::census {

/// Accounting for one resume pass.
struct ShardedResumeReport {
  ShardedCensusOutput output;  // collated data + reconstructed summary
  std::size_t vps_reused = 0;  // complete checkpoints kept as-is
  std::size_t vps_rerun = 0;   // missing/partial/corrupt, re-probed
  std::size_t vps_skipped = 0; // down for this census (availability coin)
  std::size_t files_salvaged = 0;  // damaged checkpoints partially kept
};

/// Canonical checkpoint path for one VP of one census inside `dir`.
std::filesystem::path census_checkpoint_path(const std::filesystem::path& dir,
                                             std::uint32_t census_id,
                                             std::uint32_t vp_id);

/// One VP's checkpointed walk: `run_fastping` over the `resolved` hitlist
/// (under `faults`, when given; timed into `census_walk_us`),
/// then the walk's checkpoint written to
/// `census_checkpoint_path(dir, census_id, vp.id)` and flagged complete
/// when the walk completed. The returned observations are decoded from
/// the written payload, so their RTTs carry the file's quantisation.
/// This is the rerun step of `resume_census_sharded` and the watch
/// daemon's abort drill, so both leave byte-identical files.
FastPingResult checkpointed_walk(
    const net::SimulatedInternet& internet, const net::VantagePoint& vp,
    const Hitlist& hitlist, const ResolvedHitlist& resolved,
    Greylist& greylist, const FastPingConfig& config,
    const net::FaultPlan* faults,
    const std::filesystem::path& dir, std::uint32_t census_id);

/// Runs — or resumes — census `census_id` over checkpoint files in `dir`.
/// For each available VP: a complete, CRC-valid checkpoint is reused
/// verbatim (its funnel counters are reconstructed from the recorded
/// observations; duration is coarse, from the file's quantised
/// timestamps); any other VP is re-probed with `run_fastping` (under
/// `faults`, when given) and its checkpoint rewritten. Greylist feeding,
/// blacklist merging, quarantine, and per-VP outcomes behave exactly as
/// in `run_census_sharded`. The returned data collates the final on-disk
/// state, so RTTs carry the binary format's 1/50 ms quantisation; the
/// recovered fragments stream through a ShardedCensusMatrixBuilder under
/// `plane`'s budgets.
///
/// This is the same census pass as `run_census_sharded` — one per-VP map,
/// one VP-order reduction — with each VP's walk replaced by
/// reuse-or-rerun. With a multi-lane `pool`, VPs recover concurrently
/// (each touches only its own checkpoint file) and are reduced in VP
/// order, so the report, the collated data, and the rewritten files are
/// byte-identical to a serial resume — and therefore to an uninterrupted
/// census.
ShardedResumeReport resume_census_sharded(
    const net::SimulatedInternet& internet,
    std::span<const net::VantagePoint> vps, const Hitlist& hitlist,
    Greylist& blacklist, const FastPingConfig& config,
    const std::filesystem::path& dir, std::uint32_t census_id,
    const DataPlaneConfig& plane = {}, const net::FaultPlan* faults = nullptr,
    concurrency::ThreadPool* pool = nullptr);

}  // namespace anycast::census
