// Sharded census data plane: the paper-scale continuation of the CSR
// matrix story (census.hpp), and the one matrix type every public API
// takes. One arena for 6.6M targets x 1000 VPs is ~50 GB resident — so
// the matrix is split into fixed-size target-range shards, each its own
// CSR arena (a CensusMatrix), assembled by streaming per-VP row fragments
// through a bounded-memory combine that finalizes one shard at a time,
// and kept under an explicit RSS budget by spilling frozen shards to
// checksummed disk files ("ANCS") whose pages the kernel faults back
// transparently on access. The default DataPlaneConfig is one shard
// spanning the whole hitlist, never spilled.
//
// Invariants:
//  - Element identity: for ANY shard size and flush/spill schedule, the
//    assembled matrix is element-identical to a single CensusMatrixBuilder
//    fed the same fragments. Both canonicalise per-(vp, target) minima,
//    and combine_min is associative, so the staged partial builds commute
//    with the one-shot build.
//  - Semantic invariance: the sharded path bumps the kSemantic matrix
//    counters exactly once per assembled matrix (note_matrix_build) and
//    emits only kTiming shard/spill events, so the semantic metric
//    snapshot and committed journal stream are invariant to shard size.
//  - Durability boundary: a spill file is published atomically
//    (tmp+rename) and checksummed; a truncated file salvages to its
//    whole-record prefix (read_spill_file).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "anycast/census/census.hpp"

namespace anycast::concurrency {
class ThreadPool;
}

namespace anycast::census {

/// Data-plane shape knobs, threaded from the CLI (`--shard-targets`,
/// `--rss-budget-mb`) down to the builder. The defaults are one shard, no
/// spilling; any other shape yields element-identical output.
struct DataPlaneConfig {
  /// Targets per shard; 0 = a single shard spanning the whole hitlist.
  std::size_t shard_targets = 0;
  /// Resident-value budget in MiB; 0 = never spill. When exceeded,
  /// frozen shards are spilled to `spill_dir` and their pages dropped,
  /// coldest (lowest index) first.
  std::size_t rss_budget_mb = 0;
  /// Where spill files land (`shard<N>.ancs`). Required for spilling.
  std::string spill_dir;
  /// Staged-fragment bytes the builder holds before flushing the
  /// heaviest shard into its frozen accumulator.
  std::size_t stage_budget_mb = 256;
};

/// A census matrix split into fixed-size target-range shards. Target t
/// lives in shard t / shard_targets at local index t % shard_targets
/// (the last shard may be ragged). Each shard is a complete CensusMatrix
/// over its local range, so every row algorithm (analysis, diffing,
/// hijack scans) runs per shard unchanged; `measurements()` routes
/// global indices in O(1). Reads work on spilled shards — the kernel
/// faults the pages back from the spill file — while mutation
/// (combine_min) restores them to anonymous memory first.
class ShardedCensusMatrix {
 public:
  ShardedCensusMatrix() = default;
  ShardedCensusMatrix(std::size_t target_count, const DataPlaneConfig& plane);

  [[nodiscard]] std::size_t target_count() const { return target_count_; }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] std::size_t shard_targets() const { return shard_targets_; }
  [[nodiscard]] const DataPlaneConfig& plane() const { return plane_; }

  /// First global target index of shard `s`.
  [[nodiscard]] std::size_t shard_base(std::size_t s) const {
    return s * shard_targets_;
  }
  [[nodiscard]] const CensusMatrix& shard(std::size_t s) const {
    return shards_[s];
  }
  [[nodiscard]] CensusMatrix& shard(std::size_t s) { return shards_[s]; }

  /// Row of global target `t` (O(1) shard routing).
  [[nodiscard]] std::span<const VpRtt> measurements(
      std::uint32_t target_index) const {
    const std::size_t s = target_index / shard_targets_;
    return shards_[s].measurements(
        static_cast<std::uint32_t>(target_index - s * shard_targets_));
  }

  [[nodiscard]] std::size_t observation_count() const;
  [[nodiscard]] std::size_t responsive_targets(std::size_t min_vps = 1) const;

  /// Same-layout check: equal target counts and shard size, so per-shard
  /// algorithms can walk two matrices in lockstep.
  [[nodiscard]] bool same_layout(const ShardedCensusMatrix& other) const {
    return target_count_ == other.target_count_ &&
           shard_targets_ == other.shard_targets_;
  }

  /// Point-wise minimum with `other` (same shard size required; target
  /// counts may differ). Spilled shards are restored before merging and
  /// re-spilled afterwards if the budget demands it.
  void combine_min(const ShardedCensusMatrix& other);

  // -- Spill tier -----------------------------------------------------------

  /// Spills shard `s` to `<spill_dir>/shard<s>.ancs` and drops its
  /// resident pages. Returns bytes dropped (0 on failure or no-op).
  std::size_t spill_shard(std::size_t s);
  /// Restores shard `s` to anonymous memory.
  void restore_shard(std::size_t s);
  [[nodiscard]] bool shard_spilled(std::size_t s) const {
    return shards_[s].values_spilled();
  }
  /// Spills shards (index order) until resident value bytes fit the
  /// configured budget; no-op when rss_budget_mb == 0. Returns bytes
  /// resident after enforcement.
  std::size_t enforce_rss_budget();
  /// Value bytes currently backed by anonymous (non-droppable) memory.
  [[nodiscard]] std::size_t resident_value_bytes() const;
  /// Total value bytes across all shards, resident or spilled.
  [[nodiscard]] std::size_t total_value_bytes() const;

 private:
  friend class ShardedCensusMatrixBuilder;
  [[nodiscard]] std::string spill_path(std::size_t s) const;

  std::size_t target_count_ = 0;
  std::size_t shard_targets_ = 1;  // never 0: routing divides by it
  DataPlaneConfig plane_;
  std::vector<CensusMatrix> shards_;
};

/// Streams per-VP row fragments into a ShardedCensusMatrix under a
/// bounded memory envelope. Fragments are split by target range and
/// staged per shard; when the staged bytes exceed the stage budget the
/// heaviest-staged shard is frozen (CensusMatrixBuilder::build_uncounted)
/// and combined (combine_min) into its accumulator — an associative
/// fold, so the flush schedule cannot change the result. `build()`
/// freezes the remainder in shard order, counts ONE logical matrix
/// build, and enforces the RSS budget by spilling frozen shards.
class ShardedCensusMatrixBuilder {
 public:
  explicit ShardedCensusMatrixBuilder(std::size_t target_count,
                                      const DataPlaneConfig& plane = {});

  /// Adds one observation (parity with CensusMatrixBuilder::add).
  void add(std::uint32_t target_index, std::uint16_t vp, float rtt_ms);

  /// Adds one VP's whole row fragment (sorted by global target index, as
  /// vp_row_fragment produces), splitting it across shards.
  void add_fragment(std::uint16_t vp, std::vector<TargetRtt> fragment);

  [[nodiscard]] std::size_t target_count() const { return target_count_; }
  [[nodiscard]] std::size_t shard_count() const { return shard_count_; }
  /// Bytes of fragment entries currently staged (pre-freeze).
  [[nodiscard]] std::size_t staged_bytes() const { return staged_bytes_; }

  /// Freezes everything into the final matrix and resets the builder.
  [[nodiscard]] ShardedCensusMatrix build();

 private:
  void flush_shard(std::size_t s);
  void flush_heaviest();

  std::size_t target_count_ = 0;
  std::size_t shard_targets_ = 1;
  std::size_t shard_count_ = 0;
  DataPlaneConfig plane_;
  std::vector<CensusMatrixBuilder> stage_;   // per-shard staged fragments
  std::vector<std::size_t> stage_entry_bytes_;
  std::size_t staged_bytes_ = 0;
  ShardedCensusMatrix result_;               // frozen accumulators
  std::vector<bool> has_frozen_;
};

/// Runs one full census: every VP probes every non-blacklisted target,
/// new offenders land in the greylist which is merged into `blacklist`
/// afterwards (the Sec. 3.3 workflow). Deterministic in config.seed; when
/// `faults` is non-null, also deterministic in the plan's seed (VPs may
/// crash, straggle, or get quarantined — see `VpOutcome`). Quarantined
/// VPs keep their summary counters but contribute no rows to `data`.
///
/// When `pool` is non-null with more than one lane, the per-VP walks run
/// concurrently (each with a private greylist) and their results are
/// reduced in VP order on the calling thread, so the output — rows,
/// summary counters, outcome order, greylist membership and per-code
/// counters — is byte-identical to the serial run for any thread count.
/// `plane` shapes only the matrix layout (and its kTiming shard/spill
/// telemetry); everything else is identical for any plane.
struct ShardedCensusOutput {
  ShardedCensusMatrix data;
  CensusSummary summary;
};

ShardedCensusOutput run_census_sharded(
    const net::SimulatedInternet& internet,
    std::span<const net::VantagePoint> vps, const Hitlist& hitlist,
    Greylist& blacklist, const FastPingConfig& config,
    const DataPlaneConfig& plane = {}, const net::FaultPlan* faults = nullptr,
    concurrency::ThreadPool* pool = nullptr);

/// A spill file read back strictly (magic + count + CRC must all check
/// out) or salvaged (`salvage = true`): a truncated or bit-flipped file
/// recovers its whole-record prefix with `salvaged` set, journaled as a
/// kTiming warning. Returns nullopt only when nothing is recoverable.
struct SpillFileContents {
  std::vector<VpRtt> values;
  bool salvaged = false;
};

std::optional<SpillFileContents> read_spill_file(const std::string& path,
                                                 bool salvage = false);

}  // namespace anycast::census
