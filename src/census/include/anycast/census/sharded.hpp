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
//    fed the same fragments. A flush only moves staged runs to a side-run
//    file, each shard freezes once from all of its runs, and both keep
//    per-(vp, target) minima, so the schedule cannot show in the output.
//  - Semantic invariance: the sharded path bumps the kSemantic matrix
//    counters exactly once per assembled matrix (note_matrix_build) and
//    emits only kTiming shard/spill events, so the semantic metric
//    snapshot and committed journal stream are invariant to shard size.
//  - Durability boundary: spill and side-run files are published durably
//    (obs::write_file_atomic: tmp, fsync, rename, directory fsync) and
//    checksummed; a truncated spill file salvages to its whole-record
//    prefix (read_spill_file), a damaged side-run file is refused
//    (read_side_runs).
//  - Copy-on-write: each shard's rows are shared, immutable storage plus
//    an overlay of the rows combine_min changed (CensusMatrix). Copying
//    a matrix costs O(shards); a combine_min copies, merges and allocates
//    only the rows it changes (plus the overlay they join); and a matrix
//    that dies frees only what no other matrix reads. An overlay past
//    1/16 of its shard's rows is compacted into a fresh shard base.
//  - Content stamp: every matrix carries a stamp drawn from one
//    process-wide counter. Construction, `build()` and every mutation
//    (combine_min, the non-const `shard(s)`) draw a fresh one; a copy keeps
//    it and a moved-from matrix draws a fresh one. Two matrices with the
//    same stamp therefore hold the same rows.
//  - Change record: `combine_min` also keeps `{base stamp, rows it
//    changed}`, filled by the merge pass it runs anyway. A row changes iff
//    `other` adds a VP or lowers an RTT, and the merge is monotone, so the
//    record is exactly the row diff against the matrix stamped `base`.
//    Only the last combine_min is recorded. analysis::dirty_rows reads it
//    to diff a derived round in O(churn) instead of O(matrix).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
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
  /// Where spill files (`shard<N>.ancs`) and side runs (`runs<N>.ancr`)
  /// land; required for spilling. One builder at a time may flush here.
  std::string spill_dir;
};

/// A census matrix split into fixed-size target-range shards. Target t
/// lives in shard t / shard_targets at local index t % shard_targets
/// (the last shard may be ragged). Each shard is a complete CensusMatrix
/// over its local range, so every row algorithm (analysis, diffing,
/// hijack scans) runs per shard unchanged; `measurements()` routes
/// global indices in O(1). Reads work on spilled shards — the kernel
/// faults the pages back from the spill file. combine_min leaves a
/// spilled shard file-backed and puts the rows it changes in the shard's
/// overlay; only a write to the base itself (a compaction, a restore)
/// brings it back to anonymous memory.
class ShardedCensusMatrix {
 public:
  /// What the last `combine_min` changed: `rows` (ascending global target
  /// indices) are exactly the rows whose content differs from the matrix
  /// stamped `base`. `base == 0` means no record.
  struct ChangeRecord {
    std::uint64_t base = 0;
    std::vector<std::uint32_t> rows;
  };

  ShardedCensusMatrix() = default;
  ShardedCensusMatrix(std::size_t target_count, const DataPlaneConfig& plane);
  /// A copy holds the same rows, so it keeps the stamp and the record.
  /// It shares every shard's storage: O(shards), whatever the row count.
  ShardedCensusMatrix(const ShardedCensusMatrix&) = default;
  ShardedCensusMatrix& operator=(const ShardedCensusMatrix&) = default;
  /// The moved-from matrix is left empty under a fresh stamp.
  ShardedCensusMatrix(ShardedCensusMatrix&& other) noexcept;
  ShardedCensusMatrix& operator=(ShardedCensusMatrix&& other) noexcept;

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
  /// Mutable shard access counts as a mutation: it draws a fresh stamp
  /// and drops the change record. Writes through it are copy-on-write
  /// like every CensusMatrix write, so a copy of this matrix taken before
  /// or after keeps its rows, stamp and residency.
  [[nodiscard]] CensusMatrix& shard(std::size_t s) {
    mark_mutated();
    return shards_[s];
  }

  /// Content stamp (see the file comment); never 0.
  [[nodiscard]] std::uint64_t stamp() const { return stamp_; }
  /// The last combine_min's change record (base 0 when there is none).
  [[nodiscard]] const ChangeRecord& last_change() const { return change_; }

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
  /// counts may differ). Each shard writes the rows it changes into a
  /// fresh overlay (CensusMatrix::combine_min), so storage shared with
  /// other matrices is never written and a spilled shard stays spilled;
  /// the budget is enforced afterwards. Draws a fresh stamp and records
  /// `{previous stamp, rows that changed}` as `last_change()`.
  void combine_min(const ShardedCensusMatrix& other);

  // -- Spill tier -----------------------------------------------------------

  /// Spills shard `s` to `<spill_dir>/shard<s>.ancs` and drops its
  /// resident pages. A shard that shares its base with another matrix
  /// spills a private copy, so the other matrix keeps its rows and
  /// residency. Returns bytes dropped (0 on failure or no-op).
  std::size_t spill_shard(std::size_t s);
  /// Restores shard `s` to anonymous memory of this matrix's own.
  void restore_shard(std::size_t s);
  [[nodiscard]] bool shard_spilled(std::size_t s) const {
    return shards_[s].values_spilled();
  }
  /// Spills shards (index order) until resident value bytes fit the
  /// configured budget (none when rss_budget_mb == 0 or there is no spill
  /// dir) and publishes the residency gauges. Returns bytes resident
  /// after enforcement, in `resident_value_bytes` terms: spilling
  /// a shared shard lowers this matrix's count, while the sibling that
  /// shares it keeps its pages resident.
  std::size_t enforce_rss_budget();
  /// Value bytes this matrix reads from anonymous (non-droppable) memory:
  /// overlays, and every base that is not spilled. Storage shared with
  /// another matrix counts in full for each of them, so this is what
  /// the matrix keeps alive, not its share of the process's RSS.
  [[nodiscard]] std::size_t resident_value_bytes() const;
  /// Total value bytes across all shards, resident or spilled, shared or
  /// not (CensusMatrix::value_bytes).
  [[nodiscard]] std::size_t total_value_bytes() const;

 private:
  friend class ShardedCensusMatrixBuilder;
  [[nodiscard]] std::string spill_path(std::size_t s) const;
  /// Draws a fresh stamp and drops the change record.
  void mark_mutated();

  std::size_t target_count_ = 0;
  std::size_t shard_targets_ = 1;  // never 0: routing divides by it
  DataPlaneConfig plane_;
  std::vector<CensusMatrix> shards_;
  std::uint64_t stamp_ = next_content_stamp();
  ChangeRecord change_;

  static std::uint64_t next_content_stamp() noexcept;
};

/// Streams per-VP row fragments into a ShardedCensusMatrix. A fragment
/// is made a canonical run (target-sorted fragments, what
/// `vp_row_fragment` emits, only pay a linear check) and kept whole, in
/// global target indices; each shard it spans stages a view of its slice,
/// found by binary search on the shard boundaries, so no entry is copied
/// or rebased before the transpose (which subtracts the shard base).
/// Loose `add()`s are staged per shard. `build()` freezes each shard
/// exactly once, in shard order, by the blocked transpose of all its runs
/// (CensusMatrixBuilder::freeze), which merges a VP's repeated runs into
/// one of per-target minima.
///
/// When a flush happens, and the memory envelope:
///  - With no RSS budget (or no spill dir), nothing flushes: the staged
///    fragments and the frozen shards coexist until `build()` returns,
///    peak ~ 2 x 8 bytes per sample.
///  - With an RSS budget and a spill dir, once the staged bytes (fragment
///    entries plus loose adds) pass a quarter of the budget, a flush
///    writes every staged shard's runs (VP-ascending, one per VP) as one
///    section of a side-run file, `<spill_dir>/runs<N>.ancr`, and releases
///    the fragments. `build()` reads each shard's sections back, freezes
///    the shard beside what is still staged and calls
///    `enforce_rss_budget`, so a shard is spilled at most once; then it
///    removes the side-run files.
///
/// `build()` counts ONE logical matrix build and resets the builder.
class ShardedCensusMatrixBuilder {
 public:
  explicit ShardedCensusMatrixBuilder(std::size_t target_count,
                                      const DataPlaneConfig& plane = {});

  /// Adds one observation (parity with CensusMatrixBuilder::add); staged
  /// under the same budget as fragments, at its real staged size.
  void add(std::uint32_t target_index, std::uint16_t vp, float rtt_ms);

  /// Adds one VP's whole row fragment, taking ownership; each shard it
  /// spans stages a view of its slice. Entries may come in any order and
  /// repeat a target (an unsorted fragment is sorted and collapsed to
  /// per-target minima first); entries at or beyond `target_count()` are
  /// dropped.
  void add_fragment(std::uint16_t vp, std::vector<TargetRtt> fragment);

  [[nodiscard]] std::size_t target_count() const { return target_count_; }
  [[nodiscard]] std::size_t shard_count() const { return shard_count_; }
  /// Bytes of input currently staged (pre-freeze): 0 right after a
  /// flush, which releases every staged fragment.
  [[nodiscard]] std::size_t staged_bytes() const { return staged_bytes_; }

  /// Freezes everything into the final matrix and resets the builder.
  [[nodiscard]] ShardedCensusMatrix build();

  /// Removes the side-run files a build did not consume.
  ~ShardedCensusMatrixBuilder() { remove_side_runs(); }
  ShardedCensusMatrixBuilder(const ShardedCensusMatrixBuilder&) = delete;
  ShardedCensusMatrixBuilder& operator=(const ShardedCensusMatrixBuilder&) =
      delete;

 private:
  /// Writes every staged shard's runs to one side-run file, then releases
  /// the fragments their views read. Throws when the write fails.
  void flush_all();
  void enforce_stage_budget();
  void remove_side_runs();

  std::size_t target_count_ = 0;
  std::size_t shard_targets_ = 1;
  std::size_t shard_count_ = 0;
  DataPlaneConfig plane_;
  std::vector<std::vector<TargetRtt>> fragments_;  // whole, canonical
  std::vector<CensusMatrixBuilder> stage_;  // per-shard views, loose adds
  std::size_t staged_bytes_ = 0;
  std::vector<std::string> side_runs_;      // one file per flush, in order
  // Per shard, its sections: {index into side_runs_, byte offset}.
  std::vector<std::vector<std::pair<std::size_t, std::uint64_t>>> sections_;
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

/// One section of a side-run file (a budgeted flush writes one section per
/// staged shard, back to back): a 24-byte header (magic "ANCR", CRC-32 of
/// the rest, shard, run count, entry count), a `{vp, size}` table of
/// VP-ascending canonical runs, then their entries (global targets).
struct SideRunSection {
  struct Run {
    std::uint32_t vp = 0;
    std::uint32_t size = 0;  // entries
  };
  std::size_t shard = 0;
  std::vector<Run> runs;
  std::vector<TargetRtt> entries;  // the runs, back to back
};

/// Reads the section at byte `offset` of side-run file `path` strictly
/// (magic, CRC, counts, VPs ascending, each run's targets ascending inside
/// its shard: `shard_targets` a shard, `target_count` in all). A mismatch
/// throws a std::runtime_error naming the file, offset and fault.
SideRunSection read_side_runs(const std::string& path, std::uint64_t offset,
                              std::size_t shard_targets,
                              std::size_t target_count);

}  // namespace anycast::census
