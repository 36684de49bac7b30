// Census orchestration: run all VPs, collect RTTs, combine censuses.
//
// A census probes every hitlist target from every VP (unlike unicast
// censuses, targets cannot be split across VPs — Sec. 2.2). The collected
// per-(VP, target) minimum RTTs are the input to the iGreedy analysis;
// multiple censuses are combined by taking the per-pair minimum, which
// pushes each measurement toward the propagation delay and raises recall
// (Sec. 4.1, Fig. 12: the combination finds ~200 more anycast /24s than an
// average individual census).
//
// The collected RTTs live in a compressed-sparse-row matrix: one
// contiguous VpRtt buffer plus a per-target offset array, rows sorted by
// VP id. This is the in-memory continuation of the paper's own Tab. 1
// layout story (CSV → 6-byte binary records took analysis from >3 days to
// 3 hours): a census at hitlist scale is a large sparse matrix, and one
// allocation-free arena beats millions of per-target row vectors on cache
// misses and peak RSS alike.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "anycast/census/fastping.hpp"
#include "anycast/census/greylist.hpp"
#include "anycast/census/hitlist.hpp"
#include "anycast/census/rank_bitmap.hpp"
#include "anycast/net/internet.hpp"

namespace anycast::census {

/// One RTT sample: which VP, and the minimum RTT it saw to the target.
struct VpRtt {
  std::uint16_t vp = 0;
  float rtt_ms = 0.0F;
};

/// One row fragment entry: the minimum RTT one VP saw to one target.
/// A whole `FastPingResult` reduces to a per-target-sorted vector of
/// these (see `vp_row_fragment`), handed to a `CensusMatrixBuilder` in
/// one move instead of one sorted insert per observation.
struct TargetRtt {
  std::uint32_t target_index = 0;
  float rtt_ms = 0.0F;
};

namespace detail {

/// Out-of-line metrics hook (defined in census.cpp) so this header does
/// not pull in the obs registry: counts one fresh arena mapping into
/// `census_arena_maps`.
void note_arena_map();

/// Counts one logical matrix build of `value_count` canonical samples
/// into `census_matrix_builds`/`census_matrix_values`. The sharded
/// builder calls this exactly once per assembled matrix — however many
/// per-shard freezes it took — so the semantic counters are invariant to
/// the shard size.
void note_matrix_build(std::size_t value_count);

/// Fixed-size buffer of (trivially copyable) VpRtt for census-scale value
/// arenas, sized once by `allocate`: mmap/munmap directly on Linux (pages
/// returned to the kernel the moment the buffer dies, residency
/// independent of allocator history), malloc elsewhere.
///
/// On top of the anonymous mapping the arena has an explicit spill tier
/// (Linux only): `spill()` freezes the contents into a checksummed file
/// and swaps the anonymous mapping for a read-only file-backed one,
/// `drop_resident()` returns the resident pages to the kernel (reads
/// transparently fault them back from the file), and `restore()` copies
/// the contents back into a private anonymous mapping before any
/// mutation. Mutable access restores automatically, so mutating callers
/// never observe the spilled state.
class VpRttArena {
 public:
  VpRttArena() = default;
  VpRttArena(const VpRttArena& other) { assign(other); }
  VpRttArena& operator=(const VpRttArena& other) {
    if (this != &other) assign(other);
    return *this;
  }
  VpRttArena(VpRttArena&& other) noexcept
      : data_(other.data_),
        size_(other.size_),
        map_base_(other.map_base_),
        map_len_(other.map_len_),
        spilled_(other.spilled_) {
    other.data_ = nullptr;
    other.size_ = 0;
    other.map_base_ = nullptr;
    other.map_len_ = 0;
    other.spilled_ = false;
  }
  VpRttArena& operator=(VpRttArena&& other) noexcept {
    if (this != &other) {
      release();
      data_ = other.data_;
      size_ = other.size_;
      map_base_ = other.map_base_;
      map_len_ = other.map_len_;
      spilled_ = other.spilled_;
      other.data_ = nullptr;
      other.size_ = 0;
      other.map_base_ = nullptr;
      other.map_len_ = 0;
      other.spilled_ = false;
    }
    return *this;
  }
  ~VpRttArena() { release(); }

  [[nodiscard]] const VpRtt* data() const { return data_; }
  /// Mutable access restores a spilled arena first — the file-backed
  /// mapping is read-only by contract.
  [[nodiscard]] VpRtt* data() {
    if (spilled_) restore();
    return data_;
  }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Drops the contents and maps `count` fresh slots: zero pages on
  /// Linux, uninitialised otherwise — either way every caller writes them
  /// all before reading.
  void allocate(std::size_t count) {
    release();
    if (count == 0) return;
#if defined(__linux__)
    void* fresh = ::mmap(nullptr, count * sizeof(VpRtt),
                         PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                         -1, 0);
    if (fresh == MAP_FAILED) throw std::bad_alloc();
#else
    void* fresh = std::malloc(count * sizeof(VpRtt));
    if (fresh == nullptr) throw std::bad_alloc();
#endif
    note_arena_map();
    data_ = static_cast<VpRtt*>(fresh);
    size_ = count;
  }

  /// Spills the arena to `path` (checksummed "ANCS" file, written by
  /// obs::write_file_atomic) and swaps the anonymous mapping for a
  /// read-only file-backed one. Returns false — with the arena unchanged
  /// — on non-Linux builds, empty arenas, or any I/O failure. Defined in
  /// census.cpp.
  bool spill(const std::string& path);

  /// Returns the resident pages of a spilled arena to the kernel
  /// (`madvise(MADV_DONTNEED)` on the file-backed mapping); subsequent
  /// reads fault them back from the spill file transparently. Returns
  /// the number of bytes dropped (0 when not spilled).
  std::size_t drop_resident();

  /// Copies a spilled arena back into a private anonymous mapping (the
  /// spill file stays on disk for its owner to reclaim). No-op when not
  /// spilled.
  void restore();

  /// Whether the contents currently live in a file-backed mapping.
  [[nodiscard]] bool spilled() const { return spilled_; }

  /// Bytes of value payload (excludes the spill-file header).
  [[nodiscard]] std::size_t byte_size() const {
    return size_ * sizeof(VpRtt);
  }

 private:
  void release() {
#if defined(__linux__)
    if (spilled_) {
      if (map_base_ != nullptr) ::munmap(map_base_, map_len_);
    } else if (data_ != nullptr) {
      ::munmap(data_, size_ * sizeof(VpRtt));
    }
#else
    std::free(data_);
#endif
    data_ = nullptr;
    size_ = 0;
    map_base_ = nullptr;
    map_len_ = 0;
    spilled_ = false;
  }

  void assign(const VpRttArena& other) {
    allocate(other.size_);
    if (size_ != 0) std::memcpy(data(), other.data_, size_ * sizeof(VpRtt));
  }

  VpRtt* data_ = nullptr;
  std::size_t size_ = 0;
  // When spilled: the whole file mapping (header included); data_ points
  // at the payload inside it.
  void* map_base_ = nullptr;
  std::size_t map_len_ = 0;
  bool spilled_ = false;
};

/// Spill-file layout constants ("ANCS": magic, crc32 of payload, record
/// count, then the raw VpRtt payload with zeroed struct padding).
inline constexpr std::uint32_t kSpillMagic = 0x53434E41;  // "ANCS"
inline constexpr std::size_t kSpillHeaderBytes = 16;

/// A view of one VP's entries for one matrix: strictly target-ascending,
/// every target inside the matrix's target range (a "canonical run").
/// Whoever staged the run owns the entries and keeps them alive until
/// the run is frozen.
struct TargetRun {
  std::uint16_t vp = 0;
  std::span<const TargetRtt> entries;
};

/// Makes `entries` a canonical run in place: drops targets at or beyond
/// `target_limit` (damaged records), sorts by target and keeps each
/// target's minimum RTT. A fragment that is already target-sorted (what
/// `vp_row_fragment` emits) costs one linear check and a tail trim.
void canonicalise_run(std::vector<TargetRtt>& entries,
                      std::size_t target_limit);

}  // namespace detail

/// Per-target collected measurements for one census (or a combination)
/// in CSR form: a base holds every row back to back, with `offsets[t] ..
/// offsets[t+1]` delimiting target t's row. Rows are vp-sorted with one
/// entry per VP (the per-pair minimum). Construction goes through
/// `CensusMatrixBuilder`; afterwards only `combine_min` changes rows.
///
/// Storage is copy-on-write, so a matrix derived from another by a small
/// `combine_min` shares almost everything with it:
///  - The base is held by shared_ptr and never written while another
///    matrix holds it; copying a matrix copies two pointers.
///  - `combine_min` leaves the base alone and writes the rows it changes
///    into a fresh overlay: a `RankBitmap` of those rows plus their
///    contents as a small CSR of its own. `measurements` reads the
///    overlay first (one bit test) and the base otherwise, so an
///    overlaid row's old copy stays in the base, unread.
///  - Compaction: once the overlay would hold more than a sixteenth of
///    the rows, or the merge grows the target count, base and overlay are
///    folded into a fresh base. The trigger counts rows, so the layout
///    never depends on timing.
///  - Every other write (spill, restore) first takes storage of its
///    own: the overlay is folded in, and a base another matrix holds is
///    copied. So a matrix that dies frees only the storage no other
///    matrix reads.
class CensusMatrix {
 public:
  CensusMatrix() = default;
  /// A matrix of `target_count` empty rows.
  explicit CensusMatrix(std::size_t target_count);

  [[nodiscard]] std::span<const VpRtt> measurements(
      std::uint32_t target_index) const {
    if (overlay_ != nullptr) {
      if (const auto rank = overlay_->rows.rank_if_set(target_index)) {
        return overlay_->row(*rank);
      }
    }
    const Rows& base = *base_;
    const std::uint64_t begin = base.offsets[target_index];
    return {base.values.data() + begin,
            base.offsets[target_index + 1] - begin};
  }
  [[nodiscard]] std::size_t target_count() const {
    return base_ == nullptr || base_->offsets.empty()
               ? 0
               : base_->offsets.size() - 1;
  }
  /// Total stored (vp, target) samples across all rows.
  [[nodiscard]] std::size_t observation_count() const;
  /// Rows the overlay holds: 0 for a built or freshly compacted matrix.
  [[nodiscard]] std::size_t overlay_rows() const {
    return overlay_ == nullptr ? 0 : overlay_->offsets.size() - 1;
  }
  /// The base's CSR offset array: `target_count() + 1` cumulative row
  /// ends (or empty for a default-constructed matrix). An overlaid row
  /// keeps its base size here, so this is a weight for sharding sweeps
  /// into ranges of balanced measurement count; read contents through
  /// `measurements`.
  [[nodiscard]] std::span<const std::uint64_t> row_offsets() const {
    if (base_ == nullptr) return {};
    return base_->offsets;
  }

  /// Number of targets with at least `min_vps` measurements.
  [[nodiscard]] std::size_t responsive_targets(std::size_t min_vps = 1) const;

  /// Point-wise minimum with `other` (same hitlist required): the
  /// censuses-combination step. Each output row is the vp-sorted union of
  /// the input rows with minima on common VPs. Only the non-empty rows of
  /// `other` are compared; the rows that change (where `other` adds a VP
  /// or lowers an RTT) go into a fresh overlay, or into a fresh base when
  /// that compacts (see the class comment). When `changed` is non-null it
  /// receives those rows, ascending.
  void combine_min(const CensusMatrix& other,
                   std::vector<std::uint32_t>* changed = nullptr);

  // -- Spill tier (ShardedCensusMatrix's RSS-budget lever) ------------------

  /// Freezes the rows into the "ANCS" spill file at `path` and remaps
  /// them read-only file-backed. Takes storage of its own first, so the
  /// overlay is folded in and a shared base is copied, never remapped.
  /// Reads (`measurements`) keep working. Returns false when spilling is
  /// unavailable or fails; the rows are unchanged either way.
  bool spill_values(const std::string& path);
  /// Returns a spilled base's resident pages to the kernel; reads fault
  /// them back from the spill file, so this is safe on a shared base.
  /// Bytes dropped (0 when not spilled).
  std::size_t drop_resident_values() {
    return base_ == nullptr ? 0 : base_->values.drop_resident();
  }
  /// Brings spilled rows back into anonymous memory of this matrix's own
  /// (a sibling that shares the spilled base keeps reading the file).
  void restore_values();
  /// Whether the base lives in a file-backed mapping. An overlay written
  /// since the spill stays in anonymous memory.
  [[nodiscard]] bool values_spilled() const {
    return base_ != nullptr && base_->values.spilled();
  }
  /// Value payload bytes this matrix reads, shared or not: base plus
  /// overlay (overlaid rows' stale base copies included).
  [[nodiscard]] std::size_t value_bytes() const;
  /// The part of `value_bytes` in anonymous memory: everything but a
  /// spilled base.
  [[nodiscard]] std::size_t resident_value_bytes() const;

 private:
  friend class CensusMatrixBuilder;

  struct Rows {
    detail::VpRttArena values;            // all rows, back to back
    std::vector<std::uint64_t> offsets;   // per-target row boundaries
  };
  struct Overlay {
    RankBitmap rows;                      // the rows held here
    std::vector<std::uint64_t> offsets;   // by rank, like Rows::offsets
    std::vector<VpRtt> values;
    std::size_t hidden = 0;  // base values of the overlaid rows

    [[nodiscard]] std::span<const VpRtt> row(std::uint32_t rank) const {
      return {values.data() + offsets[rank],
              offsets[rank + 1] - offsets[rank]};
    }
  };
  /// Rows `combine_min` changes: ascending targets, each with its merged
  /// size; the new content is the min-union with `other`'s row.
  struct Patch {
    std::vector<std::uint32_t> rows;
    std::vector<std::uint64_t> sizes;
    const CensusMatrix* other = nullptr;
  };

  /// This matrix's rows as private, overlay-free storage (see the class
  /// comment); every write to a base goes through here.
  Rows& own_rows();
  /// Replaces base and overlay with one fresh base of `targets` rows,
  /// `patch` applied.
  void rebase(std::size_t targets, const Patch& patch);
  /// A fresh overlay: the current one's rows plus `patch`, or a rebase
  /// when that passes the compaction threshold.
  void overlay_patch(const Patch& patch);
  /// The overlaid rows, ascending (so in overlay rank order).
  [[nodiscard]] std::vector<std::uint32_t> overlaid_rows() const;

  std::shared_ptr<Rows> base_;               // null: no rows at all
  std::shared_ptr<const Overlay> overlay_;   // null: nothing overlaid
};

/// Assembles a `CensusMatrix` from per-VP row fragments and/or loose
/// observations. Staged input is held as views of canonical runs (one
/// VP's entries, strictly target-ascending): a target-sorted fragment —
/// what `vp_row_fragment` emits — is kept as it is; an unsorted one, and
/// the loose adds (grouped by VP), are sorted and collapsed to per-target
/// minima first. The sharded builder stages views of slices of the
/// fragments it holds, in global target indices, into one such builder
/// per shard. A freeze orders the runs by VP (stable, since callers
/// such as `collate_census_files_sharded` see VPs in path order) and
/// merges runs that repeat a VP into one, keeping per-target minima.
/// It then transposes them into CSR rows one target block at a time,
/// each block sized so its values fit in L2: count the block's slice of
/// every run, prefix-sum, place in VP order. Rows come out vp-sorted at
/// exact offsets, one entry per VP (the per-pair minimum), so the result
/// is identical whatever the insertion order and no per-row sort is
/// needed. Entries at or beyond `target_count` (damaged checkpoint
/// records) are dropped.
class CensusMatrixBuilder {
 public:
  explicit CensusMatrixBuilder(std::size_t target_count)
      : target_count_(target_count) {}
  // Staged runs view entries the builder (or its sharded owner) holds, so
  // a copy would view another builder's storage. Moving keeps them valid.
  CensusMatrixBuilder(const CensusMatrixBuilder&) = delete;
  CensusMatrixBuilder& operator=(const CensusMatrixBuilder&) = delete;
  CensusMatrixBuilder(CensusMatrixBuilder&&) = default;
  CensusMatrixBuilder& operator=(CensusMatrixBuilder&&) = default;

  /// Adds one observation (used when no per-VP fragment exists, e.g.
  /// ad-hoc matrices in tests and studies).
  void add(std::uint32_t target_index, std::uint16_t vp, float rtt_ms);

  /// Adds one VP's whole row fragment (any order, repeats allowed),
  /// taking ownership: a target-sorted fragment is staged without a copy.
  void add_fragment(std::uint16_t vp, std::vector<TargetRtt> fragment);

  [[nodiscard]] std::size_t target_count() const { return target_count_; }

  /// Staged bytes per loose `add()`: the entry plus its VP id.
  static constexpr std::size_t kLooseEntryBytes =
      sizeof(TargetRtt) + sizeof(std::uint16_t);

  /// Bytes of staged input: a `TargetRtt` per run entry,
  /// `kLooseEntryBytes` per loose `add()`.
  [[nodiscard]] std::size_t staged_bytes() const { return staged_bytes_; }

  /// Freezes the accumulated input into a matrix and resets the builder.
  [[nodiscard]] CensusMatrix build();

 private:
  friend class ShardedCensusMatrixBuilder;

  /// A stage for the targets [target_base, target_base + target_count):
  /// every staged index, loose or in a run, is global, and the transpose
  /// subtracts the base (the sharded builder's per-shard stages).
  CensusMatrixBuilder(std::size_t target_count, std::uint32_t target_base)
      : target_count_(target_count), target_base_(target_base) {}

  /// Stages a view of a canonical run inside this stage's range without
  /// copying it; the caller keeps the entries alive until the next freeze.
  void add_view(std::uint16_t vp, std::span<const TargetRtt> run);
  /// Freezes the staged input into a fresh matrix of this builder's
  /// target count, by the blocked transpose straight into its arena, and
  /// resets the stage. Does not count a matrix build (see
  /// `detail::note_matrix_build`).
  [[nodiscard]] CensusMatrix freeze();
  /// Hands out the staged input as VP-ascending canonical runs, one per
  /// VP, and resets the stage. Runs built here (grouped loose adds,
  /// merged repeats of a VP) join `owned_`, which the caller clears once
  /// the runs are frozen.
  std::vector<detail::TargetRun> take_runs();

  std::size_t target_count_ = 0;
  std::uint32_t target_base_ = 0;
  std::vector<detail::TargetRun> runs_;
  // Entries this builder owns: taken fragments and the runs take_runs
  // builds. Moving a vector keeps its buffer, so views into them stay
  // valid as this grows.
  std::vector<std::vector<TargetRtt>> owned_;
  // Loose observations from add(), as parallel arrays (entry i pairs
  // loose_[i] with loose_vps_[i]).
  std::vector<TargetRtt> loose_;
  std::vector<std::uint16_t> loose_vps_;
  std::size_t staged_bytes_ = 0;
};

/// Reduces one VP's observation stream to its per-target minimum echo
/// RTTs, sorted by target index, in time linear in the stream (a stable
/// radix pass over the target index, one 8-bit digit per byte of
/// `target_limit - 1`). Entries at or beyond `target_limit` (damaged
/// checkpoint records) are dropped. This is the per-VP half of
/// the census merge; it runs inside the VP's task when a thread pool is
/// in use. When `echo_in_range` is non-null it receives the number of
/// echo replies within `target_limit` *before* per-target deduplication
/// (the collation accounting unit).
std::vector<TargetRtt> vp_row_fragment(std::span<const Observation>
                                           observations,
                                       std::size_t target_limit,
                                       std::size_t* echo_in_range = nullptr);
std::vector<TargetRtt> vp_row_fragment(const FastPingResult& result,
                                       std::size_t target_limit);

/// How one VP fared in a census (one entry per configured VP).
struct VpStatus {
  std::uint32_t vp_id = 0;
  VpOutcome outcome = VpOutcome::kCompleted;
};

/// Aggregate census accounting (the Fig. 4 funnel and Fig. 8 inputs).
struct CensusSummary {
  std::uint64_t probes_sent = 0;
  std::uint64_t echo_replies = 0;
  std::uint64_t errors = 0;
  std::uint64_t timeouts = 0;
  std::size_t greylist_new = 0;    // targets newly greylisted this census
  std::size_t active_vps = 0;      // VPs that were up for this census
  std::vector<double> vp_duration_hours;  // one entry per active VP
  std::vector<VpStatus> vp_outcomes;      // one entry per configured VP
  std::uint64_t injected_timeouts = 0;  // probes lost to injected outages
  std::uint64_t retry_probes = 0;       // probes spent in retry passes
  std::uint64_t retry_recovered = 0;    // targets recovered by retries

  /// VPs that ended with `outcome`.
  [[nodiscard]] std::size_t outcome_count(VpOutcome outcome) const;
};

/// Flushes one census's reduction-level tallies (active/skipped VPs,
/// per-outcome counts, newly greylisted /24s) into obs::metrics(). Runs on
/// the reduction thread of the one census pass behind run_census_sharded
/// and resume_census_sharded, so a live census and its resumed twin
/// report identical semantics.
void flush_census_summary_metrics(const CensusSummary& summary);

/// Deterministic per-census availability coin: whether `vp` is up for the
/// census seeded by `config.seed` (PlanetLab node churn). Shared by the
/// runner and the resume path so both agree on who was ever expected.
bool vp_available(const net::VantagePoint& vp, const FastPingConfig& config);

/// Final outcome for a VP's fastping run under `config`: applies the
/// quarantine drop-rate check on top of the prober-reported outcome.
VpOutcome census_vp_outcome(const FastPingResult& result,
                            const FastPingConfig& config);

}  // namespace anycast::census
