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
/// not pull in the obs registry: counts one mmap/mremap-backed arena
/// resize into `census_arena_remaps`.
void note_arena_remap(bool fresh_mapping);

/// Counts one logical matrix build of `value_count` canonical samples
/// into `census_matrix_builds`/`census_matrix_values`. The sharded
/// builder calls this exactly once per assembled matrix — however many
/// per-shard `build_uncounted` passes it took — so the semantic counters
/// are invariant to the shard size.
void note_matrix_build(std::size_t value_count);

/// Growable buffer of (trivially copyable) VpRtt for census-scale value
/// arenas. std::vector growth must allocate-copy-free — transiently
/// doubling resident memory on a buffer this large — so the arena
/// resizes in place instead: mmap/mremap/munmap directly on Linux (no
/// copy on growth, pages returned to the kernel the moment the buffer
/// dies, residency independent of allocator history), realloc elsewhere.
///
/// On top of the anonymous growth path the arena has an explicit spill
/// tier (Linux only): `spill()` freezes the contents into a checksummed
/// file and swaps the anonymous mapping for a read-only file-backed one,
/// `drop_resident()` returns the resident pages to the kernel (reads
/// transparently fault them back from the file), and `restore()` copies
/// the contents back into a private anonymous mapping before any
/// mutation. `resize()` restores automatically, so mutating callers
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
  VpRtt& operator[](std::size_t i) { return data()[i]; }
  const VpRtt& operator[](std::size_t i) const { return data_[i]; }

  /// Exact-size resize: contents up to min(old, new) are preserved, new
  /// slots are zero pages on Linux and uninitialised otherwise — either
  /// way every caller writes them all before reading. A spilled arena is
  /// restored to anonymous memory first.
  void resize(std::size_t count) {
    if (spilled_) restore();
    if (count == 0) {
      release();
      return;
    }
#if defined(__linux__)
    void* grown =
        data_ == nullptr
            ? ::mmap(nullptr, count * sizeof(VpRtt), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0)
            : ::mremap(data_, size_ * sizeof(VpRtt), count * sizeof(VpRtt),
                       MREMAP_MAYMOVE);
    if (grown == MAP_FAILED) throw std::bad_alloc();
#else
    void* grown = std::realloc(data_, count * sizeof(VpRtt));
    if (grown == nullptr) throw std::bad_alloc();
#endif
    note_arena_remap(data_ == nullptr);
    data_ = static_cast<VpRtt*>(grown);
    size_ = count;
  }

  /// Spills the arena to `path` (checksummed "ANCS" file) and swaps the
  /// anonymous mapping for a read-only file-backed one. Returns false —
  /// with the arena unchanged — on non-Linux builds, empty arenas, or
  /// any I/O failure. Defined in census.cpp.
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
    resize(other.size_);
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

}  // namespace detail

/// Per-target collected measurements for one census (or a combination),
/// frozen in CSR form: `values_` holds every row back to back, and
/// `offsets_[t] .. offsets_[t+1]` delimits target t's row. Rows are
/// vp-sorted with one entry per VP (the per-pair minimum). Instances are
/// immutable once built — construction goes through `CensusMatrixBuilder`
/// (or `combine_min`, which produces a fresh matrix in place).
class CensusMatrix {
 public:
  CensusMatrix() = default;
  /// A matrix of `target_count` empty rows.
  explicit CensusMatrix(std::size_t target_count)
      : offsets_(target_count + 1, 0) {}

  [[nodiscard]] std::span<const VpRtt> measurements(
      std::uint32_t target_index) const {
    const std::uint64_t begin = offsets_[target_index];
    return {values_.data() + begin, offsets_[target_index + 1] - begin};
  }
  [[nodiscard]] std::size_t target_count() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  /// Total stored (vp, target) samples across all rows.
  [[nodiscard]] std::size_t observation_count() const {
    return values_.size();
  }
  /// The CSR offset array: `target_count() + 1` cumulative row ends (or
  /// empty for a default-constructed matrix). Exposed so sweeps can shard
  /// targets into ranges of balanced *measurement* weight, not just
  /// balanced row counts.
  [[nodiscard]] std::span<const std::uint64_t> row_offsets() const {
    return offsets_;
  }

  /// Number of targets with at least `min_vps` measurements.
  [[nodiscard]] std::size_t responsive_targets(std::size_t min_vps = 1) const;

  /// Point-wise minimum with `other` (same hitlist required): the
  /// censuses-combination step. A linear two-matrix merge — each output
  /// row is the vp-sorted union of the input rows with minima on common
  /// VPs — performed in place: the arena grows once to the exact union
  /// size and rows are merged back-to-front, so there is no per-row
  /// allocation and no second value buffer whatever the row count.
  void combine_min(const CensusMatrix& other);

  // -- Spill tier (ShardedCensusMatrix's RSS-budget lever) ------------------

  /// Freezes the value arena into the "ANCS" spill file at `path` and
  /// remaps it read-only file-backed. Reads (`measurements`) keep
  /// working; mutation restores first. Returns false (matrix unchanged)
  /// when spilling is unavailable or fails.
  bool spill_values(const std::string& path) { return values_.spill(path); }
  /// Returns a spilled matrix's resident value pages to the kernel;
  /// reads fault them back from the spill file. Bytes dropped (0 when
  /// not spilled).
  std::size_t drop_resident_values() { return values_.drop_resident(); }
  /// Copies spilled values back into anonymous memory.
  void restore_values() { values_.restore(); }
  [[nodiscard]] bool values_spilled() const { return values_.spilled(); }
  /// Value-arena payload bytes (resident upper bound when not dropped).
  [[nodiscard]] std::size_t value_bytes() const { return values_.byte_size(); }

 private:
  friend class CensusMatrixBuilder;
  detail::VpRttArena values_;           // all rows, back to back
  std::vector<std::uint64_t> offsets_;  // per-target row boundaries
};

/// Assembles a `CensusMatrix` in two passes from per-VP row fragments
/// (and/or loose observations): pass one counts each target's row, pass
/// two places every entry straight into its final slot of the contiguous
/// buffer. A final linear sweep canonicalises rows — vp-sorted, duplicate
/// (vp, target) pairs collapsed to their minimum — so the result is
/// identical whatever the insertion order. Entries at or beyond
/// `target_count` (damaged checkpoint records) are dropped.
class CensusMatrixBuilder {
 public:
  explicit CensusMatrixBuilder(std::size_t target_count)
      : target_count_(target_count) {}

  /// Adds one observation (used when no per-VP fragment exists, e.g.
  /// ad-hoc matrices in tests and studies).
  void add(std::uint32_t target_index, std::uint16_t vp, float rtt_ms);

  /// Adds one VP's whole row fragment (per-target minima, any order),
  /// taking ownership — the builder iterates fragments twice (count,
  /// place) without copying entries around.
  void add_fragment(std::uint16_t vp, std::vector<TargetRtt> fragment);

  [[nodiscard]] std::size_t target_count() const { return target_count_; }

  /// Freezes the accumulated input into a matrix and resets the builder.
  [[nodiscard]] CensusMatrix build();

  /// `build()` minus the `census_matrix_builds`/`census_matrix_values`
  /// instrument bumps. Internal per-shard builds go through this so a
  /// sharded assembly counts exactly one logical build — keeping the
  /// semantic metric snapshot invariant across shard sizes.
  [[nodiscard]] CensusMatrix build_uncounted();

 private:
  struct Fragment {
    std::uint16_t vp = 0;
    std::vector<TargetRtt> entries;
  };

  std::size_t target_count_ = 0;
  std::vector<Fragment> fragments_;
  // Loose observations from add(), as parallel arrays (entry i pairs
  // loose_[i] with loose_vps_[i]).
  std::vector<TargetRtt> loose_;
  std::vector<std::uint16_t> loose_vps_;
};

/// Reduces one VP's observation stream to its per-target minimum echo
/// RTTs, sorted by target index. Entries at or beyond `target_limit`
/// (damaged checkpoint records) are dropped. This is the per-VP half of
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
/// the reduction thread; run_census_sharded and resume_census_sharded both
/// call it, so a live census and its resumed twin report identical
/// semantics.
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
