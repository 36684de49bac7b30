#include "anycast/census/census.hpp"

#include <algorithm>
#include <array>
#include <iterator>
#include <utility>

#if defined(__linux__)
#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "anycast/census/sharded.hpp"
#include "anycast/census/storage.hpp"
#include "anycast/obs/durable.hpp"
#include "anycast/obs/journal.hpp"
#include "anycast/obs/metrics.hpp"
#include "anycast/rng/distributions.hpp"

namespace anycast::census {
namespace {

/// Census-level instruments, fed on the census pass's reduction thread
/// (live or resumed) — see flush_census_summary_metrics.
struct CensusInstruments {
  obs::Counter runs = obs::metrics().counter(
      "census_runs", obs::MetricClass::kSemantic,
      "census reductions completed (live or resumed)");
  obs::Counter vps_active = obs::metrics().counter(
      "census_vps_active", obs::MetricClass::kSemantic,
      "VPs up for their census (availability coin heads)");
  obs::Counter vps_skipped = obs::metrics().counter(
      "census_vps_skipped", obs::MetricClass::kSemantic,
      "VPs down for their whole census");
  obs::Counter vps_completed = obs::metrics().counter(
      "census_vps_completed", obs::MetricClass::kSemantic,
      "VPs that walked the full hitlist");
  obs::Counter vps_crashed = obs::metrics().counter(
      "census_vps_crashed", obs::MetricClass::kSemantic,
      "VPs that died mid-walk");
  obs::Counter vps_cut_off = obs::metrics().counter(
      "census_vps_cut_off", obs::MetricClass::kSemantic,
      "VPs cut off by the straggler deadline");
  obs::Counter vps_quarantined = obs::metrics().counter(
      "census_vps_quarantined", obs::MetricClass::kSemantic,
      "VPs whose rows were excluded for excess drops");
  obs::Counter greylist_new = obs::metrics().counter(
      "census_greylist_new", obs::MetricClass::kSemantic,
      "/24s newly greylisted, summed over censuses");
};

const CensusInstruments& census_instruments() {
  static const CensusInstruments instruments;
  return instruments;
}

/// Matrix instruments, fed by CensusMatrixBuilder::build and the arena.
/// The build/value counters are kSemantic — one logical build per census
/// whatever the shard size (see note_matrix_build). The arena counters
/// are kTiming: how many mappings it takes to assemble the same matrix
/// is a data-plane layout detail that legitimately varies with the shard
/// size and spill schedule.
struct MatrixInstruments {
  obs::Counter builds = obs::metrics().counter(
      "census_matrix_builds", obs::MetricClass::kSemantic,
      "logical census matrix builds (one per assembled matrix)");
  obs::Counter values = obs::metrics().counter(
      "census_matrix_values", obs::MetricClass::kSemantic,
      "canonical (vp, target) samples across built matrices");
  obs::Counter arena_remaps = obs::metrics().counter(
      "census_arena_remaps", obs::MetricClass::kTiming,
      "in-place arena regrowths (mremap/realloc, beyond the first map)");
  obs::Counter arena_maps = obs::metrics().counter(
      "census_arena_maps", obs::MetricClass::kTiming,
      "fresh arena mappings (first allocation of a buffer)");
};

const MatrixInstruments& matrix_instruments() {
  static const MatrixInstruments instruments;
  return instruments;
}

}  // namespace

namespace detail {

void note_arena_remap(bool fresh_mapping) {
  const MatrixInstruments& in = matrix_instruments();
  if (fresh_mapping) {
    in.arena_maps.inc();
  } else {
    in.arena_remaps.inc();
  }
}

void note_matrix_build(std::size_t value_count) {
  matrix_instruments().builds.inc();
  matrix_instruments().values.add(value_count);
}

bool VpRttArena::spill(const std::string& path) {
#if defined(__linux__)
  if (spilled_) return true;
  if (size_ == 0 || data_ == nullptr) return false;
  const std::size_t payload_bytes = size_ * sizeof(VpRtt);

  // Serialize into a zeroed staging buffer so struct padding bytes land
  // in the file as zeros — spill files must be byte-deterministic. The
  // staging copy is transient and per-shard-sized, well under the RSS
  // headroom the spill exists to protect.
  std::vector<std::uint8_t> payload(payload_bytes, 0);
  VpRtt* recs = reinterpret_cast<VpRtt*>(payload.data());
  for (std::size_t i = 0; i < size_; ++i) {
    recs[i].vp = data_[i].vp;
    recs[i].rtt_ms = data_[i].rtt_ms;
  }
  std::uint8_t header[kSpillHeaderBytes] = {};
  const std::uint32_t crc = crc32(payload);
  const std::uint64_t count = size_;
  std::memcpy(header, &kSpillMagic, 4);
  std::memcpy(header + 4, &crc, 4);
  std::memcpy(header + 8, &count, 8);

  if (obs::write_file_atomic(path, {std::as_bytes(std::span(header)),
                                    std::as_bytes(std::span(payload))})) {
    return false;
  }

  // Swap the anonymous mapping for a read-only file-backed one: same
  // contents, but the pages are now reclaimable (drop_resident) and the
  // kernel faults them back from the file on demand.
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const std::size_t len = kSpillHeaderBytes + payload_bytes;
  void* mapped = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (mapped == MAP_FAILED) return false;
  ::munmap(data_, payload_bytes);
  map_base_ = mapped;
  map_len_ = len;
  data_ = reinterpret_cast<VpRtt*>(static_cast<std::uint8_t*>(mapped) +
                                   kSpillHeaderBytes);
  spilled_ = true;
  return true;
#else
  (void)path;
  return false;
#endif
}

std::size_t VpRttArena::drop_resident() {
#if defined(__linux__)
  if (!spilled_ || map_base_ == nullptr) return 0;
  if (::madvise(map_base_, map_len_, MADV_DONTNEED) != 0) return 0;
  return size_ * sizeof(VpRtt);
#else
  return 0;
#endif
}

void VpRttArena::restore() {
#if defined(__linux__)
  if (!spilled_) return;
  const std::size_t payload_bytes = size_ * sizeof(VpRtt);
  void* fresh = ::mmap(nullptr, payload_bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (fresh == MAP_FAILED) throw std::bad_alloc();
  std::memcpy(fresh, data_, payload_bytes);
  ::munmap(map_base_, map_len_);
  data_ = static_cast<VpRtt*>(fresh);
  map_base_ = nullptr;
  map_len_ = 0;
  spilled_ = false;
  note_arena_remap(/*fresh_mapping=*/true);
#endif
}

}  // namespace detail

void flush_census_summary_metrics(const CensusSummary& summary) {
  const CensusInstruments& in = census_instruments();
  in.runs.inc();
  in.vps_active.add(summary.active_vps);
  in.vps_skipped.add(summary.outcome_count(VpOutcome::kSkipped));
  in.vps_completed.add(summary.outcome_count(VpOutcome::kCompleted));
  in.vps_crashed.add(summary.outcome_count(VpOutcome::kCrashed));
  in.vps_cut_off.add(summary.outcome_count(VpOutcome::kCutOff));
  in.vps_quarantined.add(summary.outcome_count(VpOutcome::kQuarantined));
  in.greylist_new.add(summary.greylist_new);

  obs::Journal& j = obs::journal();
  j.emit(obs::MetricClass::kSemantic, obs::Severity::kInfo, "census.summary",
         j.next_order(),
         {{"active_vps", summary.active_vps},
          {"skipped", summary.outcome_count(VpOutcome::kSkipped)},
          {"completed", summary.outcome_count(VpOutcome::kCompleted)},
          {"crashed", summary.outcome_count(VpOutcome::kCrashed)},
          {"cut_off", summary.outcome_count(VpOutcome::kCutOff)},
          {"quarantined", summary.outcome_count(VpOutcome::kQuarantined)},
          {"probes", summary.probes_sent},
          {"echo", summary.echo_replies},
          {"prohibited", summary.errors},
          {"timeouts", summary.timeouts},
          {"timeouts_injected", summary.injected_timeouts},
          {"retry_probes", summary.retry_probes},
          {"retry_recovered", summary.retry_recovered},
          {"greylist_new", summary.greylist_new}});
  // This is the deterministic boundary the census pass, live or resumed,
  // ends its reduction on: cut the semantic batch here and fsync, so the
  // journal becomes durable alongside this census's checkpoints.
  j.commit();
}

CensusMatrix::CensusMatrix(std::size_t target_count)
    : base_(std::make_shared<Rows>()) {
  base_->offsets.assign(target_count + 1, 0);
}

std::size_t CensusMatrix::observation_count() const {
  if (base_ == nullptr) return 0;
  const std::size_t base = base_->values.size();
  return overlay_ == nullptr
             ? base
             : base - overlay_->hidden + overlay_->values.size();
}

std::size_t CensusMatrix::responsive_targets(std::size_t min_vps) const {
  std::size_t count = 0;
  for (std::size_t t = 0; t < target_count(); ++t) {
    if (measurements(static_cast<std::uint32_t>(t)).size() >= min_vps) {
      ++count;
    }
  }
  return count;
}

std::size_t CensusMatrix::value_bytes() const {
  if (base_ == nullptr) return 0;
  return base_->values.byte_size() +
         (overlay_ == nullptr ? 0 : overlay_->values.size() * sizeof(VpRtt));
}

std::size_t CensusMatrix::resident_value_bytes() const {
  return values_spilled() ? value_bytes() - base_->values.byte_size()
                          : value_bytes();
}

bool CensusMatrix::spill_values(const std::string& path) {
  if (base_ == nullptr) return false;
  if (base_->values.spilled()) return true;
  return own_rows().values.spill(path);
}

void CensusMatrix::restore_values() {
  if (values_spilled()) own_rows().values.restore();
}

namespace {

/// The vp-sorted min-union of two vp-sorted rows: its size, and whether
/// it differs from `ours` (`theirs` adds a VP or lowers an RTT).
struct RowUnion {
  std::uint64_t size = 0;
  bool changes = false;
};

RowUnion row_union(std::span<const VpRtt> ours, std::span<const VpRtt> theirs) {
  std::size_t i = 0;
  std::size_t j = 0;
  std::uint64_t unique = 0;
  bool lowered = false;
  while (i < ours.size() && j < theirs.size()) {
    const VpRtt a = ours[i];
    const VpRtt b = theirs[j];
    lowered |= a.vp == b.vp && b.rtt_ms < a.rtt_ms;
    i += static_cast<std::size_t>(a.vp <= b.vp);
    j += static_cast<std::size_t>(b.vp <= a.vp);
    ++unique;
  }
  const std::uint64_t size = unique + (ours.size() - i) + (theirs.size() - j);
  return {size, lowered || size != ours.size()};
}

/// Merges the vp-sorted row `theirs` into the row stored at
/// `v[ours_begin, ours_end)`, back to front, taking minima on common VPs;
/// the union ends at `v[write_end]`. Writes never clobber unread input:
/// the write cursor w and our read cursor i keep w - i >= write_end -
/// ours_end >= 0 (outputs remaining can never be fewer than our elements
/// remaining), and w == i only arises when the rest of `theirs`
/// duplicates the rest of ours, so the theirs-only branch cannot fire
/// there. Merging rows last to first, each into a slot at or above its
/// old start, therefore grows a whole arena in place.
void merge_row_back(VpRtt* v, std::uint64_t ours_begin, std::uint64_t ours_end,
                    std::span<const VpRtt> theirs, std::uint64_t write_end) {
  std::uint64_t i = ours_end;
  std::uint64_t w = write_end;
  std::size_t j = theirs.size();
  while (i > ours_begin && j > 0) {
    const VpRtt a = v[i - 1];
    const VpRtt b = theirs[j - 1];
    if (a.vp > b.vp) {
      v[--w] = a;
      --i;
    } else if (b.vp > a.vp) {
      v[--w] = b;
      --j;
    } else {
      v[--w] = VpRtt{a.vp, std::min(a.rtt_ms, b.rtt_ms)};
      --i;
      --j;
    }
  }
  while (i > ours_begin) {
    --w;
    --i;
    v[w] = v[i];
  }
  while (j > 0) v[--w] = theirs[--j];
}

/// Writes the min-union of `ours` and `theirs`, `size` values (see
/// row_union), to `out`: `ours` copied to the front, `theirs` merged in
/// back to front.
void merge_into(VpRtt* out, std::span<const VpRtt> ours,
                std::span<const VpRtt> theirs, std::uint64_t size) {
  std::copy(ours.begin(), ours.end(), out);
  merge_row_back(out, 0, ours.size(), theirs, size);
}

/// Row `t` of `m`, empty past its end.
std::span<const VpRtt> row_or_empty(const CensusMatrix& m, std::size_t t) {
  return t < m.target_count() ? m.measurements(static_cast<std::uint32_t>(t))
                              : std::span<const VpRtt>{};
}

/// Compaction threshold: an overlay that would hold more than
/// target_count / kOverlayShareDivisor rows is folded into a fresh base
/// instead. With c of N rows changed per round, an overlay at share s
/// costs ~s*N/2 per round to rebuild and c/s in compactions, least near
/// s = sqrt(2c/N): 1/16 for the 0.2-0.4% churn of a serving round.
constexpr std::size_t kOverlayShareDivisor = 16;

/// Values per transposed block: 32k VpRtt (256 KiB) fit in L2.
constexpr std::size_t kBlockValues = std::size_t{1} << 15;

/// Lays VP-ascending canonical runs out as CSR rows, one target block at
/// a time, blocks last to first. Runs hold global target indices; row i
/// of the output is target `base + i`. `count` takes every run's slice of
/// the block (per-run cursors walking each run back to front, so a pass
/// reads each run once) and prefix-sums the row sizes; `place` appends
/// each run's slice in VP order. Rows therefore come out vp-sorted at
/// exact offsets, and the block's values stay cache-resident between the
/// two steps.
class BlockTransposer {
 public:
  BlockTransposer(std::span<const detail::TargetRun> runs, std::size_t base,
                  std::size_t targets, std::size_t values)
      : runs_(runs),
        base_(base),
        end_(runs.size()),
        begin_(runs.size()),
        block_(std::clamp<std::size_t>(
            kBlockValues * targets / std::max<std::size_t>(values, 1), 1,
            std::max<std::size_t>(targets, 1))),
        slots_(block_ + 1) {
    rewind();
  }

  [[nodiscard]] std::size_t block_targets() const { return block_; }

  /// Returns the cursors to the run ends, for another backward pass.
  void rewind() {
    for (std::size_t r = 0; r < runs_.size(); ++r) {
      end_[r] = static_cast<std::uint32_t>(runs_[r].entries.size());
    }
  }

  /// Counts the rows of targets [b0, b1), the block below the previous
  /// one (at most `block_targets()` targets): row_begin[i] = the block's
  /// values before target b0 + i, for i in [0, b1 - b0]. Returns the
  /// block's value count.
  std::uint64_t count(std::size_t b0, std::size_t b1,
                      std::uint64_t* row_begin) {
    g0_ = base_ + b0;
    const std::size_t n = b1 - b0;
    std::uint64_t* slots = slots_.data();
    std::fill(slots, slots + n + 1, 0);
    for (std::size_t r = 0; r < runs_.size(); ++r) {
      const TargetRtt* entries = runs_[r].entries.data();
      std::uint32_t p = end_[r];
      for (; p > 0 && entries[p - 1].target_index >= g0_; --p) {
        ++slots[entries[p - 1].target_index - g0_ + 1];
      }
      begin_[r] = p;
    }
    for (std::size_t i = 0; i < n; ++i) {
      row_begin[i] = slots[i];
      slots[i + 1] += slots[i];
    }
    row_begin[n] = slots[n];
    return slots[n];
  }

  /// Places the counted block's values at `out` (row i starting at
  /// out + row_begin[i]) and moves the cursors below the block.
  void place(VpRtt* out) {
    std::uint64_t* slots = slots_.data();
    for (std::size_t r = 0; r < runs_.size(); ++r) {
      const std::uint16_t vp = runs_[r].vp;
      const TargetRtt* entries = runs_[r].entries.data();
      for (std::uint32_t p = begin_[r]; p < end_[r]; ++p) {
        out[slots[entries[p].target_index - g0_]++] =
            VpRtt{vp, entries[p].rtt_ms};
      }
    }
    end_.swap(begin_);
  }

 private:
  std::span<const detail::TargetRun> runs_;
  std::size_t base_;                  // global index of row 0
  std::vector<std::uint32_t> end_;    // end of each run's unread prefix
  std::vector<std::uint32_t> begin_;  // start of each run's counted slice
  std::size_t block_;
  std::vector<std::uint64_t> slots_;  // row sizes, then write positions
  std::size_t g0_ = 0;                // global index of the block's row 0
};

/// Collapses each group of equal targets in a target-sorted vector to
/// its minimum RTT, in place.
void keep_target_minima(std::vector<TargetRtt>& entries) {
  std::size_t write = 0;
  for (const TargetRtt& entry : entries) {
    if (write > 0 && entries[write - 1].target_index == entry.target_index) {
      entries[write - 1].rtt_ms =
          std::min(entries[write - 1].rtt_ms, entry.rtt_ms);
    } else {
      entries[write++] = entry;
    }
  }
  entries.resize(write);
}

/// Two canonical runs of one VP merged into one, per-target minima.
std::vector<TargetRtt> merge_runs(std::span<const TargetRtt> a,
                                  std::span<const TargetRtt> b) {
  std::vector<TargetRtt> merged;
  merged.reserve(a.size() + b.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].target_index < b[j].target_index) {
      merged.push_back(a[i++]);
    } else if (b[j].target_index < a[i].target_index) {
      merged.push_back(b[j++]);
    } else {
      merged.push_back(
          {a[i].target_index, std::min(a[i].rtt_ms, b[j].rtt_ms)});
      ++i;
      ++j;
    }
  }
  merged.insert(merged.end(), a.begin() + static_cast<std::ptrdiff_t>(i),
                a.end());
  merged.insert(merged.end(), b.begin() + static_cast<std::ptrdiff_t>(j),
                b.end());
  return merged;
}

}  // namespace

void detail::canonicalise_run(std::vector<TargetRtt>& entries,
                              std::size_t target_limit) {
  const bool ascending =
      std::adjacent_find(entries.begin(), entries.end(),
                         [](const TargetRtt& a, const TargetRtt& b) {
                           return a.target_index >= b.target_index;
                         }) == entries.end();
  if (ascending) {
    // Out-of-range entries of a sorted run form its tail.
    while (!entries.empty() && entries.back().target_index >= target_limit) {
      entries.pop_back();
    }
    return;
  }
  std::erase_if(entries, [target_limit](const TargetRtt& entry) {
    return entry.target_index >= target_limit;
  });
  std::sort(entries.begin(), entries.end(),
            [](const TargetRtt& a, const TargetRtt& b) {
              return a.target_index < b.target_index;
            });
  keep_target_minima(entries);
}

std::vector<std::uint32_t> CensusMatrix::overlaid_rows() const {
  std::vector<std::uint32_t> rows;
  if (overlay_ != nullptr) {
    rows.reserve(overlay_rows());
    overlay_->rows.for_each([&rows](std::size_t t) {
      rows.push_back(static_cast<std::uint32_t>(t));
    });
  }
  return rows;
}

void CensusMatrix::combine_min(const CensusMatrix& other,
                               std::vector<std::uint32_t>* changed) {
  // Compare only other's non-empty rows; keep the ones the merge changes.
  // A row outside other's overlay is its base row, so one pass over the
  // base offsets, stepping through the overlaid rows beside it, finds
  // them without a row lookup per target; a run of kEmptyStride empty
  // base rows is one comparison.
  constexpr std::size_t kEmptyStride = 64;
  Patch patch;
  patch.other = &other;
  if (&other != this) {  // the union with itself changes nothing
    const std::span<const std::uint64_t> ends = other.row_offsets();
    const std::vector<std::uint32_t> overlaid = other.overlaid_rows();
    const std::size_t n = other.target_count();
    for (std::size_t t = 0, k = 0; t < n;) {
      const std::size_t next_overlaid = k < overlaid.size() ? overlaid[k] : n;
      if (t + kEmptyStride <= next_overlaid &&
          ends[t] == ends[t + kEmptyStride]) {
        t += kEmptyStride;
        continue;
      }
      const bool in_overlay = t == next_overlaid;
      k += static_cast<std::size_t>(in_overlay);
      if (in_overlay || ends[t] != ends[t + 1]) {
        const RowUnion merged =
            row_union(row_or_empty(*this, t),
                      other.measurements(static_cast<std::uint32_t>(t)));
        if (merged.changes) {
          patch.rows.push_back(static_cast<std::uint32_t>(t));
          patch.sizes.push_back(merged.size);
        }
      }
      ++t;
    }
  }
  const std::size_t targets = std::max(target_count(), other.target_count());
  if (targets != target_count()) {
    rebase(targets, patch);
  } else if (!patch.rows.empty()) {
    overlay_patch(patch);
  }
  if (changed != nullptr) *changed = std::move(patch.rows);
}

void CensusMatrix::overlay_patch(const Patch& patch) {
  // The new overlay holds the current overlay's rows and the patch's.
  const std::vector<std::uint32_t> kept = overlaid_rows();
  std::size_t rows = kept.size() + patch.rows.size();
  for (std::size_t i = 0, k = 0; i < kept.size() && k < patch.rows.size();) {
    if (kept[i] < patch.rows[k]) {
      ++i;
    } else if (patch.rows[k] < kept[i]) {
      ++k;
    } else {
      --rows;
      ++i;
      ++k;
    }
  }
  const std::size_t targets = target_count();
  if (rows > targets / kOverlayShareDivisor) {
    rebase(targets, patch);
    return;
  }

  const Overlay* old = overlay_.get();
  auto next = std::make_shared<Overlay>();
  next->rows = RankBitmap(targets);
  next->offsets.reserve(rows + 1);
  next->offsets.push_back(0);
  std::uint64_t patched = 0;
  for (const std::uint64_t size : patch.sizes) patched += size;
  next->values.reserve((old == nullptr ? 0 : old->values.size()) + patched);
  next->hidden = old == nullptr ? 0 : old->hidden;
  // Kept rows come in rank order, so kept[i] is old->row(i).
  for (std::size_t i = 0, k = 0; i < kept.size() || k < patch.rows.size();) {
    if (k == patch.rows.size() || (i < kept.size() && kept[i] < patch.rows[k])) {
      // The kept rows before the next patch row, copied in one block.
      std::size_t j = i;
      while (j < kept.size() &&
             (k == patch.rows.size() || kept[j] < patch.rows[k])) {
        ++j;
      }
      const std::uint64_t first = old->offsets[i];
      const std::uint64_t at = next->values.size();
      next->values.insert(next->values.end(), old->values.begin() + first,
                          old->values.begin() + old->offsets[j]);
      for (; i < j; ++i) {
        next->rows.set(kept[i]);
        next->offsets.push_back(old->offsets[i + 1] - first + at);
      }
      continue;
    }
    // Patch row k, merged into the kept row it replaces or its base row.
    const std::uint32_t t = patch.rows[k];
    const bool replaces = i < kept.size() && kept[i] == t;
    const std::span<const VpRtt> ours =
        replaces ? old->row(static_cast<std::uint32_t>(i)) : measurements(t);
    if (!replaces) next->hidden += ours.size();  // a base row, now hidden
    const std::size_t at = next->values.size();
    next->values.resize(at + patch.sizes[k]);
    merge_into(next->values.data() + at, ours, patch.other->measurements(t),
               patch.sizes[k]);
    next->rows.set(t);
    next->offsets.push_back(next->values.size());
    i += static_cast<std::size_t>(replaces);
    ++k;
  }
  next->rows.finish();
  overlay_ = std::move(next);
}

void CensusMatrix::rebase(std::size_t targets, const Patch& patch) {
  auto fresh = std::make_shared<Rows>();
  std::vector<std::uint64_t>& offsets = fresh->offsets;
  offsets.assign(targets + 1, 0);
  for (std::size_t t = 0, k = 0; t < targets; ++t) {
    const bool patched = k < patch.rows.size() && patch.rows[k] == t;
    offsets[t + 1] =
        offsets[t] + (patched ? patch.sizes[k++] : row_or_empty(*this, t).size());
  }
  fresh->values.resize(offsets[targets]);
  VpRtt* const v = fresh->values.data();
  for (std::size_t t = 0, k = 0; t < targets; ++t) {
    const auto ours = row_or_empty(*this, t);
    if (k < patch.rows.size() && patch.rows[k] == t) {
      merge_into(v + offsets[t], ours,
                 patch.other->measurements(static_cast<std::uint32_t>(t)),
                 patch.sizes[k++]);
    } else {
      std::copy(ours.begin(), ours.end(), v + offsets[t]);
    }
  }
  base_ = std::move(fresh);
  overlay_.reset();
}

CensusMatrix::Rows& CensusMatrix::own_rows() {
  if (overlay_ != nullptr || base_ == nullptr) {
    rebase(target_count(), Patch{});
  } else if (base_.use_count() > 1) {
    base_ = std::make_shared<Rows>(*base_);
  }
  return *base_;
}

void CensusMatrixBuilder::add(std::uint32_t target_index, std::uint16_t vp,
                              float rtt_ms) {
  loose_.push_back(TargetRtt{target_index, rtt_ms});
  loose_vps_.push_back(vp);
  staged_bytes_ += kLooseEntryBytes;
}

void CensusMatrixBuilder::add_fragment(std::uint16_t vp,
                                       std::vector<TargetRtt> fragment) {
  detail::canonicalise_run(fragment, target_count_);
  if (fragment.empty()) return;
  owned_.push_back(std::move(fragment));
  add_view(vp, owned_.back());
}

void CensusMatrixBuilder::add_view(std::uint16_t vp,
                                   std::span<const TargetRtt> run) {
  if (run.empty()) return;
  staged_bytes_ += run.size() * sizeof(TargetRtt);
  runs_.push_back(detail::TargetRun{vp, run});
}

CensusMatrix CensusMatrixBuilder::build() {
  CensusMatrix matrix(target_count_);
  freeze_into(matrix);
  detail::note_matrix_build(matrix.observation_count());
  return matrix;
}

std::vector<detail::TargetRun> CensusMatrixBuilder::take_runs() {
  std::vector<detail::TargetRun> runs = std::move(runs_);
  runs_.clear();
  if (!loose_.empty()) {
    // Group the loose adds into one run per VP (a counting sort, so each
    // VP's adds keep their order and an in-order stream stays sorted).
    const std::uint16_t top =
        *std::max_element(loose_vps_.begin(), loose_vps_.end());
    std::vector<std::uint32_t> slot(std::size_t{top} + 1, 0);
    for (const std::uint16_t vp : loose_vps_) ++slot[vp];
    std::vector<std::vector<TargetRtt>> grouped(std::size_t{top} + 1);
    for (std::size_t vp = 0; vp <= top; ++vp) grouped[vp].reserve(slot[vp]);
    for (std::size_t i = 0; i < loose_.size(); ++i) {
      grouped[loose_vps_[i]].push_back(loose_[i]);
    }
    for (std::size_t vp = 0; vp <= top; ++vp) {
      if (grouped[vp].empty()) continue;
      detail::canonicalise_run(grouped[vp], target_base_ + target_count_);
      owned_.push_back(std::move(grouped[vp]));
      runs.push_back(
          detail::TargetRun{static_cast<std::uint16_t>(vp), owned_.back()});
    }
    loose_ = {};
    loose_vps_ = {};
  }
  staged_bytes_ = 0;

  // VP order; a VP staged more than once becomes one run of minima.
  std::stable_sort(runs.begin(), runs.end(),
                   [](const detail::TargetRun& a, const detail::TargetRun& b) {
                     return a.vp < b.vp;
                   });
  std::size_t kept = 0;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    if (runs[r].entries.empty()) continue;
    if (kept > 0 && runs[kept - 1].vp == runs[r].vp) {
      owned_.push_back(merge_runs(runs[kept - 1].entries, runs[r].entries));
      runs[kept - 1].entries = owned_.back();
    } else {
      if (kept != r) runs[kept] = std::move(runs[r]);
      ++kept;
    }
  }
  runs.resize(kept);
  return runs;
}

void CensusMatrixBuilder::freeze_into(CensusMatrix& into) {
  const std::vector<detail::TargetRun> runs = take_runs();
  // The entries the runs view, when this builder owns them: released
  // when the freeze returns.
  const std::vector<std::vector<TargetRtt>> owned = std::exchange(owned_, {});
  std::size_t values = 0;
  for (const detail::TargetRun& run : runs) values += run.entries.size();
  if (values == 0) return;
  const std::size_t targets = target_count_;
  const bool fresh = into.observation_count() == 0;
  CensusMatrix::Rows& rows = into.own_rows();
  if (fresh) {
    rows.offsets.assign(targets + 1, 0);
    frozen_vps_.clear();
  }
  // A staged VP already frozen into `into` may share rows with it; only
  // then can a row gain fewer values than it has staged.
  std::vector<std::uint16_t> staged_vps;
  staged_vps.reserve(runs.size());
  for (const detail::TargetRun& run : runs) staged_vps.push_back(run.vp);
  std::vector<std::uint16_t> frozen;
  frozen.reserve(frozen_vps_.size() + staged_vps.size());
  std::set_union(frozen_vps_.begin(), frozen_vps_.end(), staged_vps.begin(),
                 staged_vps.end(), std::back_inserter(frozen));
  const bool repeats_vp =
      frozen.size() < frozen_vps_.size() + staged_vps.size();
  frozen_vps_ = std::move(frozen);

  BlockTransposer transposer(runs, target_base_, targets, values);
  const std::size_t block = transposer.block_targets();
  std::vector<std::uint64_t> local(block + 1);
  std::vector<VpRtt> buffer;
  const auto transpose_block = [&](std::size_t b0, std::size_t b1) {
    const std::uint64_t n = transposer.count(b0, b1, local.data());
    if (buffer.size() < n) buffer.resize(n);
    transposer.place(buffer.data());
  };
  const auto staged_row = [&](std::size_t i) {
    return std::span<const VpRtt>(buffer.data() + local[i],
                                  local[i + 1] - local[i]);
  };

  // gained[t]: values rows [0, t) gain. Without a repeated VP every
  // staged value is new, and the backward pass derives it from the block
  // counts; with one, a first backward pass sizes each row's union.
  std::vector<std::uint64_t> gained;
  std::uint64_t gain = values;
  if (repeats_vp) {
    gained.assign(targets + 1, 0);
    for (std::size_t b1 = targets; b1 > 0;) {
      const std::size_t b0 = b1 - std::min(b1, block);
      transpose_block(b0, b1);
      for (std::size_t t = b0; t < b1; ++t) {
        const auto ours = into.measurements(static_cast<std::uint32_t>(t));
        gained[t + 1] = row_union(ours, staged_row(t - b0)).size - ours.size();
      }
      b1 = b0;
    }
    for (std::size_t t = 0; t < targets; ++t) gained[t + 1] += gained[t];
    gain = gained[targets];
    transposer.rewind();
  }

  // Grow the arena once, then fill it last block to first: a fresh matrix
  // takes each block straight from the transposer; otherwise each row is
  // merged back to front into its final slot (see merge_row_back) and its
  // end offset rewritten, which no row below it reads.
  rows.values.resize(rows.values.size() + gain);
  VpRtt* const v = rows.values.data();
  std::vector<std::uint64_t>& offsets = rows.offsets;
  for (std::size_t b1 = targets; b1 > 0;) {
    const std::size_t b0 = b1 - std::min(b1, block);
    if (fresh) {
      gain -= transposer.count(b0, b1, local.data());
      transposer.place(v + gain);
      for (std::size_t t = b0; t < b1; ++t) {
        offsets[t + 1] = gain + local[t - b0 + 1];
      }
    } else {
      transpose_block(b0, b1);
      if (!repeats_vp) gain -= local[b1 - b0];
      for (std::size_t t = b1; t-- > b0;) {
        const std::uint64_t end =
            offsets[t + 1] +
            (repeats_vp ? gained[t + 1] : gain + local[t - b0 + 1]);
        merge_row_back(v, offsets[t], offsets[t + 1], staged_row(t - b0),
                       end);
        offsets[t + 1] = end;
      }
    }
    b1 = b0;
  }
}

std::vector<TargetRtt> vp_row_fragment(std::span<const Observation>
                                           observations,
                                       std::size_t target_limit,
                                       std::size_t* echo_in_range) {
  // A stable LSD radix sort over the target index, 8 bits per digit, with
  // only as many digits as `target_limit - 1` has bytes: O(n) where the
  // comparison sort it replaces was O(n log n) on LFSR-ordered streams.
  const auto usable = [target_limit](const Observation& obs) {
    // Out-of-range indices are damaged checkpoint records.
    return obs.kind == net::ReplyKind::kEchoReply &&
           obs.target_index < target_limit;
  };
  int digits = 0;
  for (std::size_t top = target_limit == 0 ? 0 : target_limit - 1;
       top != 0 && digits < 4; top >>= 8) {
    ++digits;
  }

  // One counting pass gives the usable total and every digit's histogram.
  std::array<std::array<std::size_t, 256>, 4> counts{};
  std::size_t count = 0;
  for (const Observation& obs : observations) {
    if (!usable(obs)) continue;
    ++count;
    for (int d = 0; d < digits; ++d) {
      ++counts[d][(obs.target_index >> (8 * d)) & 0xFFu];
    }
  }
  if (echo_in_range != nullptr) *echo_in_range = count;

  std::vector<TargetRtt> fragment;
  fragment.reserve(count);
  for (const Observation& obs : observations) {
    if (usable(obs)) {
      fragment.push_back(
          TargetRtt{obs.target_index, static_cast<float>(obs.rtt_ms)});
    }
  }
  std::vector<TargetRtt> spare(digits > 0 ? count : 0);
  for (int d = 0; d < digits; ++d) {
    std::size_t at = 0;
    for (std::size_t& bucket : counts[d]) {  // histogram -> bucket starts
      const std::size_t n = bucket;
      bucket = at;
      at += n;
    }
    for (const TargetRtt& entry : fragment) {
      spare[counts[d][(entry.target_index >> (8 * d)) & 0xFFu]++] = entry;
    }
    fragment.swap(spare);
  }

  // Retry passes revisit targets.
  keep_target_minima(fragment);
  return fragment;
}

std::vector<TargetRtt> vp_row_fragment(const FastPingResult& result,
                                       std::size_t target_limit) {
  return vp_row_fragment(std::span<const Observation>(result.observations),
                         target_limit);
}

std::size_t CensusSummary::outcome_count(VpOutcome outcome) const {
  std::size_t count = 0;
  for (const VpStatus& status : vp_outcomes) {
    if (status.outcome == outcome) ++count;
  }
  return count;
}

bool vp_available(const net::VantagePoint& vp, const FastPingConfig& config) {
  // Per-census node churn (deterministic in the census seed).
  if (config.vp_availability >= 1.0) return true;
  const double u = rng::hash_uniform01(config.seed ^
                                       (0xA5A5A5A5ull * (vp.id + 0x9E37ull)));
  return u < config.vp_availability;
}

VpOutcome census_vp_outcome(const FastPingResult& result,
                            const FastPingConfig& config) {
  // Quarantine trumps everything but a crash: a lossy VP's rows are
  // misleading whether or not it also finished late.
  if (result.outcome != VpOutcome::kCrashed &&
      config.quarantine_drop_rate < 1.0 && result.probes_sent > 0) {
    const double drop_rate = static_cast<double>(result.timeouts) /
                             static_cast<double>(result.probes_sent);
    if (drop_rate > config.quarantine_drop_rate) {
      return VpOutcome::kQuarantined;
    }
  }
  return result.outcome;
}

}  // namespace anycast::census
