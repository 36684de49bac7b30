#include "anycast/census/census.hpp"

#include <algorithm>
#include <array>
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
/// whatever the shard size (see note_matrix_build). The arena counter is
/// kTiming: how many mappings it takes to assemble the same matrix is a
/// data-plane layout detail that legitimately varies with the shard size
/// and spill schedule.
struct MatrixInstruments {
  obs::Counter builds = obs::metrics().counter(
      "census_matrix_builds", obs::MetricClass::kSemantic,
      "logical census matrix builds (one per assembled matrix)");
  obs::Counter values = obs::metrics().counter(
      "census_matrix_values", obs::MetricClass::kSemantic,
      "canonical (vp, target) samples across built matrices");
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

void note_arena_map() { matrix_instruments().arena_maps.inc(); }

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
  note_arena_map();
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

/// Writes the min-union of the vp-sorted rows `ours` and `theirs` (see
/// row_union) to `out`, taking minima on common VPs.
void merge_into(VpRtt* out, std::span<const VpRtt> ours,
                std::span<const VpRtt> theirs) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < ours.size() && j < theirs.size()) {
    const VpRtt a = ours[i];
    const VpRtt b = theirs[j];
    *out++ = a.vp < b.vp   ? a
             : b.vp < a.vp ? b
                           : VpRtt{a.vp, std::min(a.rtt_ms, b.rtt_ms)};
    i += static_cast<std::size_t>(a.vp <= b.vp);
    j += static_cast<std::size_t>(b.vp <= a.vp);
  }
  out = std::ranges::copy(ours.subspan(i), out).out;
  std::ranges::copy(theirs.subspan(j), out);
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

/// Lays VP-ascending canonical runs out as the CSR rows of targets
/// [base, base + targets): `values` entries into `v`, row ends into
/// `offsets[1..targets]`. Runs hold global target indices. It walks one
/// target block at a time, blocks last to first: count every run's slice
/// of the block (per-run cursors walking each run back to front, so the
/// walk reads each run once), prefix-sum the row sizes, then place each
/// run's slice in VP order. Rows therefore come out vp-sorted at exact
/// offsets, and the block's values stay cache-resident between the steps.
void transpose_runs(std::span<const detail::TargetRun> runs, std::size_t base,
                    std::size_t targets, std::uint64_t values, VpRtt* v,
                    std::uint64_t* offsets) {
  const std::size_t block = std::clamp<std::size_t>(
      kBlockValues * targets / std::max<std::size_t>(values, 1), 1,
      std::max<std::size_t>(targets, 1));
  std::vector<std::uint32_t> end(runs.size());    // each run's unread prefix
  std::vector<std::uint32_t> begin(runs.size());  // its slice of the block
  for (std::size_t r = 0; r < runs.size(); ++r) {
    end[r] = static_cast<std::uint32_t>(runs[r].entries.size());
  }
  // Row sizes, then each row's write position.
  std::vector<std::uint64_t> slot_buffer(block + 1);
  std::uint64_t* const slots = slot_buffer.data();
  for (std::size_t b1 = targets; b1 > 0;) {
    const std::size_t b0 = b1 - std::min(b1, block);
    const std::size_t g0 = base + b0;  // global index of the block's row 0
    const std::size_t n = b1 - b0;
    std::fill(slots, slots + n + 1, 0);
    for (std::size_t r = 0; r < runs.size(); ++r) {
      const TargetRtt* entries = runs[r].entries.data();
      std::uint32_t p = end[r];
      for (; p > 0 && entries[p - 1].target_index >= g0; --p) {
        ++slots[entries[p - 1].target_index - g0 + 1];
      }
      begin[r] = p;
    }
    for (std::size_t i = 0; i < n; ++i) slots[i + 1] += slots[i];
    values -= slots[n];
    for (std::size_t i = 1; i <= n; ++i) offsets[b0 + i] = values + slots[i];
    VpRtt* const out = v + values;
    for (std::size_t r = 0; r < runs.size(); ++r) {
      const std::uint16_t vp = runs[r].vp;
      const TargetRtt* entries = runs[r].entries.data();
      for (std::uint32_t p = begin[r]; p < end[r]; ++p) {
        out[slots[entries[p].target_index - g0]++] =
            VpRtt{vp, entries[p].rtt_ms};
      }
    }
    end.swap(begin);
    b1 = b0;
  }
}

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
    merge_into(next->values.data() + at, ours, patch.other->measurements(t));
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
  fresh->values.allocate(offsets[targets]);
  VpRtt* const v = fresh->values.data();
  for (std::size_t t = 0, k = 0; t < targets; ++t) {
    const auto ours = row_or_empty(*this, t);
    if (k < patch.rows.size() && patch.rows[k] == t) {
      merge_into(v + offsets[t], ours,
                 patch.other->measurements(static_cast<std::uint32_t>(t)));
      ++k;
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
  CensusMatrix matrix = freeze();
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

CensusMatrix CensusMatrixBuilder::freeze() {
  const std::vector<detail::TargetRun> runs = take_runs();
  // The entries the runs view, when this builder owns them: released
  // when the freeze returns.
  const std::vector<std::vector<TargetRtt>> owned = std::exchange(owned_, {});
  CensusMatrix matrix(target_count_);
  std::size_t values = 0;
  for (const detail::TargetRun& run : runs) values += run.entries.size();
  if (values == 0) return matrix;
  CensusMatrix::Rows& rows = matrix.own_rows();
  rows.values.allocate(values);
  transpose_runs(runs, target_base_, target_count_, values, rows.values.data(),
                 rows.offsets.data());
  return matrix;
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
