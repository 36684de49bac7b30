#include "anycast/census/census.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>

#if defined(__linux__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "anycast/census/sharded.hpp"
#include "anycast/census/storage.hpp"
#include "anycast/concurrency/thread_pool.hpp"
#include "anycast/obs/journal.hpp"
#include "anycast/obs/latency.hpp"
#include "anycast/obs/metrics.hpp"
#include "anycast/obs/trace.hpp"
#include "anycast/rng/distributions.hpp"

namespace anycast::census {
namespace {

/// Census-level instruments, fed on the reduction thread (run_census_sharded
/// and resume_census_sharded) — see flush_census_summary_metrics.
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

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(header, 1, kSpillHeaderBytes, f) == kSpillHeaderBytes &&
      std::fwrite(payload.data(), 1, payload.size(), f) == payload.size() &&
      std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  std::fclose(f);
  if (!ok) {
    std::remove(tmp.c_str());
    return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
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
  // This is the deterministic boundary both run_census_sharded and
  // resume_census_sharded end their reduction on: cut the semantic batch
  // here and fsync, so the journal becomes durable alongside this census's
  // checkpoints.
  j.commit();
}

std::size_t CensusMatrix::responsive_targets(std::size_t min_vps) const {
  std::size_t count = 0;
  for (std::size_t t = 0; t + 1 < offsets_.size(); ++t) {
    if (offsets_[t + 1] - offsets_[t] >= min_vps) ++count;
  }
  return count;
}

void CensusMatrix::combine_min(const CensusMatrix& other) {
  if (&other == this) return;  // the union with itself changes nothing
  const std::size_t targets = std::max(target_count(), other.target_count());
  const auto row = [](const CensusMatrix& m, std::size_t t) {
    return t < m.target_count()
               ? m.measurements(static_cast<std::uint32_t>(t))
               : std::span<const VpRtt>{};
  };

  // Pass 1 — count each row's vp-union size, so the arena grows exactly
  // once to its exact final size: no per-row buffer, no reallocation
  // mid-merge, and no disjoint-VP worst-case (2x) padding. Censuses from
  // the same platform overlap almost entirely in VPs, so the union is
  // near max(|ours|, |theirs|), not the sum.
  std::vector<std::uint64_t> offsets(targets + 1, 0);
  for (std::size_t t = 0; t < targets; ++t) {
    const std::span<const VpRtt> ours = row(*this, t);
    const std::span<const VpRtt> theirs = row(other, t);
    std::size_t i = 0;
    std::size_t j = 0;
    std::uint64_t unique = 0;
    while (i < ours.size() && j < theirs.size()) {
      const std::uint16_t a = ours[i].vp;
      const std::uint16_t b = theirs[j].vp;
      i += static_cast<std::size_t>(a <= b);
      j += static_cast<std::size_t>(b <= a);
      ++unique;
    }
    offsets[t + 1] =
        offsets[t] + unique + (ours.size() - i) + (theirs.size() - j);
  }

  // Grow the value arena once, in place, to the exact final size
  // (realloc: no transient second buffer). Every row can only grow, so
  // old rows keep their positions in the front of the buffer.
  const std::vector<std::uint64_t> old_offsets = std::move(offsets_);
  values_.resize(offsets[targets]);

  // Pass 2 — merge rows last-to-first, each written back-to-front into
  // its final slot, taking minima on common VPs. Writes never clobber
  // unread input: within row t the write cursor w and our read cursor i
  // keep w - i >= offsets[t] - old_offsets[t] >= 0 (outputs remaining
  // can never be fewer than our elements remaining), w == i only arises
  // when the rest of `theirs` duplicates the rest of ours (so the
  // theirs-only branch cannot fire there), and row t's writes stay at or
  // above offsets[t] >= old_offsets[t], past every earlier row's data.
  VpRtt* const v = values_.data();
  for (std::size_t t = targets; t-- > 0;) {
    const std::span<const VpRtt> theirs = row(other, t);
    std::uint64_t ours_begin = 0;
    std::uint64_t i = 0;
    if (t + 1 < old_offsets.size()) {
      ours_begin = old_offsets[t];
      i = old_offsets[t + 1];
    }
    std::uint64_t w = offsets[t + 1];
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
  offsets_ = std::move(offsets);
}

void CensusMatrixBuilder::add(std::uint32_t target_index, std::uint16_t vp,
                              float rtt_ms) {
  loose_.push_back(TargetRtt{target_index, rtt_ms});
  loose_vps_.push_back(vp);
}

void CensusMatrixBuilder::add_fragment(std::uint16_t vp,
                                       std::vector<TargetRtt> fragment) {
  fragments_.push_back(Fragment{vp, std::move(fragment)});
}

CensusMatrix CensusMatrixBuilder::build() {
  CensusMatrix matrix = build_uncounted();
  detail::note_matrix_build(matrix.observation_count());
  return matrix;
}

CensusMatrix CensusMatrixBuilder::build_uncounted() {
  CensusMatrix matrix(target_count_);

  // Pass 1 — count: cursor[t + 1] accumulates target t's raw row size.
  std::vector<std::uint64_t> cursor(target_count_ + 1, 0);
  const auto count_entry = [&](const TargetRtt& entry) {
    if (entry.target_index < target_count_) ++cursor[entry.target_index + 1];
  };
  for (const Fragment& fragment : fragments_) {
    for (const TargetRtt& entry : fragment.entries) count_entry(entry);
  }
  for (const TargetRtt& entry : loose_) count_entry(entry);
  // Prefix sum: cursor[t] = where target t's row starts.
  for (std::size_t t = 1; t <= target_count_; ++t) cursor[t] += cursor[t - 1];
  matrix.offsets_ = cursor;  // raw (pre-dedup) row boundaries
  matrix.values_.resize(cursor[target_count_]);

  // Pass 2 — place: every entry lands directly in its row's next slot.
  const auto place_entry = [&](const TargetRtt& entry, std::uint16_t vp) {
    if (entry.target_index >= target_count_) return;
    matrix.values_[cursor[entry.target_index]++] =
        VpRtt{vp, entry.rtt_ms};
  };
  for (const Fragment& fragment : fragments_) {
    for (const TargetRtt& entry : fragment.entries) {
      place_entry(entry, fragment.vp);
    }
  }
  for (std::size_t i = 0; i < loose_.size(); ++i) {
    place_entry(loose_[i], loose_vps_[i]);
  }

  // Canonicalise each row in place: vp-sorted, one entry per VP keeping
  // the minimum RTT. Fragments arriving in ascending VP order (the
  // census reduction) produce already-sorted, duplicate-free rows, so the
  // common path is a pure linear validation sweep; only rows fed out of
  // order or with duplicates pay a sort. The compaction cursor `write`
  // never passes a row's original start, so shifting left is safe.
  detail::VpRttArena& values = matrix.values_;
  const auto vp_before = [](const VpRtt& a, const VpRtt& b) {
    if (a.vp != b.vp) return a.vp < b.vp;
    return a.rtt_ms < b.rtt_ms;
  };
  std::uint64_t write = 0;
  for (std::size_t t = 0; t < target_count_; ++t) {
    const std::uint64_t begin = matrix.offsets_[t];
    const std::uint64_t end = matrix.offsets_[t + 1];
    bool sorted = true;
    for (std::uint64_t i = begin + 1; i < end; ++i) {
      if (values[i - 1].vp >= values[i].vp) {
        sorted = false;
        break;
      }
    }
    if (!sorted) {
      std::sort(values.data() + begin, values.data() + end, vp_before);
    }
    const std::uint64_t row_start = write;
    matrix.offsets_[t] = write;
    for (std::uint64_t i = begin; i < end; ++i) {
      if (write > row_start && values[write - 1].vp == values[i].vp) {
        values[write - 1].rtt_ms =
            std::min(values[write - 1].rtt_ms, values[i].rtt_ms);
      } else {
        values[write++] = values[i];
      }
    }
  }
  matrix.offsets_[target_count_] = write;
  values.resize(write);

  fragments_.clear();
  loose_.clear();
  loose_vps_.clear();
  return matrix;
}

std::vector<TargetRtt> vp_row_fragment(std::span<const Observation>
                                           observations,
                                       std::size_t target_limit,
                                       std::size_t* echo_in_range) {
  std::size_t usable = 0;
  for (const Observation& obs : observations) {
    if (obs.kind == net::ReplyKind::kEchoReply &&
        obs.target_index < target_limit) {
      ++usable;
    }
  }
  if (echo_in_range != nullptr) *echo_in_range = usable;
  std::vector<TargetRtt> fragment;
  fragment.reserve(usable);
  for (const Observation& obs : observations) {
    if (obs.kind != net::ReplyKind::kEchoReply) continue;
    if (obs.target_index >= target_limit) continue;  // damaged record
    fragment.push_back(
        TargetRtt{obs.target_index, static_cast<float>(obs.rtt_ms)});
  }
  // Retry passes revisit targets: sort by target and keep the minimum per
  // group (ties by RTT make the sort order — hence the result — unique).
  std::sort(fragment.begin(), fragment.end(),
            [](const TargetRtt& a, const TargetRtt& b) {
              if (a.target_index != b.target_index) {
                return a.target_index < b.target_index;
              }
              return a.rtt_ms < b.rtt_ms;
            });
  fragment.erase(std::unique(fragment.begin(), fragment.end(),
                             [](const TargetRtt& a, const TargetRtt& b) {
                               return a.target_index == b.target_index;
                             }),
                 fragment.end());
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

namespace {

/// One VP's finished walk, produced by its (possibly concurrent) task and
/// consumed by the in-order reduction on the calling thread.
struct VpWork {
  bool ran = false;  // false: the availability coin skipped this VP
  FastPingResult result;
  Greylist greylist;               // private; merged in VP order
  std::vector<TargetRtt> fragment; // per-target minima, merged in VP order
};

}  // namespace

ShardedCensusOutput run_census_sharded(
    const net::SimulatedInternet& internet,
    std::span<const net::VantagePoint> vps, const Hitlist& hitlist,
    Greylist& blacklist, const FastPingConfig& config,
    const DataPlaneConfig& plane, const net::FaultPlan* faults,
    concurrency::ThreadPool* pool) {
  // One flow whatever the plane's shape: map VPs (possibly on the pool),
  // reduce in VP order, build, merge greylists, flush metrics. The shard
  // size and spill budget only change where the matrix lives, so the
  // summary, greylist, journal stream, and semantic metrics never depend
  // on them.
  ShardedCensusOutput out;
  ShardedCensusMatrixBuilder builder(hitlist.size(), plane);
  // Adoption point: per-VP walk spans on worker threads attach here.
  const obs::Span census_span(obs::Span::Root::kAdoptionPoint, "census");
  CensusSummary& summary = out.summary;
  summary.vp_duration_hours.reserve(vps.size());
  summary.vp_outcomes.reserve(vps.size());

  // Map: each available VP walks the hitlist with a *private* greylist
  // and reduces its own observations to a row fragment. Walks only read
  // shared state (`internet`, `hitlist`, `blacklist`), so they are
  // independent — the pool just runs them on every lane.
  const auto walk_vp = [&](std::size_t i) -> VpWork {
    VpWork work;
    if (!vp_available(vps[i], config)) return work;
    work.ran = true;
    const obs::Span walk_span("vp_walk", vps[i].id);
    const auto walk_start = std::chrono::steady_clock::now();
    work.result = run_fastping(internet, vps[i], hitlist, blacklist,
                               work.greylist, config, faults);
    // Wall-clock walk latency for the telemetry plane (kTiming by
    // construction — never part of the semantic contract, unlike the
    // simulated duration_hours flushed below).
    obs::LatencyHisto::get("census_walk_us", "us",
                           "wall-clock per-VP census walk latency")
        .record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - walk_start)
                .count()));
    flush_walk_metrics(work.result, vps[i].id);
    work.fragment = vp_row_fragment(work.result, hitlist.size());
    // The reduction reads only the counters, the outcome, and the
    // fragment; drop the raw stream so the retained state per VP is the
    // compact fragment, not O(hitlist) observations held for every VP.
    work.result.observations = {};
    return work;
  };
  std::vector<VpWork> done;
  if (pool != nullptr && pool->thread_count() > 1) {
    done = pool->parallel_map(vps.size(), walk_vp);
  } else {
    done.reserve(vps.size());
    for (std::size_t i = 0; i < vps.size(); ++i) done.push_back(walk_vp(i));
  }

  // Reduce in VP order on this thread: the summary, quarantine decisions,
  // matrix fragments, and greylist merge all see VPs in exactly the order
  // the serial loop did, so the output is byte-identical for any thread
  // count.
  Greylist census_greylist;
  for (std::size_t i = 0; i < vps.size(); ++i) {
    const net::VantagePoint& vp = vps[i];
    VpWork& work = done[i];
    if (!work.ran) {
      summary.vp_outcomes.push_back({vp.id, VpOutcome::kSkipped});
      continue;
    }
    ++summary.active_vps;
    const FastPingResult& vp_result = work.result;
    summary.probes_sent += vp_result.probes_sent;
    summary.echo_replies += vp_result.echo_replies;
    summary.errors += vp_result.errors;
    summary.timeouts += vp_result.timeouts;
    summary.injected_timeouts += vp_result.injected_timeouts;
    summary.retry_probes += vp_result.retry_probes;
    summary.retry_recovered += vp_result.retry_recovered;
    summary.vp_duration_hours.push_back(vp_result.duration_hours);
    const VpOutcome outcome = census_vp_outcome(vp_result, config);
    summary.vp_outcomes.push_back({vp.id, outcome});
    census_greylist.merge(work.greylist);
    if (outcome == VpOutcome::kQuarantined) continue;
    builder.add_fragment(static_cast<std::uint16_t>(vp.id),
                         std::move(work.fragment));
  }
  out.data = builder.build();
  summary.greylist_new = census_greylist.size();
  blacklist.merge(census_greylist);
  flush_census_summary_metrics(summary);
  return out;
}

}  // namespace anycast::census
