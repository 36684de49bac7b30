#include "anycast/census/sharded.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "anycast/census/storage.hpp"
#include "anycast/obs/journal.hpp"
#include "anycast/obs/metrics.hpp"

namespace anycast::census {
namespace {

/// Data-plane instruments. All kTiming: shard counts, flush schedules,
/// and spill traffic are layout/budget details that legitimately vary
/// with --shard-targets and --rss-budget-mb while the semantic output
/// stays byte-identical. Constructing the struct registers every name,
/// so one sharded operation makes the whole family visible to the
/// timing-allowlist test.
struct DataPlaneInstruments {
  obs::Counter flushes = obs::metrics().counter(
      "census_shard_flushes", obs::MetricClass::kTiming,
      "staged shard freezes combined into their accumulator");
  obs::Counter spills = obs::metrics().counter(
      "census_shard_spills", obs::MetricClass::kTiming,
      "frozen shards spilled to disk under the RSS budget");
  obs::Counter restores = obs::metrics().counter(
      "census_shard_restores", obs::MetricClass::kTiming,
      "spilled shards restored to anonymous memory");
  obs::Counter spill_salvages = obs::metrics().counter(
      "census_spill_salvages", obs::MetricClass::kTiming,
      "damaged spill files recovered as a whole-record prefix");
  obs::Gauge resident_bytes = obs::metrics().gauge(
      "census_shard_resident_bytes", obs::MetricClass::kTiming,
      "value bytes in anonymous (non-droppable) shard arenas");
  obs::Gauge spilled_bytes = obs::metrics().gauge(
      "census_shard_spilled_bytes", obs::MetricClass::kTiming,
      "value bytes currently backed by spill files");
};

const DataPlaneInstruments& data_plane_instruments() {
  static const DataPlaneInstruments instruments;
  return instruments;
}

std::size_t shard_size_for(std::size_t target_count,
                           const DataPlaneConfig& plane) {
  const std::size_t requested =
      plane.shard_targets == 0 ? target_count : plane.shard_targets;
  return std::max<std::size_t>(1, std::min(requested, std::max<std::size_t>(
                                                          target_count, 1)));
}

std::size_t shard_count_for(std::size_t target_count,
                            std::size_t shard_targets) {
  return target_count == 0 ? 0
                           : (target_count + shard_targets - 1) / shard_targets;
}

void publish_residency_gauges(std::size_t resident, std::size_t spilled) {
  data_plane_instruments().resident_bytes.set(static_cast<double>(resident));
  data_plane_instruments().spilled_bytes.set(static_cast<double>(spilled));
}

}  // namespace

ShardedCensusMatrix::ShardedCensusMatrix(std::size_t target_count,
                                         const DataPlaneConfig& plane)
    : target_count_(target_count),
      shard_targets_(shard_size_for(target_count, plane)),
      plane_(plane) {
  const std::size_t shards = shard_count_for(target_count, shard_targets_);
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t base = s * shard_targets_;
    shards_.emplace_back(std::min(shard_targets_, target_count - base));
  }
}

ShardedCensusMatrix::ShardedCensusMatrix(ShardedCensusMatrix&& other) noexcept {
  *this = std::move(other);
}

ShardedCensusMatrix& ShardedCensusMatrix::operator=(
    ShardedCensusMatrix&& other) noexcept {
  if (this != &other) {
    target_count_ = std::exchange(other.target_count_, 0);
    shard_targets_ = std::exchange(other.shard_targets_, 1);
    plane_ = std::exchange(other.plane_, {});
    shards_ = std::exchange(other.shards_, {});
    stamp_ = std::exchange(other.stamp_, next_content_stamp());
    change_ = std::exchange(other.change_, {});
  }
  return *this;
}

std::uint64_t ShardedCensusMatrix::next_content_stamp() noexcept {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

void ShardedCensusMatrix::mark_mutated() {
  stamp_ = next_content_stamp();
  change_ = {};
}

std::size_t ShardedCensusMatrix::observation_count() const {
  std::size_t total = 0;
  for (const CensusMatrix& shard : shards_) total += shard.observation_count();
  return total;
}

std::size_t ShardedCensusMatrix::responsive_targets(
    std::size_t min_vps) const {
  std::size_t total = 0;
  for (const CensusMatrix& shard : shards_) {
    total += shard.responsive_targets(min_vps);
  }
  return total;
}

void ShardedCensusMatrix::combine_min(const ShardedCensusMatrix& other) {
  if (target_count_ != 0 && other.target_count_ != 0 &&
      shard_targets_ != other.shard_targets_) {
    throw std::invalid_argument(
        "ShardedCensusMatrix::combine_min: shard sizes differ");
  }
  ChangeRecord change{stamp_, {}};  // stays empty when nothing merges
  if (target_count_ == 0 && other.target_count_ != 0) {
    *this = other;  // shares other's storage, spilled shards included
    for (std::uint32_t t = 0; t < target_count_; ++t) {
      if (!measurements(t).empty()) change.rows.push_back(t);
    }
  } else if (&other != this) {
    // Grow to cover `other` (per-shard combine_min handles the ragged last
    // shard: CensusMatrix::combine_min takes the max local target count).
    while (shards_.size() < other.shards_.size()) {
      const std::size_t base = shards_.size() * shard_targets_;
      shards_.emplace_back(
          std::min(shard_targets_, other.target_count_ - base));
    }
    target_count_ = std::max(target_count_, other.target_count_);
    // Shards in index order, local changes lifted to global indices: the
    // record comes out ascending.
    std::vector<std::uint32_t> local;
    for (std::size_t s = 0; s < other.shards_.size(); ++s) {
      // Changed rows go to the shard's overlay: a spilled base stays so.
      shards_[s].combine_min(other.shards_[s], &local);
      const auto base = static_cast<std::uint32_t>(shard_base(s));
      for (const std::uint32_t t : local) change.rows.push_back(base + t);
    }
  }
  stamp_ = next_content_stamp();
  change_ = std::move(change);
  enforce_rss_budget();
}

std::string ShardedCensusMatrix::spill_path(std::size_t s) const {
  if (plane_.spill_dir.empty()) return {};
  return plane_.spill_dir + "/shard" + std::to_string(s) + ".ancs";
}

std::size_t ShardedCensusMatrix::spill_shard(std::size_t s) {
  CensusMatrix& shard = shards_[s];
  if (shard.values_spilled()) return shard.drop_resident_values();
  const std::string path = spill_path(s);
  if (path.empty() || shard.value_bytes() == 0) return 0;
  std::error_code ec;
  std::filesystem::create_directories(plane_.spill_dir, ec);
  if (!shard.spill_values(path)) return 0;
  const std::size_t dropped = shard.drop_resident_values();
  data_plane_instruments().spills.inc();
  obs::journal().emit(obs::MetricClass::kTiming, obs::Severity::kInfo,
                      "shard.spill", s,
                      {{"shard", s}, {"bytes", shard.value_bytes()}});
  return dropped;
}

void ShardedCensusMatrix::restore_shard(std::size_t s) {
  CensusMatrix& shard = shards_[s];
  if (!shard.values_spilled()) return;
  shard.restore_values();
  data_plane_instruments().restores.inc();
  obs::journal().emit(obs::MetricClass::kTiming, obs::Severity::kInfo,
                      "shard.restore", s,
                      {{"shard", s}, {"bytes", shard.value_bytes()}});
}

std::size_t ShardedCensusMatrix::resident_value_bytes() const {
  std::size_t total = 0;
  for (const CensusMatrix& shard : shards_) {
    total += shard.resident_value_bytes();
  }
  return total;
}

std::size_t ShardedCensusMatrix::total_value_bytes() const {
  std::size_t total = 0;
  for (const CensusMatrix& shard : shards_) total += shard.value_bytes();
  return total;
}

std::size_t ShardedCensusMatrix::enforce_rss_budget() {
  std::size_t resident = resident_value_bytes();
  if (plane_.rss_budget_mb == 0 || plane_.spill_dir.empty()) return resident;
  const std::size_t budget = plane_.rss_budget_mb * (std::size_t{1} << 20);
  for (std::size_t s = 0; s < shards_.size() && resident > budget; ++s) {
    if (shards_[s].values_spilled()) continue;
    const std::size_t before = shards_[s].resident_value_bytes();
    if (spill_shard(s) != 0) {
      resident = resident - before + shards_[s].resident_value_bytes();
    }
  }
  publish_residency_gauges(resident, total_value_bytes() - resident);
  return resident;
}

ShardedCensusMatrixBuilder::ShardedCensusMatrixBuilder(
    std::size_t target_count, const DataPlaneConfig& plane)
    : target_count_(target_count),
      shard_targets_(shard_size_for(target_count, plane)),
      shard_count_(shard_count_for(target_count, shard_targets_)),
      plane_(plane),
      result_(target_count, plane) {
  stage_.reserve(shard_count_);
  for (std::size_t s = 0; s < shard_count_; ++s) {
    const std::size_t base = s * shard_targets_;
    stage_.push_back(CensusMatrixBuilder(
        std::min(shard_targets_, target_count - base),
        static_cast<std::uint32_t>(base)));
  }
  // Touch the instrument family so every data-plane metric is registered
  // the moment a sharded builder exists, not only once a flush happens.
  (void)data_plane_instruments();
}

void ShardedCensusMatrixBuilder::add(std::uint32_t target_index,
                                     std::uint16_t vp, float rtt_ms) {
  if (target_index >= target_count_) return;  // damaged record
  stage_[target_index / shard_targets_].add(target_index, vp, rtt_ms);
  staged_bytes_ += CensusMatrixBuilder::kLooseEntryBytes;
  enforce_stage_budget();
}

void ShardedCensusMatrixBuilder::add_fragment(std::uint16_t vp,
                                              std::vector<TargetRtt> fragment) {
  detail::canonicalise_run(fragment, target_count_);
  if (fragment.empty()) return;
  staged_bytes_ += fragment.size() * sizeof(TargetRtt);
  fragments_.push_back(std::move(fragment));
  // Each shard stages a view of its slice of the target-sorted fragment.
  const std::span<const TargetRtt> whole = fragments_.back();
  const std::size_t last = whole.back().target_index / shard_targets_;
  auto begin = whole.begin();
  for (std::size_t s = begin->target_index / shard_targets_; s <= last; ++s) {
    const auto end =
        s == last ? whole.end()
                  : std::lower_bound(
                        begin, whole.end(), (s + 1) * shard_targets_,
                        [](const TargetRtt& entry, std::size_t bound) {
                          return entry.target_index < bound;
                        });
    stage_[s].add_view(vp, {begin, end});
    begin = end;
  }
  enforce_stage_budget();
}

void ShardedCensusMatrixBuilder::enforce_stage_budget() {
  // A flush lowers memory only when the frozen shards can then spill.
  if (plane_.stage_budget_mb == 0 || plane_.rss_budget_mb == 0 ||
      plane_.spill_dir.empty()) {
    return;
  }
  if (staged_bytes_ > plane_.stage_budget_mb * (std::size_t{1} << 20)) {
    flush_all();
  }
}

void ShardedCensusMatrixBuilder::flush_all() {
  for (std::size_t s = 0; s < shard_count_; ++s) flush_shard(s);
  fragments_ = {};  // every view into them is frozen
}

void ShardedCensusMatrixBuilder::flush_shard(std::size_t s) {
  const std::size_t staged = stage_[s].staged_bytes();
  if (staged == 0) return;
  // The first flush transposes into an empty accumulator; later ones fold
  // in place, keeping per-(vp, target) minima — associative, so the flush
  // schedule cannot change the final matrix.
  stage_[s].freeze_into(result_.shards_[s]);
  staged_bytes_ -= staged;
  data_plane_instruments().flushes.inc();
  obs::journal().emit(obs::MetricClass::kTiming, obs::Severity::kInfo,
                      "shard.flush", s,
                      {{"shard", s},
                       {"staged_bytes", staged},
                       {"values", result_.shards_[s].observation_count()}});
  result_.enforce_rss_budget();
}

ShardedCensusMatrix ShardedCensusMatrixBuilder::build() {
  flush_all();
  detail::note_matrix_build(result_.observation_count());
  const std::size_t resident = result_.enforce_rss_budget();
  publish_residency_gauges(resident, result_.total_value_bytes() - resident);

  ShardedCensusMatrix out = std::move(result_);
  out.mark_mutated();  // the flushes wrote the shards directly
  result_ = ShardedCensusMatrix(target_count_, plane_);
  staged_bytes_ = 0;
  return out;
}

std::optional<SpillFileContents> read_spill_file(const std::string& path,
                                                 bool salvage) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::vector<std::uint8_t> buffer;
  std::uint8_t chunk[64 * 1024];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof chunk, f)) > 0) {
    buffer.insert(buffer.end(), chunk, chunk + got);
  }
  std::fclose(f);
  if (buffer.size() < detail::kSpillHeaderBytes) return std::nullopt;
  std::uint32_t magic = 0;
  std::uint32_t stored_crc = 0;
  std::uint64_t count = 0;
  std::memcpy(&magic, buffer.data(), 4);
  std::memcpy(&stored_crc, buffer.data() + 4, 4);
  std::memcpy(&count, buffer.data() + 8, 8);
  if (magic != detail::kSpillMagic) return std::nullopt;

  const std::size_t available = buffer.size() - detail::kSpillHeaderBytes;
  // Check the count before multiplying: a huge declared count would wrap
  // `count * sizeof(VpRtt)` and pass an empty payload's CRC.
  const bool intact =
      count <= available / sizeof(VpRtt) &&
      crc32(std::span<const std::uint8_t>(
          buffer.data() + detail::kSpillHeaderBytes,
          static_cast<std::size_t>(count) * sizeof(VpRtt))) == stored_crc;
  std::size_t records = static_cast<std::size_t>(count);
  if (!intact) {
    if (!salvage) return std::nullopt;
    // Whole-record prefix, capped at the declared count: a truncated
    // file lost its tail, a bit-flipped one keeps its length.
    records = std::min<std::size_t>(count, available / sizeof(VpRtt));
  }
  SpillFileContents out;
  out.salvaged = !intact;
  out.values.resize(records);
  if (records != 0) {  // an empty vector's data() may be null
    std::memcpy(out.values.data(), buffer.data() + detail::kSpillHeaderBytes,
                records * sizeof(VpRtt));
  }
  if (out.salvaged) {
    data_plane_instruments().spill_salvages.inc();
    obs::journal().emit(obs::MetricClass::kTiming, obs::Severity::kWarn,
                        "spill.salvage", 0,
                        {{"path", path}, {"records", records}});
  }
  return out;
}

}  // namespace anycast::census
