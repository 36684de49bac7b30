#include "anycast/census/sharded.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>

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
  if (&other == this || other.target_count_ == 0) return;
  if (target_count_ == 0) {
    *this = other;  // the copy lands fully resident (anonymous arenas)
    enforce_rss_budget();
    return;
  }
  if (shard_targets_ != other.shard_targets_) {
    throw std::invalid_argument(
        "ShardedCensusMatrix::combine_min: shard sizes differ");
  }
  // Grow to cover `other` (per-shard combine_min handles the ragged last
  // shard: CensusMatrix::combine_min takes the max local target count).
  while (shards_.size() < other.shards_.size()) {
    const std::size_t base = shards_.size() * shard_targets_;
    shards_.emplace_back(
        std::min(shard_targets_, other.target_count_ - base));
  }
  target_count_ = std::max(target_count_, other.target_count_);
  for (std::size_t s = 0; s < other.shards_.size(); ++s) {
    shards_[s].combine_min(other.shards_[s]);  // restores if spilled
  }
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
    if (!shard.values_spilled()) total += shard.value_bytes();
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
    const std::size_t bytes = shards_[s].value_bytes();
    if (spill_shard(s) != 0) resident -= bytes;
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
      result_(target_count, plane),
      has_frozen_(shard_count_, false) {
  stage_.reserve(shard_count_);
  stage_entry_bytes_.assign(shard_count_, 0);
  for (std::size_t s = 0; s < shard_count_; ++s) {
    const std::size_t base = s * shard_targets_;
    stage_.emplace_back(std::min(shard_targets_, target_count - base));
  }
  // Touch the instrument family so every data-plane metric is registered
  // the moment a sharded builder exists, not only once a flush happens.
  (void)data_plane_instruments();
}

void ShardedCensusMatrixBuilder::add(std::uint32_t target_index,
                                     std::uint16_t vp, float rtt_ms) {
  if (target_index >= target_count_) return;  // damaged record
  const std::size_t s = target_index / shard_targets_;
  stage_[s].add(static_cast<std::uint32_t>(target_index - s * shard_targets_),
                vp, rtt_ms);
  stage_entry_bytes_[s] += sizeof(TargetRtt);
  staged_bytes_ += sizeof(TargetRtt);
}

void ShardedCensusMatrixBuilder::add_fragment(std::uint16_t vp,
                                              std::vector<TargetRtt> fragment) {
  // Split by target range. Entries may arrive in any order (the builder
  // canonicalises), so route one by one; out-of-range entries (damaged
  // records) are dropped.
  std::vector<std::vector<TargetRtt>> split(shard_count_);
  for (const TargetRtt& entry : fragment) {
    if (entry.target_index >= target_count_) continue;
    const std::size_t s = entry.target_index / shard_targets_;
    split[s].push_back(TargetRtt{
        static_cast<std::uint32_t>(entry.target_index - s * shard_targets_),
        entry.rtt_ms});
  }
  fragment.clear();
  fragment.shrink_to_fit();
  for (std::size_t s = 0; s < shard_count_; ++s) {
    if (split[s].empty()) continue;
    const std::size_t bytes = split[s].size() * sizeof(TargetRtt);
    stage_[s].add_fragment(vp, std::move(split[s]));
    stage_entry_bytes_[s] += bytes;
    staged_bytes_ += bytes;
  }
  if (plane_.stage_budget_mb == 0) return;  // unlimited staging
  const std::size_t budget = plane_.stage_budget_mb * (std::size_t{1} << 20);
  while (staged_bytes_ > budget) flush_heaviest();
}

void ShardedCensusMatrixBuilder::flush_shard(std::size_t s) {
  if (stage_entry_bytes_[s] == 0) return;
  const std::size_t staged = stage_entry_bytes_[s];
  CensusMatrix frozen = stage_[s].build_uncounted();
  staged_bytes_ -= staged;
  stage_entry_bytes_[s] = 0;
  if (has_frozen_[s]) {
    // Associative fold: combining partial builds per (vp, target) minimum
    // gives the same rows as one build over all fragments, so the flush
    // schedule cannot change the final matrix.
    result_.shards_[s].combine_min(frozen);
  } else {
    result_.shards_[s] = std::move(frozen);
    has_frozen_[s] = true;
  }
  data_plane_instruments().flushes.inc();
  obs::journal().emit(obs::MetricClass::kTiming, obs::Severity::kInfo,
                      "shard.flush", s,
                      {{"shard", s},
                       {"staged_bytes", staged},
                       {"values", result_.shards_[s].observation_count()}});
  result_.enforce_rss_budget();
}

void ShardedCensusMatrixBuilder::flush_heaviest() {
  std::size_t heaviest = 0;
  for (std::size_t s = 1; s < shard_count_; ++s) {
    if (stage_entry_bytes_[s] > stage_entry_bytes_[heaviest]) heaviest = s;
  }
  if (stage_entry_bytes_[heaviest] == 0) return;
  flush_shard(heaviest);
}

ShardedCensusMatrix ShardedCensusMatrixBuilder::build() {
  for (std::size_t s = 0; s < shard_count_; ++s) flush_shard(s);
  detail::note_matrix_build(result_.observation_count());
  const std::size_t resident = result_.enforce_rss_budget();
  publish_residency_gauges(resident, result_.total_value_bytes() - resident);

  ShardedCensusMatrix out = std::move(result_);
  result_ = ShardedCensusMatrix(target_count_, plane_);
  has_frozen_.assign(shard_count_, false);
  stage_entry_bytes_.assign(shard_count_, 0);
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
  const std::size_t declared_bytes = count * sizeof(VpRtt);
  const bool intact =
      available >= declared_bytes &&
      crc32(std::span<const std::uint8_t>(buffer.data() + detail::kSpillHeaderBytes,
                                          declared_bytes)) == stored_crc;
  std::size_t records = count;
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
