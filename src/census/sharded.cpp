#include "anycast/census/sharded.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "anycast/census/storage.hpp"
#include "anycast/obs/durable.hpp"
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
      "staged shard batches written to a side-run file or frozen");
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

void note_flush(std::size_t s, std::size_t staged_bytes) {
  data_plane_instruments().flushes.inc();
  obs::journal().emit(obs::MetricClass::kTiming, obs::Severity::kInfo,
                      "shard.flush", s,
                      {{"shard", s}, {"staged_bytes", staged_bytes}});
}

// A side-run section's header (see read_side_runs); its CRC covers the
// header past the CRC, the run table and the entries.
constexpr std::uint32_t kSideRunMagic = 0x52434E41;  // "ANCR"
struct SideRunHeader {
  std::uint32_t magic = kSideRunMagic;
  std::uint32_t crc = 0;
  std::uint32_t shard = 0;
  std::uint32_t runs = 0;
  std::uint64_t entries = 0;
};
static_assert(sizeof(SideRunHeader) == 24 && sizeof(TargetRtt) == 8 &&
              sizeof(SideRunSection::Run) == 8);

/// A section's CRC over its parts: the header, then the rest.
std::uint32_t section_crc(std::span<const std::span<const std::byte>> parts) {
  std::uint32_t crc = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const std::span<const std::byte> part = parts[i].subspan(i == 0 ? 8 : 0);
    crc = crc32({reinterpret_cast<const std::uint8_t*>(part.data()),
                 part.size()},
                crc);
  }
  return crc;
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
  const bool budgeted = plane_.rss_budget_mb != 0 && !plane_.spill_dir.empty();
  const std::size_t budget = plane_.rss_budget_mb * (std::size_t{1} << 20);
  for (std::size_t s = 0; budgeted && s < shards_.size() && resident > budget;
       ++s) {
    if (shards_[s].values_spilled()) continue;
    const std::size_t before = shards_[s].resident_value_bytes();
    if (spill_shard(s) != 0) {
      resident = resident - before + shards_[s].resident_value_bytes();
    }
  }
  const DataPlaneInstruments& in = data_plane_instruments();
  in.resident_bytes.set(static_cast<double>(resident));
  in.spilled_bytes.set(static_cast<double>(total_value_bytes() - resident));
  return resident;
}

ShardedCensusMatrixBuilder::ShardedCensusMatrixBuilder(
    std::size_t target_count, const DataPlaneConfig& plane)
    : target_count_(target_count),
      shard_targets_(shard_size_for(target_count, plane)),
      shard_count_(shard_count_for(target_count, shard_targets_)),
      plane_(plane),
      sections_(shard_count_) {
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
  // Staging may take a quarter of the RSS budget; a flush lowers memory
  // only when there is a spill dir to write the side runs to.
  if (plane_.rss_budget_mb != 0 && !plane_.spill_dir.empty() &&
      staged_bytes_ > plane_.rss_budget_mb * (std::size_t{1} << 20) / 4) {
    flush_all();
  }
}

void ShardedCensusMatrixBuilder::flush_all() {
  // One file per flush (two fsyncs), a section per staged shard: header,
  // run table and runs, written straight from the views.
  std::deque<SideRunHeader> headers;  // stable: the parts view them
  std::deque<std::vector<SideRunSection::Run>> tables;
  std::vector<std::span<const std::byte>> parts;
  std::uint64_t offset = 0;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    if (stage_[s].staged_bytes() == 0) continue;
    note_flush(s, stage_[s].staged_bytes());
    const std::vector<detail::TargetRun> runs = stage_[s].take_runs();
    SideRunHeader& header = headers.emplace_back();
    std::vector<SideRunSection::Run>& table = tables.emplace_back();
    header.shard = static_cast<std::uint32_t>(s);
    for (const detail::TargetRun& run : runs) {
      table.push_back({run.vp, static_cast<std::uint32_t>(run.entries.size())});
      header.entries += run.entries.size();
    }
    header.runs = static_cast<std::uint32_t>(table.size());
    const std::size_t first = parts.size();
    parts.push_back(std::as_bytes(std::span(&header, 1)));
    parts.push_back(std::as_bytes(std::span(table)));
    for (const detail::TargetRun& run : runs) {
      parts.push_back(std::as_bytes(run.entries));
    }
    header.crc = section_crc(std::span(parts).subspan(first));
    sections_[s].emplace_back(side_runs_.size(), offset);
    offset += sizeof header + 8 * (header.runs + header.entries);
  }
  const std::string path = plane_.spill_dir + "/runs" +
                           std::to_string(side_runs_.size()) + ".ancr";
  std::error_code ec;
  std::filesystem::create_directories(plane_.spill_dir, ec);
  if (const std::error_code write = obs::write_file_atomic(path, parts)) {
    throw std::runtime_error("census side runs: cannot write " + path + ": " +
                             write.message());
  }
  side_runs_.push_back(path);
  for (CensusMatrixBuilder& stage : stage_) stage.owned_ = {};
  fragments_ = {};  // every view into them is on disk
  staged_bytes_ = 0;
}

void ShardedCensusMatrixBuilder::remove_side_runs() {
  std::error_code ignored;
  for (const std::string& path : side_runs_) {
    std::filesystem::remove(path, ignored);
  }
  side_runs_.clear();
  sections_.assign(shard_count_, {});
}

ShardedCensusMatrix ShardedCensusMatrixBuilder::build() {
  ShardedCensusMatrix out;
  out.target_count_ = target_count_;
  out.shard_targets_ = shard_targets_;
  out.plane_ = plane_;
  out.shards_.reserve(shard_count_);
  for (std::size_t s = 0; s < shard_count_; ++s) {
    // The shard's side runs join what it still stages; its one freeze
    // merges a VP's runs from every flush.
    CensusMatrixBuilder& stage = stage_[s];
    for (const auto& [file, offset] : sections_[s]) {
      SideRunSection section = read_side_runs(side_runs_[file], offset,
                                              shard_targets_, target_count_);
      if (section.shard != s) {
        throw std::runtime_error("side-run file " + side_runs_[file] +
                                 ": section of the wrong shard");
      }
      stage.owned_.push_back(std::move(section.entries));
      const TargetRtt* at = stage.owned_.back().data();
      for (const SideRunSection::Run& run : section.runs) {
        stage.add_view(static_cast<std::uint16_t>(run.vp), {at, run.size});
        at += run.size;
      }
    }
    if (stage.staged_bytes() != 0) note_flush(s, stage.staged_bytes());
    out.shards_.push_back(stage.freeze());
    out.enforce_rss_budget();
  }
  fragments_ = {};
  staged_bytes_ = 0;
  remove_side_runs();
  detail::note_matrix_build(out.observation_count());
  return out;
}

std::optional<SpillFileContents> read_spill_file(const std::string& path,
                                                 bool salvage) {
  std::ifstream in(path, std::ios::binary);  // a missing file reads empty
  const std::vector<std::uint8_t> buffer(std::istreambuf_iterator<char>(in),
                                         {});
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

SideRunSection read_side_runs(const std::string& path, std::uint64_t offset,
                              std::size_t shard_targets,
                              std::size_t target_count) {
  const auto fail = [&](const std::string& what) {
    throw std::runtime_error("side-run file " + path + " at byte " +
                             std::to_string(offset) + ": " + what);
  };
  std::error_code ec;
  const std::uint64_t bytes = std::filesystem::file_size(path, ec);
  std::ifstream in(path, std::ios::binary);
  in.seekg(static_cast<std::streamoff>(offset));
  SideRunHeader header;
  if (ec || !in.read(reinterpret_cast<char*>(&header), sizeof header) ||
      header.magic != kSideRunMagic) {
    fail("no section header");
  }
  const std::uint64_t left = (bytes - offset - sizeof header) / 8;
  if (header.entries > left || header.runs > left - header.entries) {
    fail("counts run past the end of the file");
  }
  SideRunSection section;
  section.shard = header.shard;
  section.runs.resize(header.runs);
  section.entries.resize(header.entries);
  const std::span<const SideRunSection::Run> runs = section.runs;
  const std::span<const TargetRtt> entries = section.entries;
  in.read(reinterpret_cast<char*>(section.runs.data()),
          static_cast<std::streamsize>(runs.size_bytes()));
  in.read(reinterpret_cast<char*>(section.entries.data()),
          static_cast<std::streamsize>(entries.size_bytes()));
  const std::span<const std::byte> parts[] = {
      std::as_bytes(std::span(&header, 1)), std::as_bytes(runs),
      std::as_bytes(entries)};
  if (!in || section_crc(parts) != header.crc) fail("CRC mismatch");
  const std::size_t first = std::size_t{header.shard} * shard_targets;
  const std::size_t end = std::min(first + shard_targets, target_count);
  std::uint64_t at = 0;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    if (runs[r].vp > 0xFFFF || (r > 0 && runs[r].vp <= runs[r - 1].vp) ||
        runs[r].size == 0 || runs[r].size > entries.size() - at) {
      fail("bad run table");
    }
    std::size_t floor = first;
    for (const TargetRtt& entry : entries.subspan(at, runs[r].size)) {
      if (entry.target_index < floor || entry.target_index >= end) {
        fail("target " + std::to_string(entry.target_index) +
             " out of order or outside shard " + std::to_string(header.shard));
      }
      floor = std::size_t{entry.target_index} + 1;
    }
    at += runs[r].size;
  }
  if (at != entries.size()) fail("run sizes do not add up");
  return section;
}

}  // namespace anycast::census
