// On-disk census storage and collation.
//
// Each VP uploads one binary file per census to the central repository
// (Fig. 1). Because of the LFSR probing order, "the order of the target
// IPs in all files is not the same, meaning that an on-the-fly sorting of
// about 300 lists containing millions of targets is needed" (Sec. 3.5) —
// `collate_census_files_sharded` performs exactly that step, producing the
// per-target RTT rows the analyzer consumes.
//
// Files double as checkpoints for crash recovery (see resume.hpp): they
// are written atomically (tmp + rename), carry a CRC32 trailer (format
// v2), and a truncated upload can be salvaged down to its valid record
// prefix instead of being discarded — a killed census keeps everything
// already paid for.
#pragma once

#include <filesystem>
#include <optional>
#include <span>
#include <vector>

#include "anycast/census/census.hpp"
#include "anycast/census/record.hpp"
#include "anycast/census/sharded.hpp"

namespace anycast::census {

/// Header flag: the VP finished its walk before this file was written.
/// Absent on the checkpoint of a crashed or cut-off VP, which tells
/// `resume_census_sharded` to re-run it.
inline constexpr std::uint32_t kCensusFileComplete = 1u;

/// Identity of one VP's census upload.
struct CensusFileHeader {
  std::uint32_t vp_id = 0;
  std::uint32_t census_id = 0;
  std::uint32_t flags = 0;  // kCensusFileComplete when the walk finished

  [[nodiscard]] bool complete() const {
    return (flags & kCensusFileComplete) != 0;
  }
};

/// Writes one VP's observation stream as a binary census file (format v2:
/// header, payload, CRC32 trailer). The write is atomic — the bytes land
/// in `path + ".tmp"` and are renamed over `path` — so a reader never
/// sees a half-written checkpoint, and a crash leaves at worst a stale
/// tmp file. Throws std::runtime_error on I/O failure.
void write_census_file(const std::filesystem::path& path,
                       const CensusFileHeader& header,
                       std::span<const Observation> observations);

/// Reads a census file back. Returns nullopt on a missing, truncated, or
/// corrupted file (the analysis must survive partial uploads). Both v2
/// (CRC-trailed) and legacy v1 (no trailer) files are accepted; a v2 file
/// whose CRC does not match its contents is rejected.
struct CensusFile {
  CensusFileHeader header;
  std::vector<Observation> observations;
  bool salvaged = false;  // set by salvage_census_file on partial recovery
};
std::optional<CensusFile> read_census_file(
    const std::filesystem::path& path);

/// Salvage reader: when the strict read fails because the file is
/// truncated or fails its CRC, recovers the valid record prefix instead
/// (marking the result `salvaged`, and never `complete`). Returns nullopt
/// only when not even the headers survive.
std::optional<CensusFile> salvage_census_file(
    const std::filesystem::path& path);

/// What collation did with each input file.
struct CollateStats {
  std::size_t files_ok = 0;        // read back intact
  std::size_t files_salvaged = 0;  // damaged; valid prefix used
  std::size_t files_skipped = 0;   // unreadable beyond salvage, or VP id
                                   // beyond the 16-bit row format
  std::uint64_t observations = 0;  // echo-reply rows recorded
  std::uint32_t max_vp_id = 0;     // highest header vp_id collated
};

/// Collates per-VP census files into the per-target sharded CSR matrix:
/// the on-the-fly sort across LFSR-ordered lists. Each file reduces to
/// its VP's row fragment and streams through a ShardedCensusMatrixBuilder
/// — one file in memory at a time, staged shards flushed under the
/// plane's budgets — so a paper-scale repository collates in bounded RSS;
/// the result is element-identical for any shard size. `target_count`
/// sizes the result (hitlist size). When `salvage` is true, damaged files
/// contribute their valid record prefix; otherwise they are skipped
/// whole. A file whose header vp_id does not fit a row's 16-bit VP field
/// is skipped rather than aliased onto another VP; callers that index a
/// platform by VP id check `max_vp_id` against its size.
ShardedCensusMatrix collate_census_files_sharded(
    std::span<const std::filesystem::path> paths, std::size_t target_count,
    const DataPlaneConfig& plane, CollateStats* stats, bool salvage = true);

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over `bytes` — the census
/// file trailer checksum, exposed for tests and external tooling.
std::uint32_t crc32(std::span<const std::uint8_t> bytes);

}  // namespace anycast::census
