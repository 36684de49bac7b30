// On-disk census storage and collation.
//
// Each VP uploads one binary file per census to the central repository
// (Fig. 1). Because of the LFSR probing order, "the order of the target
// IPs in all files is not the same, meaning that an on-the-fly sorting of
// about 300 lists containing millions of targets is needed" (Sec. 3.5) —
// `collate_census_files_sharded` performs exactly that step, producing the
// per-target RTT rows the analyzer consumes. Each list is put in target
// order by a linear-time radix pass rather than a comparison sort, and
// with a thread pool the lists are read and sorted a window of files at a
// time on every lane, then merged in path order on the calling thread, so
// the matrix never depends on the lane count and memory stays bounded by
// one window of files.
//
// Files double as checkpoints for crash recovery (see resume.hpp): they
// are written atomically (tmp + rename), carry a CRC32 trailer (format
// v2), and a truncated upload can be salvaged down to its valid record
// prefix instead of being discarded — a killed census keeps everything
// already paid for.
#pragma once

#include <filesystem>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
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

/// One VP's observation stream as census file bytes (format v2: header,
/// payload, CRC32 trailer). The payload is encoded straight into the file
/// buffer, once.
struct EncodedCensusFile {
  CensusFileHeader header;
  std::vector<std::uint8_t> bytes;

  /// The binary observation payload inside `bytes`: what `decode_binary`
  /// reads back.
  [[nodiscard]] std::span<const std::uint8_t> payload() const;
};
EncodedCensusFile encode_census_file(
    const CensusFileHeader& header, std::span<const Observation> observations);

/// Writes an encoded census file through obs::write_file_atomic (tmp,
/// fsync, rename, directory fsync), so a reader never sees a half-written
/// checkpoint and a crash leaves at worst a stale tmp file. Throws
/// std::runtime_error naming the cause on I/O failure, after removing the
/// tmp file.
void write_census_file(const std::filesystem::path& path,
                       const EncodedCensusFile& file);

/// Encodes and writes one VP's observation stream.
void write_census_file(const std::filesystem::path& path,
                       const CensusFileHeader& header,
                       std::span<const Observation> observations);

/// Reads a census file back. Returns nullopt on a missing, truncated, or
/// corrupted file (the analysis must survive partial uploads): the magic,
/// the CRC trailer and the payload codec must all check out. Every call
/// counts once into `checkpoint_reads_ok` or `checkpoint_read_failures`.
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

/// The header alone, read without the payload or its CRC: nullopt when
/// the file is missing, shorter than a header, or not a census file.
/// Lets a reader check that a file holds the VP and census its name says.
std::optional<CensusFileHeader> read_census_file_header(
    const std::filesystem::path& path);

/// What collation did with each input file.
struct CollateStats {
  std::size_t files_ok = 0;        // read back intact
  std::size_t files_salvaged = 0;  // damaged; valid prefix used
  std::size_t files_skipped = 0;   // unreadable beyond salvage, or VP id
                                   // beyond the 16-bit row format
  std::uint64_t observations = 0;  // echo-reply rows recorded
};

/// Collates per-VP census files into the per-target sharded CSR matrix:
/// the on-the-fly sort across LFSR-ordered lists. Each file reduces to
/// its VP's row fragment (a linear-time radix pass, vp_row_fragment) and
/// the fragments stream through a ShardedCensusMatrixBuilder in path
/// order, staged shards flushed under the plane's budgets; the result is
/// element-identical for any shard size.
///
/// With no `pool`, or a one-lane pool, files are read, checked and
/// fragmented one at a time on the calling thread. With more lanes, a
/// window of one file per lane is read, checked and fragmented
/// concurrently, then its fragments and accounting are handed
/// to the builder in path order on the calling thread before the next
/// window starts — so the matrix and `stats` are identical for every
/// lane count, and resident input is bounded by one window of files
/// (one file on the serial path), not the repository.
///
/// `target_count` sizes the result (hitlist size). When `salvage` is
/// true, damaged files contribute their valid record prefix; otherwise
/// they are skipped whole. A file whose header vp_id does not fit a
/// row's 16-bit VP field is skipped rather than aliased onto another VP.
/// Each call records one `collate` trace span.
ShardedCensusMatrix collate_census_files_sharded(
    std::span<const std::filesystem::path> paths, std::size_t target_count,
    const DataPlaneConfig& plane, CollateStats* stats, bool salvage = true,
    concurrency::ThreadPool* pool = nullptr);

/// What a census directory records about the census it holds, once, as
/// `<dir>/census.manifest`: key -> value, where the keys are the flags
/// that fixed what was probed plus the hitlist's size and CRC.
using CensusManifest = std::map<std::string, std::string>;

/// Text form: a version line, one `key=value` line per entry in key
/// order, then `crc=` and the CRC-32 of every byte before it.
std::string encode_census_manifest(const CensusManifest& manifest);

/// The strict inverse of encode_census_manifest: nullopt, with `*error`
/// set, for another version, a truncation, a CRC mismatch, or a line that
/// is not `key=value` or repeats a key.
std::optional<CensusManifest> decode_census_manifest(std::string_view text,
                                                     std::string* error);

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over `bytes` — the census
/// file trailer and spill-file checksum, exposed for tests and external
/// tooling. Computed eight bytes per step (slicing-by-8). Passing the CRC
/// of earlier bytes as `crc` continues it over `bytes`.
std::uint32_t crc32(std::span<const std::uint8_t> bytes, std::uint32_t crc = 0);

}  // namespace anycast::census
