#include "anycast/census/storage.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "anycast/concurrency/thread_pool.hpp"
#include "anycast/obs/journal.hpp"
#include "anycast/obs/metrics.hpp"
#include "anycast/obs/trace.hpp"

namespace anycast::census {
namespace {

/// Checkpoint I/O instruments. All kTiming class: what gets written,
/// read, or salvaged depends on the run's history (which checkpoints
/// already exist), not on the pipeline's semantics.
struct StorageInstruments {
  obs::Counter writes = obs::metrics().counter(
      "checkpoint_writes", obs::MetricClass::kTiming,
      "census checkpoint files published (atomic tmp+rename)");
  obs::Counter write_bytes = obs::metrics().counter(
      "checkpoint_write_bytes", obs::MetricClass::kTiming,
      "bytes written to checkpoints, header and trailer included");
  obs::Counter reads_ok = obs::metrics().counter(
      "checkpoint_reads_ok", obs::MetricClass::kTiming,
      "checkpoints read intact (magic, CRC, and codec all good)");
  obs::Counter read_failures = obs::metrics().counter(
      "checkpoint_read_failures", obs::MetricClass::kTiming,
      "strict checkpoint reads that failed (missing or damaged)");
  obs::Counter salvages = obs::metrics().counter(
      "checkpoint_salvages", obs::MetricClass::kTiming,
      "damaged checkpoints recovered as a valid record prefix");
};

const StorageInstruments& storage_instruments() {
  static const StorageInstruments instruments;
  return instruments;
}

constexpr std::uint32_t kFileMagicV1 = 0x46434E41;  // "ANCF" (no trailer)
constexpr std::uint32_t kFileMagicV2 = 0x32434E41;  // "ANC2" (CRC trailer)
constexpr std::size_t kHeaderBytesV1 = 12;  // magic, vp, census
constexpr std::size_t kHeaderBytesV2 = 16;  // magic, vp, census, flags
constexpr std::size_t kTrailerBytes = 4;    // CRC32 of everything before

void append32(std::vector<std::uint8_t>& out, std::uint32_t value) {
  out.push_back(static_cast<std::uint8_t>(value));
  out.push_back(static_cast<std::uint8_t>(value >> 8));
  out.push_back(static_cast<std::uint8_t>(value >> 16));
  out.push_back(static_cast<std::uint8_t>(value >> 24));
}

std::uint32_t load32(const std::uint8_t* at) {
  return static_cast<std::uint32_t>(at[0]) |
         (static_cast<std::uint32_t>(at[1]) << 8) |
         (static_cast<std::uint32_t>(at[2]) << 16) |
         (static_cast<std::uint32_t>(at[3]) << 24);
}

/// RAII stdio handle: good enough for bulk binary I/O without iostream's
/// locale machinery on the hot path. A writer calls `close()` and checks
/// it: the destructor's close is for the error paths and ignores failure.
struct File {
  std::FILE* handle = nullptr;
  explicit File(const std::filesystem::path& path, const char* mode)
      : handle(std::fopen(path.string().c_str(), mode)) {}
  ~File() {
    if (handle != nullptr) std::fclose(handle);
  }
  /// Flushes and closes; false when either failed.
  bool close() {
    std::FILE* closing = handle;
    handle = nullptr;
    return std::fclose(closing) == 0;
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;
};

/// Slicing-by-8 tables: table[0] is the bytewise reflected 0xEDB88320
/// table; table[k][n] is the CRC of byte n followed by k zero bytes, so
/// eight table lookups advance the register by eight input bytes.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][n] = c;
  }
  for (std::uint32_t n = 0; n < 256; ++n) {
    for (std::size_t k = 1; k < tables.size(); ++k) {
      const std::uint32_t prev = tables[k - 1][n];
      tables[k][n] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

std::optional<std::vector<std::uint8_t>> slurp(
    const std::filesystem::path& path) {
  const File file(path, "rb");
  if (file.handle == nullptr) return std::nullopt;
  std::vector<std::uint8_t> buffer;
  // One read sized from the file length; the chunk loop is the fallback
  // when the length cannot be told (not a regular file).
  std::error_code ec;
  const std::uintmax_t length = std::filesystem::file_size(path, ec);
  if (!ec) {
    buffer.resize(static_cast<std::size_t>(length));
    if (length != 0) {
      buffer.resize(std::fread(buffer.data(), 1, buffer.size(), file.handle));
    }
    return buffer;
  }
  std::uint8_t chunk[64 * 1024];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof chunk, file.handle)) > 0) {
    buffer.insert(buffer.end(), chunk, chunk + got);
  }
  return buffer;
}

/// Parses the version-dependent header. Returns the payload offset, or 0
/// when the magic is unknown or the buffer too short for its header.
std::size_t parse_header(const std::vector<std::uint8_t>& buffer,
                         CensusFileHeader& header, bool& has_trailer) {
  if (buffer.size() >= kHeaderBytesV2 &&
      load32(buffer.data()) == kFileMagicV2) {
    header.vp_id = load32(buffer.data() + 4);
    header.census_id = load32(buffer.data() + 8);
    header.flags = load32(buffer.data() + 12);
    has_trailer = true;
    return kHeaderBytesV2;
  }
  if (buffer.size() >= kHeaderBytesV1 &&
      load32(buffer.data()) == kFileMagicV1) {
    header.vp_id = load32(buffer.data() + 4);
    header.census_id = load32(buffer.data() + 8);
    header.flags = kCensusFileComplete;  // v1 had no notion of partial files
    has_trailer = false;
    return kHeaderBytesV1;
  }
  return 0;
}

/// The strict read without accounting: magic, CRC and codec must all
/// check out.
std::optional<CensusFile> read_intact(const std::filesystem::path& path) {
  const auto buffer = slurp(path);
  if (!buffer.has_value()) return std::nullopt;
  CensusFile out;
  bool has_trailer = false;
  const std::size_t payload_at = parse_header(*buffer, out.header,
                                              has_trailer);
  if (payload_at == 0) return std::nullopt;
  std::size_t payload_end = buffer->size();
  if (has_trailer) {
    if (buffer->size() < payload_at + kTrailerBytes) return std::nullopt;
    payload_end -= kTrailerBytes;
    const std::uint32_t stored = load32(buffer->data() + payload_end);
    const std::uint32_t actual =
        crc32(std::span<const std::uint8_t>(buffer->data(), payload_end));
    if (stored != actual) return std::nullopt;
  }
  auto decoded = decode_binary(std::span<const std::uint8_t>(
      buffer->data() + payload_at, payload_end - payload_at));
  if (!decoded.has_value()) return std::nullopt;
  out.observations = std::move(*decoded);
  return out;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  static const CrcTables table = make_crc_tables();
  std::uint32_t c = 0xFFFFFFFFu;
  const std::uint8_t* at = bytes.data();
  std::size_t left = bytes.size();
  for (; left >= 8; at += 8, left -= 8) {
    const std::uint32_t lo = load32(at) ^ c;
    const std::uint32_t hi = load32(at + 4);
    c = table[7][lo & 0xFFu] ^ table[6][(lo >> 8) & 0xFFu] ^
        table[5][(lo >> 16) & 0xFFu] ^ table[4][lo >> 24] ^
        table[3][hi & 0xFFu] ^ table[2][(hi >> 8) & 0xFFu] ^
        table[1][(hi >> 16) & 0xFFu] ^ table[0][hi >> 24];
  }
  for (; left > 0; ++at, --left) {
    c = table[0][(c ^ *at) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::span<const std::uint8_t> EncodedCensusFile::payload() const {
  return std::span<const std::uint8_t>(bytes).subspan(
      kHeaderBytesV2, bytes.size() - kHeaderBytesV2 - kTrailerBytes);
}

EncodedCensusFile encode_census_file(
    const CensusFileHeader& header, std::span<const Observation> observations) {
  EncodedCensusFile file{header, {}};
  std::vector<std::uint8_t>& buffer = file.bytes;
  buffer.reserve(kHeaderBytesV2 +
                 observations.size() * binary_bytes_per_observation() + 8 +
                 kTrailerBytes);
  append32(buffer, kFileMagicV2);
  append32(buffer, header.vp_id);
  append32(buffer, header.census_id);
  append32(buffer, header.flags);
  append_binary(buffer, observations);
  append32(buffer, crc32(buffer));
  return file;
}

void write_census_file(const std::filesystem::path& path,
                       const EncodedCensusFile& file) {
  const std::vector<std::uint8_t>& buffer = file.bytes;
  // Atomic publication: a crash mid-write leaves at worst a stale .tmp,
  // never a half-written checkpoint under the real name.
  std::filesystem::path tmp = path;
  tmp += ".tmp";
  {
    File out(tmp, "wb");
    if (out.handle == nullptr) {
      throw std::runtime_error("cannot open census file for writing: " +
                               tmp.string());
    }
    // A failed write or close (which flushes) leaves no tmp behind.
    const auto fail = [&tmp](const char* what) {
      std::error_code ignored;
      std::filesystem::remove(tmp, ignored);
      throw std::runtime_error(what + tmp.string());
    };
    if (std::fwrite(buffer.data(), 1, buffer.size(), out.handle) !=
        buffer.size()) {
      out.close();
      fail("short write on census file: ");
    }
    if (!out.close()) fail("close failed on census file: ");
  }
  std::filesystem::rename(tmp, path);
  const CensusFileHeader& header = file.header;
  storage_instruments().writes.inc();
  storage_instruments().write_bytes.add(buffer.size());
  // kTiming: which checkpoints get (re)written depends on run history.
  obs::journal().emit(obs::MetricClass::kTiming, obs::Severity::kInfo,
                      "checkpoint.write", header.vp_id,
                      {{"vp", header.vp_id},
                       {"census", header.census_id},
                       {"bytes", buffer.size()},
                       {"complete", (header.flags & kCensusFileComplete) != 0}});
}

void write_census_file(const std::filesystem::path& path,
                       const CensusFileHeader& header,
                       std::span<const Observation> observations) {
  write_census_file(path, encode_census_file(header, observations));
}

std::optional<CensusFile> read_census_file(
    const std::filesystem::path& path) {
  // Every strict read counts exactly once, whether or not salvage follows.
  auto file = read_intact(path);
  if (file.has_value()) {
    storage_instruments().reads_ok.inc();
  } else {
    storage_instruments().read_failures.inc();
  }
  return file;
}

std::optional<CensusFile> salvage_census_file(
    const std::filesystem::path& path) {
  auto strict = read_census_file(path);
  if (strict.has_value()) return strict;

  const auto buffer = slurp(path);
  if (!buffer.has_value()) return std::nullopt;
  CensusFile out;
  bool has_trailer = false;
  const std::size_t payload_at = parse_header(*buffer, out.header,
                                              has_trailer);
  if (payload_at == 0) return std::nullopt;
  // Whatever follows the header is a genuine record-stream prefix: the
  // trailer only ever exists at the very end of an intact file, so a
  // truncated file lost it along with the tail. decode_binary_prefix caps
  // at the declared count, which also drops a dangling trailer when only
  // the payload was damaged.
  auto decoded = decode_binary_prefix(std::span<const std::uint8_t>(
      buffer->data() + payload_at, buffer->size() - payload_at));
  if (!decoded.has_value()) return std::nullopt;
  out.observations = std::move(*decoded);
  out.salvaged = true;
  // A salvaged checkpoint is by definition not a complete walk.
  out.header.flags &= ~kCensusFileComplete;
  storage_instruments().salvages.inc();
  obs::journal().emit(obs::MetricClass::kTiming, obs::Severity::kWarn,
                      "checkpoint.salvage", out.header.vp_id,
                      {{"vp", out.header.vp_id},
                       {"census", out.header.census_id},
                       {"records", out.observations.size()}});
  return out;
}

ShardedCensusMatrix collate_census_files_sharded(
    std::span<const std::filesystem::path> paths, std::size_t target_count,
    const DataPlaneConfig& plane, CollateStats* stats, bool salvage,
    concurrency::ThreadPool* pool) {
  // A root span, like the census and analysis ones: a top-level
  // collation is not counted as an orphan.
  const obs::Span collate_span(obs::Span::Root::kAdoptionPoint, "collate",
                               paths.size());
  // Map: one file becomes one VP row fragment (read, check, fragment);
  // the raw observations die with the task.
  struct Loaded {
    bool usable = false;
    bool salvaged = false;
    std::uint32_t vp_id = 0;
    std::size_t echo_in_range = 0;
    std::vector<TargetRtt> fragment;
  };
  const auto load = [&](const std::filesystem::path& path) {
    Loaded loaded;
    const auto file =
        salvage ? salvage_census_file(path) : read_census_file(path);
    if (!file.has_value() ||
        file->header.vp_id > std::numeric_limits<std::uint16_t>::max()) {
      return loaded;
    }
    loaded.usable = true;
    loaded.salvaged = file->salvaged;
    loaded.vp_id = file->header.vp_id;
    loaded.fragment =
        vp_row_fragment(std::span<const Observation>(file->observations),
                        target_count, &loaded.echo_in_range);
    return loaded;
  };
  // Reduce in path order on the calling thread: the stats and the
  // builder see files in exactly the serial order.
  ShardedCensusMatrixBuilder builder(target_count, plane);
  CollateStats local;
  const auto reduce = [&](Loaded&& loaded) {
    if (!loaded.usable) {
      ++local.files_skipped;
      return;
    }
    if (loaded.salvaged) {
      ++local.files_salvaged;
    } else {
      ++local.files_ok;
    }
    local.max_vp_id = std::max(local.max_vp_id, loaded.vp_id);
    local.observations += loaded.echo_in_range;
    builder.add_fragment(static_cast<std::uint16_t>(loaded.vp_id),
                         std::move(loaded.fragment));
  };

  // One window of one file per lane in flight at a time bounds the
  // resident decoded streams and fragments to one window's worth (one
  // file on the serial path).
  const std::size_t window = concurrency::fork_lanes(pool);
  for (std::size_t base = 0; base < paths.size(); base += window) {
    const std::size_t n = std::min(window, paths.size() - base);
    for (Loaded& loaded : concurrency::ordered_map(
             pool, n, [&](std::size_t i) { return load(paths[base + i]); })) {
      reduce(std::move(loaded));
    }
  }
  if (stats != nullptr) *stats = local;
  return builder.build();
}

}  // namespace anycast::census
