#pragma once

/// The one durable-write primitive. Every file published whole (census
/// checkpoints, spill files, watch state, telemetry documents, traces)
/// goes through `write_file_atomic`, so a crash leaves the old file or
/// the complete new one under the real name, never a torn one.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <initializer_list>
#include <span>
#include <string_view>
#include <system_error>

namespace anycast::obs {

/// Writes `parts` back to back into `path + ".tmp"`, then fflush + fsync,
/// checks fclose, renames over `path` and fsyncs the parent directory, so
/// the rename itself survives a crash. On failure the tmp is removed and
/// the errno comes back; an empty error_code means `path` holds the parts.
/// An existing `path` that is not a regular file (a device, a FIFO, a
/// directory) is refused with EINVAL before anything is written: the
/// rename would replace the special file itself.
/// Counts kTiming `durable_writes` per file and `durable_fsyncs` per fsync.
std::error_code write_file_atomic(
    const std::filesystem::path& path,
    std::span<const std::span<const std::byte>> parts);
inline std::error_code write_file_atomic(
    const std::filesystem::path& path,
    std::initializer_list<std::span<const std::byte>> parts) {
  return write_file_atomic(path, std::span(parts.begin(), parts.size()));
}
inline std::error_code write_file_atomic(const std::filesystem::path& path,
                                         std::string_view body) {
  return write_file_atomic(path, {std::as_bytes(std::span(body))});
}

/// fsyncs directory `dir` ("." when empty) so the names in it are durable.
/// A filesystem that cannot sync directories (EINVAL) is not an error.
std::error_code sync_directory(const std::filesystem::path& dir);

/// Commit barrier of an append-only file (the journal): fflush, then
/// fsync, so every byte written to `file` so far is durable. A file that
/// cannot be synced (EINVAL: a pipe, a character device) is not an error;
/// a failed flush (ENOSPC, EIO) is. Counts `durable_fsyncs`.
std::error_code sync_file(std::FILE* file);

namespace testing {

/// Thrown by the write an armed crash point kills. Not a std::exception,
/// so no handler of real I/O errors catches it.
struct CrashPoint {
  std::filesystem::path path;
};

/// Test seam: the `k`-th `write_file_atomic` from now (1-based, any
/// thread) leaves the first half of its bytes in `path + ".tmp"`, as a
/// process dying mid-write would, and throws CrashPoint; the seam then
/// disarms. `k == 0` disarms it. Tests only.
void crash_at_durable_write(std::uint64_t k);

}  // namespace testing
}  // namespace anycast::obs
