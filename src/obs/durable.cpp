#include "anycast/obs/durable.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <limits>

#include "anycast/obs/metrics.hpp"

namespace anycast::obs {
namespace {

/// kTiming: how many files a run publishes depends on its history.
struct DurableInstruments {
  Counter writes = metrics().counter("durable_writes", MetricClass::kTiming,
                                     "files published by write_file_atomic");
  Counter fsyncs = metrics().counter("durable_fsyncs", MetricClass::kTiming,
                                     "fsyncs of published files and dirs");
};

const DurableInstruments& instruments() {
  static const DurableInstruments in;
  return in;
}

std::atomic<std::uint64_t> g_crash_countdown{0};  // 0: disarmed

std::error_code last_error() {
  return {errno != 0 ? errno : EIO, std::generic_category()};
}

}  // namespace

std::error_code sync_directory(const std::filesystem::path& dir) {
  const int fd = ::open(dir.empty() ? "." : dir.c_str(),
                        O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return last_error();
  std::error_code ec;
  if (::fsync(fd) == 0) {
    instruments().fsyncs.inc();
  } else if (errno != EINVAL) {
    ec = last_error();
  }
  ::close(fd);
  return ec;
}

std::error_code sync_file(std::FILE* file) {
  if (std::fflush(file) != 0) return last_error();
  if (::fsync(::fileno(file)) == 0) {
    instruments().fsyncs.inc();
  } else if (errno != EINVAL) {
    return last_error();
  }
  return {};
}

std::error_code write_file_atomic(
    const std::filesystem::path& path,
    std::span<const std::span<const std::byte>> parts) {
  std::error_code status_ec;  // a missing path is the usual case
  const std::filesystem::file_status existing =
      std::filesystem::status(path, status_ec);
  if (std::filesystem::exists(existing) &&
      !std::filesystem::is_regular_file(existing)) {
    return std::make_error_code(std::errc::invalid_argument);
  }
  // The armed seam counts down to the one write it kills.
  std::uint64_t left = g_crash_countdown.load(std::memory_order_relaxed);
  while (left != 0 && !g_crash_countdown.compare_exchange_weak(
                          left, left - 1, std::memory_order_relaxed)) {
  }
  const bool crash = left == 1;
  std::size_t keep = std::numeric_limits<std::size_t>::max();
  if (crash) {
    keep = 0;
    for (const auto part : parts) keep += part.size();
    keep /= 2;
  }

  std::filesystem::path tmp = path;
  tmp += ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) return last_error();
  bool ok = true;
  for (const auto part : parts) {
    const std::size_t n = std::min(part.size(), keep);
    keep -= n;
    ok = ok && (n == 0 || std::fwrite(part.data(), 1, n, file) == n);
  }
  if (crash) {
    std::fclose(file);  // what a dying process leaves: half, unsynced
    throw testing::CrashPoint{path};
  }
  ok = ok && std::fflush(file) == 0 && ::fsync(::fileno(file)) == 0;
  std::error_code ec = ok ? std::error_code{} : last_error();
  if (ok) instruments().fsyncs.inc();
  if (std::fclose(file) != 0 && !ec) ec = last_error();
  if (!ec) std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    return ec;
  }
  ec = sync_directory(path.parent_path());
  if (!ec) instruments().writes.inc();
  return ec;
}

void testing::crash_at_durable_write(std::uint64_t k) {
  g_crash_countdown.store(k, std::memory_order_relaxed);
}

}  // namespace anycast::obs
