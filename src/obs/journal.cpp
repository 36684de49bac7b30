#include "anycast/obs/journal.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "anycast/obs/durable.hpp"
#include "anycast/obs/trace.hpp"

namespace anycast::obs {
namespace {

/// Frame header preceding each serialised event in a thread arena.
struct FrameHeader {
  std::uint32_t payload_bytes = 0;
  std::uint8_t cls = 0;  // MetricClass
  std::uint64_t order = 0;
};
constexpr std::size_t kFrameHeaderBytes = 4 + 1 + 8;

/// One thread's event arena. The owner thread appends frames and
/// publishes with a release store on `committed`; the drain side (under
/// the journal mutex) copies [drained_pos, committed) and acknowledges
/// through `drained_ack`. When everything written has been drained the
/// owner rewinds to offset 0 and bumps `gen`, so a long-lived thread
/// reuses its arena instead of exhausting it — the only coordination is
/// three atomics, no lock on the owner's path.
///
/// The ack packs (generation, offset) into one word: an offset alone is
/// ambiguous, because an ack for offset X of generation G would be
/// indistinguishable from one for the same offset after a rewind — and
/// equal offsets are the common case when a thread emits same-sized
/// events (every census.walk line is within a byte or two of its
/// neighbours). A stale-generation ack must never authorise a rewind:
/// that is exactly the race that silently loses the undrained frame.
struct ThreadLog {
  explicit ThreadLog(std::size_t capacity_bytes)
      : capacity(capacity_bytes), data(new char[capacity_bytes]) {}

  static std::uint64_t pack_ack(std::uint32_t gen, std::size_t offset) {
    return (static_cast<std::uint64_t>(gen) << 32) |
           static_cast<std::uint64_t>(offset & 0xFFFFFFFFu);
  }

  const std::size_t capacity;  // capped at 4 GiB: the ack packs 32 bits
  std::unique_ptr<char[]> data;
  std::size_t reserved = 0;                    // owner-only append cursor
  std::atomic<std::size_t> committed{0};       // owner publishes
  std::atomic<std::uint64_t> drained_ack{0};   // (gen, offset) acknowledged
  std::atomic<std::uint32_t> gen{0};           // owner bumps on rewind
  // Drain-side bookkeeping, guarded by the journal mutex.
  std::size_t drained_pos = 0;
  std::uint32_t drained_gen = 0;
};

void validate_key(std::string_view key) {
  if (key.empty()) throw std::logic_error("event key must not be empty");
  for (const char c : key) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '.';
    if (!ok) {
      throw std::logic_error("event key must be [a-z0-9_.]: " +
                             std::string(key));
    }
  }
}

/// Bounded in-place JSON writer: appends never overflow, and `fits`
/// lets emit() stop adding fields while the line is still well-formed.
struct LineWriter {
  char* buffer;
  std::size_t capacity;
  std::size_t size = 0;

  [[nodiscard]] bool fits(std::size_t more) const {
    return size + more <= capacity;
  }
  void raw(std::string_view text) {
    const std::size_t n = std::min(text.size(), capacity - size);
    std::memcpy(buffer + size, text.data(), n);
    size += n;
  }
  /// Writes the JSON escape of `c` to `out`, as append_json_escaped
  /// does: \n, \r and \t, \u00XX for the other control characters.
  /// Returns its length.
  static std::size_t escape(char c, char (&out)[8]) {
    out[0] = '\\';
    switch (c) {
      case '"':
      case '\\': out[1] = c; return 2;
      case '\n': out[1] = 'n'; return 2;
      case '\r': out[1] = 'r'; return 2;
      case '\t': out[1] = 't'; return 2;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) {
          out[0] = c;
          return 1;
        }
        return static_cast<std::size_t>(std::snprintf(
            out, sizeof out, "\\u%04x",
            static_cast<unsigned>(static_cast<unsigned char>(c))));
    }
  }
  /// Appends `text` JSON-escaped. An escape that does not fit is dropped
  /// whole, never half-written.
  void escaped(std::string_view text) {
    for (const char c : text) {
      char out[8];
      const std::size_t n = escape(c, out);
      if (!fits(n)) return;
      std::memcpy(buffer + size, out, n);
      size += n;
    }
  }
  /// Bytes `escaped(text)` appends when nothing is dropped.
  static std::size_t escaped_size(std::string_view text) {
    std::size_t n = 0;
    char out[8];
    for (const char c : text) n += escape(c, out);
    return n;
  }
  void number(const char* format, double value) {
    char tmp[64];
    const int n = std::snprintf(tmp, sizeof tmp, format, value);
    if (n > 0) raw(std::string_view(tmp, static_cast<std::size_t>(n)));
  }
  void u64(std::uint64_t value) {
    char tmp[24];
    const int n = std::snprintf(tmp, sizeof tmp, "%llu",
                                static_cast<unsigned long long>(value));
    if (n > 0) raw(std::string_view(tmp, static_cast<std::size_t>(n)));
  }
  void i64(std::int64_t value) {
    char tmp[24];
    const int n = std::snprintf(tmp, sizeof tmp, "%lld",
                                static_cast<long long>(value));
    if (n > 0) raw(std::string_view(tmp, static_cast<std::size_t>(n)));
  }
};

/// Worst-case bytes a field can take before we stop appending and close
/// the line with a truncation marker instead.
constexpr std::size_t kTruncateReserve = 24;  // ,"truncated":true}\n

struct Bucket {
  double tokens = 0.0;
  std::int64_t last_ns = 0;
};

}  // namespace

std::string_view to_string(Severity severity) {
  switch (severity) {
    case Severity::kDebug: return "debug";
    case Severity::kInfo: return "info";
    case Severity::kWarn: return "warn";
    case Severity::kError: return "error";
  }
  return "unknown";
}

struct Journal::Impl {
  std::uint64_t id = 0;  // process-unique, keys thread-local arena lookup
  std::atomic<std::uint64_t> generation{1};  // bumped by reset()
  std::atomic<bool> recording{false};
  std::atomic<std::uint8_t> min_severity{
      static_cast<std::uint8_t>(Severity::kDebug)};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> rate_limited{0};
  std::atomic<std::uint64_t> order_seq{Journal::kReductionOrderBase};
  std::atomic<std::size_t> arena_capacity{1 << 20};
  std::atomic<std::int64_t> epoch_ns{steady_ns()};

  mutable std::mutex mutex;  // arena registry, drain, staging, file
  std::vector<std::unique_ptr<ThreadLog>> logs;
  std::vector<std::pair<std::uint64_t, std::string>> staged_semantic;
  std::string committed_semantic;
  std::uint64_t recorded = 0;  // drained timing + committed semantic
  std::FILE* file = nullptr;
  std::error_code write_error;  // the file sink's first failure since open

  std::mutex limiter_mutex;  // timing-class path only
  /// Checked lock-free before limiter_mutex so an unconfigured limiter
  /// (the common case) costs worker threads no lock on timing emits.
  std::atomic<bool> limiter_on{false};
  double limit_per_s = 0.0;  // 0 = limiter off
  double limit_burst = 0.0;
  std::unordered_map<std::string, Bucket> buckets;

  /// Staged-batch safety cap: the per-run semantic volume is structurally
  /// bounded (a handful of events per VP), so hitting this means a
  /// runaway emitter — count drops instead of growing without bound.
  static constexpr std::size_t kMaxStagedEvents = 1 << 20;

  bool rate_limited_now(std::string_view key) {
    if (!limiter_on.load(std::memory_order_relaxed)) return false;
    const std::lock_guard lock(limiter_mutex);
    if (limit_per_s < 0.0 || limit_burst <= 0.0) return false;
    auto it = buckets.find(std::string(key));
    if (it == buckets.end()) {
      // Bound the map for long-running daemons: evict the bucket touched
      // longest ago. A re-appearing key restarts with a full burst, which
      // only ever under-limits — never drops an event it should not.
      if (buckets.size() >= Journal::kMaxLimiterKeys) {
        auto oldest = buckets.begin();
        for (auto probe = buckets.begin(); probe != buckets.end(); ++probe) {
          if (probe->second.last_ns < oldest->second.last_ns) oldest = probe;
        }
        buckets.erase(oldest);
      }
      it = buckets.try_emplace(std::string(key)).first;
    }
    Bucket& bucket = it->second;
    const std::int64_t now = steady_ns();
    if (bucket.last_ns == 0) bucket.tokens = limit_burst;
    bucket.tokens = std::min(
        limit_burst, bucket.tokens + static_cast<double>(now - bucket.last_ns) *
                                         1e-9 * limit_per_s);
    bucket.last_ns = now;
    if (bucket.tokens < 1.0) return true;
    bucket.tokens -= 1.0;
    return false;
  }

  /// Drains every arena. Caller holds `mutex`. Timing payloads go to the
  /// file (when open); semantic payloads are staged for the next commit.
  void drain() {
    for (const auto& log : logs) {
      const std::uint32_t g1 = log->gen.load(std::memory_order_acquire);
      const std::size_t c = log->committed.load(std::memory_order_acquire);
      const std::uint32_t g2 = log->gen.load(std::memory_order_acquire);
      // A rewind raced with this read pair: skip the round, the next
      // flush sees a stable generation.
      if (g1 != g2) continue;
      if (g1 != log->drained_gen) {
        log->drained_pos = 0;
        log->drained_gen = g1;
      }
      if (c <= log->drained_pos) continue;
      std::size_t at = log->drained_pos;
      while (at + kFrameHeaderBytes <= c) {
        FrameHeader header;
        std::memcpy(&header.payload_bytes, log->data.get() + at, 4);
        std::memcpy(&header.cls, log->data.get() + at + 4, 1);
        std::memcpy(&header.order, log->data.get() + at + 5, 8);
        at += kFrameHeaderBytes;
        if (at + header.payload_bytes > c) break;  // never happens: frames
                                                   // publish whole
        const std::string_view payload(log->data.get() + at,
                                       header.payload_bytes);
        at += header.payload_bytes;
        if (static_cast<MetricClass>(header.cls) == MetricClass::kSemantic) {
          if (staged_semantic.size() >= kMaxStagedEvents) {
            dropped.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          staged_semantic.emplace_back(header.order, std::string(payload));
        } else {
          ++recorded;
          write_line(payload);
        }
      }
      log->drained_pos = c;
      log->drained_ack.store(ThreadLog::pack_ack(g1, c),
                             std::memory_order_release);
    }
  }

  /// Keeps the file sink's first failure: `ec`, or errno when `ec` is
  /// empty. Caller holds `mutex`.
  void fail(std::error_code ec = {}) {
    if (!ec) ec = {errno != 0 ? errno : EIO, std::generic_category()};
    if (!write_error) write_error = ec;
  }

  /// Appends `line` and a newline to the file, when one is open. Caller
  /// holds `mutex`.
  void write_line(std::string_view line) {
    if (file == nullptr) return;
    if (std::fwrite(line.data(), 1, line.size(), file) != line.size() ||
        std::fputc('\n', file) == EOF) {
      fail();
    }
  }

  /// Sorts and writes the staged semantic batch, then runs the commit
  /// barrier (obs::sync_file); a failed write or barrier is remembered in
  /// `write_error`. Caller holds `mutex`.
  void commit_batch() {
    drain();
    std::stable_sort(staged_semantic.begin(), staged_semantic.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    for (auto& [order, line] : staged_semantic) {
      ++recorded;
      committed_semantic += line;
      committed_semantic += '\n';
      write_line(line);
    }
    staged_semantic.clear();
    if (file != nullptr) {
      if (const std::error_code ec = sync_file(file)) fail(ec);
    }
  }
};

namespace {

struct TlsJournalEntry {
  std::uint64_t journal_id = 0;
  std::uint64_t generation = 0;
  ThreadLog* log = nullptr;  // owned by the journal's Impl
};

// No destructor needed: arenas are owned by their journal, and drained
// data survives thread exit. Entries are matched by (id, generation)
// integers, so a stale entry for a destroyed or reset journal is simply
// skipped, never dereferenced.
thread_local std::vector<TlsJournalEntry> g_tls_journals;

ThreadLog* tls_log_slow(Journal::Impl* impl, std::uint64_t generation) {
  auto owned = std::make_unique<ThreadLog>(
      impl->arena_capacity.load(std::memory_order_relaxed));
  ThreadLog* log = owned.get();
  {
    const std::lock_guard lock(impl->mutex);
    impl->logs.push_back(std::move(owned));
  }
  // Replace a stale same-journal entry (pre-reset generation) in place.
  for (TlsJournalEntry& entry : g_tls_journals) {
    if (entry.journal_id == impl->id) {
      entry.generation = generation;
      entry.log = log;
      return log;
    }
  }
  g_tls_journals.push_back(TlsJournalEntry{impl->id, generation, log});
  return log;
}

inline ThreadLog* tls_log(Journal::Impl* impl) {
  const std::uint64_t generation =
      impl->generation.load(std::memory_order_acquire);
  for (const TlsJournalEntry& entry : g_tls_journals) {
    if (entry.journal_id == impl->id && entry.generation == generation) {
      return entry.log;
    }
  }
  return tls_log_slow(impl, generation);
}

std::uint64_t next_journal_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1);
}

}  // namespace

Journal::Journal() : impl_(new Impl()) { impl_->id = next_journal_id(); }

Journal::~Journal() {
  close();
  delete impl_;
}

void Journal::set_recording(bool recording) {
  impl_->recording.store(recording, std::memory_order_relaxed);
}

bool Journal::recording() const {
  return impl_->recording.load(std::memory_order_relaxed);
}

bool Journal::open(const std::filesystem::path& path) {
  std::FILE* file = std::fopen(path.string().c_str(), "wb");
  if (file == nullptr) return false;
  // The commit barrier fsyncs the file; this makes its name durable too.
  if (sync_directory(path.parent_path())) {
    std::fclose(file);
    return false;
  }
  {
    const std::lock_guard lock(impl_->mutex);
    if (impl_->file != nullptr) std::fclose(impl_->file);
    impl_->file = file;
    impl_->write_error = {};
  }
  set_recording(true);
  return true;
}

void Journal::flush() {
  const std::lock_guard lock(impl_->mutex);
  impl_->drain();
  if (impl_->file != nullptr && std::fflush(impl_->file) != 0) impl_->fail();
}

void Journal::commit() {
  const std::lock_guard lock(impl_->mutex);
  impl_->commit_batch();
}

void Journal::close() {
  const std::lock_guard lock(impl_->mutex);
  impl_->commit_batch();
  if (impl_->file != nullptr) {
    if (std::fclose(impl_->file) != 0) impl_->fail();
    impl_->file = nullptr;
  }
}

std::error_code Journal::write_error() const {
  const std::lock_guard lock(impl_->mutex);
  return impl_->write_error;
}

std::string Journal::semantic_text() const {
  const std::lock_guard lock(impl_->mutex);
  return impl_->committed_semantic;
}

std::uint64_t Journal::next_order() {
  return impl_->order_seq.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t Journal::events_dropped() const {
  return impl_->dropped.load(std::memory_order_relaxed);
}

std::uint64_t Journal::events_rate_limited() const {
  return impl_->rate_limited.load(std::memory_order_relaxed);
}

std::uint64_t Journal::events_recorded() const {
  const std::lock_guard lock(impl_->mutex);
  return impl_->recorded + impl_->staged_semantic.size();
}

void Journal::set_min_severity(Severity severity) {
  impl_->min_severity.store(static_cast<std::uint8_t>(severity),
                            std::memory_order_relaxed);
}

void Journal::set_rate_limit(double per_second, double burst) {
  const std::lock_guard lock(impl_->limiter_mutex);
  impl_->limit_per_s = per_second;
  impl_->limit_burst = burst;
  impl_->buckets.clear();
  impl_->limiter_on.store(per_second >= 0.0 && burst > 0.0,
                          std::memory_order_relaxed);
}

std::size_t Journal::rate_limiter_key_count() const {
  const std::lock_guard lock(impl_->limiter_mutex);
  return impl_->buckets.size();
}

void Journal::set_arena_capacity(std::size_t bytes) {
  impl_->arena_capacity.store(
      std::clamp<std::size_t>(bytes, 4096, 0xFFFFFFFFu),
      std::memory_order_relaxed);
}

void Journal::reset() {
  {
    const std::lock_guard lock(impl_->mutex);
    // Invalidate every thread's cached arena pointer before freeing the
    // arenas; stale TLS entries fail the generation match and re-register.
    impl_->generation.fetch_add(1, std::memory_order_release);
    impl_->logs.clear();
    impl_->staged_semantic.clear();
    impl_->committed_semantic.clear();
    impl_->recorded = 0;
    if (impl_->file != nullptr) {
      std::fclose(impl_->file);
      impl_->file = nullptr;
    }
    impl_->write_error = {};
  }
  impl_->dropped.store(0, std::memory_order_relaxed);
  impl_->rate_limited.store(0, std::memory_order_relaxed);
  impl_->order_seq.store(kReductionOrderBase, std::memory_order_relaxed);
  impl_->epoch_ns.store(steady_ns(), std::memory_order_relaxed);
  const std::lock_guard lock(impl_->limiter_mutex);
  impl_->buckets.clear();
}

void Journal::emit(MetricClass cls, Severity sev, std::string_view key,
                   std::uint64_t order,
                   std::initializer_list<EventField> fields) {
  if (!impl_->recording.load(std::memory_order_relaxed)) return;
  if (static_cast<std::uint8_t>(sev) <
      impl_->min_severity.load(std::memory_order_relaxed)) {
    return;
  }
  validate_key(key);
  if (cls == MetricClass::kTiming && impl_->rate_limited_now(key)) {
    impl_->rate_limited.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  char payload[768];
  LineWriter line{payload, sizeof payload};
  line.raw("{\"class\":\"");
  line.raw(to_string(cls));
  line.raw("\",\"sev\":\"");
  line.raw(to_string(sev));
  line.raw("\",\"key\":\"");
  line.raw(key);
  line.raw("\",\"order\":");
  line.u64(order);
  if (cls == MetricClass::kTiming) {
    // Wall-clock stamp for timing events only: a semantic event carrying
    // a timestamp could never be byte-identical across runs.
    line.raw(",\"t_ms\":");
    line.number("%.3f",
                static_cast<double>(
                    steady_ns() -
                    impl_->epoch_ns.load(std::memory_order_relaxed)) /
                    1e6);
  }
  bool truncated = false;
  for (const EventField& field : fields) {
    // Conservative worst case for one field: name, quotes, and a value.
    // A string counts at least twice its raw size, so a field is cut
    // where it always was unless its control characters need more.
    const std::size_t worst =
        field.name.size() * 2 + 96 +
        (field.kind == EventField::Kind::kStr
             ? std::max(field.str.size() * 2,
                        LineWriter::escaped_size(field.str))
             : 0);
    if (!line.fits(worst + kTruncateReserve)) {
      truncated = true;
      break;
    }
    line.raw(",\"");
    line.escaped(field.name);
    line.raw("\":");
    switch (field.kind) {
      case EventField::Kind::kU64: line.u64(field.u64); break;
      case EventField::Kind::kI64: line.i64(field.i64); break;
      case EventField::Kind::kF64: line.number("%.17g", field.f64); break;
      case EventField::Kind::kBool:
        line.raw(field.flag ? "true" : "false");
        break;
      case EventField::Kind::kStr:
        line.raw("\"");
        line.escaped(field.str);
        line.raw("\"");
        break;
    }
  }
  if (truncated) line.raw(",\"truncated\":true");
  line.raw("}");

  ThreadLog* log = tls_log(impl_);
  // Rewind when every published byte of the CURRENT generation has been
  // drained: the arena is empty, so restarting at offset 0 loses
  // nothing. The ack must match generation and offset both — see the
  // ThreadLog comment for the lost-frame race a bare offset permits.
  if (log->reserved > 0 &&
      log->drained_ack.load(std::memory_order_acquire) ==
          ThreadLog::pack_ack(log->gen.load(std::memory_order_relaxed),
                              log->reserved)) {
    log->reserved = 0;
    log->committed.store(0, std::memory_order_relaxed);
    log->gen.fetch_add(1, std::memory_order_release);
  }
  const std::size_t need = kFrameHeaderBytes + line.size;
  if (log->reserved + need > log->capacity) {
    impl_->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  char* at = log->data.get() + log->reserved;
  const auto payload_bytes = static_cast<std::uint32_t>(line.size);
  const auto cls_byte = static_cast<std::uint8_t>(cls);
  std::memcpy(at, &payload_bytes, 4);
  std::memcpy(at + 4, &cls_byte, 1);
  std::memcpy(at + 5, &order, 8);
  std::memcpy(at + kFrameHeaderBytes, payload, line.size);
  log->reserved += need;
  log->committed.store(log->reserved, std::memory_order_release);
}

Journal& journal() {
  // Leaked on purpose, same reasoning as obs::metrics(): emitting
  // threads may retire after static destruction began.
  static Journal* global = new Journal();
  return *global;
}

std::string_view journal_consistent_prefix(std::string_view text) {
  const std::size_t last_newline = text.rfind('\n');
  if (last_newline == std::string_view::npos) return {};
  return text.substr(0, last_newline + 1);
}

}  // namespace anycast::obs
