// Observability: the census flight recorder's structured event journal.
//
// Metrics answer "how much"; the journal answers "what happened, in what
// order". Every pipeline component appends JSONL events — one JSON object
// per line — under the same two constraints as the metrics registry
// (DESIGN.md §10, §12):
//
//  1. **Lock-free on the hot path.** `emit` serialises into a
//     fixed-capacity per-thread arena and publishes with one release
//     store; no mutex, no allocation. Buffers are bounded: when a
//     thread's arena fills between flushes the event is dropped and
//     counted, never silently lost or unboundedly queued.
//
//  2. **Semantic events are deterministic.** Every event declares the
//     same class split as metrics. `kSemantic` events carry a
//     caller-chosen deterministic `order` key and no wall-clock stamp;
//     at `commit()` the batch is stably sorted by that key, so the
//     semantic subset of a journal is byte-identical across thread
//     counts and across crash+resume (walk events flush through
//     `flush_walk_metrics`, live == replayed). `kTiming` events carry a
//     steady-clock stamp, stream out in completion order, and are the
//     only class subject to the wall-clock token-bucket rate limiter.
//
// Durability contract: `commit()` is called at the same boundaries that
// make checkpoints durable (the end of each census reduction) and
// fsyncs, so after a crash the journal file is a consistent prefix of
// complete lines — `journal_consistent_prefix` recovers it the same way
// checkpoint salvage recovers a valid record prefix.
#pragma once

#include <cstdint>
#include <filesystem>
#include <initializer_list>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

#include "anycast/obs/metrics.hpp"

namespace anycast::obs {

enum class Severity : std::uint8_t { kDebug = 0, kInfo, kWarn, kError };

std::string_view to_string(Severity severity);

/// One "name": value pair of an event. Construct from string views,
/// booleans, or any arithmetic type; values are serialised immediately,
/// so string views only need to outlive the `emit` call.
struct EventField {
  enum class Kind : std::uint8_t { kU64, kI64, kF64, kBool, kStr };

  std::string_view name;
  Kind kind = Kind::kU64;
  std::uint64_t u64 = 0;
  std::int64_t i64 = 0;
  double f64 = 0.0;
  bool flag = false;
  std::string_view str;

  EventField(std::string_view n, std::string_view v)
      : name(n), kind(Kind::kStr), str(v) {}
  EventField(std::string_view n, const char* v)
      : name(n), kind(Kind::kStr), str(v) {}
  template <typename T, typename = std::enable_if_t<std::is_arithmetic_v<T>>>
  EventField(std::string_view n, T v) : name(n) {
    if constexpr (std::is_same_v<T, bool>) {
      kind = Kind::kBool;
      flag = v;
    } else if constexpr (std::is_floating_point_v<T>) {
      kind = Kind::kF64;
      f64 = static_cast<double>(v);
    } else if constexpr (std::is_signed_v<T>) {
      kind = Kind::kI64;
      i64 = static_cast<std::int64_t>(v);
    } else {
      kind = Kind::kU64;
      u64 = static_cast<std::uint64_t>(v);
    }
  }
};

class Journal {
 public:
  Journal();
  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Appends one event. A no-op unless the journal is recording. `key`
  /// must be [a-z0-9_.] (throws std::logic_error otherwise). For
  /// kSemantic events `order` is the deterministic sort key within a
  /// commit batch (VP id for per-walk events, `next_order()` for
  /// reduction-thread events); for kTiming events it is carried but the
  /// stream stays in completion order. Oversized events are truncated
  /// deterministically, never split across lines.
  void emit(MetricClass cls, Severity sev, std::string_view key,
            std::uint64_t order, std::initializer_list<EventField> fields);

  /// Recording master switch (default off, so library users that never
  /// opt in pay one relaxed load per emit). `open()` turns it on.
  void set_recording(bool recording);
  [[nodiscard]] bool recording() const;

  /// Starts the file sink (truncating `path`, then fsyncing its
  /// directory so the new name is durable) and recording. Returns
  /// false — with the journal left closed — when the path is not
  /// writable (or its directory cannot be synced), so callers can fail
  /// fast before any probing starts.
  bool open(const std::filesystem::path& path);

  /// Drains every thread arena: timing events stream to the file (when
  /// one is open) in drain order; semantic events are staged for the
  /// next commit. Safe to call concurrently with `emit` (the heartbeat
  /// calls it mid-run).
  void flush();

  /// `flush()`, then writes the staged semantic batch — stably sorted by
  /// `order` — and fsyncs the file. Call at deterministic boundaries
  /// only (census reduction end, process exit): commit points cut the
  /// batches, so they are part of the semantic byte contract.
  void commit();

  /// `commit()` and closes the file. Recording stays on if set.
  void close();

  /// The file sink's first failure since `open()`: a short write, a
  /// failed flush, or a failed commit barrier (obs::sync_file) or close.
  /// Empty while every committed batch is durable. Events keep being
  /// recorded in memory either way; callers surface this in their exit
  /// code.
  [[nodiscard]] std::error_code write_error() const;

  /// Canonical text of every committed semantic event, in commit order.
  /// This is the journal's deterministic fingerprint, the event-stream
  /// analogue of MetricsRegistry::semantic_snapshot().
  [[nodiscard]] std::string semantic_text() const;

  /// Next reduction-sequence order key. Deterministic when callers
  /// invoke it from deterministically ordered code (the reduction
  /// thread); keys are offset past the VP-id range so reduction events
  /// sort after the walks they summarise.
  [[nodiscard]] std::uint64_t next_order();
  static constexpr std::uint64_t kReductionOrderBase = 1ull << 32;

  /// Events rejected because their thread arena (or the staging cap)
  /// was full. Nonzero drops void the semantic byte-identity guarantee
  /// for this run — tests assert zero.
  [[nodiscard]] std::uint64_t events_dropped() const;
  /// Timing events suppressed by the per-key token bucket.
  [[nodiscard]] std::uint64_t events_rate_limited() const;
  /// Events written to the sink or staged/committed so far (post-flush).
  [[nodiscard]] std::uint64_t events_recorded() const;

  /// Severity floor: events below it are discarded uncounted.
  void set_min_severity(Severity severity);

  /// Token bucket applied to kTiming events, per event key: `burst`
  /// tokens capacity, refilled at `per_second` (0 = no refill). The
  /// limiter is wall-clock driven, which is exactly why semantic events
  /// are exempt — suppressing them by time would break replay identity.
  /// The bucket map holds at most kMaxLimiterKeys entries; inserting a
  /// fresh key beyond that evicts the least-recently-touched bucket, so a
  /// long watch run with per-round key churn stays bounded (the evicted
  /// key just re-enters with a full burst if it comes back).
  void set_rate_limit(double per_second, double burst);
  static constexpr std::size_t kMaxLimiterKeys = 64;
  /// Live token-bucket count (test hook for the eviction bound).
  [[nodiscard]] std::size_t rate_limiter_key_count() const;

  /// Per-thread arena bytes for arenas created after the call (default
  /// 1 MiB). Test knob for exercising the bounded-drop path.
  void set_arena_capacity(std::size_t bytes);

  /// Clears events, counters, order sequence, and rate-limiter state;
  /// re-epochs timing stamps; detaches (but does not close) nothing —
  /// any open file is closed. Call only while no thread is emitting.
  void reset();

  struct Impl;  // public so implementation-file helpers can name it

 private:
  Impl* impl_;  // raw: the global journal is intentionally leaked
};

/// The process-global journal every pipeline component records into.
/// Leaked on purpose, like obs::metrics(): emitting threads may retire
/// after static destruction begins.
Journal& journal();

/// The longest prefix of `text` consisting of complete lines — what a
/// crash-interrupted journal file is guaranteed to contain up to its
/// last fsync barrier (every commit ends in one).
std::string_view journal_consistent_prefix(std::string_view text);

}  // namespace anycast::obs
