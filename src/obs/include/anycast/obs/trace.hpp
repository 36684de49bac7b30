// Observability: lightweight trace spans for the census pipeline.
//
// A span is a named, steady-clock-timed interval (a census phase, one VP's
// walk, one analysis shard). Spans form a run tree: each span's parent is
// the innermost span open on the *same thread* at construction time; a
// span created on a worker thread with nothing open locally is *adopted*
// by the current adoption point — the span the coordinating thread marked
// (with Span::Root) before fanning work out. Spans with no local parent
// and no adoption point are orphans: they parent to id 0 and are counted,
// never lost silently.
//
// Recording is intentionally not hot-path-grade: a span *end* takes one
// short mutex-protected append (span granularity is per-VP / per-phase,
// thousands per run, not per-probe, millions). The collector caps its
// record buffer and counts drops rather than growing unbounded.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace anycast::obs {

/// The observability clock: steady-clock nanoseconds. Spans, journal
/// events, progress ticks and trace counter samples all read it.
inline std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One finished span. `start_ns` is relative to the collector's epoch
/// (construction or last reset), so records are comparable within a run.
struct SpanRecord {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root/orphan
  std::string name;
  std::uint64_t label = 0;  // caller-chosen (VP index, shard number, ...)
  std::int64_t start_ns = 0;
  std::int64_t duration_ns = 0;
  bool adopted = false;  // parented via the adoption point, not nesting
};

class TraceCollector {
 public:
  TraceCollector();
  ~TraceCollector();
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// Finished spans in completion order.
  [[nodiscard]] std::vector<SpanRecord> finished() const;

  /// Spans discarded because the buffer was full.
  [[nodiscard]] std::size_t dropped() const;

  /// Orphan spans recorded (no local parent, no adoption point).
  [[nodiscard]] std::size_t orphans() const;

  /// JSON export: an array of span objects sorted by id.
  [[nodiscard]] std::string spans_json() const;

  /// Indented text rendering of the span tree (for --verbose). Shows at
  /// most `max_spans` spans (0 = the collector's capacity limit) and ends
  /// with a summary footer whenever spans were omitted, dropped, or
  /// orphaned — never a silent mid-tree cut.
  [[nodiscard]] std::string render_tree(std::size_t max_spans = 0) const;

  /// The steady-clock instant all SpanRecord::start_ns values are
  /// relative to (collector construction or last reset). Exporters use it
  /// to place samples from other sources on the same timeline.
  [[nodiscard]] std::int64_t epoch_ns() const;

  /// Max finished spans retained before drops begin. Default 16384.
  void set_capacity(std::size_t capacity);

  /// Clears records, drop/orphan counts, the adoption point, and the id
  /// counter, and re-epochs the clock. Call only while no span is open.
  void reset();

 private:
  friend class Span;
  struct Impl;
  Impl* impl_;  // raw: the global collector is intentionally leaked
};

/// RAII span. Construct to open, destroy to record. Spans must be
/// destroyed in reverse construction order per thread (natural with
/// scoping). Not copyable or movable.
class Span {
 public:
  /// Tag: this span becomes the adoption point while it lives — spans
  /// opened on other threads with no local parent attach under it.
  enum class Root : std::uint8_t { kAdoptionPoint };

  explicit Span(std::string_view name, std::uint64_t label = 0);
  Span(Root root, std::string_view name, std::uint64_t label = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  std::uint32_t id_ = 0;
  std::uint32_t parent_ = 0;
  std::uint32_t restore_adoption_ = 0;
  std::int64_t start_ns_ = 0;
  std::uint64_t label_ = 0;
  bool adopted_ = false;
  bool is_root_ = false;
  char name_[48] = {};  // truncating copy: spans never allocate on open
};

/// The process-global collector every pipeline span reports into. Leaked
/// on purpose, like obs::metrics().
TraceCollector& trace();

}  // namespace anycast::obs
