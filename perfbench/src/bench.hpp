// Shared plumbing for the perfbench workloads: clocks, an in-memory span
// tracer, quantiles, and the metric ledger that becomes the final JSON line.
//
// Spans are recorded by the benchmark around calls into the library's
// public functions; the library itself is not instrumented for this.
#pragma once

#include <array>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
std::uint64_t now_ns();
/// CPU time of the whole process, in seconds.
double process_cpu_s();
/// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mb();

double seconds_between(std::uint64_t start_ns, std::uint64_t end_ns);

/// Median of `values` (0 when empty). Takes a copy; callers keep order.
double median(std::vector<double> values);

/// The highest percentile (as a fraction) among {0.999, 0.99, 0.95, 0.9,
/// 0.75, 0.5} that leaves at least ten samples beyond it; 0.5 when there
/// are too few samples for any tail.
double tail_fraction(std::size_t samples);

/// Fixed-size log-linear histogram of nanosecond values: exact below 128,
/// then 128 equal sub-buckets per power of two (under 0.8% wide), so its
/// memory does not depend on how many values it holds. Not thread-safe.
/// The benchmark keeps its own rather than using obs::LatencyHisto: that
/// one is code under test, and its kill switch is what a traced serving
/// stage toggles.
class Histogram {
 public:
  void add(std::uint64_t ns);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// Nearest-rank quantile q in [0, 1], placed linearly inside its bucket
  /// (0 when empty).
  [[nodiscard]] double quantile(double q) const;

 private:
  static constexpr unsigned kSubBits = 7;
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) << kSubBits;
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
};

/// One closed span: what ran, when, and which span caused it.
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  std::string_view name;     // must point at a string literal
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// In-memory span store. Disabled tracers record nothing and cost one
/// branch per span. Thread-safe: the serve publisher records beside the
/// reader.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Records a finished span under `id` (a fresh id when 0); returns the
  /// id used (0 when disabled).
  std::uint32_t record(std::string_view name, std::uint32_t parent,
                       std::uint64_t start_ns, std::uint64_t end_ns,
                       std::uint32_t id = 0);
  /// Reserves an id for a span whose children close before it does.
  std::uint32_t open_id();


  /// Per-name count, total and self time (duration minus the part of it
  /// covered by child spans), printed as a table.
  void print_summary() const;
  /// Writes every span as tab-separated `id parent name start_ns end_ns`
  /// lines.
  void write(const std::filesystem::path& path) const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::uint32_t next_id_ = 1;   // guarded by mutex_
  std::vector<Span> spans_;     // guarded by mutex_
};

/// RAII span: records [construction, destruction) into `tracer`.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name, std::uint32_t parent = 0);
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan();

  /// The id children should name as their parent.
  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::string_view name_;
  std::uint32_t parent_;
  std::uint32_t id_ = 0;
  std::uint64_t start_ns_ = 0;
};

/// What one run reports: operation accounting, correctness, and metrics.
class Ledger {
 public:
  void metric(const std::string& name, double value, const char* unit);
  /// Fails the run with a diagnostic (printed to stderr immediately).
  void fail_check(const std::string& what);
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail_op(std::uint64_t n = 1) { failed_ += n; }

  [[nodiscard]] bool correct() const { return correct_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  /// The run's result as one JSON object, printed as the last stdout line.
  [[nodiscard]] std::string json() const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Pool lanes of every workload: half of a 4-thread box, so a neighbour
/// taking one core does not stall a phase that joins all its lanes.
constexpr std::size_t kLanes = 2;

/// Command-line selection for one run.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path work_dir;  // scratch space inside the checkout
};

void run_census(const RunConfig& config, Ledger& ledger);
void run_paper(const RunConfig& config, Ledger& ledger);
void run_serve(const RunConfig& config, Ledger& ledger);

}  // namespace perfbench
