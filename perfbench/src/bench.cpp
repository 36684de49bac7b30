#include "bench.hpp"

#include <time.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <unordered_map>

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

double clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

double seconds_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2.0;
}

double tail_fraction(std::size_t samples) {
  for (const double q : {0.999, 0.99, 0.95, 0.9, 0.75}) {
    if (static_cast<double>(samples) * (1.0 - q) >= 10.0) return q;
  }
  return 0.5;
}

// ---- Histogram -------------------------------------------------------------

void Histogram::add(std::uint64_t ns) {
  std::size_t bucket = ns;
  if (ns >= (std::uint64_t{1} << kSubBits)) {
    const unsigned shift = static_cast<unsigned>(std::bit_width(ns)) - 1 - kSubBits;
    bucket = (static_cast<std::size_t>(shift + 1) << kSubBits) +
             static_cast<std::size_t>((ns >> shift) - (std::uint64_t{1} << kSubBits));
  }
  ++counts_[bucket];
  ++count_;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(std::clamp(
      std::ceil(q * static_cast<double>(count_)), 1.0,
      static_cast<double>(count_)));
  std::uint64_t below = 0;
  for (std::size_t bucket = 0; bucket < kBuckets; ++bucket) {
    const std::uint64_t in = counts_[bucket];
    if (below + in < rank) {
      below += in;
      continue;
    }
    const std::size_t octave = bucket >> kSubBits;
    const std::size_t sub = bucket & ((std::size_t{1} << kSubBits) - 1);
    const unsigned shift = octave == 0 ? 0 : static_cast<unsigned>(octave - 1);
    const double lower = octave == 0
                             ? static_cast<double>(sub)
                             : std::ldexp(static_cast<double>(
                                              (std::size_t{1} << kSubBits) + sub),
                                          static_cast<int>(shift));
    const double width = std::ldexp(1.0, static_cast<int>(shift));
    return lower + width * (static_cast<double>(rank - below) - 0.5) /
                       static_cast<double>(in);
  }
  return 0.0;
}

// ---- Tracer ----------------------------------------------------------------

std::uint32_t Tracer::open_id() {
  if (!enabled_) return 0;
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

std::uint32_t Tracer::record(std::string_view name, std::uint32_t parent,
                             std::uint64_t start_ns, std::uint64_t end_ns,
                             std::uint32_t id) {
  if (!enabled_) return 0;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (id == 0) id = next_id_++;
  spans_.push_back({id, parent, name, start_ns, end_ns});
  return id;
}

void Tracer::print_summary() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  // Self time: a span's duration minus the union of its children's
  // intervals. Children of one parent may overlap (pool lanes), so the
  // covered part is the merged union, clipped to the parent.
  std::unordered_map<std::uint32_t, std::vector<std::pair<std::uint64_t,
                                                          std::uint64_t>>>
      children;
  for (const Span& span : spans_) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  struct Row {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string_view, Row> rows;
  for (const Span& span : spans_) {
    Row& row = rows[span.name];
    ++row.count;
    const double total = seconds_between(span.start_ns, span.end_ns);
    row.total_s += total;
    double covered = 0.0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      std::uint64_t cursor = span.start_ns;
      for (auto [begin, end] : intervals) {
        begin = std::max(begin, cursor);
        end = std::min(end, span.end_ns);
        if (end > begin) {
          covered += seconds_between(begin, end);
          cursor = end;
        }
      }
    }
    row.self_s += total - covered;
  }
  std::printf("  %-28s %10s %12s %12s\n", "span", "count", "total s",
              "self s");
  for (const auto& [name, row] : rows) {
    std::printf("  %-28.*s %10zu %12.4f %12.4f\n",
                static_cast<int>(name.size()), name.data(), row.count,
                row.total_s, row.self_s);
  }
}

void Tracer::write(const std::filesystem::path& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  out << "# id\tparent\tname\tstart_ns\tend_ns\n";
  for (const Span& span : spans_) {
    out << span.id << '\t' << span.parent << '\t' << span.name << '\t'
        << span.start_ns << '\t' << span.end_ns << '\n';
  }
}

ScopedSpan::ScopedSpan(Tracer& tracer, std::string_view name,
                       std::uint32_t parent)
    : tracer_(tracer), name_(name), parent_(parent) {
  if (!tracer_.enabled()) return;
  id_ = tracer_.open_id();
  start_ns_ = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (id_ == 0) return;
  tracer_.record(name_, parent_, start_ns_, now_ns(), id_);
}

// ---- Ledger ----------------------------------------------------------------

void Ledger::metric(const std::string& name, double value, const char* unit) {
  metrics_[name] = {value, unit};
}

void Ledger::fail_check(const std::string& what) {
  correct_ = false;
  std::fprintf(stderr, "perfbench: output check failed: %s\n", what.c_str());
}

std::string Ledger::json() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics_) {
    char number[64];
    std::snprintf(number, sizeof number, "%.17g",
                  std::isfinite(value.value) ? value.value : 0.0);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + number + ", \"unit\": \"" +
           value.unit + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
