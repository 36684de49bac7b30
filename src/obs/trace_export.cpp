#include "anycast/obs/trace_export.hpp"

#include <algorithm>
#include <cstdio>
#include <mutex>

#include "anycast/obs/durable.hpp"
#include "anycast/obs/metrics.hpp"

namespace anycast::obs {
namespace {

void append_number(std::string& out, const char* format, double value) {
  char tmp[64];
  const int n = std::snprintf(tmp, sizeof tmp, format, value);
  if (n > 0) out.append(tmp, static_cast<std::size_t>(n));
}

}  // namespace

struct CounterSampler::Impl {
  mutable std::mutex mutex;
  std::vector<CounterSample> samples;
  std::size_t capacity = 65536;
  std::size_t dropped = 0;
};

CounterSampler::CounterSampler() : impl_(new Impl()) {}
CounterSampler::~CounterSampler() { delete impl_; }

void CounterSampler::sample(const MetricsRegistry& registry,
                            std::int64_t t_ns) {
  const std::vector<MetricValue> values = registry.scrape();
  const std::lock_guard lock(impl_->mutex);
  for (const MetricValue& v : values) {
    if (impl_->samples.size() >= impl_->capacity) {
      ++impl_->dropped;
      continue;
    }
    CounterSample sample;
    sample.t_ns = t_ns;
    sample.name = v.name;
    switch (v.kind) {
      case MetricKind::kCounter:
        sample.value = static_cast<double>(v.value);
        break;
      case MetricKind::kGauge:
        sample.value = v.gauge;
        break;
      case MetricKind::kHistogram:
        sample.value = static_cast<double>(v.histogram.count);
        break;
    }
    impl_->samples.push_back(std::move(sample));
  }
}

void CounterSampler::sample_now() {
  sample(metrics(), steady_ns() - trace().epoch_ns());
}

std::vector<CounterSample> CounterSampler::samples() const {
  const std::lock_guard lock(impl_->mutex);
  return impl_->samples;
}

std::size_t CounterSampler::dropped() const {
  const std::lock_guard lock(impl_->mutex);
  return impl_->dropped;
}

void CounterSampler::set_capacity(std::size_t capacity) {
  const std::lock_guard lock(impl_->mutex);
  impl_->capacity = capacity;
}

void CounterSampler::reset() {
  const std::lock_guard lock(impl_->mutex);
  impl_->samples.clear();
  impl_->dropped = 0;
}

CounterSampler& counter_sampler() {
  // Leaked on purpose, same reasoning as obs::metrics().
  static CounterSampler* global = new CounterSampler();
  return *global;
}

std::string chrome_trace_json(const std::vector<SpanRecord>& spans,
                              const std::vector<CounterSample>& samples,
                              std::size_t dropped_spans,
                              std::size_t orphan_spans) {
  std::vector<SpanRecord> ordered = spans;
  std::sort(ordered.begin(), ordered.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.id < b.id;
            });
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  const auto comma = [&out, &first] {
    if (!first) out += ",";
    first = false;
  };
  char tmp[160];
  for (const SpanRecord& r : ordered) {
    // Async begin/end pair keyed by span id: async tracks tolerate the
    // overlapping lifetimes parallel sibling walks produce.
    for (const bool begin : {true, false}) {
      comma();
      out += "\n{\"ph\":\"";
      out += begin ? 'b' : 'e';
      out += "\",\"cat\":\"anycast\",\"id\":";
      std::snprintf(tmp, sizeof tmp, "%u", r.id);
      out += tmp;
      out += ",\"name\":\"";
      append_json_escaped(out, r.name);
      if (r.label != 0) {
        std::snprintf(tmp, sizeof tmp, "[%llu]",
                      static_cast<unsigned long long>(r.label));
        out += tmp;
      }
      out += "\",\"pid\":1,\"tid\":1,\"ts\":";
      const std::int64_t at_ns =
          begin ? r.start_ns : r.start_ns + r.duration_ns;
      append_number(out, "%.3f", static_cast<double>(at_ns) / 1e3);
      if (begin) {
        out += ",\"args\":{\"parent\":";
        std::snprintf(tmp, sizeof tmp, "%u", r.parent);
        out += tmp;
        out += ",\"adopted\":";
        out += r.adopted ? "true" : "false";
        out += "}";
      }
      out += "}";
    }
  }
  for (const CounterSample& s : samples) {
    comma();
    out += "\n{\"ph\":\"C\",\"name\":\"";
    append_json_escaped(out, s.name);
    out += "\",\"pid\":1,\"ts\":";
    append_number(out, "%.3f", static_cast<double>(s.t_ns) / 1e3);
    out += ",\"args\":{\"value\":";
    append_number(out, "%.17g", s.value);
    out += "}}";
  }
  out += "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{";
  std::snprintf(tmp, sizeof tmp,
                "\"dropped_spans\":%zu,\"orphan_spans\":%zu,"
                "\"counter_samples\":%zu",
                dropped_spans, orphan_spans, samples.size());
  out += tmp;
  out += "}}\n";
  return out;
}

bool write_chrome_trace(const std::filesystem::path& path) {
  counter_sampler().sample_now();
  return !write_file_atomic(
      path, chrome_trace_json(trace().finished(), counter_sampler().samples(),
                              trace().dropped(), trace().orphans()));
}

}  // namespace anycast::obs
