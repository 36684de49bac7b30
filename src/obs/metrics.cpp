#include "anycast/obs/metrics.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

namespace anycast::obs {
namespace {

std::atomic<bool> g_recording{true};

/// Counter slot budget per shard. The whole pipeline registers well under
/// 200 counters; the fixed bound keeps a shard one flat allocation a
/// thread touches only at its own cache lines.
constexpr std::size_t kMaxSlots = 4096;

/// Zero explicitly: atomic value-initialization (P0883) is not reliable on
/// every libstdc++ this builds against, and memory recycled from the heap
/// must never leak a previous allocation's bytes into a count.
template <std::size_t N>
void zero(std::array<std::atomic<std::uint64_t>, N>& slots) {
  for (auto& slot : slots) slot.store(0, std::memory_order_relaxed);
}

/// One thread's share of one histogram: its bucket counts and sum.
struct HistoBlock {
  std::array<std::atomic<std::uint64_t>, LatencyHisto::kSlots> slots;
  std::atomic<std::uint64_t> sum{0};
  HistoBlock() { zero(slots); }
};

/// Single-writer increment. Only the owning thread writes its shard's
/// slots (reset() aside, which callers run while recorders are quiescent),
/// so a relaxed load+store replaces a locked read-modify-write; scrapes
/// still read every slot atomically.
inline void bump(std::atomic<std::uint64_t>& slot, std::uint64_t n) {
  slot.store(slot.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
}

struct Shard {
  std::array<std::atomic<std::uint64_t>, kMaxSlots> slots;  // counters
  // Histogram blocks by histogram index, allocated on the owning thread's
  // first record into each. Only the owner grows this table, and only
  // under the registry mutex, so scrapes (which hold it) see it stable.
  std::vector<std::unique_ptr<HistoBlock>> histos;
  Shard() { zero(slots); }
};

std::string_view validate_name(std::string_view name) {
  if (name.empty()) throw std::logic_error("metric name must not be empty");
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || (c >= 'A' && c <= 'Z');
    if (!ok) {
      throw std::logic_error("metric name must be [A-Za-z0-9_]: " +
                             std::string(name));
    }
  }
  return name;
}

}  // namespace

std::string_view to_string(MetricClass cls) {
  return cls == MetricClass::kSemantic ? "semantic" : "timing";
}

std::string_view to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "unknown";
}

struct MetricsRegistry::Impl {
  struct Metric {
    std::string name;
    std::string help;
    std::string unit;  // histograms only
    MetricKind kind = MetricKind::kCounter;
    MetricClass cls = MetricClass::kSemantic;
    // Counter: shard slot. Gauge: index into `gauges`. Histogram: index
    // into `histos` and into every shard's block table.
    std::uint32_t index = 0;
  };
  struct Histo {
    std::unique_ptr<LatencyHisto> handle;
    std::uint32_t metric = 0;            // index into `registered`
    std::vector<std::uint64_t> retired;  // kSlots once a recorder exited
    std::uint64_t retired_sum = 0;
  };

  std::uint64_t id = 0;  // process-unique, for thread-local shard keying
  std::atomic<bool> enabled{true};

  mutable std::mutex mutex;
  std::vector<Metric> registered;
  std::unordered_map<std::string, std::uint32_t> by_name;
  std::uint32_t next_slot = 0;
  std::vector<std::unique_ptr<Shard>> live;  // one per reporting thread
  std::array<std::uint64_t, kMaxSlots> retired{};  // from exited threads
  std::size_t shards_ever = 0;
  // Gauges: set/read whole, never summed, so they live centrally. A deque
  // never relocates existing elements on push_back, so handles may read
  // their slot without the mutex.
  std::deque<std::atomic<std::uint64_t>> gauges;
  std::vector<Histo> histos;

  // Every member below: caller holds `mutex`.

  /// The metric registered as `name`, or nullptr when there is none.
  /// Throws when `name` was registered with a different kind, class or
  /// unit.
  const Metric* find(std::string_view name, MetricKind kind, MetricClass cls,
                     std::string_view unit) const {
    const auto it = by_name.find(std::string(name));
    if (it == by_name.end()) return nullptr;
    const Metric& existing = registered[it->second];
    if (existing.kind != kind || existing.cls != cls ||
        existing.unit != unit) {
      throw std::logic_error("metric re-registered differently: " +
                             std::string(name));
    }
    return &existing;
  }

  std::uint32_t add(std::string_view name, MetricKind kind, MetricClass cls,
                    std::string_view unit, std::string_view help,
                    std::uint32_t index) {
    by_name.emplace(std::string(name),
                    static_cast<std::uint32_t>(registered.size()));
    registered.push_back(Metric{std::string(name), std::string(help),
                                std::string(unit), kind, cls, index});
    return index;
  }

  std::uint64_t merged(std::uint32_t slot) const {
    // Relaxed loads: integer sums commute, and the scrape contract is
    // "quiescent values are exact, in-flight ones are eventually counted".
    std::uint64_t total = retired[slot];
    for (const auto& shard : live) {
      total += shard->slots[slot].load(std::memory_order_relaxed);
    }
    return total;
  }

  LatencyHisto::Snapshot merged_histo(std::uint32_t index) const {
    const Histo& histo = histos[index];
    const Metric& metric = registered[histo.metric];
    LatencyHisto::Snapshot snap;
    snap.name = metric.name;
    snap.unit = metric.unit;
    snap.help = metric.help;
    snap.counts = histo.retired;
    snap.sum = histo.retired_sum;
    for (const auto& shard : live) {
      if (index >= shard->histos.size() || !shard->histos[index]) continue;
      const HistoBlock& block = *shard->histos[index];
      snap.counts.resize(LatencyHisto::kSlots, 0);
      for (std::uint32_t s = 0; s < LatencyHisto::kSlots; ++s) {
        snap.counts[s] += block.slots[s].load(std::memory_order_relaxed);
      }
      snap.sum += block.sum.load(std::memory_order_relaxed);
    }
    for (const std::uint64_t n : snap.counts) snap.count += n;
    if (snap.count == 0) snap.counts.clear();
    return snap;
  }

  /// Folds an exiting thread's shard into the retired totals and drops it.
  void retire(const Shard* shard) {
    for (std::size_t s = 0; s < kMaxSlots; ++s) {
      retired[s] += shard->slots[s].load(std::memory_order_relaxed);
    }
    for (std::size_t h = 0; h < shard->histos.size(); ++h) {
      const HistoBlock* block = shard->histos[h].get();
      if (block == nullptr) continue;
      Histo& histo = histos[h];
      histo.retired.resize(LatencyHisto::kSlots, 0);
      for (std::uint32_t s = 0; s < LatencyHisto::kSlots; ++s) {
        histo.retired[s] += block->slots[s].load(std::memory_order_relaxed);
      }
      histo.retired_sum += block->sum.load(std::memory_order_relaxed);
    }
    std::erase_if(live, [&](const std::unique_ptr<Shard>& owned) {
      return owned.get() == shard;
    });
  }
};

namespace {

/// Live-registry table: thread-exit shard retirement must not touch a
/// registry that was already destroyed (unit tests create short-lived
/// ones), so retirement resolves the registry id through this table.
std::mutex& live_registries_mutex() {
  static std::mutex m;
  return m;
}
std::unordered_map<std::uint64_t, MetricsRegistry::Impl*>& live_registries() {
  static auto* map =
      new std::unordered_map<std::uint64_t, MetricsRegistry::Impl*>();
  return *map;
}

struct TlsEntry {
  std::uint64_t registry_id = 0;
  Shard* shard = nullptr;
};

struct TlsShards {
  std::vector<TlsEntry> entries;
  ~TlsShards() {
    // Fold this thread's shards into their registries' retired totals (if
    // the registry is still alive) so counts survive pool teardown.
    const std::lock_guard live_lock(live_registries_mutex());
    for (const TlsEntry& entry : entries) {
      const auto it = live_registries().find(entry.registry_id);
      if (it == live_registries().end()) continue;
      MetricsRegistry::Impl* impl = it->second;
      const std::lock_guard lock(impl->mutex);
      impl->retire(entry.shard);
    }
  }
};

thread_local TlsShards g_tls;

Shard* tls_shard_slow(MetricsRegistry::Impl* impl) {
  auto shard = std::make_unique<Shard>();
  Shard* raw = shard.get();
  {
    const std::lock_guard lock(impl->mutex);
    impl->live.push_back(std::move(shard));
    ++impl->shards_ever;
  }
  g_tls.entries.push_back(TlsEntry{impl->id, raw});
  return raw;
}

/// The calling thread's shard for `impl`: a short linear scan (a thread
/// talks to one or two registries), no locks on the repeat path.
inline Shard* tls_shard(MetricsRegistry::Impl* impl) {
  for (const TlsEntry& entry : g_tls.entries) {
    if (entry.registry_id == impl->id) return entry.shard;
  }
  return tls_shard_slow(impl);
}

HistoBlock* histo_block_slow(MetricsRegistry::Impl* impl, Shard* shard,
                             std::uint32_t index) {
  auto block = std::make_unique<HistoBlock>();
  HistoBlock* raw = block.get();
  const std::lock_guard lock(impl->mutex);
  if (shard->histos.size() <= index) shard->histos.resize(index + 1);
  shard->histos[index] = std::move(block);
  return raw;
}

/// The calling thread's block for histogram `index` of `impl`. The owner
/// reads its own table without the lock: only it ever writes the table.
inline HistoBlock* histo_block(MetricsRegistry::Impl* impl,
                               std::uint32_t index) {
  Shard* shard = tls_shard(impl);
  if (index < shard->histos.size()) {
    if (HistoBlock* block = shard->histos[index].get()) return block;
  }
  return histo_block_slow(impl, shard, index);
}

std::uint64_t next_registry_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1);
}

std::string format_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

MetricsRegistry::MetricsRegistry() : impl_(new Impl()) {
  impl_->id = next_registry_id();
  const std::lock_guard lock(live_registries_mutex());
  live_registries().emplace(impl_->id, impl_);
}

MetricsRegistry::~MetricsRegistry() {
  {
    const std::lock_guard lock(live_registries_mutex());
    live_registries().erase(impl_->id);
  }
  delete impl_;
}

void MetricsRegistry::set_enabled(bool enabled) {
  impl_->enabled.store(enabled, std::memory_order_relaxed);
}

bool MetricsRegistry::enabled() const {
  return impl_->enabled.load(std::memory_order_relaxed);
}

std::size_t MetricsRegistry::shard_count() const {
  const std::lock_guard lock(impl_->mutex);
  return impl_->shards_ever;
}

Counter MetricsRegistry::counter(std::string_view name, MetricClass cls,
                                 std::string_view help) {
  validate_name(name);
  const std::lock_guard lock(impl_->mutex);
  if (const auto* existing =
          impl_->find(name, MetricKind::kCounter, cls, {})) {
    return Counter(this, existing->index);
  }
  if (impl_->next_slot + 1 > kMaxSlots) {
    throw std::logic_error("metric slot budget exhausted");
  }
  return Counter(this, impl_->add(name, MetricKind::kCounter, cls, {}, help,
                                  impl_->next_slot++));
}

Gauge MetricsRegistry::gauge(std::string_view name, MetricClass cls,
                             std::string_view help) {
  validate_name(name);
  const std::lock_guard lock(impl_->mutex);
  if (const auto* existing = impl_->find(name, MetricKind::kGauge, cls, {})) {
    return Gauge(this, existing->index);
  }
  const auto index = static_cast<std::uint32_t>(impl_->gauges.size());
  impl_->gauges.emplace_back(std::bit_cast<std::uint64_t>(0.0));
  return Gauge(this,
               impl_->add(name, MetricKind::kGauge, cls, {}, help, index));
}

LatencyHisto& MetricsRegistry::histogram(std::string_view name,
                                         MetricClass cls,
                                         std::string_view unit,
                                         std::string_view help) {
  validate_name(name);
  const std::lock_guard lock(impl_->mutex);
  if (const auto* existing =
          impl_->find(name, MetricKind::kHistogram, cls, unit)) {
    return *impl_->histos[existing->index].handle;
  }
  const auto index = static_cast<std::uint32_t>(impl_->histos.size());
  Impl::Histo& histo = impl_->histos.emplace_back();
  histo.handle.reset(new LatencyHisto(this, index));
  histo.metric = static_cast<std::uint32_t>(impl_->registered.size());
  impl_->add(name, MetricKind::kHistogram, cls, unit, help, index);
  return *histo.handle;
}

void Counter::add(std::uint64_t n) const {
  if (registry_ == nullptr || n == 0) return;
  MetricsRegistry::Impl* impl = registry_->impl_;
  if (!impl->enabled.load(std::memory_order_relaxed)) return;
  bump(tls_shard(impl)->slots[slot_], n);
}

void Gauge::set(double value) const {
  if (registry_ == nullptr) return;
  MetricsRegistry::Impl* impl = registry_->impl_;
  if (!impl->enabled.load(std::memory_order_relaxed)) return;
  impl->gauges[index_].store(std::bit_cast<std::uint64_t>(value),
                             std::memory_order_relaxed);
}

void LatencyHisto::record(std::uint64_t value) const {
  if (!g_recording.load(std::memory_order_relaxed)) return;
  MetricsRegistry::Impl* impl = registry_->impl_;
  if (!impl->enabled.load(std::memory_order_relaxed)) return;
  if (value > kMaxValue) value = kMaxValue;
  HistoBlock* block = histo_block(impl, index_);
  bump(block->slots[slot_of(value)], 1);
  bump(block->sum, value);
}

LatencyHisto::Snapshot LatencyHisto::snapshot() const {
  const MetricsRegistry::Impl* impl = registry_->impl_;
  const std::lock_guard lock(impl->mutex);
  return impl->merged_histo(index_);
}

void set_latency_recording(bool enabled) {
  g_recording.store(enabled, std::memory_order_relaxed);
}

bool latency_recording() {
  return g_recording.load(std::memory_order_relaxed);
}

void MetricsRegistry::reset() {
  const std::lock_guard lock(impl_->mutex);
  impl_->retired.fill(0);
  for (const auto& shard : impl_->live) {
    zero(shard->slots);
    for (const auto& block : shard->histos) {
      if (!block) continue;
      zero(block->slots);
      block->sum.store(0, std::memory_order_relaxed);
    }
  }
  for (Impl::Histo& histo : impl_->histos) {
    histo.retired.clear();
    histo.retired_sum = 0;
  }
  for (auto& gauge : impl_->gauges) {
    gauge.store(std::bit_cast<std::uint64_t>(0.0),
                std::memory_order_relaxed);
  }
}

std::vector<MetricValue> MetricsRegistry::scrape() const {
  const std::lock_guard lock(impl_->mutex);
  std::vector<MetricValue> out;
  out.reserve(impl_->registered.size());
  for (const Impl::Metric& metric : impl_->registered) {
    MetricValue value;
    value.name = metric.name;
    value.help = metric.help;
    value.kind = metric.kind;
    value.cls = metric.cls;
    switch (metric.kind) {
      case MetricKind::kCounter:
        value.value = impl_->merged(metric.index);
        break;
      case MetricKind::kGauge:
        value.gauge = std::bit_cast<double>(
            impl_->gauges[metric.index].load(std::memory_order_relaxed));
        break;
      case MetricKind::kHistogram:
        value.histogram = impl_->merged_histo(metric.index);
        break;
    }
    out.push_back(std::move(value));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricValue& a, const MetricValue& b) {
              return a.name < b.name;
            });
  return out;
}

std::string MetricsRegistry::scrape_json() const {
  std::string metrics_list;
  std::string latency_list;
  for (const MetricValue& v : scrape()) {
    const bool histogram = v.kind == MetricKind::kHistogram;
    std::string& out = histogram ? latency_list : metrics_list;
    out += out.empty() ? "    {\"name\": \"" : ",\n    {\"name\": \"";
    append_json_escaped(out, v.name);
    if (histogram) {
      const LatencyHisto::Snapshot& h = v.histogram;
      out += "\", \"class\": \"" + std::string(to_string(v.cls)) +
             "\", \"unit\": \"";
      append_json_escaped(out, h.unit);
      char line[320];
      std::snprintf(line, sizeof line,
                    "\", \"count\": %llu, \"sum\": %llu, \"min\": %llu, "
                    "\"max\": %llu, \"p50\": %.1f, \"p90\": %.1f, "
                    "\"p99\": %.1f, \"p999\": %.1f}",
                    static_cast<unsigned long long>(h.count),
                    static_cast<unsigned long long>(h.sum),
                    static_cast<unsigned long long>(h.min()),
                    static_cast<unsigned long long>(h.max()), h.quantile(0.5),
                    h.quantile(0.9), h.quantile(0.99), h.quantile(0.999));
      out += line;
      continue;
    }
    out += "\", \"kind\": \"" + std::string(to_string(v.kind)) +
           "\", \"class\": \"" + std::string(to_string(v.cls)) +
           "\", \"value\": ";
    out += v.kind == MetricKind::kCounter ? std::to_string(v.value)
                                          : format_double(v.gauge);
    if (!v.help.empty()) {
      out += ", \"help\": \"";
      append_json_escaped(out, v.help);
      out += "\"";
    }
    out += "}";
  }
  const auto section = [](const std::string& list) {
    return list.empty() ? std::string("[\n  ]") : "[\n" + list + "\n  ]";
  };
  return "{\n  \"metrics\": " + section(metrics_list) +
         ",\n  \"latency\": " + section(latency_list) + "\n}\n";
}

void append_json_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
}

std::string prometheus_escape_help(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string prometheus_escape_label(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

namespace {

void prometheus_lines(std::string& out, const MetricValue& v) {
  // Counters expose samples named `<family>_total`, and promtool requires
  // the HELP/TYPE family name to match the sample family — so the family
  // is `name_total`, not `name`.
  const std::string family =
      v.kind == MetricKind::kCounter ? v.name + "_total" : v.name;
  if (!v.help.empty()) {
    out += "# HELP " + family + " " + prometheus_escape_help(v.help) + "\n";
  }
  switch (v.kind) {
    case MetricKind::kCounter:
      out += "# TYPE " + family + " counter\n";
      out += family + " " + std::to_string(v.value) + "\n";
      break;
    case MetricKind::kGauge:
      out += "# TYPE " + family + " gauge\n";
      out += family + " " + format_double(v.gauge) + "\n";
      break;
    case MetricKind::kHistogram: {
      // Cumulative buckets over the non-empty slots; `le` is the slot's
      // largest integer, so the bound is inclusive as the format requires.
      const LatencyHisto::Snapshot& h = v.histogram;
      out += "# TYPE " + family + " histogram\n";
      std::uint64_t cumulative = 0;
      for (std::uint32_t s = 0; s < h.counts.size(); ++s) {
        if (h.counts[s] == 0) continue;
        cumulative += h.counts[s];
        out += family + "_bucket{le=\"" +
               std::to_string(LatencyHisto::slot_upper(s) - 1) + "\"} " +
               std::to_string(cumulative) + "\n";
      }
      out += family + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
      out += family + "_sum " + std::to_string(h.sum) + "\n";
      out += family + "_count " + std::to_string(h.count) + "\n";
      break;
    }
  }
}

}  // namespace

std::string MetricsRegistry::scrape_prometheus() const {
  std::string out;
  for (const MetricValue& v : scrape()) prometheus_lines(out, v);
  return out;
}

std::string MetricsRegistry::semantic_snapshot() const {
  std::string out;
  for (const MetricValue& v : scrape()) {
    if (v.cls != MetricClass::kSemantic) continue;
    switch (v.kind) {
      case MetricKind::kCounter:
        out += v.name + " " + std::to_string(v.value) + "\n";
        break;
      case MetricKind::kGauge:
        out += v.name + " " + format_double(v.gauge) + "\n";
        break;
      case MetricKind::kHistogram: {
        const LatencyHisto::Snapshot& h = v.histogram;
        for (std::uint32_t s = 0; s < h.counts.size(); ++s) {
          if (h.counts[s] == 0) continue;
          out += v.name + "{le=" +
                 std::to_string(LatencyHisto::slot_upper(s) - 1) + "} " +
                 std::to_string(h.counts[s]) + "\n";
        }
        out += v.name + "_sum " + std::to_string(h.sum) + "\n";
        break;
      }
    }
  }
  return out;
}

MetricsRegistry& metrics() {
  // Leaked on purpose: worker threads retire shards at thread exit, which
  // may happen after static destruction began; a never-destroyed registry
  // (paired with the live-registry table) makes that ordering safe.
  static MetricsRegistry* global = new MetricsRegistry();
  return *global;
}

}  // namespace anycast::obs
