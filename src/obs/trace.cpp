#include "anycast/obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <unordered_map>

namespace anycast::obs {
namespace {

// Per-thread stack of open span ids. The global collector is the only
// span sink, so one stack per thread suffices.
thread_local std::vector<std::uint32_t> g_open_spans;

}  // namespace

struct TraceCollector::Impl {
  mutable std::mutex mutex;
  std::vector<SpanRecord> records;
  std::size_t capacity = 16384;
  std::size_t dropped = 0;
  std::size_t orphans = 0;
  std::int64_t epoch_ns = steady_ns();
  std::atomic<std::uint32_t> next_id{1};
  std::atomic<std::uint32_t> adoption_point{0};
};

TraceCollector::TraceCollector() : impl_(new Impl()) {}
TraceCollector::~TraceCollector() { delete impl_; }

std::vector<SpanRecord> TraceCollector::finished() const {
  const std::lock_guard lock(impl_->mutex);
  return impl_->records;
}

std::size_t TraceCollector::dropped() const {
  const std::lock_guard lock(impl_->mutex);
  return impl_->dropped;
}

std::size_t TraceCollector::orphans() const {
  const std::lock_guard lock(impl_->mutex);
  return impl_->orphans;
}

std::int64_t TraceCollector::epoch_ns() const {
  const std::lock_guard lock(impl_->mutex);
  return impl_->epoch_ns;
}

void TraceCollector::set_capacity(std::size_t capacity) {
  const std::lock_guard lock(impl_->mutex);
  impl_->capacity = capacity;
}

void TraceCollector::reset() {
  const std::lock_guard lock(impl_->mutex);
  impl_->records.clear();
  impl_->dropped = 0;
  impl_->orphans = 0;
  impl_->epoch_ns = steady_ns();
  impl_->next_id.store(1, std::memory_order_relaxed);
  impl_->adoption_point.store(0, std::memory_order_relaxed);
}

std::string TraceCollector::spans_json() const {
  std::vector<SpanRecord> records = finished();
  std::sort(records.begin(), records.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.id < b.id;
            });
  std::string out = "[\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SpanRecord& r = records[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "  {\"id\": %u, \"parent\": %u, \"name\": \"%s\", "
                  "\"label\": %llu, \"start_ns\": %lld, \"duration_ns\": "
                  "%lld, \"adopted\": %s}",
                  r.id, r.parent, r.name.c_str(),
                  static_cast<unsigned long long>(r.label),
                  static_cast<long long>(r.start_ns),
                  static_cast<long long>(r.duration_ns),
                  r.adopted ? "true" : "false");
    out += line;
    if (i + 1 < records.size()) out += ",";
    out += "\n";
  }
  out += "]\n";
  return out;
}

std::string TraceCollector::render_tree(std::size_t max_spans) const {
  std::size_t dropped = 0;
  std::size_t orphans = 0;
  std::vector<SpanRecord> records;
  {
    const std::lock_guard lock(impl_->mutex);
    records = impl_->records;
    dropped = impl_->dropped;
    orphans = impl_->orphans;
    if (max_spans == 0) max_spans = impl_->capacity;
  }
  std::sort(records.begin(), records.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.id < b.id;
            });
  // Children lists by record position + 1; roots (and spans whose parent
  // record was dropped) render at depth 0.
  std::vector<std::vector<std::size_t>> children(records.size() + 1);
  std::unordered_map<std::uint32_t, std::size_t> index_by_id;
  index_by_id.reserve(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    index_by_id.emplace(records[i].id, i);
  }
  std::string out;
  std::vector<std::size_t> roots;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::uint32_t parent = records[i].parent;
    const auto it = parent != 0 ? index_by_id.find(parent)
                                : index_by_id.end();
    if (it != index_by_id.end()) {
      children[it->second + 1].push_back(i);
    } else {
      roots.push_back(i);
    }
  }
  struct Frame {
    std::size_t index;
    int depth;
  };
  std::vector<Frame> stack;
  for (auto it = roots.rbegin(); it != roots.rend(); ++it) {
    stack.push_back(Frame{*it, 0});
  }
  std::size_t shown = 0;
  while (!stack.empty() && shown < max_spans) {
    const Frame frame = stack.back();
    stack.pop_back();
    const SpanRecord& r = records[frame.index];
    ++shown;
    char line[256];
    std::snprintf(line, sizeof line, "%*s%s", frame.depth * 2, "",
                  r.name.c_str());
    out += line;
    if (r.label != 0) {
      std::snprintf(line, sizeof line, "[%llu]",
                    static_cast<unsigned long long>(r.label));
      out += line;
    }
    std::snprintf(line, sizeof line, "  %.3f ms%s\n",
                  static_cast<double>(r.duration_ns) / 1e6,
                  r.adopted ? "  (adopted)" : "");
    out += line;
    const auto& kids = children[frame.index + 1];
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.push_back(Frame{*it, frame.depth + 1});
    }
  }
  const std::size_t omitted = records.size() - shown;
  if (omitted > 0 || dropped > 0 || orphans > 0) {
    char line[160];
    std::snprintf(line, sizeof line,
                  "... %zu spans shown, %zu omitted, %zu dropped at "
                  "capacity, %zu orphaned\n",
                  shown, omitted, dropped, orphans);
    out += line;
  }
  return out;
}

Span::Span(std::string_view name, std::uint64_t label) : label_(label) {
  TraceCollector::Impl* impl = trace().impl_;
  id_ = impl->next_id.fetch_add(1, std::memory_order_relaxed);
  if (!g_open_spans.empty()) {
    parent_ = g_open_spans.back();
  } else {
    parent_ = impl->adoption_point.load(std::memory_order_relaxed);
    adopted_ = parent_ != 0;
  }
  const std::size_t n = std::min(name.size(), sizeof name_ - 1);
  std::memcpy(name_, name.data(), n);
  g_open_spans.push_back(id_);
  start_ns_ = steady_ns();
}

Span::Span(Root, std::string_view name, std::uint64_t label)
    : Span(name, label) {
  is_root_ = true;
  TraceCollector::Impl* impl = trace().impl_;
  restore_adoption_ =
      impl->adoption_point.exchange(id_, std::memory_order_relaxed);
}

Span::~Span() {
  const std::int64_t end_ns = steady_ns();
  TraceCollector::Impl* impl = trace().impl_;
  if (is_root_) {
    impl->adoption_point.store(restore_adoption_,
                               std::memory_order_relaxed);
  }
  // Natural RAII scoping makes this span the innermost open one; tolerate
  // misuse by searching.
  if (!g_open_spans.empty() && g_open_spans.back() == id_) {
    g_open_spans.pop_back();
  } else {
    std::erase(g_open_spans, id_);
  }
  const std::lock_guard lock(impl->mutex);
  if (parent_ == 0 && !adopted_ && !is_root_) ++impl->orphans;
  if (impl->records.size() >= impl->capacity) {
    ++impl->dropped;
    return;
  }
  SpanRecord record;
  record.id = id_;
  record.parent = parent_;
  record.name = name_;
  record.label = label_;
  record.start_ns = start_ns_ - impl->epoch_ns;
  record.duration_ns = end_ns - start_ns_;
  record.adopted = adopted_;
  impl->records.push_back(std::move(record));
}

TraceCollector& trace() {
  // Leaked on purpose, same reasoning as obs::metrics().
  static TraceCollector* global = new TraceCollector();
  return *global;
}

}  // namespace anycast::obs
