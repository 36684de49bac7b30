// Unit tests for the observability layer: the sharded metrics registry
// (merge correctness, histogram bucket edges, scrape determinism,
// concurrent increments and first records racing scrapes — run under TSAN
// via tools/run_sanitizers.sh) and the trace span tree (nesting,
// cross-thread adoption, orphan handling), the journal's JSON string
// escaping, and the durable-write primitive (counters, errors, crash seam).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "anycast/obs/durable.hpp"
#include "anycast/obs/journal.hpp"
#include "anycast/obs/latency.hpp"
#include "anycast/obs/metrics.hpp"
#include "anycast/obs/trace.hpp"

namespace {

using anycast::obs::Counter;
using anycast::obs::Gauge;
using anycast::obs::LatencyHisto;
using anycast::obs::MetricClass;
using anycast::obs::MetricKind;
using anycast::obs::MetricsRegistry;
using anycast::obs::MetricValue;
using anycast::obs::Span;
using anycast::obs::SpanRecord;

const MetricValue* find(const std::vector<MetricValue>& values,
                        std::string_view name) {
  for (const MetricValue& v : values) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

TEST(MetricsRegistry, CounterAccumulatesAndScrapes) {
  MetricsRegistry registry;
  const Counter c = registry.counter("test_counter", MetricClass::kSemantic,
                                     "a counter");
  c.inc();
  c.add(41);
  const auto values = registry.scrape();
  const MetricValue* v = find(values, "test_counter");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->kind, MetricKind::kCounter);
  EXPECT_EQ(v->cls, MetricClass::kSemantic);
  EXPECT_EQ(v->value, 42u);
  EXPECT_EQ(v->help, "a counter");
}

TEST(MetricsRegistry, RegistrationIsIdempotentByName) {
  MetricsRegistry registry;
  const Counter a = registry.counter("same", MetricClass::kSemantic);
  const Counter b = registry.counter("same", MetricClass::kSemantic);
  a.add(1);
  b.add(2);
  const auto values = registry.scrape();
  EXPECT_EQ(find(values, "same")->value, 3u);
}

TEST(MetricsRegistry, ReRegisteringDifferentlyThrows) {
  MetricsRegistry registry;
  (void)registry.counter("clash", MetricClass::kSemantic);
  EXPECT_THROW((void)registry.counter("clash", MetricClass::kTiming),
               std::logic_error);
  EXPECT_THROW((void)registry.gauge("clash", MetricClass::kSemantic),
               std::logic_error);
  LatencyHisto& h = registry.histogram("h", MetricClass::kSemantic, "us");
  EXPECT_EQ(&registry.histogram("h", MetricClass::kSemantic, "us"), &h);
  EXPECT_THROW((void)registry.histogram("h", MetricClass::kSemantic, "ms"),
               std::logic_error);
  EXPECT_THROW((void)registry.histogram("h", MetricClass::kTiming, "us"),
               std::logic_error);
  EXPECT_THROW((void)registry.histogram("clash", MetricClass::kSemantic, ""),
               std::logic_error);
  EXPECT_THROW((void)registry.counter("h", MetricClass::kSemantic),
               std::logic_error);
}

TEST(MetricsRegistry, BadNamesAndBoundsThrow) {
  MetricsRegistry registry;
  EXPECT_THROW((void)registry.counter("", MetricClass::kSemantic),
               std::logic_error);
  EXPECT_THROW((void)registry.counter("has space", MetricClass::kSemantic),
               std::logic_error);
  EXPECT_THROW((void)registry.histogram("", MetricClass::kTiming, "ns"),
               std::logic_error);
  EXPECT_THROW(
      (void)registry.histogram("lookup-ns", MetricClass::kTiming, "ns"),
      std::logic_error);
  EXPECT_THROW((void)LatencyHisto::get("bad name", "ns", "help"),
               std::logic_error);
}

TEST(MetricsRegistry, GaugeIsLastWriteWins) {
  MetricsRegistry registry;
  const Gauge g = registry.gauge("test_gauge", MetricClass::kTiming);
  g.set(1.5);
  g.set(-2.25);
  const auto values = registry.scrape();
  EXPECT_DOUBLE_EQ(find(values, "test_gauge")->gauge, -2.25);
}

TEST(MetricsRegistry, HistogramBucketEdgesAreInclusiveUpperBounds) {
  MetricsRegistry registry;
  LatencyHisto& h = registry.histogram("edges", MetricClass::kSemantic,
                                       "count");
  // Prometheus `le` semantics: a bucket is labelled with the largest
  // integer it holds, so value <= label. Below kSubCount every integer
  // has its own bucket; 256 and 257 share a two-wide one.
  h.record(3);
  h.record(3);
  h.record(256);
  h.record(257);
  h.record(258);                          // the next bucket: {le=259}
  h.record(LatencyHisto::kMaxValue + 5);  // saturates into the top bucket
  const std::string snapshot = registry.semantic_snapshot();
  EXPECT_NE(snapshot.find("edges{le=3} 2\n"), std::string::npos) << snapshot;
  EXPECT_NE(snapshot.find("edges{le=257} 2\n"), std::string::npos);
  EXPECT_NE(snapshot.find("edges{le=259} 1\n"), std::string::npos);
  const std::string top = std::to_string(LatencyHisto::kMaxValue);
  EXPECT_NE(snapshot.find("edges{le=" + top + "} 1\n"), std::string::npos);
  // The sum is an exact integer, saturated values clamped.
  const std::uint64_t sum = 3 + 3 + 256 + 257 + 258 + LatencyHisto::kMaxValue;
  EXPECT_NE(snapshot.find("edges_sum " + std::to_string(sum) + "\n"),
            std::string::npos);
  const auto values = registry.scrape();
  const MetricValue* v = find(values, "edges");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->histogram.count, 6u);
  EXPECT_EQ(v->histogram.sum, sum);
  const std::string prom = registry.scrape_prometheus();
  EXPECT_NE(prom.find("edges_bucket{le=\"257\"} 4\n"), std::string::npos)
      << prom;
}

TEST(MetricsRegistry, ConcurrentIncrementsMergeExactly) {
  MetricsRegistry registry;
  const Counter c = registry.counter("spam", MetricClass::kSemantic);
  LatencyHisto& h = registry.histogram("spam_h", MetricClass::kSemantic,
                                       "count");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        h.record(static_cast<std::uint64_t>(t));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const auto values = registry.scrape();
  EXPECT_EQ(find(values, "spam")->value,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(find(values, "spam_h")->histogram.count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  // 0 + 1 + ... + 7 per round.
  EXPECT_EQ(find(values, "spam_h")->histogram.sum,
            static_cast<std::uint64_t>(kThreads * (kThreads - 1) / 2) *
                kPerThread);
  // Threads came and went: their shards were retired, not lost.
  EXPECT_GE(registry.shard_count(), static_cast<std::size_t>(kThreads));
}

TEST(MetricsRegistry, FirstRecordsAndThreadExitsRaceScrapesExactly) {
  // The shared shard path: each writer registers the histograms itself,
  // records into each for the first time (allocating its slot blocks
  // under the registry lock), bumps a counter, and exits (folding its
  // shard into the retired totals) — all while a reader scrapes.
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kHistos = 4;
  constexpr int kPerThread = 2000;
  const Counter counter = registry.counter("race_c", MetricClass::kSemantic);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)registry.scrape();
      (void)registry.semantic_snapshot();
    }
  });
  {
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&registry, &counter, t] {
        std::vector<LatencyHisto*> histos;
        for (int h = 0; h < kHistos; ++h) {
          // Threads start on different histograms, so block tables grow
          // in different orders.
          const int index = (h + t) % kHistos;
          histos.push_back(&registry.histogram(
              "race_h" + std::to_string(index), MetricClass::kSemantic,
              "us"));
        }
        for (int i = 0; i < kPerThread; ++i) {
          for (LatencyHisto* histo : histos) {
            histo->record(static_cast<std::uint64_t>(t) * 100 + 1);
          }
          counter.inc();
        }
      });
    }
    for (std::thread& writer : writers) writer.join();
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  const auto values = registry.scrape();
  std::uint64_t per_histo_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    per_histo_sum += static_cast<std::uint64_t>(kPerThread) *
                     (static_cast<std::uint64_t>(t) * 100 + 1);
  }
  for (int h = 0; h < kHistos; ++h) {
    const MetricValue* v = find(values, "race_h" + std::to_string(h));
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->histogram.count,
              static_cast<std::uint64_t>(kThreads) * kPerThread);
    EXPECT_EQ(v->histogram.sum, per_histo_sum);
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(v->histogram.counts[LatencyHisto::slot_of(
                    static_cast<std::uint64_t>(t) * 100 + 1)],
                static_cast<std::uint64_t>(kPerThread));
    }
  }
  EXPECT_EQ(find(values, "race_c")->value,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistry, SemanticSnapshotExcludesTimingAndIsStableText) {
  MetricsRegistry registry;
  registry.counter("b_semantic", MetricClass::kSemantic).add(7);
  registry.counter("a_timing", MetricClass::kTiming).add(9);
  registry.histogram("c_hist", MetricClass::kSemantic, "count").record(2);
  registry.histogram("d_timing_hist", MetricClass::kTiming, "ns").record(5);
  const std::string snapshot = registry.semantic_snapshot();
  EXPECT_NE(snapshot.find("b_semantic 7"), std::string::npos);
  EXPECT_EQ(snapshot.find("a_timing"), std::string::npos);
  EXPECT_NE(snapshot.find("c_hist{le=2} 1"), std::string::npos);
  EXPECT_NE(snapshot.find("c_hist_sum 2"), std::string::npos);
  EXPECT_EQ(snapshot.find("d_timing_hist"), std::string::npos);
  // Same state scraped twice is byte-identical.
  EXPECT_EQ(snapshot, registry.semantic_snapshot());
}

TEST(MetricsRegistry, ScrapeIsSortedByName) {
  MetricsRegistry registry;
  (void)registry.counter("zzz", MetricClass::kSemantic);
  (void)registry.counter("aaa", MetricClass::kSemantic);
  const auto values = registry.scrape();
  ASSERT_TRUE(std::is_sorted(values.begin(), values.end(),
                             [](const MetricValue& a, const MetricValue& b) {
                               return a.name < b.name;
                             }));
}

TEST(MetricsRegistry, ResetZeroesValuesButKeepsRegistrations) {
  MetricsRegistry registry;
  const Counter c = registry.counter("resettable", MetricClass::kSemantic);
  c.add(5);
  registry.reset();
  const auto after_reset = registry.scrape();
  EXPECT_EQ(find(after_reset, "resettable")->value, 0u);
  c.add(2);
  const auto after_add = registry.scrape();
  EXPECT_EQ(find(after_add, "resettable")->value, 2u);
}

TEST(MetricsRegistry, DisabledRegistryDropsWrites) {
  MetricsRegistry registry;
  const Counter c = registry.counter("muted", MetricClass::kSemantic);
  registry.set_enabled(false);
  c.add(100);
  registry.set_enabled(true);
  c.add(1);
  const auto values = registry.scrape();
  EXPECT_EQ(find(values, "muted")->value, 1u);
}

TEST(MetricsRegistry, JsonAndPrometheusCarryEveryMetric) {
  MetricsRegistry registry;
  registry.counter("c1", MetricClass::kSemantic).add(3);
  registry.gauge("g1", MetricClass::kTiming).set(1.5);
  registry.histogram("h1", MetricClass::kSemantic, "count").record(1);
  const std::string json = registry.scrape_json();
  EXPECT_NE(json.find("\"name\": \"c1\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"g1\""), std::string::npos);
  // Histograms are listed in the `latency` section, after the metrics.
  const std::size_t latency = json.find("\"latency\": [");
  ASSERT_NE(latency, std::string::npos) << json;
  EXPECT_GT(json.find("\"name\": \"h1\", \"class\": \"semantic\", "
                      "\"unit\": \"count\", \"count\": 1"),
            latency)
      << json;
  const std::string prom = registry.scrape_prometheus();
  // Counter TYPE lines must name the *_total family, not the bare name:
  // promtool rejects samples that do not belong to the declared family.
  EXPECT_NE(prom.find("# TYPE c1_total counter"), std::string::npos);
  EXPECT_EQ(prom.find("# TYPE c1 counter"), std::string::npos);
  EXPECT_NE(prom.find("c1_total 3"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE h1 histogram"), std::string::npos);
  EXPECT_NE(prom.find("h1_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("h1_count 1"), std::string::npos);
}

// --- Prometheus exposition lint -------------------------------------------
//
// A promtool-shaped validator: every sample must belong to a family
// declared by a preceding # TYPE line, counters must end in _total,
// histograms must close with +Inf/_sum/_count and have monotonically
// non-decreasing cumulative buckets. Runs against the real scrape so any
// future exposition regression fails here, without needing promtool in
// the test image.
struct PromLint {
  std::vector<std::string> errors;
};

std::vector<std::string_view> lint_lines(std::string_view text) {
  std::vector<std::string_view> lines;
  std::size_t at = 0;
  while (at < text.size()) {
    std::size_t end = text.find('\n', at);
    if (end == std::string_view::npos) end = text.size();
    lines.push_back(text.substr(at, end - at));
    at = end + 1;
  }
  return lines;
}

PromLint prometheus_lint(std::string_view exposition) {
  PromLint lint;
  std::string family;
  std::string type;
  bool saw_inf = false;
  bool saw_sum = false;
  bool saw_count = false;
  double last_bucket = -1.0;
  const auto close_family = [&] {
    if (type == "histogram" && !family.empty()) {
      if (!saw_inf) lint.errors.push_back(family + ": no +Inf bucket");
      if (!saw_sum) lint.errors.push_back(family + ": no _sum");
      if (!saw_count) lint.errors.push_back(family + ": no _count");
    }
  };
  for (const std::string_view line : lint_lines(exposition)) {
    if (line.empty()) continue;
    if (line.rfind("# HELP ", 0) == 0) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      close_family();
      const std::string_view rest = line.substr(7);
      const std::size_t space = rest.find(' ');
      family = std::string(rest.substr(0, space));
      type = std::string(rest.substr(space + 1));
      saw_inf = saw_sum = saw_count = false;
      last_bucket = -1.0;
      if (type == "counter" &&
          family.size() < 6 /* "_total" */) {
        lint.errors.push_back(family + ": counter family missing _total");
      }
      if (type == "counter" &&
          family.rfind("_total") != family.size() - 6) {
        lint.errors.push_back(family + ": counter family missing _total");
      }
      continue;
    }
    if (line.front() == '#') continue;
    // Sample line: name[{labels}] value
    std::size_t name_end = line.find_first_of("{ ");
    const std::string name(line.substr(0, name_end));
    if (family.empty()) {
      lint.errors.push_back(name + ": sample before any # TYPE");
      continue;
    }
    bool in_family = false;
    if (type == "histogram") {
      const std::string base =
          family;  // histogram samples are base_bucket/_sum/_count
      if (name == base + "_sum") {
        saw_sum = true;
        in_family = true;
      } else if (name == base + "_count") {
        saw_count = true;
        in_family = true;
      } else if (name == base + "_bucket") {
        in_family = true;
        const std::size_t le = line.find("le=\"");
        if (le == std::string_view::npos) {
          lint.errors.push_back(name + ": bucket without le label");
        } else {
          const std::size_t vstart = le + 4;
          const std::size_t vend = line.find('"', vstart);
          const std::string le_text(line.substr(vstart, vend - vstart));
          if (le_text == "+Inf") {
            saw_inf = true;
          } else {
            const double bound = std::stod(le_text);
            if (bound < last_bucket) {
              lint.errors.push_back(name + ": le bounds not sorted");
            }
            last_bucket = bound;
          }
        }
        // Cumulative monotonicity is asserted separately below by
        // comparing the parsed values; here we just track bounds.
      }
    } else {
      in_family = name == family;
    }
    if (!in_family) {
      lint.errors.push_back(name + ": not in family " + family + " (" +
                            type + ")");
    }
  }
  close_family();
  return lint;
}

TEST(MetricsRegistry, PrometheusExpositionPassesLint) {
  MetricsRegistry registry;
  registry.counter("probes", MetricClass::kSemantic, "probes sent").add(7);
  registry.gauge("depth", MetricClass::kTiming, "queue depth").set(2.5);
  LatencyHisto& h =
      registry.histogram("rtt_us", MetricClass::kSemantic, "us", "rtt");
  h.record(500);
  h.record(5000);
  h.record(5'000'000);
  const std::string prom = registry.scrape_prometheus();
  const PromLint lint = prometheus_lint(prom);
  for (const std::string& error : lint.errors) ADD_FAILURE() << error;

  // Cumulative buckets are non-decreasing and the +Inf bucket equals
  // rtt_us_count (promtool's histogram invariant).
  std::uint64_t last = 0;
  std::uint64_t inf_value = 0;
  for (const std::string_view line : lint_lines(prom)) {
    if (line.rfind("rtt_us_bucket", 0) != 0) continue;
    const std::size_t space = line.rfind(' ');
    const std::uint64_t value =
        std::stoull(std::string(line.substr(space + 1)));
    EXPECT_GE(value, last) << line;
    last = value;
    if (line.find("+Inf") != std::string_view::npos) inf_value = value;
  }
  EXPECT_EQ(inf_value, 3u);
  EXPECT_NE(prom.find("rtt_us_count 3"), std::string::npos);
}

TEST(MetricsRegistry, PrometheusEscapingOfHelpAndLabels) {
  using anycast::obs::prometheus_escape_help;
  using anycast::obs::prometheus_escape_label;
  EXPECT_EQ(prometheus_escape_help("plain"), "plain");
  EXPECT_EQ(prometheus_escape_help("a\\b\nc"), "a\\\\b\\nc");
  // Label values additionally escape double quotes.
  EXPECT_EQ(prometheus_escape_label("he said \"hi\"\n"),
            "he said \\\"hi\\\"\\n");
  EXPECT_EQ(prometheus_escape_label("back\\slash"), "back\\\\slash");

  // And the registry applies help escaping in the exposition itself.
  MetricsRegistry registry;
  (void)registry.counter("esc", MetricClass::kSemantic, "line\nbreak");
  const std::string prom = registry.scrape_prometheus();
  EXPECT_NE(prom.find("# HELP esc_total line\\nbreak"), std::string::npos);
  EXPECT_EQ(prom.find("line\nbreak"), std::string::npos);
}

// --- Trace spans ----------------------------------------------------------

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { anycast::obs::trace().reset(); }
};

const SpanRecord* find_span(const std::vector<SpanRecord>& records,
                            std::string_view name) {
  for (const SpanRecord& r : records) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

TEST_F(TraceTest, LexicalNestingParentsInnerToOuter) {
  {
    const Span outer("outer");
    {
      const Span inner("inner");
      (void)inner;
    }
    (void)outer;
  }
  const auto records = anycast::obs::trace().finished();
  const SpanRecord* outer = find_span(records, "outer");
  const SpanRecord* inner = find_span(records, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->parent, 0u);
  EXPECT_EQ(inner->parent, outer->id);
  EXPECT_FALSE(inner->adopted);
  EXPECT_GE(inner->duration_ns, 0);
}

TEST_F(TraceTest, WorkerSpansAreAdoptedByTheRootSpan) {
  {
    const Span root(Span::Root::kAdoptionPoint, "fanout");
    std::thread worker([] {
      const Span task("task", 7);
      (void)task;
    });
    worker.join();
  }
  const auto records = anycast::obs::trace().finished();
  const SpanRecord* root = find_span(records, "fanout");
  const SpanRecord* task = find_span(records, "task");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(task, nullptr);
  EXPECT_EQ(task->parent, root->id);
  EXPECT_TRUE(task->adopted);
  EXPECT_EQ(task->label, 7u);
  EXPECT_EQ(anycast::obs::trace().orphans(), 0u);
}

TEST_F(TraceTest, SpansWithNoParentAnywhereAreCountedAsOrphans) {
  std::thread worker([] {
    const Span lonely("lonely");
    (void)lonely;
  });
  worker.join();
  const auto records = anycast::obs::trace().finished();
  const SpanRecord* lonely = find_span(records, "lonely");
  ASSERT_NE(lonely, nullptr);
  EXPECT_EQ(lonely->parent, 0u);
  EXPECT_EQ(anycast::obs::trace().orphans(), 1u);
}

TEST_F(TraceTest, CapacityCapDropsAndCounts) {
  anycast::obs::trace().set_capacity(2);
  for (int i = 0; i < 5; ++i) {
    const Span s("burst", static_cast<std::uint64_t>(i));
    (void)s;
  }
  EXPECT_EQ(anycast::obs::trace().finished().size(), 2u);
  EXPECT_EQ(anycast::obs::trace().dropped(), 3u);
  anycast::obs::trace().set_capacity(16384);  // restore the default
}

TEST_F(TraceTest, RenderTreeIndentsChildren) {
  {
    const Span outer("phase");
    const Span inner("step", 3);
    (void)outer;
    (void)inner;
  }
  const std::string tree = anycast::obs::trace().render_tree();
  EXPECT_NE(tree.find("phase"), std::string::npos);
  EXPECT_NE(tree.find("  step[3]"), std::string::npos);
}

TEST_F(TraceTest, RenderTreeCapsOutputAndReportsDrops) {
  anycast::obs::trace().set_capacity(3);
  for (int i = 0; i < 6; ++i) {
    const Span s("burst", static_cast<std::uint64_t>(i));
    (void)s;
  }
  // Explicit cap below the stored count: the footer must account for
  // both the omitted-by-cap spans and the dropped-at-capacity ones
  // instead of truncating silently.
  const std::string capped = anycast::obs::trace().render_tree(2);
  EXPECT_NE(capped.find("2 spans shown"), std::string::npos);
  EXPECT_NE(capped.find("1 omitted"), std::string::npos);
  EXPECT_NE(capped.find("3 dropped at capacity"), std::string::npos);
  // Default render (cap = stored capacity) shows everything stored but
  // still reports the drops.
  const std::string full = anycast::obs::trace().render_tree();
  EXPECT_NE(full.find("3 dropped at capacity"), std::string::npos);
  anycast::obs::trace().set_capacity(16384);  // restore the default
}

TEST_F(TraceTest, SpansJsonListsEverySpan) {
  {
    const Span a("alpha");
    (void)a;
  }
  {
    const Span b("beta", 2);
    (void)b;
  }
  const std::string json = anycast::obs::trace().spans_json();
  EXPECT_NE(json.find("\"name\": \"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"beta\""), std::string::npos);
  EXPECT_NE(json.find("\"label\": 2"), std::string::npos);
}

// --- LatencyHisto quantile correctness vs exact oracle ----------------------
//
// The documented bound (latency.hpp): for exact order statistic x at rank
// ceil(q*n), the estimate e satisfies x <= e <= x*(1+kMaxRelativeError)+1
// (the +1 absorbs the half-open integer bucket edge). Checked against a
// sort-based oracle on uniform, log-normal (the shape real RTTs take),
// and adversarial bucket-edge samples.

void check_quantiles_against_oracle(const std::vector<std::uint64_t>& samples,
                                    const char* label) {
  MetricsRegistry registry;
  LatencyHisto& histo =
      registry.histogram("oracle_scratch", MetricClass::kTiming, "ns");
  std::vector<std::uint64_t> sorted = samples;
  for (const std::uint64_t v : samples) histo.record(v);
  std::sort(sorted.begin(), sorted.end());
  const LatencyHisto::Snapshot snap = histo.snapshot();
  ASSERT_EQ(snap.count, samples.size()) << label;
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    // Same rank definition as Snapshot::quantile: the ceil(q*n)-th
    // smallest sample, clamped to [1, n].
    const std::size_t rank = std::min<std::size_t>(
        sorted.size(),
        std::max<std::size_t>(
            1, static_cast<std::size_t>(
                   std::ceil(q * static_cast<double>(sorted.size())))));
    const double oracle = static_cast<double>(sorted[rank - 1]);
    const double estimate = snap.quantile(q);
    EXPECT_GE(estimate, oracle) << label << " q=" << q;
    EXPECT_LE(estimate, oracle * (1.0 + LatencyHisto::kMaxRelativeError) + 1.0)
        << label << " q=" << q << " oracle=" << oracle;
  }
}

TEST(LatencyHistoQuantiles, UniformSamplesWithinDocumentedBound) {
  std::mt19937_64 rng(20150417);
  std::uniform_int_distribution<std::uint64_t> dist(1, 50'000'000);
  std::vector<std::uint64_t> samples(20000);
  for (std::uint64_t& v : samples) v = dist(rng);
  check_quantiles_against_oracle(samples, "uniform");
}

TEST(LatencyHistoQuantiles, LogNormalSamplesWithinDocumentedBound) {
  std::mt19937_64 rng(42);
  std::lognormal_distribution<double> dist(10.0, 2.0);  // ~22us median, ns
  std::vector<std::uint64_t> samples(20000);
  for (std::uint64_t& v : samples) {
    v = static_cast<std::uint64_t>(std::llround(dist(rng))) + 1;
  }
  check_quantiles_against_oracle(samples, "lognormal");
}

TEST(LatencyHistoQuantiles, AdversarialBucketEdgeSamples) {
  // Values pinned to bucket boundaries (lower, upper-1) across several
  // octaves — the worst case for an estimator returning the bucket's
  // upper representative — plus the exact-region edge and saturation.
  std::vector<std::uint64_t> samples;
  for (const std::uint32_t slot :
       {0u, 127u, 128u, 129u, 255u, 256u, 1024u, 2048u, 4000u,
        LatencyHisto::kSlots - 1}) {
    const std::uint64_t lower = LatencyHisto::slot_lower(slot);
    const std::uint64_t upper = LatencyHisto::slot_upper(slot);
    for (int i = 0; i < 50; ++i) {
      samples.push_back(lower);
      samples.push_back(upper - 1);
    }
  }
  check_quantiles_against_oracle(samples, "bucket-edge");
}

TEST(LatencyHistoQuantiles, ExactRegionIsExact) {
  // Below kSubCount the buckets are unit-wide: the estimate IS the order
  // statistic, no error at all.
  MetricsRegistry registry;
  LatencyHisto& histo =
      registry.histogram("oracle_exact", MetricClass::kTiming, "ns");
  for (std::uint64_t v = 1; v <= 100; ++v) histo.record(v);
  const LatencyHisto::Snapshot snap = histo.snapshot();
  EXPECT_DOUBLE_EQ(snap.quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(snap.quantile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(snap.quantile(0.0), 1.0);  // rank clamps to 1
}

TEST(LatencyHistoQuantiles, LatencyPrometheusPassesExpositionLint) {
  // The per-query histograms ride the global registry's exposition; the
  // promtool-shaped linter must accept it, alone and concatenated with
  // another registry's.
  LatencyHisto& histo =
      LatencyHisto::get("lint_latency_ns", "ns", "lint \"edge\" case\n");
  histo.record(50);
  histo.record(5000);
  histo.record(5'000'000);
  const std::string prom = anycast::obs::metrics().scrape_prometheus();
  ASSERT_NE(prom.find("# TYPE lint_latency_ns histogram"), std::string::npos);
  for (const std::string& error : prometheus_lint(prom).errors) {
    ADD_FAILURE() << error;
  }
  MetricsRegistry registry;
  registry.counter("side", MetricClass::kTiming, "side counter").inc();
  const std::string combined = registry.scrape_prometheus() + prom;
  for (const std::string& error : prometheus_lint(combined).errors) {
    ADD_FAILURE() << "combined: " << error;
  }
  // Cumulative monotonicity + the +Inf == _count invariant, as promtool
  // checks them.
  std::uint64_t last = 0;
  std::uint64_t inf_value = 0;
  for (const std::string_view line : lint_lines(prom)) {
    if (line.rfind("lint_latency_ns_bucket", 0) != 0) continue;
    const std::size_t space = line.rfind(' ');
    const std::uint64_t value =
        std::stoull(std::string(line.substr(space + 1)));
    EXPECT_GE(value, last) << line;
    last = value;
    if (line.find("+Inf") != std::string_view::npos) inf_value = value;
  }
  EXPECT_EQ(inf_value, 3u);
}

// --- Journal string escaping -----------------------------------------------

/// The decoded JSON string value of `"key":"..."` in `line`; nullopt when
/// the key is absent or the value has a malformed or cut-short escape.
std::optional<std::string> json_string_field(std::string_view line,
                                             std::string_view key) {
  const std::string open = "\"" + std::string(key) + "\":\"";
  std::size_t at = line.find(open);
  if (at == std::string_view::npos) return std::nullopt;
  std::string out;
  for (at += open.size(); at < line.size(); ++at) {
    const char c = line[at];
    if (c == '"') return out;
    if (static_cast<unsigned char>(c) < 0x20) return std::nullopt;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (++at == line.size()) return std::nullopt;
    switch (line[at]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        if (at + 4 >= line.size()) return std::nullopt;
        const std::string hex(line.substr(at + 1, 4));
        if (hex.find_first_not_of("0123456789abcdef") != std::string::npos) {
          return std::nullopt;
        }
        out += static_cast<char>(std::stoi(hex, nullptr, 16));
        at += 4;
        break;
      }
      default: return std::nullopt;
    }
  }
  return std::nullopt;  // unterminated
}

TEST(JournalEscaping, ControlCharactersRoundTripThroughALine) {
  anycast::obs::Journal j;
  j.set_recording(true);
  const std::string value = "tab\there\rcr\x01one\nnl\"q\\b\x1f";
  j.emit(MetricClass::kSemantic, anycast::obs::Severity::kInfo, "escape", 0,
         {{"s", value}});
  j.commit();
  const std::string text = j.semantic_text();
  ASSERT_EQ(std::count(text.begin(), text.end(), '\n'), 1);
  EXPECT_NE(text.find("tab\\there\\rcr\\u0001one\\nnl"), std::string::npos);
  EXPECT_EQ(json_string_field(text, "s"), value);
}

TEST(JournalEscaping, NearFullLinesNeverHalfWriteAnEscape) {
  // Sizes sweep the 768-byte line buffer's edge: each \x01 takes six
  // bytes, so somewhere in the sweep the field stops fitting.
  bool fitted = false;
  bool cut = false;
  for (std::size_t n = 90; n <= 140; ++n) {
    anycast::obs::Journal j;
    j.set_recording(true);
    const std::string value = "x" + std::string(n, '\x01') + "\t";
    j.emit(MetricClass::kSemantic, anycast::obs::Severity::kInfo, "edge", 0,
           {{"before", 1u}, {"s", value}, {"after", 2u}});
    j.commit();
    const std::string text = j.semantic_text();
    SCOPED_TRACE("n=" + std::to_string(n));
    ASSERT_EQ(std::count(text.begin(), text.end(), '\n'), 1);
    ASSERT_GE(text.size(), 2u);
    EXPECT_EQ(text.substr(text.size() - 2), "}\n");
    // The field is whole or absent, and an absent one flags the line.
    const bool truncated = text.find("\"truncated\":true") != std::string::npos;
    if (text.find("\"s\":") == std::string::npos) {
      EXPECT_TRUE(truncated);
      cut = true;
    } else {
      EXPECT_EQ(json_string_field(text, "s"), value);
      fitted = true;
    }
    EXPECT_EQ(text.find("\"after\":2") == std::string::npos, truncated);
  }
  EXPECT_TRUE(fitted);
  EXPECT_TRUE(cut);
}

// --- Durable writes ------------------------------------------------------

std::uint64_t global_counter(std::string_view name) {
  const auto values = anycast::obs::metrics().scrape();
  const MetricValue* value = find(values, name);
  return value != nullptr ? value->value : 0;
}

std::string file_text(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

class DurableWrite : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("durable_" + std::string(::testing::UnitTest::GetInstance()
                                         ->current_test_info()
                                         ->name()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(DurableWrite, CountsOneWriteAndTwoFsyncsPerFile) {
  // One fsync for the file, one for its directory after the rename.
  constexpr std::uint64_t kWrites = 5;
  const std::uint64_t writes = global_counter("durable_writes");
  const std::uint64_t fsyncs = global_counter("durable_fsyncs");
  for (std::uint64_t i = 0; i < kWrites; ++i) {
    ASSERT_FALSE(anycast::obs::write_file_atomic(
        dir_ / ("f" + std::to_string(i)), "payload " + std::to_string(i)));
  }
  EXPECT_EQ(global_counter("durable_writes") - writes, kWrites);
  EXPECT_EQ(global_counter("durable_fsyncs") - fsyncs, 2 * kWrites);
  // A write that fails publishes nothing and counts nothing.
  EXPECT_TRUE(anycast::obs::write_file_atomic(dir_ / "missing" / "f", "x"));
  EXPECT_EQ(global_counter("durable_writes") - writes, kWrites);
}

TEST_F(DurableWrite, JoinsPartsAndReportsTheCause) {
  const std::string header = "head:";
  const std::string payload = "payload";
  ASSERT_FALSE(anycast::obs::write_file_atomic(
      dir_ / "joined", {std::as_bytes(std::span(header)),
                        std::as_bytes(std::span(payload))}));
  EXPECT_EQ(file_text(dir_ / "joined"), "head:payload");

  const std::error_code missing =
      anycast::obs::write_file_atomic(dir_ / "missing" / "f", "x");
  EXPECT_EQ(missing, std::errc::no_such_file_or_directory) << missing;

  // A device that fails the flush: the error carries ENOSPC and the tmp
  // (here a symlink to the device) is removed.
  const std::filesystem::path full = dir_ / "full";
  std::error_code ec;
  std::filesystem::create_symlink("/dev/full", full.string() + ".tmp", ec);
  if (ec) GTEST_SKIP() << "cannot link /dev/full: " << ec.message();
  EXPECT_EQ(anycast::obs::write_file_atomic(full, "x"),
            std::errc::no_space_on_device);
  EXPECT_FALSE(std::filesystem::exists(full));
  EXPECT_FALSE(std::filesystem::is_symlink(full.string() + ".tmp"));
}

TEST_F(DurableWrite, JournalOpenSyncsTheNewNamesDirectory) {
  const std::uint64_t fsyncs = global_counter("durable_fsyncs");
  anycast::obs::Journal journal;
  ASSERT_TRUE(journal.open(dir_ / "run.jsonl"));
  EXPECT_EQ(global_counter("durable_fsyncs") - fsyncs, 1u);
}

TEST_F(DurableWrite, JournalKeepsAFailedCommitBarrier) {
  // A journal on a device that fails the flush: the commit barrier's
  // error is kept (the first one) until the next open, and a path that is
  // not a regular file is never replaced by a durable publish.
  const std::filesystem::path full = dir_ / "full.jsonl";
  std::error_code ec;
  std::filesystem::create_symlink("/dev/full", full, ec);
  if (ec) GTEST_SKIP() << "cannot link /dev/full: " << ec.message();
  anycast::obs::Journal journal;
  ASSERT_TRUE(journal.open(full));
  EXPECT_FALSE(journal.write_error());
  journal.emit(anycast::obs::MetricClass::kSemantic,
               anycast::obs::Severity::kInfo, "test.event", 1, {{"n", 1}});
  journal.commit();
  EXPECT_EQ(journal.write_error(), std::errc::no_space_on_device);
  journal.close();
  EXPECT_EQ(journal.write_error(), std::errc::no_space_on_device);
  ASSERT_TRUE(journal.open(dir_ / "ok.jsonl"));
  EXPECT_FALSE(journal.write_error());
  journal.close();

  EXPECT_EQ(anycast::obs::write_file_atomic(full, "x"),
            std::errc::invalid_argument);
  EXPECT_TRUE(std::filesystem::is_symlink(full));
  EXPECT_FALSE(std::filesystem::exists(full.string() + ".tmp"));
}

TEST_F(DurableWrite, CrashPointLeavesHalfTheBytesInTheTmp) {
  namespace testing = anycast::obs::testing;
  const std::filesystem::path path = dir_ / "state";
  const std::filesystem::path tmp = path.string() + ".tmp";
  const std::string first = "first version";
  const std::string header = "0123";
  const std::string payload = "456789";

  testing::crash_at_durable_write(2);
  ASSERT_FALSE(anycast::obs::write_file_atomic(path, first));
  try {
    (void)anycast::obs::write_file_atomic(
        path, {std::as_bytes(std::span(header)),
               std::as_bytes(std::span(payload))});
    ADD_FAILURE() << "the second write should have crashed";
  } catch (const testing::CrashPoint& crash) {
    EXPECT_EQ(crash.path, path);
  }
  // Half of the joined parts, cut inside the second part; the published
  // file is untouched.
  EXPECT_EQ(file_text(tmp), "01234");
  EXPECT_EQ(file_text(path), first);

  // The seam disarmed itself: the next write publishes and clears the tmp.
  ASSERT_FALSE(anycast::obs::write_file_atomic(path, payload));
  EXPECT_EQ(file_text(path), payload);
  EXPECT_FALSE(std::filesystem::exists(tmp));

  testing::crash_at_durable_write(1);
  testing::crash_at_durable_write(0);
  EXPECT_FALSE(anycast::obs::write_file_atomic(path, first));
}

}  // namespace
