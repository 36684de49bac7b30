// The live telemetry plane: lock-free HDR latency histograms, windowed
// time series, and multi-window SLO burn-rate tracking. These tests are
// also the TSAN surface for the per-thread histogram shards and the
// series mutex — run_sanitizers.sh builds this binary under
// -fsanitize=thread.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "anycast/obs/durable.hpp"
#include "anycast/obs/latency.hpp"
#include "anycast/obs/metrics.hpp"
#include "anycast/obs/slo.hpp"
#include "anycast/obs/telemetry.hpp"
#include "anycast/obs/timeseries.hpp"

namespace anycast::obs {
namespace {

namespace fs = std::filesystem;

// --- LatencyHisto ------------------------------------------------------------

TEST(LatencyHistoTest, SlotMathIsExactBelowSubCountAndConsistentAbove) {
  // The exact region: unit-wide buckets, slot == value.
  for (std::uint64_t v = 0; v < LatencyHisto::kSubCount; ++v) {
    EXPECT_EQ(LatencyHisto::slot_of(v), v);
    EXPECT_EQ(LatencyHisto::slot_lower(static_cast<std::uint32_t>(v)), v);
    EXPECT_EQ(LatencyHisto::slot_upper(static_cast<std::uint32_t>(v)), v + 1);
  }
  // Every slot's bounds round-trip through slot_of, and bucket width
  // never exceeds lower / 2^kSubBits (the relative-error invariant).
  for (std::uint32_t s = 0; s < LatencyHisto::kSlots; ++s) {
    const std::uint64_t lower = LatencyHisto::slot_lower(s);
    const std::uint64_t upper = LatencyHisto::slot_upper(s);
    ASSERT_LT(lower, upper) << "slot " << s;
    EXPECT_EQ(LatencyHisto::slot_of(lower), s);
    EXPECT_EQ(LatencyHisto::slot_of(upper - 1), s);
    if (lower >= LatencyHisto::kSubCount) {
      EXPECT_LE(upper - lower, lower / LatencyHisto::kSubCount)
          << "slot " << s << " too wide for the error bound";
    }
  }
  // Saturation: anything at or beyond kMaxValue lands in the top slot.
  EXPECT_EQ(LatencyHisto::slot_of(LatencyHisto::kMaxValue),
            LatencyHisto::kSlots - 1);
}

TEST(LatencyHistoTest, RecordSnapshotAndWindowDelta) {
  MetricsRegistry registry;
  LatencyHisto& histo =
      registry.histogram("test_rsd", MetricClass::kTiming, "ns");
  for (int i = 0; i < 100; ++i) histo.record(10);
  for (int i = 0; i < 5; ++i) histo.record(1000);
  const LatencyHisto::Snapshot first = histo.snapshot();
  EXPECT_EQ(first.count, 105u);
  EXPECT_EQ(first.sum, 100u * 10 + 5u * 1000);
  EXPECT_EQ(first.min(), 10u);
  EXPECT_GE(first.max(), 1000u);
  // count_above counts whole buckets strictly above the threshold:
  // the value-10 bucket is excluded at threshold 10, included at 9.
  EXPECT_EQ(first.count_above(500), 5u);
  EXPECT_EQ(first.count_above(10), 5u);
  EXPECT_EQ(first.count_above(9), 105u);

  histo.record(20);
  histo.record(20);
  const LatencyHisto::Snapshot window = histo.snapshot().delta_since(first);
  EXPECT_EQ(window.count, 2u);
  EXPECT_EQ(window.sum, 40u);
  EXPECT_EQ(window.min(), 20u);
}

TEST(LatencyHistoTest, KillSwitchMakesRecordANoOp) {
  MetricsRegistry registry;
  LatencyHisto& histo =
      registry.histogram("test_kill", MetricClass::kTiming, "ns");
  histo.record(7);
  set_latency_recording(false);
  histo.record(7);
  histo.record(7);
  set_latency_recording(true);
  histo.record(7);
  EXPECT_EQ(histo.snapshot().count, 2u);
}

TEST(LatencyHistoTest, ConcurrentRecordersMergeExactly) {
  // 8 threads record disjoint value sets and exit (folding their shards
  // into the retired array) while a reader scrapes concurrently. The
  // final merge must be exact — relaxed atomics lose nothing.
  MetricsRegistry registry;
  LatencyHisto& histo =
      registry.histogram("test_mt", MetricClass::kTiming, "ns");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)histo.snapshot();
    }
  });
  {
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&histo, t] {
        for (int i = 0; i < kPerThread; ++i) {
          histo.record(static_cast<std::uint64_t>(t) * 1000 + 10);
        }
      });
    }
    for (std::thread& w : writers) w.join();
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  const LatencyHisto::Snapshot snap = histo.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    expected_sum += static_cast<std::uint64_t>(kPerThread) *
                    (static_cast<std::uint64_t>(t) * 1000 + 10);
  }
  EXPECT_EQ(snap.sum, expected_sum);
}

TEST(LatencyHistoTest, GlobalRegistryReturnsSameInstance) {
  LatencyHisto& a = LatencyHisto::get("test_global_histo", "us", "help");
  LatencyHisto& b = LatencyHisto::get("test_global_histo", "us", "ignored");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(&a, &metrics().histogram("test_global_histo", MetricClass::kTiming,
                                     "us"));
  b.record(1);
  EXPECT_EQ(b.snapshot().unit, "us");
  // One name means one instrument: a different unit or class throws.
  EXPECT_THROW((void)LatencyHisto::get("test_global_histo", "ms", "help"),
               std::logic_error);
  EXPECT_THROW((void)metrics().histogram("test_global_histo",
                                         MetricClass::kSemantic, "us"),
               std::logic_error);
}

// --- TimeSeries --------------------------------------------------------------

TEST(TimeSeriesTest, RotationKeepsNewestPointsOldestFirst) {
  TimeSeries series("s", {"a", "b"}, 4);
  for (std::uint64_t t = 1; t <= 6; ++t) {
    const double values[] = {static_cast<double>(t),
                             static_cast<double>(10 * t)};
    series.push(t, values);
  }
  EXPECT_EQ(series.size(), 4u);
  EXPECT_EQ(series.total_pushed(), 6u);
  const std::vector<TimeSeries::Point> window = series.window();
  ASSERT_EQ(window.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(window[i].t, i + 3) << "oldest-first after rotation";
    EXPECT_EQ(window[i].v[1], static_cast<double>(10 * (i + 3)));
  }
  const std::vector<TimeSeries::Point> last2 = series.window(2);
  ASSERT_EQ(last2.size(), 2u);
  EXPECT_EQ(last2[0].t, 5u);
  EXPECT_EQ(last2[1].t, 6u);

  const TimeSeries::FieldStats stats = series.stats(0);
  EXPECT_EQ(stats.n, 4u);
  EXPECT_EQ(stats.last, 6.0);
  EXPECT_EQ(stats.min, 3.0);
  EXPECT_EQ(stats.max, 6.0);
  EXPECT_DOUBLE_EQ(stats.mean, (3 + 4 + 5 + 6) / 4.0);
}

TEST(TimeSeriesTest, ShortAndLongValueSpansClampToSchema) {
  TimeSeries series("s", {"a", "b"}, 4);
  const double one[] = {7.0};
  series.push(1, one);  // missing b reads as 0
  const double three[] = {1.0, 2.0, 3.0};
  series.push(2, three);  // extra value drops
  const auto window = series.window();
  ASSERT_EQ(window.size(), 2u);
  EXPECT_EQ(window[0].v, (std::vector<double>{7.0, 0.0}));
  EXPECT_EQ(window[1].v, (std::vector<double>{1.0, 2.0}));
}

TEST(TimeSeriesTest, ToJsonCarriesFieldArraysOldestFirst) {
  TimeSeries series("qps_series", {"qps"}, 8);
  const double a[] = {100.0};
  const double b[] = {200.0};
  series.push(1, a);
  series.push(2, b);
  const std::string json = series.to_json();
  EXPECT_NE(json.find("\"name\": \"qps_series\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"t\": [1, 2]"), std::string::npos) << json;
  EXPECT_NE(json.find("\"qps\": [100, 200]"), std::string::npos) << json;
}

TEST(TimeSeriesTest, ConcurrentPushAndReadAreRaceFree) {
  // Pure TSAN surface: writers rotate the ring while readers walk it.
  TimeSeries series("mt", {"x"}, 16);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < 3; ++w) {
    threads.emplace_back([&series, w] {
      for (std::uint64_t i = 0; i < 5000; ++i) {
        const double v[] = {static_cast<double>(w * 10000 + i)};
        series.push(i, v);
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&series, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        (void)series.window(8);
        (void)series.stats(0, 4);
        (void)series.to_json();
      }
    });
  }
  for (int w = 0; w < 3; ++w) threads[w].join();
  stop.store(true, std::memory_order_relaxed);
  threads[3].join();
  threads[4].join();
  EXPECT_EQ(series.total_pushed(), 15000u);
  EXPECT_EQ(series.size(), 16u);
}

// --- SloTracker --------------------------------------------------------------

TEST(SloSpecTest, ParsesRatioAndLatencyObjectives) {
  std::string error;
  const auto objectives =
      parse_slo_spec("p99_lookup_us=50, availability=0.999", &error);
  ASSERT_TRUE(objectives.has_value()) << error;
  ASSERT_EQ(objectives->size(), 2u);

  const SloObjective& latency = (*objectives)[0];
  EXPECT_EQ(latency.name, "p99_lookup_us");
  EXPECT_EQ(latency.input, SloObjective::Input::kLatency);
  EXPECT_EQ(latency.cls, MetricClass::kTiming);
  EXPECT_DOUBLE_EQ(latency.quantile, 0.99);
  EXPECT_NEAR(latency.budget, 0.01, 1e-12);
  EXPECT_EQ(latency.stage, "lookup");
  EXPECT_EQ(latency.histo_name, "serving_lookup_ns");
  EXPECT_EQ(latency.threshold_ns, 50000u);

  const SloObjective& ratio = (*objectives)[1];
  EXPECT_EQ(ratio.name, "availability");
  EXPECT_EQ(ratio.input, SloObjective::Input::kRatio);
  EXPECT_EQ(ratio.cls, MetricClass::kSemantic);
  EXPECT_NEAR(ratio.budget, 0.001, 1e-12);

  // p999 + ms: three-digit quantile, millisecond unit.
  const auto p999 = parse_slo_spec("p999_query_ms=2", &error);
  ASSERT_TRUE(p999.has_value()) << error;
  EXPECT_DOUBLE_EQ((*p999)[0].quantile, 0.999);
  EXPECT_EQ((*p999)[0].threshold_ns, 2000000u);

  EXPECT_TRUE(parse_slo_spec("", &error)->empty());
}

TEST(SloSpecTest, RejectsMalformedSpecs) {
  for (const char* bad :
       {"availability=1.5", "availability=0", "availability=x",
        "p99_bogus_us=50", "p99_parse_us=50", "p99_lookup_parsecs=50",
        "p0_lookup_us=50", "pxx_lookup_us=50", "p99_lookup_us=-1",
        "unknown=1", "noequals", "availability=nan", "p99_query_us=nan",
        "p99_query_us=inf", "availability=0x0.8p0"}) {
    std::string error;
    EXPECT_FALSE(parse_slo_spec(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

std::vector<SloObjective> availability_objective(double target) {
  std::string error;
  auto parsed = parse_slo_spec("availability=" + std::to_string(target),
                               &error);
  EXPECT_TRUE(parsed.has_value()) << error;
  return std::move(*parsed);
}

TEST(SloTrackerTest, MultiWindowBurnEntersAndRecovers) {
  // availability=0.9 -> budget 0.1. Defaults: short=1, long=4, threshold
  // 2x. Three healthy rounds, then a 50% outage: short burn 5000 and long
  // burn mean(0,0,0,5.0)=1250 permille -> violation. Healthy rounds after
  // push the long mean back under 1.0 -> recovery.
  SloTracker tracker(availability_objective(0.9));
  for (std::uint64_t t = 1; t <= 3; ++t) {
    EXPECT_FALSE(tracker.observe("availability", t, 100, 0).has_value());
  }
  const auto enter = tracker.observe("availability", 4, 50, 50);
  ASSERT_TRUE(enter.has_value());
  EXPECT_TRUE(enter->entered);
  EXPECT_EQ(enter->objective, "availability");
  EXPECT_EQ(enter->burn_short_permille, 5000u);
  EXPECT_EQ(enter->burn_long_permille, 1250u);

  auto state = tracker.states().at(0);
  EXPECT_TRUE(state.violating);
  EXPECT_EQ(state.violations, 1u);
  EXPECT_EQ(state.windows, 4u);

  // One healthy window: short burn drops to 0, so the AND gate releases.
  const auto recover = tracker.observe("availability", 5, 100, 0);
  ASSERT_TRUE(recover.has_value());
  EXPECT_FALSE(recover->entered);
  EXPECT_FALSE(tracker.states().at(0).violating);
  EXPECT_EQ(tracker.states().at(0).violations, 1u);
}

TEST(SloTrackerTest, LongWindowGuardsAgainstSingleBlips) {
  // A mild single-window burn (2x budget) clears the short threshold but
  // not the long-window budget — no page.
  SloTracker tracker(availability_objective(0.9));
  for (std::uint64_t t = 1; t <= 3; ++t) {
    (void)tracker.observe("availability", t, 100, 0);
  }
  EXPECT_FALSE(tracker.observe("availability", 4, 80, 20).has_value());
  const auto state = tracker.states().at(0);
  EXPECT_FALSE(state.violating);
  EXPECT_EQ(state.burn_short_permille, 2000u);
  EXPECT_EQ(state.burn_long_permille, 500u);
}

TEST(SloTrackerTest, UnknownObjectiveIsIgnored) {
  SloTracker tracker(availability_objective(0.9));
  EXPECT_FALSE(tracker.observe("latency", 1, 0, 100).has_value());
  EXPECT_EQ(tracker.states().at(0).windows, 0u);
}

TEST(SloTrackerTest, ObserveHistogramWindowsOnSnapshotDeltas) {
  std::string error;
  auto objectives = parse_slo_spec("p99_lookup_us=50", &error);
  ASSERT_TRUE(objectives.has_value()) << error;
  SloTracker tracker(std::move(*objectives));

  MetricsRegistry registry;
  LatencyHisto& histo =
      registry.histogram("test_slo_histo", MetricClass::kTiming, "ns");
  // Window 1: all fast (1us << 50us) -> burn 0.
  for (int i = 0; i < 1000; ++i) histo.record(1000);
  auto t1 = tracker.observe_histogram("p99_lookup_us", 1, histo.snapshot());
  EXPECT_FALSE(t1.has_value());
  EXPECT_EQ(tracker.states().at(0).burn_short_permille, 0u);

  // Window 2: the DELTA is 100% slow samples (10ms each): burn 100x over
  // the 1% budget on both windows -> violation.
  for (int i = 0; i < 100; ++i) histo.record(10'000'000);
  auto t2 = tracker.observe_histogram("p99_lookup_us", 2, histo.snapshot());
  ASSERT_TRUE(t2.has_value());
  EXPECT_TRUE(t2->entered);
  EXPECT_TRUE(tracker.states().at(0).violating);

  // Ratio-style observe on a latency objective is rejected as shape
  // mismatch; histogram observe on an unknown name is ignored.
  EXPECT_FALSE(
      tracker.observe_histogram("availability", 3, histo.snapshot())
          .has_value());
}

// --- TelemetryPlane ----------------------------------------------------------

TEST(TelemetryPlaneTest, TickAtRotatesPerSecondWindows) {
  TelemetryPlane plane;
  LatencyHisto& histo =
      LatencyHisto::get("serving_query_ns", "ns", "serving query latency");
  plane.tick_at(100.0);  // anchor against the current cumulative state
  EXPECT_EQ(plane.per_second().size(), 0u);

  for (int i = 0; i < 1000; ++i) histo.record(2000);
  plane.note_query_error();
  plane.tick_at(100.5);  // sub-second: gated, no rotation
  EXPECT_EQ(plane.per_second().size(), 0u);

  plane.tick_at(102.0);  // dt = 2.0s since the anchor
  ASSERT_EQ(plane.per_second().size(), 1u);
  const TimeSeries::Point point = plane.per_second().window().back();
  EXPECT_DOUBLE_EQ(point.v[0], 500.0);  // 1000 queries / 2.0 s
  EXPECT_DOUBLE_EQ(point.v[1], 0.5);    // 1 error / 2.0 s
  // p50 of an all-2000ns window, in us, within the 1/128 bucket bound.
  EXPECT_GE(point.v[2], 2.0);
  EXPECT_LE(point.v[2], 2.0 * (1 + LatencyHisto::kMaxRelativeError) + 0.001);
  EXPECT_EQ(plane.query_errors(), 1u);
}

TEST(TelemetryPlaneTest, LatencySloEvaluatedOnTick) {
  TelemetryPlane plane;
  std::string error;
  auto objectives = parse_slo_spec("p99_query_us=50", &error);
  ASSERT_TRUE(objectives.has_value()) << error;
  plane.set_slo(std::move(*objectives));
  ASSERT_TRUE(plane.has_slo());

  LatencyHisto& histo =
      LatencyHisto::get("serving_query_ns", "ns", "serving query latency");
  const std::uint64_t before = histo.snapshot().count;
  plane.tick_at(200.0);
  for (int i = 0; i < 100; ++i) histo.record(1'000'000);  // 1ms >> 50us
  plane.tick_at(201.5);
  (void)before;

  const auto states = plane.slo_states();
  ASSERT_EQ(states.size(), 1u);
  EXPECT_TRUE(states[0].violating);
  EXPECT_EQ(states[0].violations, 1u);
  EXPECT_GE(states[0].burn_short_permille, 1000u);

  // Idle seconds drain the short window; the objective recovers without
  // any ratio feed — tick() is the only evaluator latency SLOs need.
  for (int s = 0; s < 5; ++s) {
    plane.tick_at(203.0 + 1.5 * s);
  }
  EXPECT_FALSE(plane.slo_states().at(0).violating);

  plane.set_slo({});
  EXPECT_FALSE(plane.has_slo());
}

TEST(TelemetryPlaneTest, RatioObservationsFlowThroughThePlane) {
  TelemetryPlane plane;
  plane.set_slo(availability_objective(0.9));
  for (std::uint64_t round = 1; round <= 3; ++round) {
    EXPECT_FALSE(
        plane.observe_slo_ratio("availability", round, 100, 0).has_value());
  }
  const auto transition = plane.observe_slo_ratio("availability", 4, 40, 60);
  ASSERT_TRUE(transition.has_value());
  EXPECT_TRUE(transition->entered);
  EXPECT_TRUE(plane.slo_states().at(0).violating);
}

TEST(TelemetryPlaneTest, DocumentJsonSplicesTelemetrySections) {
  TelemetryPlane plane;
  plane.note_round(7, 0.95, 190, 200, 100000, 0.62, 1234, 4311, 812.5);
  const std::string doc = plane.document_json();
  // The legacy scrape shape is preserved verbatim at the front...
  EXPECT_EQ(doc.rfind("{\n  \"metrics\": [", 0), 0u) << doc.substr(0, 80);
  // ...with the telemetry sections spliced in before the closing brace.
  EXPECT_NE(doc.find("\"latency\": ["), std::string::npos);
  EXPECT_NE(doc.find("\"serving_per_second\""), std::string::npos);
  EXPECT_NE(doc.find("\"census_per_round\""), std::string::npos);
  EXPECT_NE(doc.find("\"coverage\": [0.95]"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"slo\": []"), std::string::npos);
  EXPECT_EQ(doc.back(), '\n');

  plane.reset();
  EXPECT_EQ(plane.per_round().size(), 0u);
  EXPECT_EQ(plane.query_errors(), 0u);
}

TEST(TelemetryPlaneTest, WriteFileAtomicNeverLeavesATornFile) {
  const fs::path dir = fs::path(::testing::TempDir()) / "telemetry_atomic";
  fs::create_directories(dir);
  const fs::path path = dir / "scrape.json";
  // An empty error_code means the file was published.
  ASSERT_FALSE(write_file_atomic(path, "first version\n"));
  ASSERT_FALSE(write_file_atomic(path, "second version\n"));
  std::ifstream in(path);
  std::string body((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(body, "second version\n");
  EXPECT_FALSE(fs::exists(path.string() + ".tmp")) << "tmp must be renamed";
  EXPECT_TRUE(write_file_atomic(dir / "no_such_dir" / "x.json", "body"));
}

}  // namespace
}  // namespace anycast::obs
