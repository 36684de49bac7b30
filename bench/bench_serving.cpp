// Serving-plane bench: the lock-free census query plane under load.
//
// The serving layer's claim (DESIGN.md §16): a published SnapshotView
// answers millions of point lookups per second through the batch API with
// zero locks on the read path, and publishing the next census round is an
// atomic epoch swap — readers never stall, never see a torn view, and the
// tail latency of a batch is pinned whether or not a full-scale census is
// being built and analyzed in the background.
//
// This bench measures exactly that, at the paper's census scale (6.6M /24
// targets x 1000 VPs, ~3% per-VP response density — the same synthetic
// generator as bench_paper_scale):
//
//   1. Build + analyze snapshot A, publish it.
//   2. Idle phase: mixed traffic (batch-256 lookups with point lookups
//      interleaved) against A; per-request latency recorded.
//   3. Build phase: a background thread builds a churned snapshot B from
//      scratch — full matrix build + full analysis — and publishes it
//      mid-traffic. The main thread keeps serving throughout, recording
//      the same latency distribution plus the number of epoch swaps its
//      guards actually observed.
//   4. A pinned guard on A survives the swap: the diff query
//      (changed_since) runs A -> B after B is live, through the guard.
//   5. Fidelity sweep: every target's served answer is compared against
//      the analyzer's own outcomes for the live snapshot
//      (answers_identical in the JSON — the CI gate).
//   6. Line protocol: serving::answer_query, one text line per call, for
//      point / replicas / nearest / 8-key batch lines keyed by dense index
//      and by dotted quad; per-verb p50/p99 go under "protocol", and every
//      answer's fields are checked against the same outcomes
//      (protocol_answers_identical — gated in CI beside answers_identical).
//
//   bench_serving [targets] [vps] [idle_batches] [out_json]
//
// defaults: 6600000 1000 4000 BENCH_serving.json. CI smoke-runs a reduced
// scale (same code path). Each committed row records its own scale in
// "targets" and "vps": BENCH_serving.json is the 6.6M x 1000 row,
// BENCH_serving_1m.json a 1M x 1000 run with the line-protocol leg. With
// this generator ~98.6% of rows detect as anycast, so memory follows the
// outcome count: 1M x 1000 peaks at ~1.6 GB RSS.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "anycast/analysis/analyzer.hpp"
#include "anycast/census/sharded.hpp"
#include "anycast/census/hitlist.hpp"
#include "anycast/geo/city_index.hpp"
#include "anycast/geodesy/geopoint.hpp"
#include "anycast/ipaddr/ipv4.hpp"
#include "anycast/net/platform.hpp"
#include "anycast/obs/latency.hpp"
#include "anycast/serving/query.hpp"
#include "anycast/serving/snapshot.hpp"
#include "anycast/serving/store.hpp"
#include "common.hpp"

namespace {

using namespace anycast;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// ---- The synthetic census (bench_paper_scale's generator, plus churn) ------

constexpr std::uint32_t kStrides[] = {29, 31, 37, 41, 43, 23, 47, 53};

/// Deterministic RTT for (vp, target) in census round `round`. Targets on
/// the 10007 lattice get contradictory near-zero RTTs from every VP — the
/// anycast signature. Round 2 churns ~1/256 of the rows (a fresh hash
/// seed), so B differs from A in a realistic sparse way.
float synthetic_rtt(std::uint32_t vp, std::uint32_t target, int round) {
  if (target % 10007 == 0) {
    return 1.0F + static_cast<float>((vp + static_cast<unsigned>(round)) % 5);
  }
  std::uint64_t seed = (static_cast<std::uint64_t>(vp) << 32) | target;
  if (round > 1 && (splitmix64(target) & 0xFF) == 0) {
    seed ^= 0xB0B0'0000ULL + static_cast<std::uint64_t>(round);
  }
  const std::uint64_t h = splitmix64(seed);
  return 10.0F + static_cast<float>(h % 20000) / 100.0F;  // 10..210 ms
}

census::ShardedCensusMatrix build_round(std::size_t targets, std::size_t vps,
                                        int round) {
  census::ShardedCensusMatrixBuilder builder(targets);
  for (std::uint32_t v = 0; v < vps; ++v) {
    const std::uint32_t stride =
        kStrides[v % (sizeof kStrides / sizeof kStrides[0])];
    const std::uint32_t offset =
        static_cast<std::uint32_t>(splitmix64(v) % stride);
    std::vector<census::TargetRtt> fragment;
    fragment.reserve(targets / stride + 1);
    for (std::uint64_t t = offset; t < targets; t += stride) {
      fragment.push_back(
          {static_cast<std::uint32_t>(t),
           synthetic_rtt(v, static_cast<std::uint32_t>(t), round)});
    }
    builder.add_fragment(static_cast<std::uint16_t>(v), std::move(fragment));
  }
  return builder.build();
}

census::Hitlist synthetic_hitlist(std::size_t targets) {
  std::vector<census::HitlistEntry> entries(targets);
  for (std::uint32_t t = 0; t < targets; ++t) {
    entries[t].representative = ipaddr::IPv4Address::from_slash24_index(t);
    entries[t].score = 3;
  }
  return census::Hitlist(std::move(entries));
}

// ---- Latency recording -----------------------------------------------------

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double percentile_us(std::vector<std::uint32_t>& ns, double p) {
  if (ns.empty()) return 0.0;
  const std::size_t k = static_cast<std::size_t>(
      p * static_cast<double>(ns.size() - 1));
  std::nth_element(ns.begin(), ns.begin() + static_cast<std::ptrdiff_t>(k),
                   ns.end());
  return static_cast<double>(ns[k]) / 1000.0;
}

struct TrafficStats {
  std::vector<std::uint32_t> batch_ns;  // per-request latency (batch + point)
  std::uint64_t lookups = 0;            // point lookups answered
  std::uint64_t requests = 0;
  std::uint64_t swaps_observed = 0;
  double seconds = 0.0;
};

/// One mixed-traffic serving loop: 4 batch-256 requests then 1 point
/// request, repeated. Each request pins an epoch (acquire), answers, and
/// releases; epoch swaps are counted when consecutive pins change id.
/// Runs for `min_requests` requests, or until `*stop_when` becomes true
/// (whichever is LATER), so the build phase always covers the whole
/// background build.
TrafficStats serve_traffic(serving::SnapshotStore& store,
                           std::size_t target_count,
                           std::uint64_t min_requests,
                           const std::atomic<bool>* stop_when,
                           std::uint64_t rng_seed) {
  constexpr std::size_t kBatch = 256;
  TrafficStats stats;
  stats.batch_ns.reserve(min_requests);
  std::vector<std::uint32_t> targets(kBatch);
  std::vector<serving::PointAnswer> answers(kBatch);
  std::uint64_t rng = rng_seed;
  std::uint64_t last_id = 0;
  bool stop_seen = (stop_when == nullptr);
  const auto start = Clock::now();
  for (std::uint64_t request = 0; request < min_requests || !stop_seen;
       ++request) {
    // Check the stop flag BEFORE issuing the request: the publish
    // happens-before the flag store, so the one request issued after
    // observing the flag is guaranteed to pin the freshly published
    // snapshot — the stream always ends with a post-swap request.
    if (!stop_seen && stop_when->load(std::memory_order_acquire)) {
      stop_seen = true;
    }
    const bool point = (request % 5) == 4;  // ~20% single-key traffic
    const std::size_t n = point ? 1 : kBatch;
    for (std::size_t i = 0; i < n; ++i) {
      rng = splitmix64(rng);
      targets[i] = static_cast<std::uint32_t>(rng % target_count);
    }
    const auto t0 = Clock::now();
    {
      serving::ReadGuard guard = store.acquire();
      if (!guard.valid()) continue;
      if (guard->id() != last_id) {
        if (last_id != 0) ++stats.swaps_observed;
        last_id = guard->id();
      }
      guard->lookup_batch({targets.data(), n}, answers.data());
    }
    const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             Clock::now() - t0)
                             .count();
    stats.batch_ns.push_back(static_cast<std::uint32_t>(
        std::min<long long>(elapsed, 0xFFFFFFFFLL)));
    stats.lookups += n;
    ++stats.requests;
  }
  stats.seconds = seconds_since(start);
  return stats;
}

// ---- Line protocol ---------------------------------------------------------

/// The unsigned integer that follows `name` in `text`, or -1.
long long field(std::string_view text, std::string_view name) {
  const std::size_t at = text.find(name);
  if (at == std::string_view::npos) return -1;
  return std::strtoll(text.data() + at + name.size(), nullptr, 10);
}

/// The first `%.1f` token after `name` in `text`.
std::string_view fixed_field(std::string_view text, std::string_view name) {
  const std::size_t at = text.find(name);
  if (at == std::string_view::npos) return {};
  const std::string_view rest = text.substr(at + name.size());
  return rest.substr(0, rest.find_first_of(" \n"));
}

struct ProtocolLeg {
  std::string name;  // verb + key form, e.g. "point_dotted"
  std::size_t queries = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

struct ProtocolResult {
  std::vector<ProtocolLeg> legs;
  bool identical = true;
};

/// Answers `point`, `replicas`, `nearest` and 8-key `batch` lines through
/// serving::answer_query for a seeded sample of targets, once keyed by
/// dense index and once by dotted quad, timing each call. Every answer's
/// fields are checked against the analyzer's outcome for its target
/// (`expected_of`, null for a target it did not detect) and the matrix row.
template <typename ExpectedOf>
ProtocolResult protocol_leg(const serving::SnapshotView& view,
                            std::size_t targets,
                            const ExpectedOf& expected_of) {
  constexpr std::size_t kPerLeg = 20000;
  constexpr std::size_t kBatchKeys = 8;
  const char* const verbs[] = {"point", "replicas", "nearest", "batch"};
  const serving::QueryContext context{&view, nullptr};
  ProtocolResult result;
  std::string line;
  std::string out;
  std::string error;
  out.reserve(1 << 16);
  std::vector<std::uint32_t> sample_ns;
  sample_ns.reserve(kPerLeg);
  std::uint64_t rng = 0x9807C01;
  const auto next_target = [&] {
    rng = splitmix64(rng);
    return static_cast<std::uint32_t>(rng % targets);
  };
  const auto key_of = [](std::uint32_t t, bool dotted) {
    return dotted ? ipaddr::IPv4Address::from_slash24_index(t, 77).to_string()
                  : std::to_string(t);
  };
  for (const char* verb : verbs) {
    for (const bool dotted : {false, true}) {
      const std::string_view v = verb;
      sample_ns.clear();
      for (std::size_t q = 0; q < kPerLeg; ++q) {
        std::uint32_t batch[kBatchKeys];
        const std::size_t keys = v == "batch" ? kBatchKeys : 1;
        line = verb;
        for (std::size_t k = 0; k < keys; ++k) {
          batch[k] = next_target();
          line += ' ';
          line += key_of(batch[k], dotted);
        }
        // The client coordinate as the server parses it back.
        double lat = 0.0;
        double lon = 0.0;
        if (v == "nearest") {
          char coords[48];
          std::snprintf(coords, sizeof coords, " %.2f %.2f",
                        static_cast<double>(next_target() % 18000) / 100.0 -
                            90.0,
                        static_cast<double>(next_target() % 36000) / 100.0 -
                            180.0);
          char* end = nullptr;
          lat = std::strtod(coords, &end);
          lon = std::strtod(end, nullptr);
          line += coords;
        }
        out.clear();
        const auto t0 = Clock::now();
        const bool ok = serving::answer_query(context, line, out, error);
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now() - t0)
                            .count();
        sample_ns.push_back(static_cast<std::uint32_t>(
            std::min<long long>(ns, 0xFFFFFFFFLL)));

        // The answer, field by field, against the oracle.
        bool same = ok;
        const std::uint32_t t = batch[0];
        const analysis::TargetOutcome* want = expected_of(t);
        const long long replicas =
            want == nullptr
                ? 0
                : static_cast<long long>(want->result.replicas.size());
        if (v == "point") {
          const std::size_t row = view.matrix().measurements(t).size();
          same = same && field(out, " target=") == t &&
                 field(out, " anycast=") == (want != nullptr) &&
                 field(out, " responsive=") == (row > 0) &&
                 field(out, " vps=") == static_cast<long long>(row) &&
                 field(out, " replicas=") == replicas;
        } else if (v == "replicas") {
          same = same && field(out, " count=") == replicas;
          std::size_t at = out.find('\n');
          for (long long k = 0; same && k < replicas; ++k) {
            same = at != std::string::npos &&
                   field(std::string_view(out).substr(at), "vp=") ==
                       want->result.replicas[k].vp_id;
            at = out.find('\n', at + 1);
          }
        } else if (v == "nearest") {
          if (want == nullptr) {
            same = same && out.find(" none\n") != std::string::npos;
          } else {
            // Haversine argmin over the oracle's replicas; the served km
            // must print the same.
            const geodesy::GeoPoint client(lat, lon);
            const core::Replica* best = nullptr;
            double best_km = 0.0;
            for (const core::Replica& replica : want->result.replicas) {
              const double km = geodesy::distance_km(client, replica.location);
              if (best == nullptr || km < best_km) {
                best = &replica;
                best_km = km;
              }
            }
            char km_text[32];
            std::snprintf(km_text, sizeof km_text, "%.1f", best_km);
            same = same && field(out, " vp=") == best->vp_id &&
                   fixed_field(out, " km=") == km_text;
          }
        } else {
          long long anycast = 0, responsive = 0, replica_sum = 0;
          for (const std::uint32_t b : batch) {
            const analysis::TargetOutcome* o = expected_of(b);
            anycast += o != nullptr;
            responsive += !view.matrix().measurements(b).empty();
            replica_sum += o == nullptr ? 0 : o->result.replicas.size();
          }
          same = same &&
                 field(out, " n=") == static_cast<long long>(kBatchKeys) &&
                 field(out, " unknown=") == 0 &&
                 field(out, " anycast=") == anycast &&
                 field(out, " responsive=") == responsive &&
                 field(out, " replicas=") == replica_sum;
        }
        result.identical = result.identical && same;
      }
      ProtocolLeg leg;
      leg.name = std::string(verb) + (dotted ? "_dotted" : "_dense");
      leg.queries = sample_ns.size();
      leg.p50_us = percentile_us(sample_ns, 0.50);
      leg.p99_us = percentile_us(sample_ns, 0.99);
      result.legs.push_back(std::move(leg));
    }
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t targets =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 6'600'000;
  const std::size_t vps = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1000;
  const std::uint64_t idle_batches =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 4000;
  const std::string out_json = argc > 4 ? argv[4] : "BENCH_serving.json";

  bench::print_title("Serving plane — lock-free query QPS under epoch swaps");
  std::printf("  %zu targets x %zu VPs, %llu idle requests\n", targets, vps,
              static_cast<unsigned long long>(idle_batches));

  const auto vantage_points =
      net::make_planetlab({.node_count = static_cast<int>(vps), .seed = 7});
  const analysis::CensusAnalyzer analyzer(vantage_points, geo::world_index());
  const census::Hitlist hitlist = synthetic_hitlist(targets);

  // ---- Snapshot A: build, analyze, publish -------------------------------
  const auto build_a_start = Clock::now();
  census::ShardedCensusMatrix matrix_a = build_round(targets, vps, 1);
  const double build_a_seconds = seconds_since(build_a_start);
  const std::size_t observations = matrix_a.observation_count();

  const auto analyze_a_start = Clock::now();
  std::vector<analysis::TargetOutcome> outcomes_a =
      analyzer.analyze(matrix_a, hitlist);
  const double analyze_a_seconds = seconds_since(analyze_a_start);
  const std::size_t anycast_a = outcomes_a.size();

  serving::SnapshotStore store;
  store.publish(serving::SnapshotView::build(std::move(matrix_a),
                                             std::move(outcomes_a),
                                             /*id=*/1, &hitlist));
  std::printf("  snapshot A: %s observations, %zu anycast "
              "(build %.1fs, analyze %.1fs)\n",
              bench::fmt_int(observations).c_str(), anycast_a,
              build_a_seconds, analyze_a_seconds);

  // ---- Pure batch-API segment: the headline point-lookup QPS -------------
  double point_qps = 0.0;
  {
    constexpr std::size_t kBatch = 256;
    const std::uint64_t batches = std::max<std::uint64_t>(idle_batches, 1000);
    std::vector<std::uint32_t> keys(kBatch);
    std::vector<serving::PointAnswer> answers(kBatch);
    std::uint64_t rng = 0xFEEDFACE;
    std::uint64_t sink = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t b = 0; b < batches; ++b) {
      for (std::size_t i = 0; i < kBatch; ++i) {
        rng = splitmix64(rng);
        keys[i] = static_cast<std::uint32_t>(rng % targets);
      }
      serving::ReadGuard guard = store.acquire();
      guard->lookup_batch(keys, answers.data());
      sink += answers[0].vp_count;
    }
    const double seconds = seconds_since(t0);
    point_qps = static_cast<double>(batches * kBatch) / seconds;
    bench::print_subtitle("batch API, steady state");
    std::printf("  %-26s %14s\n", "point lookups",
                bench::fmt_int(batches * kBatch).c_str());
    std::printf("  %-26s %14.0f  (sink %llu)\n", "point QPS", point_qps,
                static_cast<unsigned long long>(sink & 1));
  }

  // ---- Telemetry phase: per-request HDR recording cost + fidelity --------
  // The same batch segment, instrumented the way the serving layer is: a
  // steady_clock stamp pair and one LatencyHisto::record per request. Both
  // runs execute the identical instruction stream; only the recording kill
  // switch differs, so the delta is the histogram's true hot-path cost.
  // The in-process p99 must agree with an exact offline sort of the same
  // samples within the histogram's documented 1/128 relative error.
  double telemetry_overhead_pct = 0.0;
  double p99_inprocess_us = 0.0;
  double p99_offline_us = 0.0;
  double quantile_rel_error_pct = 0.0;
  {
    constexpr std::size_t kBatch = 256;
    const std::uint64_t batches = std::max<std::uint64_t>(idle_batches, 1000);
    obs::LatencyHisto& histo = obs::LatencyHisto::get(
        "bench_serving_request_ns", "ns",
        "bench: per-request batch lookup latency, telemetry phase");
    std::vector<std::uint32_t> sample_ns;
    sample_ns.reserve(batches);
    auto run_segment = [&](bool keep_samples) {
      std::vector<std::uint32_t> keys(kBatch);
      std::vector<serving::PointAnswer> answers(kBatch);
      std::uint64_t rng = 0xC0FFEE42;
      std::uint64_t sink = 0;
      const auto t0 = Clock::now();
      for (std::uint64_t b = 0; b < batches; ++b) {
        for (std::size_t i = 0; i < kBatch; ++i) {
          rng = splitmix64(rng);
          keys[i] = static_cast<std::uint32_t>(rng % targets);
        }
        const auto r0 = Clock::now();
        serving::ReadGuard guard = store.acquire();
        guard->lookup_batch(keys, answers.data());
        sink += answers[0].vp_count;
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now() - r0)
                            .count();
        const auto clamped = static_cast<std::uint64_t>(
            std::min<long long>(ns, 0xFFFFFFFFLL));
        histo.record(clamped);
        if (keep_samples) {
          sample_ns.push_back(static_cast<std::uint32_t>(clamped));
        }
      }
      const double seconds = seconds_since(t0);
      return static_cast<double>(batches * kBatch) / seconds +
             static_cast<double>(sink & 1) * 1e-9;  // keep the sink live
    };
    // Interleave off/on pairs and take the best of each mode: best-of is
    // robust against a transient stall landing in exactly one segment.
    // The first on-run's histogram delta covers exactly the requests the
    // sample vector kept, so the in-process and offline p99 see the same
    // population.
    double qps_off = 0.0;
    double qps_on = 0.0;
    obs::LatencyHisto::Snapshot window;
    for (int rep = 0; rep < 2; ++rep) {
      obs::set_latency_recording(false);
      qps_off = std::max(qps_off, run_segment(false));
      obs::set_latency_recording(true);
      const obs::LatencyHisto::Snapshot before = histo.snapshot();
      qps_on = std::max(qps_on, run_segment(rep == 0));
      if (rep == 0) window = histo.snapshot().delta_since(before);
    }
    telemetry_overhead_pct = (qps_off - qps_on) / qps_off * 100.0;

    std::vector<std::uint32_t> sorted = sample_ns;
    std::sort(sorted.begin(), sorted.end());
    const auto n = static_cast<double>(sorted.size());
    const std::size_t rank = std::min(
        sorted.size() - 1,
        static_cast<std::size_t>(
            std::max(1.0, std::ceil(0.99 * n))) - 1);
    p99_offline_us = static_cast<double>(sorted[rank]) / 1e3;
    p99_inprocess_us = window.quantile(0.99) / 1e3;
    quantile_rel_error_pct =
        p99_offline_us > 0.0
            ? (p99_inprocess_us - p99_offline_us) / p99_offline_us * 100.0
            : 0.0;

    bench::print_subtitle("telemetry overhead");
    std::printf("  %-26s %10.0f /%10.0f\n", "QPS recording off/on", qps_off,
                qps_on);
    std::printf("  %-26s %13.2f%%\n", "overhead", telemetry_overhead_pct);
    std::printf("  %-26s %10.1f /%8.1f  (%.2f%% rel err)\n",
                "p99 us in-process/offline", p99_inprocess_us, p99_offline_us,
                quantile_rel_error_pct);
  }

  // ---- Idle mixed traffic -------------------------------------------------
  TrafficStats idle =
      serve_traffic(store, targets, idle_batches, nullptr, 0xDEAD0001);
  double p50_idle = percentile_us(idle.batch_ns, 0.50);
  double p99_idle = percentile_us(idle.batch_ns, 0.99);

  // ---- Mixed traffic while snapshot B builds in the background -----------
  std::atomic<bool> build_done{false};
  double build_b_seconds = 0.0;
  double analyze_b_seconds = 0.0;
  std::size_t anycast_b = 0;
  std::vector<analysis::TargetOutcome> oracle_b;  // analyzer's own answers
  std::thread builder([&] {
    const auto b0 = Clock::now();
    census::ShardedCensusMatrix matrix_b = build_round(targets, vps, 2);
    build_b_seconds = seconds_since(b0);
    const auto a0 = Clock::now();
    std::vector<analysis::TargetOutcome> outcomes_b =
        analyzer.analyze(matrix_b, hitlist);
    analyze_b_seconds = seconds_since(a0);
    anycast_b = outcomes_b.size();
    oracle_b = outcomes_b;
    store.publish(serving::SnapshotView::build(
        std::move(matrix_b), std::move(outcomes_b), /*id=*/2, &hitlist));
    build_done.store(true, std::memory_order_release);
  });

  // Pin snapshot A across the swap: the diff query below runs against it
  // AFTER B is live — exactly what the epoch store must make safe.
  serving::ReadGuard pinned_a = store.acquire();

  TrafficStats busy =
      serve_traffic(store, targets, idle_batches, &build_done, 0xDEAD0002);
  builder.join();
  double p50_busy = percentile_us(busy.batch_ns, 0.50);
  double p99_busy = percentile_us(busy.batch_ns, 0.99);

  // ---- The diff query: A -> B through the pinned guard -------------------
  serving::ReadGuard current = store.acquire();
  const bool swapped = current.valid() && current->id() == 2;
  const auto diff_start = Clock::now();
  const serving::SnapshotDelta delta =
      current->changed_since(pinned_a.view());
  const double diff_seconds = seconds_since(diff_start);
  pinned_a.release();
  store.drain();

  // ---- Fidelity sweep: served answers == the analyzer's answers ----------
  bool answers_identical = swapped;
  std::vector<std::uint32_t> expect_outcome(targets, UINT32_MAX);
  for (std::uint32_t i = 0; i < oracle_b.size(); ++i) {
    expect_outcome[oracle_b[i].target_index] = i;
  }
  {
    constexpr std::size_t kSweepBatch = 4096;
    std::vector<std::uint32_t> keys(kSweepBatch);
    std::vector<serving::PointAnswer> answers(kSweepBatch);
    for (std::size_t base = 0; base < targets && answers_identical;
         base += kSweepBatch) {
      const std::size_t n = std::min(kSweepBatch, targets - base);
      for (std::size_t i = 0; i < n; ++i) {
        keys[i] = static_cast<std::uint32_t>(base + i);
      }
      current->lookup_batch({keys.data(), n}, answers.data());
      for (std::size_t i = 0; i < n && answers_identical; ++i) {
        const std::uint32_t t = keys[i];
        const bool want_anycast = expect_outcome[t] != UINT32_MAX;
        const std::size_t want_replicas =
            want_anycast ? oracle_b[expect_outcome[t]].result.replicas.size()
                         : 0;
        const auto row = current->matrix().measurements(t);
        if (answers[i].anycast != (want_anycast ? 1 : 0) ||
            answers[i].replica_count != want_replicas ||
            answers[i].vp_count != row.size() ||
            answers[i].responsive != (row.empty() ? 0 : 1)) {
          answers_identical = false;
        }
      }
    }
  }

  // ---- Line protocol: answer_query per verb, dense and dotted keys -------
  const auto expected_of =
      [&](std::uint32_t t) -> const analysis::TargetOutcome* {
    return expect_outcome[t] == UINT32_MAX ? nullptr
                                           : &oracle_b[expect_outcome[t]];
  };
  const ProtocolResult protocol = protocol_leg(current.view(), targets,
                                               expected_of);

  const double total_lookups =
      static_cast<double>(idle.lookups + busy.lookups);
  const double qps = total_lookups / (idle.seconds + busy.seconds);

  bench::print_subtitle("mixed traffic");
  std::printf("  %-26s %14.0f\n", "overall QPS", qps);
  std::printf("  %-26s %10.1f /%8.1f\n", "p50 us idle/build", p50_idle,
              p50_busy);
  std::printf("  %-26s %10.1f /%8.1f\n", "p99 us idle/build", p99_idle,
              p99_busy);
  std::printf("  %-26s %14llu\n", "swaps observed",
              static_cast<unsigned long long>(busy.swaps_observed));
  std::printf("  %-26s %14zu  (%.2fs, %zu dirty rows)\n", "diff changes",
              delta.diff.changes.size(), diff_seconds, delta.dirty.size());
  std::printf("  %-26s %14s\n", "answers identical",
              answers_identical ? "yes" : "NO — FIDELITY BROKEN");

  bench::print_subtitle("line protocol (answer_query, one line per call)");
  std::printf("  %-16s %10s %10s %10s\n", "verb/key", "queries", "p50 us",
              "p99 us");
  std::string protocol_json;
  for (const ProtocolLeg& leg : protocol.legs) {
    std::printf("  %-16s %10zu %10.3f %10.3f\n", leg.name.c_str(),
                leg.queries, leg.p50_us, leg.p99_us);
    char row[160];
    std::snprintf(row, sizeof row,
                  "%s    \"%s\": {\"queries\": %zu, \"p50_us\": %.3f, "
                  "\"p99_us\": %.3f}",
                  protocol_json.empty() ? "" : ",\n", leg.name.c_str(),
                  leg.queries, leg.p50_us, leg.p99_us);
    protocol_json += row;
  }
  std::printf("  %-26s %14s\n", "protocol answers identical",
              protocol.identical ? "yes" : "NO — FIDELITY BROKEN");

  std::FILE* json = std::fopen(out_json.c_str(), "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"bench\": \"serving\",\n"
                 "  \"targets\": %zu,\n"
                 "  \"vps\": %zu,\n"
                 "  \"observations\": %zu,\n"
                 "  \"anycast_a\": %zu,\n"
                 "  \"anycast_b\": %zu,\n"
                 "  \"build_seconds\": %.3f,\n"
                 "  \"analyze_seconds\": %.3f,\n"
                 "  \"point_qps\": %.0f,\n"
                 "  \"telemetry_overhead_pct\": %.3f,\n"
                 "  \"p99_inprocess_us\": %.2f,\n"
                 "  \"p99_offline_us\": %.2f,\n"
                 "  \"quantile_rel_error_pct\": %.3f,\n"
                 "  \"qps\": %.0f,\n"
                 "  \"requests\": %llu,\n"
                 "  \"p50_us\": %.2f,\n"
                 "  \"p99_us\": %.2f,\n"
                 "  \"p50_us_idle\": %.2f,\n"
                 "  \"p99_us_idle\": %.2f,\n"
                 "  \"p50_us_build\": %.2f,\n"
                 "  \"p99_us_build\": %.2f,\n"
                 "  \"swaps_observed\": %llu,\n"
                 "  \"diff_changes\": %zu,\n"
                 "  \"diff_dirty_rows\": %zu,\n"
                 "  \"diff_seconds\": %.3f,\n"
                 "  \"answers_identical\": %s,\n"
                 "  \"protocol\": {\n%s\n  },\n"
                 "  \"protocol_answers_identical\": %s,\n"
                 "  \"hardware_threads\": %u\n"
                 "}\n",
                 targets, vps, observations, anycast_a, anycast_b,
                 build_a_seconds, analyze_a_seconds, point_qps,
                 telemetry_overhead_pct, p99_inprocess_us, p99_offline_us,
                 quantile_rel_error_pct, qps,
                 static_cast<unsigned long long>(idle.requests +
                                                 busy.requests),
                 p50_idle, p99_idle, p50_idle, p99_idle, p50_busy, p99_busy,
                 static_cast<unsigned long long>(busy.swaps_observed),
                 delta.diff.changes.size(), delta.dirty.size(), diff_seconds,
                 answers_identical ? "true" : "false", protocol_json.c_str(),
                 protocol.identical ? "true" : "false",
                 std::thread::hardware_concurrency());
    std::fclose(json);
    std::printf("\n  wrote %s\n", out_json.c_str());
  }
  return answers_identical && protocol.identical ? 0 : 1;
}
