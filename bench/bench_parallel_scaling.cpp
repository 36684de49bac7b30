// Parallel scaling + memory profile of the census + analysis engine.
//
// The paper's census probes 6.6M /24s from ~300 VPs in ~24h and analyses
// a census in under 3h; both hot loops here are embarrassingly parallel
// (per-VP walks, per-target iGreedy). This bench contrasts the CSR
// `CensusMatrix` data plane against the legacy row-of-vectors layout on
// identical fragments — so the columnar layout win is measured, not
// asserted — then measures census and analysis wall-clock, peak RSS, and
// heap-allocation counts on the default BenchConfig world at 1/2/4/8
// threads, verifying the outputs are identical at every thread count (the
// engine's determinism contract). Machine-readable output goes to
// BENCH_parallel.json (wall-clock trajectory, the original contract) and
// BENCH_columnar.json (the memory story).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <new>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "legacy_census.hpp"
#include "anycast/obs/journal.hpp"
#include "anycast/obs/metrics.hpp"
#include "anycast/obs/progress.hpp"
#include "anycast/obs/trace_export.hpp"
#include "common.hpp"

// ---- Heap-allocation accounting ---------------------------------------------
//
// Global operator new/delete overrides counting every allocation in the
// process. Relaxed atomics: the counters are read only between phases,
// and exact interleaving within a phase does not matter. The CSR value
// arena maps its buffer directly (mmap/mremap, see census.hpp) and so
// bypasses these counters — that undercounts the columnar side by the
// O(1) mappings per build/combine, which cannot change any verdict
// against the legacy side's one allocation per row and growth step.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace anycast;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Process CPU time in seconds. Overhead comparisons on shared or
/// single-core machines need this: wall-clock of an oversubscribed run
/// swings ±10% with scheduler and frequency drift, far above a 3%
/// budget, while added *work* shows up directly in CPU time.
double cpu_seconds() {
#if defined(__linux__) || defined(__APPLE__)
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
#endif
  return std::chrono::duration<double>(
             Clock::now().time_since_epoch())
      .count();
}

/// Median of a sample set (destructive on the copy). Used for paired
/// overhead estimates where a single throttled round would dominate a
/// mean or a best-of.
double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

// ---- RSS accounting ---------------------------------------------------------

std::size_t status_kb(const char* field) {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  const std::size_t field_len = std::strlen(field);
  char line[256];
  std::size_t kb = 0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::strncmp(line, field, field_len) == 0) {
      kb = static_cast<std::size_t>(
          std::strtoull(line + field_len, nullptr, 10));
      break;
    }
  }
  std::fclose(status);
  return kb;
}

/// VmHWM ("high water mark"): the process's peak RSS in KiB; 0 when
/// /proc is unavailable (non-Linux).
std::size_t peak_rss_kb() { return status_kb("VmHWM:"); }

/// Current RSS in KiB.
std::size_t current_rss_kb() { return status_kb("VmRSS:"); }

/// Returns freed arena pages to the kernel so current RSS approximates
/// the live set — without this, RSS comparisons only see the allocator's
/// high-water arena.
void trim_heap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

/// Resets VmHWM to the current RSS (writing "5" to clear_refs), so each
/// phase's peak is measured independently. Returns false when the kernel
/// refuses — peaks then are monotonic over the process lifetime, which is
/// why the legacy phase runs FIRST in the layout comparison: under a
/// monotonic counter the columnar peak can only be overstated by what
/// came before it, understating its win, never faking one.
bool reset_peak_rss() {
  std::FILE* clear = std::fopen("/proc/self/clear_refs", "w");
  if (clear == nullptr) return false;
  const bool ok = std::fputs("5", clear) >= 0;
  return (std::fclose(clear) == 0) && ok;
}

/// One measured phase: wall-clock, allocation deltas, and the phase's own
/// peak RSS (or the running process peak when resets are unsupported).
struct Cost {
  double seconds = 0.0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_mb = 0;
  std::size_t peak_rss_kb = 0;
};

template <typename Fn>
Cost measure(Fn&& fn) {
  Cost cost;
  trim_heap();
  reset_peak_rss();
  const std::uint64_t count0 = g_alloc_count.load(std::memory_order_relaxed);
  const std::uint64_t bytes0 = g_alloc_bytes.load(std::memory_order_relaxed);
  const auto start = Clock::now();
  fn();
  cost.seconds = seconds_since(start);
  cost.allocs = g_alloc_count.load(std::memory_order_relaxed) - count0;
  cost.alloc_mb =
      (g_alloc_bytes.load(std::memory_order_relaxed) - bytes0) >> 20;
  cost.peak_rss_kb = peak_rss_kb();
  return cost;
}

struct Sample {
  std::string phase;
  int threads = 0;
  double speedup = 1.0;
  Cost cost;
};

/// Fingerprint of one run's output, for the cross-thread-count identity
/// check. Any divergence in rows, summary, or analysis shows up here.
struct Fingerprint {
  std::uint64_t probes = 0;
  std::uint64_t replies = 0;
  std::size_t responsive = 0;
  std::size_t greylisted = 0;
  std::size_t anycast_ip24 = 0;
  std::size_t replicas = 0;

  bool operator==(const Fingerprint&) const = default;
};

/// Splits a built matrix back into per-VP row fragments — the exact shape
/// the census reduction feeds the data plane — so the columnar and legacy
/// layouts can be timed assembling identical input.
std::vector<std::vector<census::TargetRtt>> fragments_of(
    const census::ShardedCensusMatrix& data, std::size_t vp_count) {
  std::vector<std::vector<census::TargetRtt>> fragments(vp_count);
  for (std::uint32_t t = 0; t < data.target_count(); ++t) {
    for (const census::VpRtt& sample : data.measurements(t)) {
      fragments[sample.vp].push_back(census::TargetRtt{t, sample.rtt_ms});
    }
  }
  return fragments;
}

/// Retained footprint of whatever is live right now, KiB after trim.
std::size_t retained_kb() {
  trim_heap();
  return current_rss_kb();
}

}  // namespace

int main() {
  const bench::BenchConfig config;  // the default BenchConfig world
  bench::print_title(
      "Parallel scaling — census + analysis wall-clock, RSS, allocations");
  bench::warn_if_scaling_invalid("bench_parallel_scaling");

  net::WorldConfig world_config;
  world_config.seed = config.seed;
  world_config.unicast_alive_slash24 = config.unicast_alive_slash24;
  world_config.unicast_silent_slash24 = config.unicast_silent_slash24;
  world_config.unicast_dead_slash24 = config.unicast_dead_slash24;
  const net::SimulatedInternet internet(world_config);
  const auto vps = net::make_planetlab(
      {.node_count = config.vp_count, .seed = config.seed ^ 0xF1E1D});
  const census::Hitlist hitlist =
      census::Hitlist::from_world(internet).without_dead();
  const analysis::CensusAnalyzer analyzer(vps, geo::world_index());
  const bool rss_resets = reset_peak_rss();
  std::printf("  world: %zu targets x %zu VPs (%zu cores, per-phase RSS %s)\n",
              hitlist.size(), vps.size(), concurrency::default_thread_count(),
              rss_resets ? "resets" : "monotonic");

  // ---- Columnar vs legacy layout on identical fragments --------------------
  //
  // Assemble-and-combine is the data plane's whole job; run it through
  // both containers on the same per-VP fragments (two census passes
  // combined, the Sec. 4.1 workflow). Runs before the scaling loop, on a
  // small process image, so per-phase RSS peaks are not drowned by a
  // prior high-water mark; the legacy side runs first (see reset_peak_rss
  // on why that ordering is conservative). Each side's container
  // footprint is measured as the trimmed-RSS delta released when the
  // combined container is destroyed — malloc-header and capacity-slack
  // overhead included, which is exactly what the CSR layout eliminates.
  bench::print_subtitle("CSR matrix vs legacy row-of-vectors (same input)");
  std::vector<std::vector<census::TargetRtt>> first_fragments;
  std::vector<std::vector<census::TargetRtt>> second_fragments;
  {
    census::Greylist scratch;
    census::FastPingConfig fastping;
    fastping.seed = config.seed ^ 0xC0;
    fastping.probe_rate_pps = config.probe_rate_pps;
    fastping.vp_availability = config.vp_availability;
    const census::ShardedCensusMatrix first =
        census::run_census_sharded(internet, vps, hitlist, scratch, fastping)
            .data;
    fastping.seed = config.seed ^ 0xC1;
    const census::ShardedCensusMatrix second =
        census::run_census_sharded(internet, vps, hitlist, scratch, fastping)
            .data;
    first_fragments = fragments_of(first, vps.size());
    second_fragments = fragments_of(second, vps.size());
    // The source matrices die here: only the fragment inputs stay live.
  }

  std::size_t legacy_responsive = 0;
  std::size_t legacy_footprint_kb = 0;
  Cost legacy;
  {
    census::LegacyCensusData combined(hitlist.size());
    legacy = measure([&] {
      // The legacy container never took fragment ownership — it re-sorts
      // per record — so it reads the shared inputs in place.
      for (std::size_t vp = 0; vp < first_fragments.size(); ++vp) {
        combined.record_fragment(static_cast<std::uint16_t>(vp),
                                 first_fragments[vp]);
      }
      census::LegacyCensusData other(hitlist.size());
      for (std::size_t vp = 0; vp < second_fragments.size(); ++vp) {
        other.record_fragment(static_cast<std::uint16_t>(vp),
                              second_fragments[vp]);
      }
      combined.combine_min(other);
    });
    legacy_responsive = combined.responsive_targets(2);
    const std::size_t with_container = retained_kb();
    combined = census::LegacyCensusData();
    const std::size_t without = retained_kb();
    legacy_footprint_kb = with_container > without ? with_container - without
                                                  : 0;
  }

  std::size_t columnar_responsive = 0;
  std::size_t columnar_footprint_kb = 0;
  Cost columnar;
  {
    census::CensusMatrix combined;
    columnar = measure([&] {
      // The builder takes fragment ownership — the production census
      // reduction moves each VP's rows in exactly like this, so the
      // originals are consumed, not copied.
      census::CensusMatrixBuilder builder(hitlist.size());
      for (std::size_t vp = 0; vp < first_fragments.size(); ++vp) {
        builder.add_fragment(static_cast<std::uint16_t>(vp),
                             std::move(first_fragments[vp]));
      }
      combined = builder.build();
      for (std::size_t vp = 0; vp < second_fragments.size(); ++vp) {
        builder.add_fragment(static_cast<std::uint16_t>(vp),
                             std::move(second_fragments[vp]));
      }
      combined.combine_min(builder.build());
    });
    columnar_responsive = combined.responsive_targets(2);
    const std::size_t with_container = retained_kb();
    combined = census::CensusMatrix();
    const std::size_t without = retained_kb();
    columnar_footprint_kb = with_container > without
                                ? with_container - without
                                : 0;
  }

  const bool same_result = columnar_responsive == legacy_responsive;
  const bool fewer_allocs = columnar.allocs < legacy.allocs;
  std::printf("  %-24s %14s %14s\n", "metric", "columnar", "legacy");
  std::printf("  %-24s %14.3f %14.3f\n", "seconds", columnar.seconds,
              legacy.seconds);
  std::printf("  %-24s %14llu %14llu\n", "allocations",
              static_cast<unsigned long long>(columnar.allocs),
              static_cast<unsigned long long>(legacy.allocs));
  std::printf("  %-24s %14llu %14llu\n", "allocated MB",
              static_cast<unsigned long long>(columnar.alloc_mb),
              static_cast<unsigned long long>(legacy.alloc_mb));
  std::printf("  %-24s %14zu %14zu\n", "peak RSS KB", columnar.peak_rss_kb,
              legacy.peak_rss_kb);
  std::printf("  %-24s %14zu %14zu\n", "container footprint KB",
              columnar_footprint_kb, legacy_footprint_kb);
  std::printf("  %-24s %14zu %14zu\n", "responsive(2)", columnar_responsive,
              legacy_responsive);
  std::printf("\n  identical result: %s; columnar allocates %s\n",
              same_result ? "yes" : "NO — LAYOUT BUG",
              fewer_allocs ? "less" : "MORE — LAYOUT REGRESSION");
  first_fragments.clear();
  first_fragments.shrink_to_fit();
  second_fragments.clear();
  second_fragments.shrink_to_fit();

  // ---- Wall-clock / memory scaling over thread counts ----------------------

  const int kThreadCounts[] = {1, 2, 4, 8};
  std::vector<Sample> samples;
  Fingerprint reference;
  bool identical = true;

  for (const int threads : kThreadCounts) {
    concurrency::ThreadPool pool(static_cast<std::size_t>(threads));

    // Census phase: one full pass, fresh blacklist so every thread count
    // does identical work.
    census::Greylist blacklist;
    census::FastPingConfig fastping;
    fastping.seed = config.seed;
    fastping.probe_rate_pps = config.probe_rate_pps;
    fastping.vp_availability = config.vp_availability;
    census::ShardedCensusOutput output;
    const Cost census_cost = measure([&] {
      output = census::run_census_sharded(internet, vps, hitlist, blacklist,
                                          fastping, {}, /*faults=*/nullptr,
                                          &pool);
    });

    // Analysis phase: detection sweep + iGreedy over the census rows.
    std::vector<analysis::TargetOutcome> outcomes;
    const Cost analysis_cost = measure([&] {
      outcomes = analyzer.analyze(output.data, hitlist, /*min_vps=*/2, &pool);
    });

    Fingerprint print;
    print.probes = output.summary.probes_sent;
    print.replies = output.summary.echo_replies;
    print.responsive = output.data.responsive_targets(2);
    print.greylisted = blacklist.size();
    print.anycast_ip24 = outcomes.size();
    for (const auto& outcome : outcomes) {
      print.replicas += outcome.result.replicas.size();
    }
    if (threads == kThreadCounts[0]) {
      reference = print;
    } else if (!(print == reference)) {
      identical = false;
    }

    Cost total = census_cost;
    total.seconds += analysis_cost.seconds;
    total.allocs += analysis_cost.allocs;
    total.alloc_mb += analysis_cost.alloc_mb;
    total.peak_rss_kb = std::max(total.peak_rss_kb, analysis_cost.peak_rss_kb);
    samples.push_back({"census", threads, 1.0, census_cost});
    samples.push_back({"analysis", threads, 1.0, analysis_cost});
    samples.push_back({"total", threads, 1.0, total});
  }

  // Speedups against the 1-thread baseline of each phase.
  for (Sample& sample : samples) {
    for (const Sample& base : samples) {
      if (base.phase == sample.phase && base.threads == kThreadCounts[0]) {
        sample.speedup = sample.cost.seconds > 0.0
                             ? base.cost.seconds / sample.cost.seconds
                             : 1.0;
      }
    }
  }

  bench::print_subtitle("wall-clock and memory per phase");
  std::printf("  %-10s %8s %9s %9s %12s %10s %12s\n", "phase", "threads",
              "seconds", "speedup", "allocations", "alloc MB", "peak RSS KB");
  for (const Sample& sample : samples) {
    std::printf("  %-10s %8d %9.3f %8.2fx %12llu %10llu %12zu\n",
                sample.phase.c_str(), sample.threads, sample.cost.seconds,
                sample.speedup,
                static_cast<unsigned long long>(sample.cost.allocs),
                static_cast<unsigned long long>(sample.cost.alloc_mb),
                sample.cost.peak_rss_kb);
  }
  std::printf("\n  outputs identical across thread counts: %s\n",
              identical ? "yes" : "NO — DETERMINISM BUG");

  // ---- Observability overhead ----------------------------------------------
  //
  // The metrics registry rides the census hot path (per-thread shards,
  // one relaxed atomic add per probe), and the scaling loop above already
  // runs fully instrumented. Contract: that instrumentation costs at most
  // 3% of census wall-clock at 8 threads. Enabled and disabled runs
  // alternate round-by-round and each side keeps its best time, so
  // warm-up and scheduling noise cancels instead of biasing one side.
  bench::print_subtitle("observability overhead (census, 8 threads)");
  constexpr int kOverheadRounds = 5;
  double best_instrumented = 0.0;
  double best_uninstrumented = 0.0;
  bool overhead_same_output = true;
  {
    concurrency::ThreadPool pool(8);
    Fingerprint baseline;
    for (int round = 0; round < kOverheadRounds; ++round) {
      for (const bool enabled : {false, true}) {
        obs::metrics().set_enabled(enabled);
        census::Greylist blacklist;
        census::FastPingConfig fastping;
        fastping.seed = config.seed;
        fastping.probe_rate_pps = config.probe_rate_pps;
        fastping.vp_availability = config.vp_availability;
        const auto start = Clock::now();
        const census::ShardedCensusOutput output = census::run_census_sharded(
            internet, vps, hitlist, blacklist, fastping, {},
            /*faults=*/nullptr, &pool);
        const double seconds = seconds_since(start);
        double& best = enabled ? best_instrumented : best_uninstrumented;
        if (best == 0.0 || seconds < best) best = seconds;
        Fingerprint print;
        print.probes = output.summary.probes_sent;
        print.replies = output.summary.echo_replies;
        print.responsive = output.data.responsive_targets(2);
        print.greylisted = blacklist.size();
        if (round == 0 && !enabled) {
          baseline = print;
        } else if (!(print == baseline)) {
          overhead_same_output = false;
        }
      }
    }
    obs::metrics().set_enabled(true);
    obs::metrics().reset();
  }
  const double overhead_pct =
      best_uninstrumented > 0.0
          ? (best_instrumented / best_uninstrumented - 1.0) * 100.0
          : 0.0;
  const bool overhead_ok =
      best_instrumented <= best_uninstrumented * 1.03 && overhead_same_output;
  std::printf("  %-24s %14.3f\n", "instrumented s", best_instrumented);
  std::printf("  %-24s %14.3f\n", "uninstrumented s", best_uninstrumented);
  std::printf("  %-24s %+13.2f%%  (budget 3%%: %s)\n", "overhead",
              overhead_pct, overhead_ok ? "ok" : "OVER — OBS REGRESSION");
  if (!overhead_same_output) {
    std::printf("  WARNING: disabling metrics changed census output\n");
  }

  // ---- Flight recorder overhead --------------------------------------------
  //
  // Full flight recorder riding along: journal recording on, a 50 ms
  // progress heartbeat ticking (journal + counter sampling, no sink),
  // versus the recorder fully off. Budget: journaling + heartbeat cost
  // at most 3% of census CPU time at 8 threads, and the semantic
  // journal text must be byte-identical round over round (the
  // determinism contract under load). The estimate is the *median of
  // per-round paired differences* on process CPU time: each round runs
  // off-then-on back to back so slow machine drift hits both sides, and
  // the median discards rounds where the container was throttled
  // mid-pair.
  bench::print_subtitle("flight recorder overhead (census, 8 threads)");
  std::vector<double> recorded_cpu;
  std::vector<double> unrecorded_cpu;
  bool journal_same_output = true;
  bool journal_deterministic = true;
  std::uint64_t journal_drops = 0;
  {
    concurrency::ThreadPool pool(8);
    Fingerprint baseline;
    std::string journal_reference;
    for (int round = 0; round < kOverheadRounds; ++round) {
      for (const bool recording : {false, true}) {
        obs::journal().reset();
        obs::journal().set_recording(recording);
        obs::counter_sampler().reset();
        if (recording) {
          obs::ProgressConfig progress_config;
          progress_config.journal = &obs::journal();
          progress_config.sampler = &obs::counter_sampler();
          auto tracker =
              std::make_shared<obs::ProgressTracker>(progress_config);
          pool.start_heartbeat(
              std::chrono::milliseconds(50),
              [tracker](std::size_t done, std::size_t total) {
                (void)tracker->tick(done, total);
              });
        }
        census::Greylist blacklist;
        census::FastPingConfig fastping;
        fastping.seed = config.seed;
        fastping.probe_rate_pps = config.probe_rate_pps;
        fastping.vp_availability = config.vp_availability;
        const double cpu_start = cpu_seconds();
        const census::ShardedCensusOutput output = census::run_census_sharded(
            internet, vps, hitlist, blacklist, fastping, {},
            /*faults=*/nullptr, &pool);
        const double cpu = cpu_seconds() - cpu_start;
        pool.stop_heartbeat();
        (recording ? recorded_cpu : unrecorded_cpu).push_back(cpu);
        Fingerprint print;
        print.probes = output.summary.probes_sent;
        print.replies = output.summary.echo_replies;
        print.responsive = output.data.responsive_targets(2);
        print.greylisted = blacklist.size();
        if (round == 0 && !recording) {
          baseline = print;
        } else if (!(print == baseline)) {
          journal_same_output = false;
        }
        if (recording) {
          journal_drops += obs::journal().events_dropped();
          const std::string text = obs::journal().semantic_text();
          if (journal_reference.empty()) {
            journal_reference = text;
          } else if (text != journal_reference) {
            journal_deterministic = false;
          }
        }
      }
    }
    obs::journal().set_recording(false);
    obs::journal().reset();
    obs::counter_sampler().reset();
    obs::metrics().reset();
  }
  std::vector<double> journal_pairs;
  for (std::size_t i = 0;
       i < recorded_cpu.size() && i < unrecorded_cpu.size(); ++i) {
    if (unrecorded_cpu[i] > 0.0) {
      journal_pairs.push_back(recorded_cpu[i] / unrecorded_cpu[i] - 1.0);
    }
  }
  const double journal_pct = median_of(journal_pairs) * 100.0;
  const bool journal_ok = journal_pct <= 3.0 && journal_same_output &&
                          journal_deterministic && journal_drops == 0;
  std::printf("  %-24s %14.3f\n", "recorded med cpu s",
              median_of(recorded_cpu));
  std::printf("  %-24s %14.3f\n", "unrecorded med cpu s",
              median_of(unrecorded_cpu));
  std::printf("  %-24s %+13.2f%%  (budget 3%%: %s)\n", "overhead",
              journal_pct, journal_ok ? "ok" : "OVER — OBS REGRESSION");
  std::printf("  %-24s %14s\n", "semantic text stable",
              journal_deterministic ? "yes" : "NO — DETERMINISM BUG");
  std::printf("  %-24s %14llu\n", "events dropped",
              static_cast<unsigned long long>(journal_drops));
  if (!journal_same_output) {
    std::printf("  WARNING: enabling the journal changed census output\n");
  }

  std::FILE* json = std::fopen("BENCH_parallel.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"bench\": \"parallel_scaling\",\n"
                 "  \"targets\": %zu,\n  \"vps\": %zu,\n"
                 "  \"hardware_threads\": %zu,\n"
                 "  \"scaling_valid\": %s,\n"
                 "  \"outputs_identical\": %s,\n"
                 "  \"obs_overhead_pct\": %.2f,\n"
                 "  \"obs_overhead_within_budget\": %s,\n"
                 "  \"journal_overhead_pct\": %.2f,\n"
                 "  \"journal_overhead_within_budget\": %s,\n"
                 "  \"journal_semantic_text_stable\": %s,\n"
                 "  \"journal_events_dropped\": %llu,\n  \"results\": [\n",
                 hitlist.size(), vps.size(),
                 concurrency::default_thread_count(),
                 bench::scaling_valid() ? "true" : "false",
                 identical ? "true" : "false", overhead_pct,
                 overhead_ok ? "true" : "false", journal_pct,
                 journal_ok ? "true" : "false",
                 journal_deterministic ? "true" : "false",
                 static_cast<unsigned long long>(journal_drops));
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const Sample& sample = samples[i];
      std::fprintf(json,
                   "    {\"phase\": \"%s\", \"threads\": %d, "
                   "\"seconds\": %.6f, \"speedup\": %.3f}%s\n",
                   sample.phase.c_str(), sample.threads, sample.cost.seconds,
                   sample.speedup, i + 1 < samples.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("  wrote BENCH_parallel.json\n");
  }

  json = std::fopen("BENCH_columnar.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"bench\": \"columnar\",\n"
                 "  \"targets\": %zu,\n  \"vps\": %zu,\n"
                 "  \"hardware_threads\": %zu,\n"
                 "  \"scaling_valid\": %s,\n"
                 "  \"rss_resets_per_phase\": %s,\n"
                 "  \"outputs_identical\": %s,\n  \"phases\": [\n",
                 hitlist.size(), vps.size(),
                 concurrency::default_thread_count(),
                 bench::scaling_valid() ? "true" : "false",
                 rss_resets ? "true" : "false",
                 identical ? "true" : "false");
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const Sample& sample = samples[i];
      std::fprintf(
          json,
          "    {\"phase\": \"%s\", \"threads\": %d, \"seconds\": %.6f, "
          "\"speedup\": %.3f, \"allocations\": %llu, \"alloc_mb\": %llu, "
          "\"peak_rss_kb\": %zu}%s\n",
          sample.phase.c_str(), sample.threads, sample.cost.seconds,
          sample.speedup, static_cast<unsigned long long>(sample.cost.allocs),
          static_cast<unsigned long long>(sample.cost.alloc_mb),
          sample.cost.peak_rss_kb, i + 1 < samples.size() ? "," : "");
    }
    std::fprintf(
        json,
        "  ],\n  \"layout_comparison\": {\n"
        "    \"workload\": \"assemble %zu-vp fragments x2 + combine_min\",\n"
        "    \"identical_result\": %s,\n"
        "    \"columnar\": {\"seconds\": %.6f, \"allocations\": %llu, "
        "\"alloc_mb\": %llu, \"peak_rss_kb\": %zu, "
        "\"container_footprint_kb\": %zu},\n"
        "    \"legacy\": {\"seconds\": %.6f, \"allocations\": %llu, "
        "\"alloc_mb\": %llu, \"peak_rss_kb\": %zu, "
        "\"container_footprint_kb\": %zu}\n  }\n}\n",
        vps.size(), same_result ? "true" : "false", columnar.seconds,
        static_cast<unsigned long long>(columnar.allocs),
        static_cast<unsigned long long>(columnar.alloc_mb),
        columnar.peak_rss_kb, columnar_footprint_kb, legacy.seconds,
        static_cast<unsigned long long>(legacy.allocs),
        static_cast<unsigned long long>(legacy.alloc_mb),
        legacy.peak_rss_kb, legacy_footprint_kb);
    std::fclose(json);
    std::printf("  wrote BENCH_columnar.json\n");
  }
  return identical && same_result && fewer_allocs && overhead_ok &&
                 journal_ok
             ? 0
             : 1;
}
