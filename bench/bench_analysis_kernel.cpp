// Analysis-kernel duel: the scalar oracle pipeline vs the shipped
// chord-space/bitset kernel, on identical inputs.
//
// The reference side is the test-only oracle library (tests/oracle): the
// pre-kernel scalar code for every geometry step — full pairwise detect
// sweep, hash-map measurement collapse, haversine pair tests,
// vector<vector<bool>> MIS, latitude-band city scans — driven by a serial
// census sweep (oracle::analyze). The kernel side is the library's one
// analysis path (CensusAnalyzer, IGreedy, core::*_mis). The duel asserts
// the contract that makes the kernel safe: byte-identical output, checked
// here with a CRC over every field of every outcome (disk geometry,
// verdicts, replica coordinates at full bit width). Per-phase timings
// separate the detect sweep (the bulk of a census analysis: ~97% unicast
// rows) from iGreedy on detected rows, and a thread-scaling sweep records
// how the kernel shards. Machine-readable results go to BENCH_kernel.json;
// the exit code is nonzero unless outputs are identical and the
// single-threaded speedup reaches 4x.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "anycast/census/storage.hpp"
#include "anycast/concurrency/thread_pool.hpp"
#include "anycast/core/mis.hpp"
#include "anycast/geo/city_data.hpp"
#include "common.hpp"
#include "oracle.hpp"

namespace {

using namespace anycast;
using Clock = std::chrono::steady_clock;

constexpr double kTargetSpeedup = 4.0;
constexpr int kRepetitions = 3;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Best-of-N wall clock for a phase (minimum filters scheduler noise; the
/// phases are deterministic, so the fastest run is the least-perturbed).
template <typename Fn>
double time_best(Fn&& fn) {
  double best = 1e300;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    const auto t0 = Clock::now();
    fn();
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

void put32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put32(out, static_cast<std::uint32_t>(v));
  put32(out, static_cast<std::uint32_t>(v >> 32));
}

/// CRC over every observable field of the analysis output, coordinates at
/// full bit width — "byte-identical" is checked, not eyeballed.
std::uint32_t outcome_digest(
    const std::vector<analysis::TargetOutcome>& outcomes) {
  std::vector<std::uint8_t> bytes;
  put64(bytes, outcomes.size());
  for (const analysis::TargetOutcome& outcome : outcomes) {
    put32(bytes, outcome.target_index);
    put32(bytes, outcome.slash24_index);
    put32(bytes, outcome.result.anycast ? 1u : 0u);
    put32(bytes, static_cast<std::uint32_t>(outcome.result.iterations));
    put64(bytes, outcome.result.usable_measurements);
    put64(bytes, outcome.result.first_round_replicas);
    put64(bytes, outcome.result.replicas.size());
    for (const core::Replica& replica : outcome.result.replicas) {
      put32(bytes, replica.vp_id);
      put64(bytes, std::bit_cast<std::uint64_t>(
                       replica.disk.center().latitude()));
      put64(bytes, std::bit_cast<std::uint64_t>(
                       replica.disk.center().longitude()));
      put64(bytes, std::bit_cast<std::uint64_t>(replica.disk.radius_km()));
      put64(bytes,
            std::bit_cast<std::uint64_t>(replica.location.latitude()));
      put64(bytes,
            std::bit_cast<std::uint64_t>(replica.location.longitude()));
    }
  }
  return census::crc32(bytes);
}

struct PhaseRow {
  const char* name;
  double reference_s = 0.0;
  double kernel_s = 0.0;
  bool identical = false;
};

}  // namespace

int main() {
  bench::BenchConfig config;
  config.census_count = 2;
  const bench::BenchWorld world(config);

  const core::Options options;
  const oracle::CityScan scan(geo::world_cities());
  const analysis::CensusAnalyzer kernel(world.vps, geo::world_index(),
                                        options);

  bench::print_title("Analysis kernel duel: scalar oracle vs "
                     "chord-space/bitset kernel");
  bench::warn_if_scaling_invalid("bench_analysis_kernel");
  std::printf("  world: %zu targets x %zu vps, best of %d runs\n\n",
              world.hitlist.size(), world.vps.size(), kRepetitions);

  // ---- Phase 1: detection sweep (every row) -------------------------------
  std::vector<std::uint32_t> detected_reference;
  std::vector<std::uint32_t> detected_kernel;
  const auto sweep = [&](auto&& detect, std::vector<std::uint32_t>& out) {
    out.clear();
    for (std::uint32_t t = 0; t < world.combined.target_count(); ++t) {
      const auto row = world.combined.measurements(t);
      if (row.size() < 2) continue;
      if (detect(row)) out.push_back(t);
    }
  };
  PhaseRow detect_phase{"detect_sweep"};
  detect_phase.reference_s = time_best([&] {
    sweep(
        [&](std::span<const census::VpRtt> row) {
          return oracle::detect_scan(world.vps, row, options.max_rtt_ms);
        },
        detected_reference);
  });
  detect_phase.kernel_s = time_best([&] {
    sweep(
        [&](std::span<const census::VpRtt> row) { return kernel.detect(row); },
        detected_kernel);
  });
  detect_phase.identical = detected_reference == detected_kernel;

  // ---- Phase 2: iGreedy on detected rows ----------------------------------
  const auto igreedy_all = [&](auto&& analyze_row,
                               const std::vector<std::uint32_t>& rows) {
    std::vector<analysis::TargetOutcome> outcomes;
    for (const std::uint32_t t : rows) {
      analysis::TargetOutcome outcome;
      outcome.target_index = t;
      outcome.result = analyze_row(world.combined.measurements(t));
      outcomes.push_back(std::move(outcome));
    }
    return outcome_digest(outcomes);
  };
  PhaseRow igreedy_phase{"igreedy_detected"};
  std::uint32_t igreedy_reference_digest = 0;
  std::uint32_t igreedy_kernel_digest = 0;
  igreedy_phase.reference_s = time_best([&] {
    igreedy_reference_digest = igreedy_all(
        [&](std::span<const census::VpRtt> row) {
          return oracle::igreedy_analyze(
              scan, options, oracle::row_measurements(world.vps, row));
        },
        detected_reference);
  });
  igreedy_phase.kernel_s = time_best([&] {
    igreedy_kernel_digest = igreedy_all(
        [&](std::span<const census::VpRtt> row) {
          return kernel.analyze_row(row);
        },
        detected_kernel);
  });
  igreedy_phase.identical = igreedy_reference_digest == igreedy_kernel_digest;

  // ---- Phase 3: full single-threaded analyze (the headline number) --------
  PhaseRow analyze_phase{"full_analyze"};
  std::uint32_t analyze_reference_digest = 0;
  std::uint32_t analyze_kernel_digest = 0;
  analyze_phase.reference_s = time_best([&] {
    analyze_reference_digest = outcome_digest(
        oracle::analyze(world.vps, scan, options, world.combined,
                        world.hitlist, 2));
  });
  analyze_phase.kernel_s = time_best([&] {
    analyze_kernel_digest = outcome_digest(
        kernel.analyze(world.combined, world.hitlist, 2, nullptr));
  });
  analyze_phase.identical = analyze_reference_digest == analyze_kernel_digest;

  // ---- MIS micro-duel: both MIS solvers against their oracles -------------
  // Greedy runs on every detected row; exact B&B (exponential worst case
  // on both sides) only on instances small enough to finish — full census
  // rows have ~250 disks, far past what branch-and-bound can enumerate.
  constexpr std::size_t kExactMaxDisks = 28;
  constexpr std::size_t kExactMaxRows = 300;
  std::vector<std::vector<geodesy::Disk>> mis_inputs;
  std::vector<std::vector<geodesy::Disk>> exact_inputs;
  for (const std::uint32_t t : detected_kernel) {
    const auto row = world.combined.measurements(t);
    std::vector<geodesy::Disk> disks;
    disks.reserve(row.size());
    for (const census::VpRtt& s : row) {
      if (s.rtt_ms <= 0.0 || s.rtt_ms > options.max_rtt_ms) continue;
      disks.push_back(geodesy::Disk::from_rtt(
          world.vps[s.vp].believed_location, s.rtt_ms));
    }
    if (disks.size() > kExactMaxDisks &&
        exact_inputs.size() < kExactMaxRows) {
      // Truncated copy: still real census geometry, bounded search space.
      exact_inputs.emplace_back(disks.begin(),
                                disks.begin() + kExactMaxDisks);
    } else if (exact_inputs.size() < kExactMaxRows) {
      exact_inputs.push_back(disks);
    }
    mis_inputs.push_back(std::move(disks));
  }
  PhaseRow greedy_phase{"greedy_mis"};
  bool greedy_identical = true;
  greedy_phase.reference_s = time_best([&] {
    for (const auto& disks : mis_inputs) oracle::greedy_mis(disks);
  });
  greedy_phase.kernel_s = time_best([&] {
    for (const auto& disks : mis_inputs) core::greedy_mis(disks);
  });
  for (const auto& disks : mis_inputs) {
    if (oracle::greedy_mis(disks) != core::greedy_mis(disks)) {
      greedy_identical = false;
    }
  }
  greedy_phase.identical = greedy_identical;

  PhaseRow exact_phase{"exact_mis"};
  bool exact_identical = true;
  exact_phase.reference_s = time_best([&] {
    for (const auto& disks : exact_inputs) oracle::exact_mis(disks);
  });
  exact_phase.kernel_s = time_best([&] {
    for (const auto& disks : exact_inputs) core::exact_mis(disks);
  });
  for (const auto& disks : exact_inputs) {
    if (oracle::exact_mis(disks) != core::exact_mis(disks)) {
      exact_identical = false;
    }
  }
  exact_phase.identical = exact_identical;

  const PhaseRow phases[] = {detect_phase, igreedy_phase, analyze_phase,
                             greedy_phase, exact_phase};
  bench::print_rule();
  std::printf("  %-18s %12s %12s %9s %10s\n", "phase", "reference_s",
              "kernel_s", "speedup", "identical");
  bool outputs_identical = true;
  for (const PhaseRow& phase : phases) {
    const double speedup =
        phase.kernel_s > 0.0 ? phase.reference_s / phase.kernel_s : 0.0;
    std::printf("  %-18s %12.3f %12.3f %8.2fx %10s\n", phase.name,
                phase.reference_s, phase.kernel_s, speedup,
                phase.identical ? "yes" : "NO");
    outputs_identical = outputs_identical && phase.identical;
  }

  const double speedup =
      analyze_phase.kernel_s > 0.0
          ? analyze_phase.reference_s / analyze_phase.kernel_s
          : 0.0;
  const bool meets_target = speedup >= kTargetSpeedup;
  std::printf("\n  single-threaded analyze speedup: %.2fx (target %.1fx) "
              "-> %s\n  outputs identical: %s\n",
              speedup, kTargetSpeedup, meets_target ? "PASS" : "FAIL",
              outputs_identical ? "yes" : "NO — DETERMINISM BUG");

  // ---- Thread-scaling sweep (kernel side) ---------------------------------
  struct ScalePoint {
    std::size_t threads;
    double seconds;
    bool identical;
  };
  std::vector<ScalePoint> scaling;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    concurrency::ThreadPool pool(threads);
    std::uint32_t digest = 0;
    const double s = time_best([&] {
      digest = outcome_digest(
          kernel.analyze(world.combined, world.hitlist, 2, &pool));
    });
    scaling.push_back({threads, s, digest == analyze_kernel_digest});
    outputs_identical = outputs_identical && digest == analyze_kernel_digest;
  }
  std::printf("\n  kernel analyze thread scaling:");
  for (const ScalePoint& point : scaling) {
    std::printf("  %zut=%.3fs", point.threads, point.seconds);
  }
  std::printf("\n");

  std::FILE* json = std::fopen("BENCH_kernel.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"bench\": \"analysis_kernel\",\n"
                 "  \"targets\": %zu,\n  \"vps\": %zu,\n"
                 "  \"detected\": %zu,\n"
                 "  \"hardware_threads\": %zu,\n"
                 "  \"scaling_valid\": %s,\n"
                 "  \"repetitions\": %d,\n"
                 "  \"outputs_identical\": %s,\n"
                 "  \"speedup_single_thread\": %.3f,\n"
                 "  \"target_speedup\": %.1f,\n"
                 "  \"meets_target\": %s,\n  \"phases\": [\n",
                 world.hitlist.size(), world.vps.size(),
                 detected_kernel.size(), concurrency::default_thread_count(),
                 bench::scaling_valid() ? "true" : "false",
                 kRepetitions, outputs_identical ? "true" : "false", speedup,
                 kTargetSpeedup, meets_target ? "true" : "false");
    for (std::size_t i = 0; i < std::size(phases); ++i) {
      const PhaseRow& phase = phases[i];
      std::fprintf(json,
                   "    {\"phase\": \"%s\", \"reference_s\": %.6f, "
                   "\"kernel_s\": %.6f, \"speedup\": %.3f, "
                   "\"identical\": %s}%s\n",
                   phase.name, phase.reference_s, phase.kernel_s,
                   phase.kernel_s > 0.0 ? phase.reference_s / phase.kernel_s
                                        : 0.0,
                   phase.identical ? "true" : "false",
                   i + 1 < std::size(phases) ? "," : "");
    }
    std::fprintf(json, "  ],\n  \"thread_scaling\": [\n");
    for (std::size_t i = 0; i < scaling.size(); ++i) {
      std::fprintf(json,
                   "    {\"threads\": %zu, \"kernel_s\": %.6f, "
                   "\"identical\": %s}%s\n",
                   scaling[i].threads, scaling[i].seconds,
                   scaling[i].identical ? "true" : "false",
                   i + 1 < scaling.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("\n  wrote BENCH_kernel.json\n");
  }
  return outputs_identical && meets_target ? 0 : 1;
}
