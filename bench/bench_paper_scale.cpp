// Paper-scale data-plane bench: the paper's census is 6.6M /24 targets
// probed from ~1000 vantage points (Sec. 3). A monolithic CSR matrix at
// that scale is fine for RAM-rich analysis boxes but not for the
// fixed-budget probing hosts the campaign actually runs on — this bench
// drives the sharded data plane (anycast/census/sharded.hpp) through a
// synthetic full-scale census and proves the two claims DESIGN.md §15
// makes:
//
//   1. Bounded memory: the streaming fragment combine plus the spill
//      tier keep peak RSS inside a declared budget (default 2 GiB)
//      while assembling ~2 GB of census values.
//   2. Element identity: at a cross-checkable scale, the sharded
//      assembly (any shard size, spilling on or off) is element-
//      identical to the monolithic CensusMatrixBuilder fed the same
//      fragments.
//
// The synthetic census is deterministic and needs no simulated world at
// this scale: VP v covers the arithmetic progression t ≡ r_v (mod m_v)
// with prime-ish strides around 30, matching the real census's ~3%
// per-VP response density (6.6M targets x 1000 VPs -> ~220M samples,
// ~1.8 GB of values). RTTs are a pure function of (vp, target), with a
// sprinkling of contradictory low-RTT rows standing in for anycast.
//
//   bench_paper_scale [targets] [vps] [budget_mb] [shard_targets] [cross]
//
// defaults: 6600000 1000 2048 262144 200000. CI runs a reduced-scale
// smoke (same code path, smaller numbers); the committed
// BENCH_scale.json is a full-scale run.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#if defined(__linux__)
#include <malloc.h>
#endif

#include "anycast/census/census.hpp"
#include "anycast/census/sharded.hpp"
#include "anycast/concurrency/thread_pool.hpp"
#include "common.hpp"

namespace {

using namespace anycast;

// ---- RSS accounting (Linux /proc; zeros elsewhere) -------------------------

std::size_t proc_status_kb(const char* key) {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t kb = 0;
  const std::size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0) {
      kb = static_cast<std::size_t>(std::strtoull(line + key_len, nullptr, 10));
      break;
    }
  }
  std::fclose(f);
  return kb;
#else
  (void)key;
  return 0;
#endif
}

std::size_t peak_rss_kb() { return proc_status_kb("VmHWM:"); }
std::size_t current_rss_kb() { return proc_status_kb("VmRSS:"); }

// ---- The synthetic census --------------------------------------------------

/// Prime-ish strides cycled per VP: every VP covers targets t with
/// t % stride == offset, i.e. ~1/30 of the hitlist, like a real VP's
/// responsive slice of the paper's 6.6M-target census.
constexpr std::uint32_t kStrides[] = {29, 31, 37, 41, 43, 23, 47, 53};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Deterministic RTT for (vp, target). Targets on the 10007 lattice get
/// contradictory near-zero RTTs from every VP — the speed-of-light
/// signature of anycast — so downstream consumers see both row shapes.
float synthetic_rtt(std::uint32_t vp, std::uint32_t target) {
  if (target % 10007 == 0) {
    return 1.0F + static_cast<float>(vp % 5);
  }
  const std::uint64_t h =
      splitmix64((static_cast<std::uint64_t>(vp) << 32) | target);
  return 10.0F + static_cast<float>(h % 20000) / 100.0F;  // 10..210 ms
}

/// VP v's row fragment: sorted by target index, per-target minima — the
/// exact shape vp_row_fragment hands the census reduction.
std::vector<census::TargetRtt> synthetic_fragment(std::uint32_t vp,
                                                  std::size_t targets) {
  const std::uint32_t stride =
      kStrides[vp % (sizeof kStrides / sizeof kStrides[0])];
  const std::uint32_t offset =
      static_cast<std::uint32_t>(splitmix64(vp) % stride);
  std::vector<census::TargetRtt> fragment;
  fragment.reserve(targets / stride + 1);
  for (std::uint64_t t = offset; t < targets; t += stride) {
    fragment.push_back({static_cast<std::uint32_t>(t),
                        synthetic_rtt(vp, static_cast<std::uint32_t>(t))});
  }
  return fragment;
}

/// Order-sensitive digest over every row of a matrix-like (FNV-1a over
/// (target, vp, rtt bits)): equal digests + equal observation counts is
/// the cheap cross-scale identity check.
template <typename MatrixT>
std::uint64_t census_digest(const MatrixT& data) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h = (h ^ v) * 0x100000001B3ULL;
  };
  for (std::uint32_t t = 0; t < data.target_count(); ++t) {
    for (const census::VpRtt& sample : data.measurements(t)) {
      std::uint32_t rtt_bits = 0;
      std::memcpy(&rtt_bits, &sample.rtt_ms, sizeof rtt_bits);
      mix(t);
      mix(sample.vp);
      mix(rtt_bits);
    }
  }
  return h;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Streams the synthetic census into a sharded builder, one fragment at
/// a time (the generator itself is O(one fragment) resident).
census::ShardedCensusMatrix build_sharded(std::size_t targets,
                                          std::size_t vps,
                                          const census::DataPlaneConfig& plane) {
  census::ShardedCensusMatrixBuilder builder(targets, plane);
  for (std::uint32_t v = 0; v < vps; ++v) {
    builder.add_fragment(static_cast<std::uint16_t>(v),
                         synthetic_fragment(v, targets));
  }
  return builder.build();
}

census::CensusMatrix build_monolithic(std::size_t targets, std::size_t vps) {
  census::CensusMatrixBuilder builder(targets);
  for (std::uint32_t v = 0; v < vps; ++v) {
    builder.add_fragment(static_cast<std::uint16_t>(v),
                         synthetic_fragment(v, targets));
  }
  return builder.build();
}

/// Element-wise equality between a sharded matrix and its monolithic
/// twin (never memcmp: VpRtt has padding).
bool element_identical(const census::ShardedCensusMatrix& sharded,
                       const census::CensusMatrix& mono) {
  if (sharded.target_count() != mono.target_count()) return false;
  for (std::uint32_t t = 0; t < mono.target_count(); ++t) {
    const auto a = sharded.measurements(t);
    const auto b = mono.measurements(t);
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].vp != b[i].vp || a[i].rtt_ms != b[i].rtt_ms) return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t targets =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 6'600'000;
  const std::size_t vps = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1000;
  const std::size_t budget_mb =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 2048;
  const std::size_t shard_targets =
      argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 262'144;
  const std::size_t cross_targets =
      argc > 5 ? std::strtoull(argv[5], nullptr, 10) : 200'000;

  bench::print_title("Paper scale — sharded census data plane, fixed RSS");
  std::printf("  %zu targets x %zu VPs, shard %zu, process budget %zu MiB\n",
              targets, vps, shard_targets, budget_mb);

  const std::filesystem::path spill_dir = "bench_scale_spill";
  std::filesystem::remove_all(spill_dir);

  // The value-tier budget gets half the process budget; staging, shard
  // offset arrays, and allocator slack live in the other half.
  census::DataPlaneConfig plane;
  plane.shard_targets = shard_targets;
  plane.rss_budget_mb = budget_mb / 2;
  plane.spill_dir = spill_dir.string();

  // ---- Phase 1: full-scale sharded build under the budget ----------------
  // The first phase of the process: the VmHWM read after it is the
  // build's peak, not a startup artefact.
  const std::size_t rss_before_kb = current_rss_kb();
  const auto build_start = std::chrono::steady_clock::now();
  census::ShardedCensusMatrix data = build_sharded(targets, vps, plane);
  const double build_seconds = seconds_since(build_start);

  // Digest shard by shard, re-dropping each spilled shard's pages after
  // reading it so the walk itself stays inside the budget.
  const auto digest_start = std::chrono::steady_clock::now();
  std::uint64_t digest = 0xCBF29CE484222325ULL;
  for (std::size_t s = 0; s < data.shard_count(); ++s) {
    const std::uint64_t shard_digest = census_digest(data.shard(s));
    digest = (digest ^ shard_digest) * 0x100000001B3ULL;
    if (data.shard_spilled(s)) data.spill_shard(s);  // re-drop pages
  }
  const double digest_seconds = seconds_since(digest_start);

#if defined(__linux__)
  malloc_trim(0);
#endif
  const std::size_t peak_kb = peak_rss_kb();
  const std::size_t budget_kb = budget_mb * 1024;
  const bool rss_ok = peak_kb > 0 && peak_kb <= budget_kb;
  std::size_t spilled_shards = 0;
  for (std::size_t s = 0; s < data.shard_count(); ++s) {
    if (data.shard_spilled(s)) ++spilled_shards;
  }
  const std::size_t shard_count = data.shard_count();
  const std::size_t observations = data.observation_count();
  const std::size_t total_bytes = data.total_value_bytes();
  const std::size_t resident_bytes = data.resident_value_bytes();

  bench::print_subtitle("full-scale sharded build");
  std::printf("  %-26s %14zu\n", "shards", data.shard_count());
  std::printf("  %-26s %14s\n", "observations",
              bench::fmt_int(observations).c_str());
  std::printf("  %-26s %14.1f\n", "value GB",
              static_cast<double>(total_bytes) / 1e9);
  std::printf("  %-26s %14zu\n", "spilled shards", spilled_shards);
  std::printf("  %-26s %14.1f\n", "resident value MB",
              static_cast<double>(resident_bytes) / 1e6);
  std::printf("  %-26s %14.1f\n", "build seconds", build_seconds);
  std::printf("  %-26s %14.1f\n", "digest seconds", digest_seconds);
  std::printf("  %-26s %14zu  (start %zu)\n", "peak RSS kB", peak_kb,
              rss_before_kb);
  std::printf("  %-26s %14s\n", "within budget",
              rss_ok ? "yes" : "NO — BUDGET EXCEEDED");
  std::printf("  %-26s %16llX\n", "census digest",
              static_cast<unsigned long long>(digest));

  // Release the full-scale plane before the cross-check allocates, so
  // the cross-check cannot ride on already-counted pages.
  data = census::ShardedCensusMatrix();

  // ---- Phase 2: reduced-scale element-identity cross-check ---------------
  bench::print_subtitle("cross-check vs monolithic (reduced scale)");
  const std::size_t cvps = std::min<std::size_t>(vps, 200);
  const census::CensusMatrix mono = build_monolithic(cross_targets, cvps);
  const std::uint64_t mono_digest = census_digest(mono);

  struct CrossLeg {
    std::size_t shard_targets;
    std::size_t rss_budget_mb;  // 0 = never spill
    bool identical = false;
  };
  std::vector<CrossLeg> legs = {
      {cross_targets, 0},      // single shard, no spill (monolithic twin)
      {4096, 0},               // many shards, all resident
      {997, 1},                // odd shard size + forced spilling
  };
  bool outputs_identical = true;
  for (CrossLeg& leg : legs) {
    census::DataPlaneConfig cross_plane;
    cross_plane.shard_targets = leg.shard_targets;
    cross_plane.rss_budget_mb = leg.rss_budget_mb;
    cross_plane.spill_dir = (spill_dir / "cross").string();
    const census::ShardedCensusMatrix sharded =
        build_sharded(cross_targets, cvps, cross_plane);
    leg.identical = element_identical(sharded, mono) &&
                    census_digest(sharded) == mono_digest;
    outputs_identical = outputs_identical && leg.identical;
    std::printf("  shard %-8zu budget %-4zu %24s\n", leg.shard_targets,
                leg.rss_budget_mb,
                leg.identical ? "element-identical" : "MISMATCH");
  }

  // ---- BENCH_scale.json ---------------------------------------------------
  std::FILE* json = std::fopen("BENCH_scale.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"bench\": \"paper_scale\",\n"
                 "  \"targets\": %zu,\n  \"vps\": %zu,\n"
                 "  \"shard_targets\": %zu,\n  \"shard_count\": %zu,\n"
                 "  \"observations\": %zu,\n"
                 "  \"total_value_bytes\": %zu,\n"
                 "  \"spilled_shards\": %zu,\n"
                 "  \"resident_value_bytes\": %zu,\n"
                 "  \"hardware_threads\": %zu,\n"
                 "  \"build_seconds\": %.3f,\n"
                 "  \"digest_seconds\": %.3f,\n"
                 "  \"census_digest\": \"%016llX\",\n"
                 "  \"rss_budget_mb\": %zu,\n"
                 "  \"peak_rss_kb\": %zu,\n"
                 "  \"rss_within_budget\": %s,\n"
                 "  \"cross_check\": {\n"
                 "    \"targets\": %zu,\n    \"vps\": %zu,\n"
                 "    \"legs\": [\n",
                 targets, vps, shard_targets, shard_count,
                 observations, total_bytes, spilled_shards, resident_bytes,
                 concurrency::default_thread_count(), build_seconds,
                 digest_seconds,
                 static_cast<unsigned long long>(digest), budget_mb, peak_kb,
                 rss_ok ? "true" : "false", cross_targets, cvps);
    for (std::size_t i = 0; i < legs.size(); ++i) {
      std::fprintf(json,
                   "      {\"shard_targets\": %zu, \"rss_budget_mb\": %zu, "
                   "\"identical\": %s}%s\n",
                   legs[i].shard_targets, legs[i].rss_budget_mb,
                   legs[i].identical ? "true" : "false",
                   i + 1 < legs.size() ? "," : "");
    }
    std::fprintf(json,
                 "    ]\n  },\n  \"outputs_identical\": %s\n}\n",
                 outputs_identical ? "true" : "false");
    std::fclose(json);
    std::printf("  wrote BENCH_scale.json\n");
  }

  std::filesystem::remove_all(spill_dir);
  return rss_ok && outputs_identical ? 0 : 1;
}
