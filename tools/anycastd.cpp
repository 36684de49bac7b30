// anycastd — command-line front end to the census library.
//
// Subcommands mirror the paper's workflow (Fig. 1):
//
//   anycastd world    [--seed N] [--unicast N]
//       print the simulated world's deployment inventory
//   anycastd census   --out DIR [--vps N] [--rate PPS] [--census-id N]
//       run one census; write DIR/census.manifest (every flag that fixes
//       what is probed, defaults included, plus the hitlist's size and
//       CRC), then one checkpoint file per VP. --chaos injects
//       deterministic faults (crashes, outages, reply storms,
//       stragglers). A DIR whose manifest records another census is
//       refused (exit 2)
//   anycastd resume   --out DIR [--threads N] [data plane flags]
//       recover a killed census: the world and probe settings come from
//       DIR's manifest; complete checkpoints are reused and only missing
//       or crashed VPs re-run
//   anycastd analyze  --in DIR [--geojson FILE] [--top N]
//       collate per-VP files (salvaging damaged ones), detect/enumerate/
//       geolocate, print the characterisation; optionally export replicas
//       as GeoJSON (exit 1 when FILE cannot be written)
//   anycastd serve    --in DIR [--queries FILE] [--against DIR]
//       publish DIR's census as an immutable snapshot and answer
//       point/replicas/batch/nearest/diff queries from a request file or
//       stdin; refuses snapshots that fail checksum validation unless
//       --allow-salvage, and an --against DIR from another world
//   anycastd portscan [--top N]
//       TCP portscan of the top anycast ASes (Sec. 4.3)
//   anycastd diff     --out DIR
//       run two censuses and print the landscape changes (Sec. 5)
//   anycastd report   --in DIR [--journal FILE] [--format md|json]
//       render a Markdown/JSON run report joining the journal, the
//       metrics, and the re-analyzed checkpoints; with
//       --diff A --against B, compare two journals' semantic event
//       streams instead and print the first divergence (exit 3 on drift)
//   anycastd top      --metrics FILE [--interval S] [--iterations N]
//       live terminal dashboard over the telemetry document another
//       anycastd flushes via --metrics-interval: latency histograms,
//       per-second serving / per-round census series, SLO burn rates
//
// World flags (--seed, --unicast, --vps) and the probe and chaos knobs are
// taken by world, census, watch, portscan and diff. resume, analyze, serve
// and report read them from DIR/census.manifest instead: passing one
// exits 2 and names the manifest, as does a DIR with no manifest or a
// damaged one, and a checkpoint whose header names another VP or census.
//
// All commands are deterministic in --seed (and --chaos-seed). The
// telemetry plane (--slo, --metrics-interval, the serve verbs
// stats/slo/metricsdump) reports live wall-clock state and is kTiming
// class throughout — it never feeds the semantic contract.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "anycast/analysis/analyzer.hpp"
#include "anycast/analysis/diff.hpp"
#include "anycast/analysis/geojson.hpp"
#include "anycast/analysis/report.hpp"
#include "anycast/analysis/run_report.hpp"
#include "anycast/census/census.hpp"
#include "anycast/census/resume.hpp"
#include "anycast/census/storage.hpp"
#include "anycast/concurrency/thread_pool.hpp"
#include "anycast/daemon/watch.hpp"
#include "anycast/geo/city_index.hpp"
#include "anycast/net/fault.hpp"
#include "anycast/net/platform.hpp"
#include "anycast/obs/durable.hpp"
#include "anycast/obs/journal.hpp"
#include "anycast/obs/metrics.hpp"
#include "anycast/obs/progress.hpp"
#include "anycast/obs/slo.hpp"
#include "anycast/obs/telemetry.hpp"
#include "anycast/obs/trace.hpp"
#include "anycast/obs/trace_export.hpp"
#include "anycast/portscan/scanner.hpp"
#include "anycast/serving/query.hpp"
#include "anycast/serving/snapshot.hpp"
#include "anycast/serving/store.hpp"
#include "flags.hpp"

namespace {

namespace fs = std::filesystem;
using namespace anycast;
using tools::Flags;

constexpr tools::FlagHelp kCommonFlags[] = {
    {"seed", "N",
     "world/census seed (default 2015); world, census, watch, portscan "
     "and diff only: the other commands read DIR/census.manifest"},
    {"unicast", "N",
     "unicast /24s per liveness class (default 6000); as --seed"},
    {"vps", "N", "PlanetLab vantage points, 1..65536 (default 200); as --seed"},
    {"threads", "N",
     "worker threads for census/analyze/diff (default: all cores; "
     "1 = serial; output is identical for any value)"},
    {"metrics-out", "FILE",
     "write the telemetry document on exit (JSON metrics + latency + "
     "series + slo, or Prometheus text when FILE ends in .prom); FILE "
     "must be writable up front"},
    {"metrics-interval", "S",
     "also flush the telemetry document to --metrics-out every S seconds "
     "(tmp + fsync + rename, so `anycastd top` never reads a torn file)"},
    {"slo", "SPEC",
     "SLO objectives, e.g. \"p99_lookup_us=50,availability=0.999\" "
     "(latency stages: lookup|nearest|diff|query); multi-window burn rates tracked live (watch journals availability "
     "transitions as semantic events)"},
    {"journal-out", "FILE",
     "record the flight-recorder event journal (JSONL; semantic events "
     "deterministic, fsynced at census boundaries); writable up front; "
     "a failed write or fsync exits 1"},
    {"trace-out", "FILE",
     "write a Chrome-trace/Perfetto JSON of spans + counter tracks on "
     "exit (load in ui.perfetto.dev); FILE must be writable up front"},
    {"progress", "",
     "print live heartbeat lines (VPs done, rates, ETA) to stderr"},
    {"verbose", "", "print a metrics summary table and span tree on exit"},
};

constexpr tools::FlagHelp kCensusFlags[] = {
    {"out", "DIR", "checkpoint directory (required)"},
    {"rate", "PPS", "probing rate (default 1000; 10000 overdrives VPs)"},
    {"census-id", "N", "census number, also offsets the seed (default 1)"},
    {"availability", "F", "P(VP is up for this census) (default 1.0)"},
    {"retries", "N", "retry passes over timed-out targets (default 0)"},
    {"retry-backoff", "S", "base backoff before retry pass k: S*2^k (1.0)"},
    {"retry-budget", "N", "max retry probes per VP, 0 = unlimited (0)"},
    {"deadline-hours", "H", "cut off VPs exceeding this wall clock (off)"},
    {"quarantine-drop", "F", "quarantine VPs with timeout rate > F (off)"},
};

constexpr tools::FlagHelp kDataPlaneFlags[] = {
    {"shard-targets", "N",
     "targets per census shard (0 = one shard); any value "
     "yields identical output"},
    {"rss-budget-mb", "MB",
     "resident-value budget, a quarter of it for staging; shards past it "
     "spill to <dir>/spill and fault back on access (0 = never spill)"},
};

constexpr tools::FlagHelp kWatchFlags[] = {
    {"rounds", "N", "census rounds the campaign should reach (default 3)"},
    {"chaos", "SCENARIO",
     "flaps|regional|hijack|outages|storm|churn|mixed, or bare --chaos "
     "for the classic per-VP faults"},
    {"coverage-floor", "F",
     "completed/active VP floor below which a round is degraded (0.8)"},
    {"hijack-round", "N", "round a staged hijack starts (default 3)"},
    {"churn", "", "grow/shrink/move one replica set between rounds"},
    {"churn-seed", "N", "world-churn seed (default 77)"},
    {"die-at-round", "N",
     "watchdog drill: abort round N mid-way (half the platform "
     "checkpointed, no state commit) and exit 70; restart resumes"},
    {"serve-queries", "FILE",
     "serve this query batch continuously during the campaign (each "
     "round's snapshot swapped in atomically) and print the final-round "
     "answers on exit"},
};

constexpr tools::FlagHelp kTopFlags[] = {
    {"metrics", "FILE",
     "telemetry document another anycastd flushes via --metrics-interval "
     "(required)"},
    {"interval", "S", "refresh period in seconds (default 2)"},
    {"iterations", "N", "exit after N renders (0 = until interrupted)"},
    {"plain", "", "append renders instead of clearing the screen (for "
     "logs and tests)"},
};

constexpr tools::FlagHelp kChaosFlags[] = {
    {"chaos", "", "inject deterministic faults into the census"},
    {"chaos-seed", "N", "fault-plan seed (default 42)"},
    {"crash-rate", "F", "P(VP crashes mid-walk) (default 0.15)"},
    {"outage-rate", "F", "P(VP has a transient outage window) (0.15)"},
    {"storm-rate", "F", "P(VP suffers a reply-loss storm) (0.15)"},
    {"storm-drop", "F", "extra reply-drop probability in a storm (0.5)"},
    {"straggler-rate", "F", "P(VP stalls like an overloaded node) (0.15)"},
    {"stall-factor", "X", "slowdown inside a stall window (8.0)"},
};

int usage() {
  std::fprintf(stderr,
               "usage: anycastd "
               "<world|census|resume|watch|analyze|serve|portscan|diff|"
               "report|top> [flags]\n"
               "  common flags:\n");
  tools::print_flag_help(stderr, kCommonFlags);
  std::fprintf(stderr,
               "  census (recorded in DIR/census.manifest; resume, analyze, "
               "serve and report\n  refuse them and the world flags):\n");
  tools::print_flag_help(stderr, kCensusFlags);
  tools::print_flag_help(stderr, kChaosFlags);
  std::fprintf(stderr, "  data plane (census / resume / watch / analyze):\n");
  tools::print_flag_help(stderr, kDataPlaneFlags);
  std::fprintf(stderr, "  watch (supervised multi-round daemon):\n");
  tools::print_flag_help(stderr, kWatchFlags);
  std::fprintf(stderr, "  top (dashboard over a --metrics-interval file):\n");
  tools::print_flag_help(stderr, kTopFlags);
  std::fprintf(stderr,
               "  resume:   --out DIR (runtime flags only)\n"
               "  analyze:  --in DIR [--geojson FILE] [--top N]\n"
               "  serve:    --in DIR [--queries FILE] [--against DIR]\n"
               "            [--allow-salvage]  answer point/replicas/batch/\n"
               "            nearest/diff/stats/slo/metricsdump queries\n"
               "            (file or stdin) from the frozen snapshot;\n"
               "            strict checksums by default\n"
               "  portscan: [--top N]\n"
               "  diff:     [--epochs N] [--availability F]\n"
               "  report:   --in DIR [--journal FILE] [--format md|json] "
               "[--top N]\n"
               "            --diff JOURNAL_A --against JOURNAL_B "
               "(exit 3 on drift)\n");
  return 2;
}

net::WorldConfig world_config_from(const Flags& flags) {
  net::WorldConfig config;
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 2015));
  const auto unicast = static_cast<std::uint32_t>(
      flags.get_int("unicast", 6000, 0, UINT32_MAX));
  config.unicast_alive_slash24 = unicast;
  config.unicast_silent_slash24 = unicast;
  config.unicast_dead_slash24 = unicast;
  return config;
}

std::vector<net::VantagePoint> platform_from(const Flags& flags) {
  return net::make_planetlab(
      // Census rows store the VP id in 16 bits.
      {.node_count = static_cast<int>(flags.get_int("vps", 200, 1, 65536)),
       .seed = static_cast<std::uint64_t>(flags.get_int("seed", 2015)) ^
               0xF1E1D});
}

/// The --threads pool: default (0) uses every core; 1 is the exact
/// serial path. Results never depend on the value (merge order is fixed).
concurrency::ThreadPool pool_from(const Flags& flags) {
  return concurrency::ThreadPool(
      static_cast<std::size_t>(flags.get_int("threads", 0, 0)));
}

/// Attaches the --progress heartbeat to a pool for one phase and, on
/// destruction, stops it and emits one final tick — so even a run shorter
/// than the heartbeat interval prints at least one snapshot line.
struct ProgressGuard {
  concurrency::ThreadPool* pool = nullptr;
  std::shared_ptr<obs::ProgressTracker> tracker;
  ~ProgressGuard() {
    if (pool == nullptr || tracker == nullptr) return;
    pool->stop_heartbeat();
    const auto [done, total] = pool->progress();
    tracker->tick(done, total);
  }
};

ProgressGuard maybe_start_progress(concurrency::ThreadPool& pool,
                                   const Flags& flags, const char* phase) {
  if (!flags.get_bool("progress")) return {};
  obs::ProgressConfig config;
  config.journal = obs::journal().recording() ? &obs::journal() : nullptr;
  config.sampler = &obs::counter_sampler();
  config.sink = stderr;
  config.phase = phase;
  auto tracker = std::make_shared<obs::ProgressTracker>(std::move(config));
  pool.start_heartbeat(std::chrono::milliseconds(100),
                       [tracker](std::size_t done, std::size_t total) {
                         tracker->tick(done, total);
                       });
  return ProgressGuard{&pool, std::move(tracker)};
}

int reject_unknown(const Flags& flags) {
  if (!flags.bad().empty()) {
    std::fprintf(stderr, "bad flag value: %s\n", flags.bad().c_str());
    return 2;
  }
  const auto unknown = flags.unknown();
  if (unknown.empty()) return 0;
  for (const std::string& name : unknown) {
    std::fprintf(stderr, "unknown flag: --%s\n", name.c_str());
  }
  return 2;
}

std::optional<std::string> slurp_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

int cmd_world(const Flags& flags) {
  const net::SimulatedInternet internet(world_config_from(flags));
  std::size_t anycast_prefixes = 0;
  for (const net::Deployment& deployment : internet.deployments()) {
    anycast_prefixes += deployment.prefixes.size();
  }
  (void)flags.get_int("threads", 0);  // accepted everywhere, unused here
  std::printf("world seed %lld: %zu routed /24 (%zu anycast in %zu ASes)\n",
              static_cast<long long>(flags.get_int("seed", 2015)),
              internet.targets().size(), anycast_prefixes,
              internet.deployments().size());
  std::printf("\n%-18s %-9s %6s %6s %7s %6s\n", "AS", "category", "sites",
              "IP/24", "ports", "DNS");
  const auto top = static_cast<std::size_t>(flags.get_int("top", 20, 0));
  if (const int rc = reject_unknown(flags)) return rc;
  for (std::size_t d = 0; d < top && d < internet.deployments().size();
       ++d) {
    const net::Deployment& deployment = internet.deployments()[d];
    std::printf("%-18s %-9s %6zu %6zu %7zu %6s\n",
                deployment.whois_name.c_str(),
                std::string(net::to_string(deployment.category)).c_str(),
                deployment.sites.size(), deployment.prefixes.size(),
                deployment.tcp_services.size(),
                deployment.serves_dns ? "yes" : "no");
  }
  return 0;
}

/// Census prober configuration from the kCensusFlags knobs.
census::FastPingConfig fastping_config_from(const Flags& flags) {
  census::FastPingConfig fastping;
  fastping.seed = static_cast<std::uint64_t>(flags.get_int("seed", 2015)) +
                  static_cast<std::uint64_t>(
                      flags.get_int("census-id", 1, 0, UINT32_MAX));
  fastping.probe_rate_pps = flags.get_double("rate", 1000.0);
  fastping.vp_availability = flags.get_double("availability", 1.0);
  fastping.retry_max_attempts =
      static_cast<int>(flags.get_int("retries", 0, 0, INT_MAX));
  fastping.retry_backoff_s = flags.get_double("retry-backoff", 1.0);
  fastping.retry_probe_budget =
      static_cast<std::uint64_t>(flags.get_int("retry-budget", 0, 0));
  fastping.vp_deadline_hours = flags.get_double("deadline-hours", 0.0);
  fastping.quarantine_drop_rate = flags.get_double("quarantine-drop", 1.0);
  return fastping;
}

/// Data-plane shape from the kDataPlaneFlags knobs. Spill files land
/// under the command's own directory (checkpoint/out dir + "/spill"), so
/// a wiped run directory also wipes its spill tier.
census::DataPlaneConfig data_plane_from(const Flags& flags,
                                        const fs::path& base_dir) {
  census::DataPlaneConfig plane;
  plane.shard_targets =
      static_cast<std::size_t>(flags.get_int("shard-targets", 0, 0));
  plane.rss_budget_mb =
      static_cast<std::size_t>(flags.get_int("rss-budget-mb", 0, 0));
  plane.spill_dir = (base_dir / "spill").string();
  return plane;
}

/// The classic four-fault spec from the kChaosFlags knobs.
net::FaultSpec chaos_spec_from(const Flags& flags) {
  net::FaultSpec spec;
  spec.seed = static_cast<std::uint64_t>(flags.get_int("chaos-seed", 42));
  spec.crash_rate = flags.get_double("crash-rate", 0.15);
  spec.outage_rate = flags.get_double("outage-rate", 0.15);
  spec.storm_rate = flags.get_double("storm-rate", 0.15);
  spec.storm_drop = flags.get_double("storm-drop", 0.5);
  spec.straggler_rate = flags.get_double("straggler-rate", 0.15);
  spec.stall_factor = flags.get_double("stall-factor", 8.0);
  return spec;
}

/// Fault plan from the kChaosFlags knobs; nullopt without --chaos.
std::optional<net::FaultPlan> fault_plan_from(const Flags& flags) {
  const net::FaultSpec spec = chaos_spec_from(flags);
  if (!flags.get_bool("chaos")) return std::nullopt;
  return net::FaultPlan(spec);
}

/// What a census directory's manifest pins, built from one Flags: the
/// world, its platform and hitlist, the prober and fault settings, and
/// the manifest: every flag the builders read, plus the hitlist's size
/// and CRC.
struct CensusWorld {
  explicit CensusWorld(const Flags& flags)
      : internet(world_config_from(flags)),
        vps(platform_from(flags)),
        hitlist(census::Hitlist::from_world(internet).without_dead()),
        fastping(fastping_config_from(flags)),
        plan(fault_plan_from(flags)),
        census_id(static_cast<std::uint32_t>(
            flags.get_int("census-id", 1, 0, UINT32_MAX))),
        manifest(flags.effective()) {
    std::vector<std::uint8_t> addresses;
    for (const census::HitlistEntry& entry : hitlist.entries()) {
      for (int shift = 0; shift < 32; shift += 8) {
        addresses.push_back(
            static_cast<std::uint8_t>(entry.representative.value() >> shift));
      }
    }
    manifest["hitlist-size"] = std::to_string(hitlist.size());
    manifest["hitlist-crc"] = std::to_string(census::crc32(addresses));
  }

  net::SimulatedInternet internet;
  std::vector<net::VantagePoint> vps;
  census::Hitlist hitlist;
  census::FastPingConfig fastping;
  std::optional<net::FaultPlan> plan;
  std::uint32_t census_id;
  census::CensusManifest manifest;
};

fs::path manifest_path(const std::string& dir) {
  return fs::path(dir) / "census.manifest";
}

/// How the manifest `rebuilt` from `recorded`'s flags differs from it,
/// naming the first differing key; empty when they agree.
std::string manifest_difference(const census::CensusManifest& recorded,
                                const census::CensusManifest& rebuilt) {
  for (const auto& [key, value] : rebuilt) {
    const auto it = recorded.find(key);
    if (it == recorded.end()) return "missing key " + key;
    if (it->second != value) {
      return key + " is " + it->second + " there, " + value + " here";
    }
  }
  for (const auto& [key, value] : recorded) {
    if (!rebuilt.contains(key)) return "unknown key " + key;
  }
  return {};
}

/// One census directory: its world, the checkpoints it holds, and once
/// collated, their matrix.
struct CensusDir {
  std::unique_ptr<CensusWorld> world;
  std::vector<fs::path> files;  // existing checkpoints, in platform order
  census::ShardedCensusMatrix data;
  census::CollateStats stats;
};

/// Opens DIR through its manifest: refuses a flag in `flags` that the
/// manifest records, rebuilds the world from the manifest alone and
/// requires it to rebuild the same manifest (hitlist included), then lists
/// `census_checkpoint_path(dir, census_id, vp.id)` for each platform VP
/// whose file exists, refusing one whose header names another VP or
/// census. Returns 0, or 2 after a diagnostic prefixed by `command`.
int open_census(const char* command, const Flags& flags,
                const std::string& dir, CensusDir& out) {
  const fs::path path = manifest_path(dir);
  const auto text = slurp_text(path.string());
  std::string error = "cannot read it: not a census directory";
  const auto manifest =
      text.has_value() ? census::decode_census_manifest(*text, &error)
                       : std::nullopt;
  if (manifest.has_value()) {
    for (const auto& [name, value] : *manifest) {
      if (flags.has(name)) {
        std::fprintf(stderr,
                     "%s: --%s is recorded in %s (%s=%s); drop the flag\n",
                     command, name.c_str(), path.c_str(), name.c_str(),
                     value.c_str());
        return 2;
      }
    }
    const Flags recorded = Flags::of(*manifest);
    out.world = std::make_unique<CensusWorld>(recorded);
    error = recorded.bad().empty()
                ? manifest_difference(*manifest, out.world->manifest)
                : "bad value " + recorded.bad();
  }
  if (!error.empty()) {
    std::fprintf(stderr, "%s: refusing %s: %s\n", command, path.c_str(),
                 error.c_str());
    return 2;
  }
  const CensusWorld& world = *out.world;
  for (const net::VantagePoint& vp : world.vps) {
    fs::path file = census::census_checkpoint_path(dir, world.census_id, vp.id);
    std::error_code ec;
    if (!fs::exists(file, ec)) continue;
    const auto header = census::read_census_file_header(file);
    if (header.has_value() &&
        (header->vp_id != vp.id || header->census_id != world.census_id)) {
      std::fprintf(stderr,
                   "%s: refusing %s: it holds VP %u of census %u, not VP %u "
                   "of census %u\n",
                   command, file.c_str(), header->vp_id, header->census_id,
                   vp.id, world.census_id);
      return 2;
    }
    out.files.push_back(std::move(file));
  }
  return 0;
}

/// Collates an opened census's checkpoints, fanning the per-file work
/// over `pool`'s lanes. Returns 0, or 1 after a diagnostic prefixed by
/// `command` when the directory holds none.
int collate(const char* command, const std::string& dir,
            const census::DataPlaneConfig& plane, bool salvage,
            concurrency::ThreadPool* pool, CensusDir& census) {
  if (census.files.empty()) {
    std::fprintf(stderr, "%s: no checkpoints of census %u in %s\n", command,
                 census.world->census_id, dir.c_str());
    return 1;
  }
  census.data = census::collate_census_files_sharded(
      census.files, census.world->hitlist.size(), plane, &census.stats,
      salvage, pool);
  return 0;
}

/// `census` runs a fresh census from the command line's flags; `resume`
/// recovers a killed one from its directory alone, everything but the
/// runtime flags coming from the manifest. No manifest means nothing to
/// resume: a mistyped directory, not a request for a fresh census that
/// would hide the mistake behind hours of probing.
int cmd_census(const Flags& flags, bool resume) {
  const char* command = resume ? "resume" : "census";
  const auto out_dir = flags.get("out");
  if (!out_dir.has_value()) {
    std::fprintf(stderr, "%s: --out DIR is required\n", command);
    return 2;
  }
  CensusDir dir;
  if (resume) {
    if (const int rc = open_census(command, flags, *out_dir, dir)) return rc;
  } else {
    // Built from a fresh copy, so the manifest holds exactly the flags
    // the builders read.
    const Flags recorded = flags.fresh();
    dir.world = std::make_unique<CensusWorld>(recorded);
    flags.adopt_queries(recorded);
  }
  const CensusWorld& world = *dir.world;
  const census::DataPlaneConfig plane = data_plane_from(flags, *out_dir);
  concurrency::ThreadPool pool = pool_from(flags);
  if (const int rc = reject_unknown(flags)) return rc;

  if (!resume) {
    // One directory holds one census: a manifest that records another is
    // refused rather than mixed with this one's checkpoints.
    const fs::path path = manifest_path(*out_dir);
    const std::string text = census::encode_census_manifest(world.manifest);
    if (const auto old = slurp_text(path.string()); old && *old != text) {
      std::string why;
      const auto recorded = census::decode_census_manifest(*old, &why);
      if (recorded.has_value()) {
        why = manifest_difference(*recorded, world.manifest);
      }
      std::fprintf(stderr,
                   "census: %s records another census (%s); use another "
                   "--out, or `anycastd resume --out %s`\n",
                   path.c_str(), why.c_str(), out_dir->c_str());
      return 2;
    }
    std::error_code ec;
    fs::create_directories(*out_dir, ec);
    if (const std::error_code write_ec = obs::write_file_atomic(path, text)) {
      std::fprintf(stderr, "census: cannot write %s: %s\n", path.c_str(),
                   write_ec.message().c_str());
      return 1;
    }
    // A fresh census owns its checkpoints: drop leftovers so stale
    // complete files from an earlier run cannot masquerade as this one's.
    for (const net::VantagePoint& vp : world.vps) {
      fs::remove(
          census::census_checkpoint_path(*out_dir, world.census_id, vp.id));
    }
  }
  census::Greylist blacklist;
  census::ShardedResumeReport report;
  {
    const ProgressGuard progress =
        maybe_start_progress(pool, flags, "census");
    report = census::resume_census_sharded(
        world.internet, world.vps, world.hitlist, blacklist, world.fastping,
        *out_dir, world.census_id, plane,
        world.plan.has_value() ? &*world.plan : nullptr, &pool);
  }
  const census::CensusSummary& summary = report.output.summary;

  std::printf(
      "census %u: %zu VPs x %zu targets -> %llu echo replies, %llu ICMP "
      "errors (%zu greylisted)\n",
      world.census_id, world.vps.size(), world.hitlist.size(),
      static_cast<unsigned long long>(summary.echo_replies),
      static_cast<unsigned long long>(summary.errors),
      summary.greylist_new);
  using census::VpOutcome;
  std::printf(
      "VP outcomes: %zu completed, %zu crashed, %zu cut off, %zu "
      "quarantined, %zu skipped\n",
      summary.outcome_count(VpOutcome::kCompleted),
      summary.outcome_count(VpOutcome::kCrashed),
      summary.outcome_count(VpOutcome::kCutOff),
      summary.outcome_count(VpOutcome::kQuarantined),
      summary.outcome_count(VpOutcome::kSkipped));
  if (summary.retry_probes > 0) {
    std::printf("retries: %llu probes recovered %llu targets\n",
                static_cast<unsigned long long>(summary.retry_probes),
                static_cast<unsigned long long>(summary.retry_recovered));
  }
  if (resume) {
    std::printf("resume: %zu checkpoints reused, %zu VPs re-run, %zu "
                "salvaged\n",
                report.vps_reused, report.vps_rerun, report.files_salvaged);
  }
  std::printf("wrote %zu files to %s\n",
              report.vps_reused + report.vps_rerun, out_dir->c_str());
  return 0;
}

int cmd_watch(const Flags& flags) {
  const auto out_dir = flags.get("out");
  if (!out_dir.has_value()) {
    std::fprintf(stderr, "watch: --out DIR is required\n");
    return 2;
  }
  // Non-const: watch-mode worlds churn replicas between rounds.
  net::SimulatedInternet internet(world_config_from(flags));
  const auto vps = platform_from(flags);
  const census::Hitlist hitlist =
      census::Hitlist::from_world(internet).without_dead();

  daemon::WatchConfig config;
  config.rounds = static_cast<int>(flags.get_int("rounds", 3));
  config.out_dir = *out_dir;
  config.fastping = fastping_config_from(flags);
  config.supervisor.coverage_floor = flags.get_double("coverage-floor", 0.8);
  config.hijack_from_round =
      static_cast<int>(flags.get_int("hijack-round", 3));
  config.die_at_round = static_cast<int>(flags.get_int("die-at-round", 0));
  config.churn = flags.get_bool("churn");
  config.churn_seed =
      static_cast<std::uint64_t>(flags.get_int("churn-seed", 77));
  config.data_plane = data_plane_from(flags, *out_dir);
  if (const auto slo_spec = flags.get("slo")) {
    // Already validated in main (a bad spec exited before dispatch); the
    // daemon re-installs these at run() start so availability transitions
    // land in the journal as semantic round events.
    std::string slo_error;
    if (auto objectives = obs::parse_slo_spec(*slo_spec, &slo_error)) {
      config.slo = std::move(*objectives);
    }
  }

  if (const auto chaos = flags.get("chaos")) {
    net::FaultSpec spec;
    spec.seed = static_cast<std::uint64_t>(flags.get_int("chaos-seed", 42));
    config.chaos_enabled = true;
    if (*chaos == "true") {  // bare --chaos: the classic per-VP faults
      spec = chaos_spec_from(flags);
    } else if (*chaos == "flaps") {
      spec.flap_rate = 0.5;
    } else if (*chaos == "regional") {
      spec.regional_rate = 0.9;
      spec.regional_fraction = 0.35;
      spec.regional_span = 0.5;
    } else if (*chaos == "hijack") {
      spec.hijack_vp_fraction = 0.6;
      // Eight victims spread across the hitlist; the monitor only alarms
      // on the ones its reference round classified as unicast.
      for (std::size_t i = 1; i <= 8 && hitlist.size() > 9; ++i) {
        spec.hijack_targets.push_back(
            static_cast<std::uint32_t>(i * hitlist.size() / 9));
      }
    } else if (*chaos == "outages") {
      spec.outage_rate = 0.30;
      spec.crash_rate = 0.05;
    } else if (*chaos == "storm") {
      spec.storm_rate = 0.40;
    } else if (*chaos == "churn") {
      config.chaos_enabled = false;  // pure world churn, no probe faults
      config.churn = true;
    } else if (*chaos == "mixed") {
      spec.flap_rate = 0.25;
      spec.outage_rate = 0.15;
      spec.storm_rate = 0.15;
      config.churn = true;
    } else {
      std::fprintf(stderr, "watch: unknown --chaos scenario: %s\n",
                   chaos->c_str());
      return 2;
    }
    config.chaos = spec;
  }
  concurrency::ThreadPool pool = pool_from(flags);

  // --serve-queries FILE: serve the request batch continuously DURING the
  // campaign from whatever snapshot is current (epoch swaps never stall
  // the reader), then answer it once more against the final round for a
  // deterministic stdout.
  const auto serve_queries = flags.get("serve-queries");
  std::string serve_text;
  if (serve_queries.has_value()) {
    const auto text = slurp_text(*serve_queries);
    if (!text.has_value()) {
      std::fprintf(stderr, "watch: cannot read --serve-queries %s\n",
                   serve_queries->c_str());
      return 2;
    }
    serve_text = *text;
  }
  if (const int rc = reject_unknown(flags)) return rc;

  serving::SnapshotStore store;
  if (serve_queries.has_value()) config.serve_store = &store;

  daemon::WatchDaemon watcher(internet, vps, geo::world_index(), hitlist,
                              config);
  std::atomic<bool> serve_stop{false};
  std::atomic<std::uint64_t> serve_batches{0};
  std::atomic<std::uint64_t> serve_swaps{0};
  std::thread serve_thread;
  if (serve_queries.has_value()) {
    serve_thread = std::thread([&] {
      std::uint64_t last_id = ~std::uint64_t{0};
      while (!serve_stop.load(std::memory_order_relaxed)) {
        {
          serving::ReadGuard snapshot_guard = store.acquire();
          if (snapshot_guard) {
            if (snapshot_guard->id() != last_id) {
              last_id = snapshot_guard->id();
              serve_swaps.fetch_add(1, std::memory_order_relaxed);
            }
            std::string scratch;
            const serving::QueryContext context{&snapshot_guard.view(),
                                                nullptr};
            (void)serving::answer_queries(context, serve_text, scratch);
            serve_batches.fetch_add(1, std::memory_order_relaxed);
          }
        }
        // Rotate the per-second telemetry window and evaluate latency
        // SLOs; cheap (clock read + compare) when under a second.
        obs::telemetry().tick();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  daemon::WatchResult result;
  {
    const ProgressGuard progress = maybe_start_progress(pool, flags, "watch");
    result = watcher.run(&pool);
  }
  if (serve_thread.joinable()) {
    serve_stop.store(true, std::memory_order_relaxed);
    serve_thread.join();
  }
  if (!result.error.empty()) {
    std::fprintf(stderr, "watch: %s\n", result.error.c_str());
    return result.exit_code == 0 ? 1 : result.exit_code;
  }
  for (const daemon::RoundRecord& record : result.rounds) {
    const daemon::RoundVerdict& v = record.verdict;
    std::printf(
        "round %d: %s, coverage %.1f%% (%zu/%zu VPs, escalation %d)%s — "
        "%zu dirty rows, %zu anycast /24, %zu churn events, %zu hijack "
        "alarms\n",
        v.round, std::string(daemon::to_string(v.health)).c_str(),
        100.0 * v.coverage, v.completed, v.active, v.escalation,
        record.resumed ? " [resumed]" : "", record.dirty, record.anycast,
        record.churn_events, record.hijack_alarms);
  }
  if (result.exit_code == daemon::kAbortedExitCode) {
    std::printf("watch: watchdog abort drill fired — restart with the same "
                "--out to resume\n");
  } else {
    std::printf("watch: campaign at %d/%d rounds in %s\n",
                result.rounds_completed, config.rounds, out_dir->c_str());
  }

  if (serve_queries.has_value() && result.exit_code == 0) {
    // Final-epoch answers: deterministic for a given campaign, so smoke
    // tests can pin them (in-campaign batch/swap counts go to stderr —
    // they are timing).
    serving::ReadGuard snapshot_guard = store.acquire();
    if (snapshot_guard) {
      std::string answers;
      const serving::QueryContext context{&snapshot_guard.view(), nullptr};
      const serving::QueryBatchResult served =
          serving::answer_queries(context, serve_text, answers);
      if (!served.ok()) {
        std::fprintf(stderr, "watch: bad query at line %zu: %s\n",
                     served.error_line, served.error.c_str());
        return 2;
      }
      std::fwrite(answers.data(), 1, answers.size(), stdout);
      std::fprintf(
          stderr,
          "serve: %llu in-campaign batches across %llu snapshot(s), final "
          "round %llu\n",
          static_cast<unsigned long long>(serve_batches.load()),
          static_cast<unsigned long long>(serve_swaps.load()),
          static_cast<unsigned long long>(snapshot_guard->id()));
    }
  }
  return result.exit_code;
}

int cmd_analyze(const Flags& flags) {
  const auto in_dir = flags.get("in");
  if (!in_dir.has_value()) {
    std::fprintf(stderr, "analyze: --in DIR is required\n");
    return 2;
  }
  const auto geojson_path = flags.get("geojson");
  const auto top = static_cast<std::size_t>(flags.get_int("top", 15, 0));
  CensusDir opened;
  if (const int rc = open_census("analyze", flags, *in_dir, opened)) {
    return rc;
  }
  const census::DataPlaneConfig plane = data_plane_from(flags, *in_dir);
  concurrency::ThreadPool pool = pool_from(flags);
  if (const int rc = reject_unknown(flags)) return rc;

  if (const int rc = collate("analyze", *in_dir, plane, /*salvage=*/true,
                             &pool, opened)) {
    return rc;
  }
  const CensusWorld& world = *opened.world;
  const census::ShardedCensusMatrix& data = opened.data;
  std::printf(
      "collated %zu files (%zu salvaged, %zu skipped), %zu responsive "
      "targets\n",
      opened.files.size(), opened.stats.files_salvaged,
      opened.stats.files_skipped, data.responsive_targets(2));

  const analysis::CensusAnalyzer analyzer(world.vps, geo::world_index());
  std::vector<analysis::TargetOutcome> outcomes;
  {
    const ProgressGuard progress =
        maybe_start_progress(pool, flags, "analyze");
    outcomes = analyzer.analyze(data, world.hitlist, /*min_vps=*/2, &pool);
  }
  analysis::CensusReport report(world.internet, std::move(outcomes));
  const analysis::GlanceRow all = report.glance_all();
  std::printf(
      "anycast: %zu /24 in %zu ASes, %llu replicas, %zu cities, %zu "
      "countries\n",
      all.ip24, all.ases, static_cast<unsigned long long>(all.replicas),
      all.cities, all.countries);

  std::printf("\n%-18s %-9s %14s %6s\n", "AS", "category", "replicas//24",
              "IP/24");
  for (std::size_t i = 0; i < top && i < report.ases().size(); ++i) {
    const analysis::AsReport& as_report = report.ases()[i];
    std::printf("%-18s %-9s %8.1f±%-4.1f %6zu\n",
                as_report.deployment->whois_name.c_str(),
                std::string(net::to_string(as_report.deployment->category))
                    .c_str(),
                as_report.mean_replicas, as_report.stddev_replicas,
                as_report.detected_ip24);
  }

  if (geojson_path.has_value()) {
    if (const std::error_code ec = obs::write_file_atomic(
            *geojson_path, analysis::census_geojson(report))) {
      std::fprintf(stderr, "analyze: failed writing GeoJSON to %s: %s\n",
                   geojson_path->c_str(), ec.message().c_str());
      return 1;
    }
    std::printf("\nwrote GeoJSON to %s\n", geojson_path->c_str());
  }
  return 0;
}

/// Loads one opened census directory into a served snapshot: collate,
/// analyze, freeze. Strict by default — a serving plane must not silently
/// answer from a snapshot whose files failed their checksums; pass
/// `allow_salvage` to serve the recovered prefix anyway. Returns 0, or
/// the exit code after a diagnostic.
int load_snapshot(const census::DataPlaneConfig& plane, const std::string& dir,
                  CensusDir& opened, std::uint64_t id, bool allow_salvage,
                  concurrency::ThreadPool* pool, serving::SnapshotView& out) {
  if (const int rc =
          collate("serve", dir, plane, allow_salvage, pool, opened)) {
    return rc;
  }
  const census::CollateStats& stats = opened.stats;
  if (!allow_salvage && (stats.files_salvaged > 0 || stats.files_skipped > 0)) {
    std::fprintf(stderr,
                 "serve: refusing snapshot %s: %zu of %zu files failed "
                 "checksum validation (--allow-salvage serves the "
                 "recoverable prefix)\n",
                 dir.c_str(), stats.files_salvaged + stats.files_skipped,
                 opened.files.size());
    return 1;
  }
  const CensusWorld& world = *opened.world;
  const analysis::CensusAnalyzer analyzer(world.vps, geo::world_index());
  std::vector<analysis::TargetOutcome> outcomes =
      analyzer.analyze(opened.data, world.hitlist, /*min_vps=*/2, pool);
  out = serving::SnapshotView::build(std::move(opened.data),
                                     std::move(outcomes), id, &world.hitlist);
  return 0;
}

/// Whether two manifests describe one world: the same world and platform
/// flags, and the same hitlist.
bool same_world(const census::CensusManifest& a,
                const census::CensusManifest& b) {
  for (const char* key : {"seed", "unicast", "vps", "hitlist-size",
                          "hitlist-crc"}) {
    if (a.at(key) != b.at(key)) return false;
  }
  return true;
}

int cmd_serve(const Flags& flags) {
  const auto in_dir = flags.get("in");
  if (!in_dir.has_value()) {
    std::fprintf(stderr, "serve: --in DIR is required\n");
    return 2;
  }
  const auto against = flags.get("against");
  const auto queries_path = flags.get("queries");
  const bool allow_salvage = flags.get_bool("allow-salvage");
  concurrency::ThreadPool pool = pool_from(flags);

  // The request text is read before the (expensive) snapshot load so a
  // mistyped path fails in milliseconds, not after a full analysis.
  std::string query_text;
  if (queries_path.has_value()) {
    const auto text = slurp_text(*queries_path);
    if (!text.has_value()) {
      std::fprintf(stderr, "serve: cannot read --queries %s\n",
                   queries_path->c_str());
      return 2;
    }
    query_text = *text;
  } else {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    query_text = std::move(buffer).str();
  }

  CensusDir opened;
  if (const int rc = open_census("serve", flags, *in_dir, opened)) return rc;
  CensusDir baseline;
  if (against.has_value()) {
    if (const int rc = open_census("serve", flags, *against, baseline)) {
      return rc;
    }
    if (!same_world(opened.world->manifest, baseline.world->manifest)) {
      std::fprintf(stderr,
                   "serve: refusing --against %s: %s and %s record different "
                   "worlds\n",
                   against->c_str(), manifest_path(*in_dir).c_str(),
                   manifest_path(*against).c_str());
      return 2;
    }
  }
  const census::DataPlaneConfig plane = data_plane_from(flags, *in_dir);
  if (const int rc = reject_unknown(flags)) return rc;

  serving::SnapshotView current;
  if (const int rc = load_snapshot(plane, *in_dir, opened, /*id=*/1,
                                   allow_salvage, &pool, current)) {
    return rc;
  }
  std::optional<serving::SnapshotView> previous;
  if (against.has_value()) {
    previous.emplace();
    if (const int rc = load_snapshot(data_plane_from(flags, *against),
                                     *against, baseline, /*id=*/0,
                                     allow_salvage, &pool, *previous)) {
      return rc;
    }
  }

  // Queries go through the real publication path — publish + pinned
  // guard — not a bare view, so the one-shot CLI exercises exactly what
  // a long-lived server would.
  serving::SnapshotStore store;
  store.publish(std::move(current));
  serving::ReadGuard guard = store.acquire();
  serving::QueryContext context{&guard.view(),
                                previous.has_value() ? &*previous : nullptr};
  std::string answers;
  const serving::QueryBatchResult result =
      serving::answer_queries(context, query_text, answers);
  if (!result.ok()) {
    std::fprintf(stderr, "serve: bad query at line %zu: %s\n",
                 result.error_line, result.error.c_str());
    return 2;
  }
  std::fwrite(answers.data(), 1, answers.size(), stdout);
  std::fprintf(stderr,
               "serve: answered %zu queries from snapshot %llu "
               "(%zu targets, %zu anycast)\n",
               result.answered,
               static_cast<unsigned long long>(guard->id()),
               guard->target_count(), guard->anycast_count());
  return 0;
}

// ---------------------------------------------------------------------
// `anycastd top`: a terminal dashboard over the telemetry document a
// sibling anycastd flushes via --metrics-interval. The document shape is
// our own (obs::TelemetryPlane::document_json), so a small scan-based
// reader is enough — no JSON library dependency. Strings in the document
// never contain brackets, so bracket depth-matching is exact.

/// Bracket-matched body of the array following `"key": [`, without the
/// outer brackets; empty when the key is missing.
std::string_view json_array_after(std::string_view doc, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  std::size_t at = doc.find(needle);
  if (at == std::string_view::npos) return {};
  at = doc.find('[', at + needle.size());
  if (at == std::string_view::npos) return {};
  int depth = 0;
  for (std::size_t i = at; i < doc.size(); ++i) {
    if (doc[i] == '[') ++depth;
    if (doc[i] == ']' && --depth == 0) return doc.substr(at + 1, i - at - 1);
  }
  return {};
}

/// Splits an array body into its top-level `{...}` object bodies.
std::vector<std::string_view> json_objects(std::string_view array) {
  std::vector<std::string_view> out;
  int depth = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i < array.size(); ++i) {
    if (array[i] == '{' && depth++ == 0) start = i;
    if (array[i] == '}' && --depth == 0) {
      out.push_back(array.substr(start, i - start + 1));
    }
  }
  return out;
}

/// Scalar after `"key":` inside one object: the raw token for numbers and
/// booleans, the unquoted text for strings; empty when missing.
std::string json_scalar(std::string_view object, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  std::size_t at = object.find(needle);
  if (at == std::string_view::npos) return {};
  at += needle.size();
  while (at < object.size() && object[at] == ' ') ++at;
  if (at >= object.size()) return {};
  if (object[at] == '"') {
    const std::size_t end = object.find('"', at + 1);
    if (end == std::string_view::npos) return {};
    return std::string(object.substr(at + 1, end - at - 1));
  }
  std::size_t end = at;
  while (end < object.size() && object[end] != ',' && object[end] != '}' &&
         object[end] != ']' && object[end] != '\n') {
    ++end;
  }
  while (end > at && object[end - 1] == ' ') --end;
  return std::string(object.substr(at, end - at));
}

/// Newest value of one series field: the last element of the field's
/// array, or "-" when the window is still empty.
std::string series_last(std::string_view series_object, std::string_view field) {
  const std::string_view array = json_array_after(series_object, field);
  const std::size_t comma = array.rfind(',');
  std::string_view tail =
      comma == std::string_view::npos ? array : array.substr(comma + 1);
  while (!tail.empty() && (tail.front() == ' ' || tail.front() == '\n')) {
    tail.remove_prefix(1);
  }
  while (!tail.empty() && (tail.back() == ' ' || tail.back() == '\n')) {
    tail.remove_suffix(1);
  }
  return tail.empty() ? "-" : std::string(tail);
}

void render_top(std::string_view doc, const std::string& source, bool plain) {
  if (!plain) std::printf("\x1b[2J\x1b[H");  // clear + home, like top(1)
  std::printf("anycastd top — %s\n\n", source.c_str());

  const auto histos = json_objects(json_array_after(doc, "latency"));
  std::printf("  %-20s %-4s %12s %10s %10s %10s %10s\n", "latency", "unit",
              "count", "p50", "p99", "p999", "max");
  for (const std::string_view h : histos) {
    std::printf("  %-20s %-4s %12s %10s %10s %10s %10s\n",
                json_scalar(h, "name").c_str(), json_scalar(h, "unit").c_str(),
                json_scalar(h, "count").c_str(), json_scalar(h, "p50").c_str(),
                json_scalar(h, "p99").c_str(), json_scalar(h, "p999").c_str(),
                json_scalar(h, "max").c_str());
  }
  if (histos.empty()) std::printf("  (no latency samples yet)\n");

  for (const std::string_view s : json_objects(json_array_after(doc, "series"))) {
    const std::string name = json_scalar(s, "name");
    if (name == "serving_per_second") {
      std::printf(
          "\n  serving (last 1s window): qps %s  errors/s %s  p50 %s us  "
          "p99 %s us  p999 %s us\n",
          series_last(s, "qps").c_str(), series_last(s, "errors_per_s").c_str(),
          series_last(s, "p50_us").c_str(), series_last(s, "p99_us").c_str(),
          series_last(s, "p999_us").c_str());
    } else if (name == "census_per_round") {
      std::printf(
          "\n  census (last round): coverage %s  completed %s/%s  probes %s  "
          "echo rate %s  dirty %s  anycast %s  round %s ms\n",
          series_last(s, "coverage").c_str(),
          series_last(s, "completed").c_str(), series_last(s, "active").c_str(),
          series_last(s, "probes").c_str(), series_last(s, "echo_rate").c_str(),
          series_last(s, "dirty").c_str(), series_last(s, "anycast").c_str(),
          series_last(s, "round_ms").c_str());
    }
  }

  const auto slos = json_objects(json_array_after(doc, "slo"));
  if (slos.empty()) {
    std::printf("\n  slo: none configured\n");
  } else {
    std::printf("\n  slo:\n");
    for (const std::string_view o : slos) {
      std::printf(
          "    %-20s target %-10s burn %s/%s permille (short/long)  %s  "
          "[%s violations / %s windows]\n",
          json_scalar(o, "objective").c_str(),
          json_scalar(o, "threshold").c_str(),
          json_scalar(o, "burn_short_permille").c_str(),
          json_scalar(o, "burn_long_permille").c_str(),
          json_scalar(o, "violating") == "true" ? "VIOLATING" : "ok",
          json_scalar(o, "violations").c_str(),
          json_scalar(o, "windows").c_str());
    }
  }
}

int cmd_top(const Flags& flags) {
  const auto metrics = flags.get("metrics");
  const double interval = flags.get_double("interval", 2.0);
  const auto iterations = flags.get_int("iterations", 0);
  const bool plain = flags.get_bool("plain");
  if (!metrics.has_value()) {
    std::fprintf(stderr,
                 "top: --metrics FILE is required (point it at the file a "
                 "daemon writes via --metrics-interval)\n");
    return 2;
  }
  if (const int rc = reject_unknown(flags)) return rc;
  for (std::int64_t iter = 0; iterations == 0 || iter < iterations; ++iter) {
    if (iter > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(std::max(0.1, interval)));
    }
    // The flusher writes via tmp+rename, so this read never sees a torn
    // document — at worst a whole previous one.
    const auto text = slurp_text(*metrics);
    if (!text.has_value()) {
      std::fprintf(stderr, "top: cannot read %s\n", metrics->c_str());
      return 1;
    }
    render_top(*text, *metrics, plain);
    std::fflush(stdout);
  }
  return 0;
}

int cmd_portscan(const Flags& flags) {
  const net::SimulatedInternet internet(world_config_from(flags));
  const auto top = static_cast<std::size_t>(flags.get_int("top", 100, 0));
  (void)flags.get_int("threads", 0);  // accepted everywhere, unused here
  if (const int rc = reject_unknown(flags)) return rc;
  const portscan::PortScanner scanner(internet);
  const auto scans = scanner.scan_all(
      internet.deployments().subspan(0, std::min<std::size_t>(
                                            top,
                                            internet.deployments().size())));
  const portscan::ScanStatistics stats = portscan::summarize(scans);
  std::printf(
      "scanned %zu ASes: %llu responsive IPs, %llu ASes with open ports,\n"
      "%llu distinct ports (%llu SSL), %llu well-known services, %llu "
      "software packages\n",
      scans.size(), static_cast<unsigned long long>(stats.ips_responsive),
      static_cast<unsigned long long>(stats.ases_with_open_port),
      static_cast<unsigned long long>(stats.distinct_open_ports),
      static_cast<unsigned long long>(stats.ssl_ports),
      static_cast<unsigned long long>(stats.well_known),
      static_cast<unsigned long long>(stats.software_packages));
  std::printf("\ntop ports by AS:");
  const auto ranking = portscan::rank_ports_by_as(scans);
  for (std::size_t i = 0; i < 10 && i < ranking.size(); ++i) {
    std::printf(" %u(%u)", ranking[i].first, ranking[i].second);
  }
  std::printf("\n");
  return 0;
}

int cmd_diff(const Flags& flags) {
  const net::SimulatedInternet internet(world_config_from(flags));
  const auto vps = platform_from(flags);
  const census::Hitlist hitlist =
      census::Hitlist::from_world(internet).without_dead();
  const analysis::CensusAnalyzer analyzer(vps, geo::world_index());
  const auto epochs = static_cast<int>(flags.get_int("epochs", 2));
  const double availability = flags.get_double("availability", 0.85);
  concurrency::ThreadPool pool = pool_from(flags);
  if (const int rc = reject_unknown(flags)) return rc;
  const ProgressGuard progress = maybe_start_progress(pool, flags, "diff");

  analysis::CensusSnapshot previous;
  for (int epoch = 1; epoch <= epochs; ++epoch) {
    census::Greylist blacklist;
    census::FastPingConfig fastping;
    fastping.seed = 5000 + static_cast<std::uint64_t>(epoch);
    fastping.vp_availability = availability;
    const auto output = census::run_census_sharded(
        internet, vps, hitlist, blacklist, fastping,
        census::DataPlaneConfig{}, /*faults=*/nullptr, &pool);
    analysis::CensusSnapshot snapshot(
        analyzer.analyze(output.data, hitlist, /*min_vps=*/2, &pool));
    std::printf("epoch %d: %zu anycast /24\n", epoch, snapshot.size());
    if (epoch > 1) {
      const analysis::CensusDiff diff =
          diff_censuses(previous, snapshot, /*min_replica_delta=*/3);
      std::printf(
          "  vs previous: %zu appeared, %zu disappeared, %zu grew, %zu "
          "shrank\n",
          diff.count(analysis::PrefixChange::Kind::kAppeared),
          diff.count(analysis::PrefixChange::Kind::kDisappeared),
          diff.count(analysis::PrefixChange::Kind::kGrew),
          diff.count(analysis::PrefixChange::Kind::kShrank));
    }
    previous = std::move(snapshot);
  }
  return 0;
}

int cmd_report(const Flags& flags) {
  // Drift-diff mode: compare two journals' semantic event streams.
  if (const auto diff_a = flags.get("diff")) {
    const auto diff_b = flags.get("against");
    if (!diff_b.has_value()) {
      std::fprintf(stderr,
                   "report: --diff JOURNAL_A needs --against JOURNAL_B\n");
      return 2;
    }
    const auto text_a = slurp_text(*diff_a);
    const auto text_b = slurp_text(*diff_b);
    if (!text_a.has_value() || !text_b.has_value()) {
      std::fprintf(stderr, "report: cannot read %s\n",
                   (!text_a.has_value() ? *diff_a : *diff_b).c_str());
      return 2;
    }
    if (const int rc = reject_unknown(flags)) return rc;
    // Trim to complete lines first: a crash-interrupted journal is
    // guaranteed consistent only up to its last newline.
    const analysis::Divergence drift = analysis::journal_drift(
        obs::journal_consistent_prefix(*text_a),
        obs::journal_consistent_prefix(*text_b));
    if (!drift.diverged) {
      std::printf("zero drift: %zu semantic events identical\n",
                  drift.left_count);
      return 0;
    }
    std::printf("DRIFT at semantic event %zu (A has %zu, B has %zu):\n",
                drift.index, drift.left_count, drift.right_count);
    std::printf("  A: %s\n",
                drift.left.empty() ? "<stream ended>" : drift.left.c_str());
    std::printf("  B: %s\n",
                drift.right.empty() ? "<stream ended>" : drift.right.c_str());
    return 3;
  }

  const auto in_dir = flags.get("in");
  if (!in_dir.has_value()) {
    std::fprintf(stderr,
                 "report: --in DIR is required (or --diff A --against B)\n");
    return 2;
  }
  const std::string format(flags.get_or("format", "md"));
  if (format != "md" && format != "json") {
    std::fprintf(stderr, "report: --format must be md or json\n");
    return 2;
  }

  const auto journal_path = flags.get("journal");
  const auto top = static_cast<std::size_t>(flags.get_int("top", 10, 0));
  CensusDir opened;
  if (const int rc = open_census("report", flags, *in_dir, opened)) {
    return rc;
  }
  concurrency::ThreadPool pool = pool_from(flags);
  if (const int rc = reject_unknown(flags)) return rc;

  analysis::JournalSummary journal_summary;
  if (journal_path.has_value()) {
    const auto text = slurp_text(*journal_path);
    if (!text.has_value()) {
      std::fprintf(stderr, "report: cannot read journal %s\n",
                   journal_path->c_str());
      return 2;
    }
    journal_summary =
        analysis::summarize_journal(obs::journal_consistent_prefix(*text));
  }

  // Re-analyze the checkpoint directory, as `analyze` would.
  if (const int rc = collate("report", *in_dir, census::DataPlaneConfig{},
                             /*salvage=*/true, &pool, opened)) {
    return rc;
  }
  const CensusWorld& world = *opened.world;
  const analysis::CensusAnalyzer analyzer(world.vps, geo::world_index());
  const analysis::CensusReport census_report(
      world.internet, analyzer.analyze(opened.data, world.hitlist,
                                       /*min_vps=*/2, &pool));

  analysis::RunReportInputs inputs;
  inputs.census = &census_report;
  inputs.journal = journal_path.has_value() ? &journal_summary : nullptr;
  inputs.registry = &obs::metrics();
  inputs.top_ases = top;
  const std::string body = format == "json"
                               ? analysis::render_run_report_json(inputs)
                               : analysis::render_run_report_markdown(inputs);
  std::fwrite(body.data(), 1, body.size(), stdout);
  return 0;
}

/// Proves an output path is writable before any probing starts: a census
/// that runs for hours and then cannot save its scrape/trace is the worst
/// failure mode. Publishes an empty file the same durable way the real
/// payload replaces it on exit, so the directory's tmp + rename is proven
/// too.
int validate_out_path(const char* flag_name, const std::string& path) {
  if (const std::error_code ec = obs::write_file_atomic(path, "")) {
    std::fprintf(stderr,
                 "anycastd: cannot open %s path for writing: %s: %s\n",
                 flag_name, path.c_str(), ec.message().c_str());
    return 2;
  }
  return 0;
}

bool prometheus_path(const std::string& path) {
  return path.size() >= 5 && path.compare(path.size() - 5, 5, ".prom") == 0;
}

/// One telemetry document: the metrics scrape extended with latency,
/// series, and slo sections (the `metrics` array keeps its exact legacy
/// shape, so scrape-file consumers keep working).
std::string metrics_document(const std::string& path) {
  return prometheus_path(path) ? obs::telemetry().document_prometheus()
                               : obs::telemetry().document_json();
}

int write_metrics_out(const std::string& path) {
  if (const std::error_code ec =
          obs::write_file_atomic(path, metrics_document(path))) {
    std::fprintf(stderr, "anycastd: failed writing metrics to %s: %s\n",
                 path.c_str(), ec.message().c_str());
    return 1;
  }
  return 0;
}

void print_verbose_summary() {
  const std::vector<obs::MetricValue> values = obs::metrics().scrape();
  std::printf("\n-- metrics %s\n", std::string(48, '-').c_str());
  for (const obs::MetricValue& v : values) {
    if (v.kind == obs::MetricKind::kCounter) {
      std::printf("%-34s %20llu\n", v.name.c_str(),
                  static_cast<unsigned long long>(v.value));
    } else if (v.kind == obs::MetricKind::kGauge) {
      std::printf("%-34s %20.3f\n", v.name.c_str(), v.gauge);
    }
  }
  std::printf("-- histograms %s\n%-34s %-5s %12s %12s %12s %12s\n",
              std::string(45, '-').c_str(), "name", "unit", "count", "p50",
              "p99", "max");
  for (const obs::MetricValue& v : values) {
    if (v.kind != obs::MetricKind::kHistogram) continue;
    const obs::LatencyHisto::Snapshot& h = v.histogram;
    std::printf("%-34s %-5s %12llu %12.0f %12.0f %12llu\n", v.name.c_str(),
                h.unit.c_str(), static_cast<unsigned long long>(h.count),
                h.quantile(0.5), h.quantile(0.99),
                static_cast<unsigned long long>(h.max()));
  }
  // render_tree's footer reports drops/orphans itself, so nothing is
  // silently missing even when the span buffer filled up.
  const std::string tree = obs::trace().render_tree();
  if (!tree.empty()) {
    std::printf("-- trace spans %s\n%s", std::string(44, '-').c_str(),
                tree.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const auto flags = Flags::parse(argc, argv, 2);
  if (!flags.has_value()) return usage();

  // Observability flags apply to every subcommand. Output paths are
  // validated before any work starts: a census that runs for hours and
  // then cannot save its journal or trace is the worst failure mode.
  const auto metrics_out = flags->get("metrics-out");
  const auto journal_out = flags->get("journal-out");
  const auto trace_out = flags->get("trace-out");
  const bool verbose = flags->get_bool("verbose");
  (void)flags->get_bool("progress");  // consumed per-phase after dispatch
  if (metrics_out.has_value()) {
    if (const int rc = validate_out_path("--metrics-out", *metrics_out)) {
      return rc;
    }
  }
  if (trace_out.has_value()) {
    if (const int rc = validate_out_path("--trace-out", *trace_out)) {
      return rc;
    }
  }
  if (journal_out.has_value()) {
    // open() is the validation: it holds the file handle for the run so
    // events stream out as they commit rather than all at exit.
    if (!obs::journal().open(*journal_out)) {
      std::fprintf(stderr,
                   "anycastd: cannot open --journal-out path for writing: "
                   "%s\n",
                   journal_out->c_str());
      return 2;
    }
  }

  // --slo is validated up front for every subcommand (a campaign that
  // runs for hours and then reports a spec typo is as bad as an
  // unwritable journal) and installed into the global telemetry plane;
  // cmd_watch additionally threads it into the daemon config so
  // availability transitions reach the semantic journal.
  if (const auto slo_spec = flags->get("slo")) {
    std::string slo_error;
    auto objectives = obs::parse_slo_spec(*slo_spec, &slo_error);
    if (!objectives.has_value()) {
      std::fprintf(stderr, "anycastd: bad --slo spec: %s\n",
                   slo_error.c_str());
      return 2;
    }
    obs::telemetry().set_slo(std::move(*objectives));
  }

  // --metrics-interval: a background flusher writes the live telemetry
  // document to --metrics-out every S seconds (tmp+rename, so a reader —
  // `anycastd top` — never sees a torn file). First flush is immediate.
  const double metrics_interval = flags->get_double("metrics-interval", 0.0);
  if (flags->has("metrics-interval") && metrics_interval <= 0.0) {
    std::fprintf(stderr, "anycastd: --metrics-interval must be > 0\n");
    return 2;
  }
  if (metrics_interval > 0.0 && !metrics_out.has_value()) {
    std::fprintf(stderr,
                 "anycastd: --metrics-interval needs --metrics-out FILE to "
                 "flush into\n");
    return 2;
  }
  // Reject unknown commands before the flusher thread exists: the late
  // `return usage()` below must never destroy a joinable thread.
  constexpr std::string_view kCommands[] = {
      "world", "census", "resume",   "watch", "analyze",
      "serve", "portscan", "diff",   "report", "top"};
  if (std::find(std::begin(kCommands), std::end(kCommands), command) ==
      std::end(kCommands)) {
    return usage();
  }
  std::thread flusher;
  std::mutex flusher_mutex;
  std::condition_variable flusher_cv;
  bool flusher_stop = false;
  std::uint64_t flushes = 0;
  if (metrics_interval > 0.0) {
    flusher = std::thread([&] {
      std::unique_lock<std::mutex> lock(flusher_mutex);
      for (;;) {
        lock.unlock();
        obs::telemetry().tick();  // rotate windows + evaluate latency SLOs
        const bool ok = !obs::write_file_atomic(
            *metrics_out, metrics_document(*metrics_out));
        lock.lock();
        if (ok) ++flushes;
        if (flusher_cv.wait_for(
                lock, std::chrono::duration<double>(metrics_interval),
                [&] { return flusher_stop; })) {
          return;
        }
      }
    });
  }

  int rc = 0;
  if (command == "world") rc = cmd_world(*flags);
  else if (command == "census") rc = cmd_census(*flags, /*resume=*/false);
  else if (command == "resume") rc = cmd_census(*flags, /*resume=*/true);
  else if (command == "watch") rc = cmd_watch(*flags);
  else if (command == "analyze") rc = cmd_analyze(*flags);
  else if (command == "serve") rc = cmd_serve(*flags);
  else if (command == "portscan") rc = cmd_portscan(*flags);
  else if (command == "diff") rc = cmd_diff(*flags);
  else if (command == "report") rc = cmd_report(*flags);
  else if (command == "top") rc = cmd_top(*flags);
  else return usage();

  if (flusher.joinable()) {
    {
      const std::lock_guard<std::mutex> lock(flusher_mutex);
      flusher_stop = true;
    }
    flusher_cv.notify_one();
    flusher.join();
    std::fprintf(stderr, "metrics-interval: wrote %llu periodic scrape(s)\n",
                 static_cast<unsigned long long>(flushes));
  }
  if (metrics_out.has_value()) {
    const int write_rc = write_metrics_out(*metrics_out);
    if (rc == 0) rc = write_rc;
  }
  if (trace_out.has_value()) {
    if (!obs::write_chrome_trace(*trace_out)) {
      std::fprintf(stderr, "anycastd: failed writing trace to %s\n",
                   trace_out->c_str());
      if (rc == 0) rc = 1;
    } else if (verbose) {
      std::fprintf(stderr, "wrote Perfetto trace to %s\n",
                   trace_out->c_str());
    }
  }
  obs::journal().close();  // flush + commit any tail, fsync, release
  if (const std::error_code ec = obs::journal().write_error()) {
    std::fprintf(stderr, "anycastd: failed writing journal to %s: %s\n",
                 journal_out->c_str(), ec.message().c_str());
    if (rc == 0) rc = 1;
  }
  if (verbose) print_verbose_summary();
  return rc;
}
