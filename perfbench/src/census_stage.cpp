#include "census_stage.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "anycast/analysis/report.hpp"
#include "anycast/analysis/validation.hpp"
#include "anycast/census/record.hpp"
#include "anycast/census/resume.hpp"
#include "anycast/census/storage.hpp"
#include "anycast/geo/city_index.hpp"
#include "anycast/net/platform.hpp"
#include "anycast/obs/trace.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace anycast;

constexpr std::uint32_t kCensusId = 1;
constexpr std::size_t kVps = 300;

census::FastPingConfig fastping_config(std::uint64_t seed) {
  census::FastPingConfig config;
  config.seed = seed * 101 + 7;
  return config;
}

/// What the probe stage produced.
struct ProbeOutput {
  census::ShardedCensusMatrix matrix;
  std::size_t walks = 0;
  std::size_t walks_failed = 0;  // any outcome but kCompleted
  std::uint64_t probes = 0;
  std::uint64_t echoes = 0;
};

/// The probe stage: `anycastd census` on a fresh checkpoint directory.
ProbeOutput probe(const net::SimulatedInternet& internet,
                  const std::vector<net::VantagePoint>& vps,
                  const census::Hitlist& hitlist, const fs::path& dir,
                  concurrency::ThreadPool& pool) {
  census::Greylist blacklist;
  census::ShardedResumeReport report = census::resume_census_sharded(
      internet, vps, hitlist, blacklist,
      fastping_config(internet.config().seed), dir, kCensusId, data_plane(),
      nullptr, &pool);
  ProbeOutput out;
  out.matrix = std::move(report.output.data);
  for (const census::VpStatus& status : report.output.summary.vp_outcomes) {
    if (status.outcome == census::VpOutcome::kSkipped) continue;
    ++out.walks;
    if (status.outcome != census::VpOutcome::kCompleted) ++out.walks_failed;
  }
  out.probes = report.output.summary.probes_sent;
  out.echoes = report.output.summary.echo_replies;
  return out;
}

/// The per-VP walk latencies the library records (microseconds).
obs::LatencyHisto& walk_histo() {
  return obs::LatencyHisto::get("census_walk_us", "us",
                                "wall-clock per-VP census walk latency");
}

/// Adds the samples of `window` to `total`.
void merge_into(obs::LatencyHisto::Snapshot& total,
                const obs::LatencyHisto::Snapshot& window) {
  if (window.count == 0) return;
  total.counts.resize(window.counts.size(), 0);
  for (std::size_t s = 0; s < window.counts.size(); ++s) {
    total.counts[s] += window.counts[s];
  }
  total.count += window.count;
  total.sum += window.sum;
}

std::vector<fs::path> census_files(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".anc") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// Serial wall times of the calls the probe and collate stages make per
/// census file, summed over one directory.
struct StorageTimes {
  double read_s = 0.0;          // read_census_file: CRC + decode
  double fragment_s = 0.0;      // vp_row_fragment: sort into a row fragment
  double write_s = 0.0;         // write_census_file: encode + durable write
  double matrix_build_s = 0.0;  // ShardedCensusMatrixBuilder add + build
};

/// FNV-1a over every file's name and bytes, in path order.
std::uint64_t directory_digest(const std::vector<fs::path>& files) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto mix = [&h](unsigned char c) { h = (h ^ c) * 0x100000001B3ULL; };
  std::vector<char> bytes;
  for (const fs::path& path : files) {
    for (const char c : path.filename().string()) mix(static_cast<unsigned char>(c));
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
    for (const char c : bytes) mix(static_cast<unsigned char>(c));
  }
  return h;
}

/// Re-runs the per-file storage and data-plane calls one at a time,
/// outside the timed stages: reads every file of `files`, turns it into
/// a row fragment, writes it again into `rewrite_dir` and builds the
/// matrix from the fragments. Fails the run unless the rewritten files
/// equal the originals byte for byte and the matrix equals `collated`.
StorageTimes storage_sweep(const std::vector<fs::path>& files,
                           std::size_t targets, const fs::path& rewrite_dir,
                           const census::ShardedCensusMatrix& collated,
                           Ledger& ledger) {
  StorageTimes times;
  census::ShardedCensusMatrixBuilder builder(targets, data_plane());
  std::vector<fs::path> rewritten;
  fs::create_directories(rewrite_dir);
  for (const fs::path& path : files) {
    std::uint64_t t0 = now_ns();
    const std::optional<census::CensusFile> file =
        census::read_census_file(path);
    times.read_s += seconds_between(t0, now_ns());
    if (!file.has_value()) {
      ledger.fail_check("unreadable checkpoint " + path.filename().string());
      continue;
    }
    t0 = now_ns();
    std::vector<census::TargetRtt> fragment = census::vp_row_fragment(
        std::span<const census::Observation>(file->observations), targets);
    times.fragment_s += seconds_between(t0, now_ns());
    rewritten.push_back(rewrite_dir / path.filename());
    t0 = now_ns();
    census::write_census_file(rewritten.back(), file->header,
                              file->observations);
    times.write_s += seconds_between(t0, now_ns());
    t0 = now_ns();
    builder.add_fragment(static_cast<std::uint16_t>(file->header.vp_id),
                         std::move(fragment));
    times.matrix_build_s += seconds_between(t0, now_ns());
  }
  const std::uint64_t t0 = now_ns();
  const census::ShardedCensusMatrix matrix = builder.build();
  times.matrix_build_s += seconds_between(t0, now_ns());
  if (directory_digest(rewritten) != directory_digest(files)) {
    ledger.fail_check("rewritten checkpoints differ from the probed ones");
  }
  if (!same_matrix(matrix, collated)) {
    ledger.fail_check("storage sweep built a different census matrix");
  }
  fs::remove_all(rewrite_dir);
  return times;
}

/// City-level replica geolocation TPR over every deployment with an
/// evaluated /24, weighted by evaluated /24s (paper Fig. 7 method).
double geo_tpr(const net::SimulatedInternet& internet,
               const std::vector<net::VantagePoint>& vps,
               std::vector<analysis::TargetOutcome> outcomes) {
  const analysis::CensusReport report(internet, std::move(outcomes));
  double weighted = 0.0;
  std::size_t prefixes = 0;
  for (const net::Deployment& deployment : internet.deployments()) {
    const analysis::ValidationMetrics m = analysis::validate_deployment(
        internet, vps, deployment, report.prefixes());
    weighted += m.tpr * static_cast<double>(m.evaluated_prefixes);
    prefixes += m.evaluated_prefixes;
  }
  return prefixes == 0 ? 0.0 : weighted / static_cast<double>(prefixes);
}

}  // namespace

SimulatedCensus::World SimulatedCensus::make_world(
    std::uint64_t seed, std::uint32_t unicast_alive) {
  World w;
  net::WorldConfig config;
  config.seed = seed;
  config.unicast_alive_slash24 = unicast_alive;
  config.unicast_silent_slash24 = 0;
  config.unicast_dead_slash24 = 1'000;
  w.internet = std::make_unique<net::SimulatedInternet>(config);
  w.vps = net::make_planetlab(
      {.node_count = static_cast<int>(kVps), .seed = seed ^ 0xF1E1DULL});
  w.hitlist = census::Hitlist::from_world(*w.internet).without_dead();
  w.truth.assign(w.hitlist.size(), false);
  for (std::size_t t = 0; t < w.hitlist.size(); ++t) {
    const net::TargetInfo* info =
        w.internet->target_for(w.hitlist[t].representative);
    if (info != nullptr && info->kind == net::TargetInfo::Kind::kAnycast) {
      w.truth[t] = true;
      ++w.truth_count;
    }
  }
  w.analyzer = std::make_unique<analysis::CensusAnalyzer>(
      w.vps, geo::world_index());
  return w;
}

SimulatedCensus::SimulatedCensus(std::uint64_t seed,
                                 std::uint32_t unicast_alive,
                                 int setup_repeats, fs::path dir)
    : dir_(std::move(dir)) {
  fs::remove_all(dir_);
  for (int r = 0; r < setup_repeats; ++r) {
    world_ = World{};
    const std::uint64_t s0 = now_ns();
    world_ = make_world(seed, unicast_alive);
    setup_s_.push_back(seconds_between(s0, now_ns()));
  }
  std::printf("  census world: %zu /24s (%zu anycast), setup %.3f s "
              "(median of %d builds)\n",
              world_.hitlist.size(), world_.truth_count,
              median(setup_s_), setup_repeats);
}

void SimulatedCensus::run(int iterations, bool trace,
                          concurrency::ThreadPool& pool, Tracer& tracer,
                          Ledger& ledger) {
  const World& w = world_;
  for (int k = 0; k < iterations; ++k) {
    const int i = iterations_++;
    const bool traced = trace && i % 2 == 1;
    tracer.set_enabled(traced);
    const std::uint32_t root_span = tracer.open_id();
    const std::uint64_t iter_start = now_ns();

    // Probe stage: VP walks through to checkpoints on disk.
    const fs::path dir = dir_ / ("iter" + std::to_string(i));
    fs::create_directories(dir);
    obs::LatencyHisto::Snapshot walks_before;
    if (traced) {
      walks_before = walk_histo().snapshot();
      obs::trace().reset();
    }
    std::uint64_t t0 = now_ns();
    ProbeOutput probed;
    {
      const ScopedSpan span(tracer, "census.probe", root_span);
      probed = probe(*w.internet, w.vps, w.hitlist, dir, pool);
    }
    const double probe_s = seconds_between(t0, now_ns());
    ledger.attempt(probed.walks);
    ledger.fail_op(probed.walks_failed);
    probes_ = probed.probes;
    echoes_ = probed.echoes;
    if (traced) {
      merge_into(walks_, walk_histo().snapshot().delta_since(walks_before));
      // Lane time spent inside the library's per-VP tasks (vp_recover:
      // checkpoint check, walk, checkpoint write, row fragment).
      double task_s = 0.0;
      for (const obs::SpanRecord& span : obs::trace().finished()) {
        if (span.name == "vp_recover") {
          task_s += static_cast<double>(span.duration_ns) * 1e-9;
        }
      }
      if (obs::trace().dropped() != 0) {
        ledger.fail_check("the library's span buffer dropped spans");
      }
      walk_eff_.push_back(task_s / (probe_s * static_cast<double>(kLanes)));
    }

    // Ready stage: census directory to published snapshot.
    t0 = now_ns();
    const std::vector<fs::path> files = census_files(dir);
    census::CollateStats stats;
    census::ShardedCensusMatrix matrix;
    {
      const ScopedSpan span(tracer, "census.collate", root_span);
      matrix = census::collate_census_files_sharded(
          files, w.hitlist.size(), data_plane(), &stats, /*salvage=*/false);
    }
    const double collate_s = seconds_between(t0, now_ns());
    ledger.attempt(files.size());
    ledger.fail_op(stats.files_skipped + stats.files_salvaged);
    files_skipped_ += stats.files_skipped + stats.files_salvaged;
    ReadyTimes times;
    std::vector<analysis::TargetOutcome> outcomes = analyze_and_publish(
        *w.analyzer, std::move(matrix), w.hitlist,
        static_cast<std::uint64_t>(i + 1), pool, store_, tracer, root_span,
        times);
    const double ready = seconds_between(t0, now_ns());
    tracer.record("census.iteration", 0, iter_start, now_ns(), root_span);

    // Output checks: collation must rebuild the probed matrix, and the
    // same seed must give the same files, verdicts and accuracy on every
    // iteration.
    if (!same_matrix(store_.acquire()->matrix(), probed.matrix)) {
      ledger.fail_check("collated census differs from the probed census");
    }
    probed = ProbeOutput{};
    const std::uint64_t digest = directory_digest(files);
    const Accuracy acc =
        accuracy(outcomes, w.truth, w.truth_count);
    if (!first_digest_.has_value()) {
      first_digest_ = digest;
      first_accuracy_ = acc;
      geo_tpr_ = geo_tpr(*w.internet, w.vps, outcomes);
      first_outcomes_ = std::move(outcomes);
    } else {
      if (digest != *first_digest_) {
        ledger.fail_check("checkpoint files differ between iterations");
      }
      if (!same_outcomes(outcomes, first_outcomes_) ||
          acc.recall != first_accuracy_.recall ||
          acc.precision != first_accuracy_.precision) {
        ledger.fail_check("analysis outcomes differ between iterations");
      }
    }

    std::printf("  census iter %d%s: census %.3f s, ready %.3f s (collate "
                "%.3f, verdict %.3f)\n",
                i, traced ? " traced" : "", probe_s, ready, collate_s,
                times.verdict_s);
    if (traced) {
      const StorageTimes sweep =
          storage_sweep(files, w.hitlist.size(), dir_ / "rewrite",
                        store_.acquire()->matrix(), ledger);
      read_s_.push_back(sweep.read_s);
      fragment_s_.push_back(sweep.fragment_s);
      write_s_.push_back(sweep.write_s);
      matrix_build_s_.push_back(sweep.matrix_build_s);
      traced_total_s_.push_back(probe_s + ready);
      verdict_s_.push_back(times.verdict_s);
      verdict_cpu_s_.push_back(times.verdict_cpu_s);
      verdict_eff_.push_back(times.verdict_cpu_s /
                             (times.verdict_s * static_cast<double>(kLanes)));
      snapshot_s_.push_back(times.snapshot_build_s);
      publish_us_.push_back(times.publish_s * 1e6);
      records_per_s_.push_back(static_cast<double>(stats.observations) /
                               collate_s);
      if (verdict_s_.size() == 1) {  // the first traced iteration
        const serving::ReadGuard guard = store_.acquire();
        analysis_sweeps(*w.analyzer, guard->matrix(), guard->outcomes(),
                        ledger);
      }
    } else {
      census_s_.push_back(probe_s);
      ready_s_.push_back(ready);
      if (i > 0) warm_total_s_.push_back(probe_s + ready);
    }
    fs::remove_all(dir);
  }
  tracer.set_enabled(false);

  if (w.truth_count == 0 || first_accuracy_.detected == 0) {
    ledger.fail_check("no anycast ground truth or no detections");
  }
  std::printf("  census recall %.6f precision %.6f (detected %zu of %zu) "
              "geo_tpr %.6f outcome digest %016llx\n",
              first_accuracy_.recall, first_accuracy_.precision,
              first_accuracy_.detected, w.truth_count, geo_tpr_,
              static_cast<unsigned long long>(outcome_digest(first_outcomes_)));
}

void SimulatedCensus::emit_end_to_end(Ledger& ledger) const {
  ledger.metric("setup_s", median(setup_s_), "s");
  ledger.metric("census_s", median(census_s_), "s");
  ledger.metric("ready_s", median(ready_s_), "s");
  ledger.metric("anycast_recall", first_accuracy_.recall, "ratio");
  ledger.metric("anycast_precision", first_accuracy_.precision, "ratio");
  ledger.metric("geo_tpr", geo_tpr_, "ratio");
}

void SimulatedCensus::emit_layers(Ledger& ledger) const {
  // The library's walk histogram and per-VP spans from the traced probe
  // stages, the storage sweeps, and the stage times.
  const obs::LatencyHisto::Snapshot& walks = walks_;
  emit_percentiles(
      ledger, walks.count, [&](double q) { return walks.quantile(q) / 1e3; },
      "census.walk_ms_p50", "census.walk_ms_p95", 0.95, "census.walk_samples",
      "ms");
  ledger.metric("census.probes_sent", static_cast<double>(probes_), "count");
  ledger.metric("census.echo_ratio",
                probes_ == 0 ? 0.0
                             : static_cast<double>(echoes_) /
                                   static_cast<double>(probes_),
                "ratio");
  ledger.metric("census.checkpoint_write_s", median(write_s_), "s");
  ledger.metric("census.read_s", median(read_s_), "s");
  ledger.metric("census.fragment_s", median(fragment_s_), "s");
  ledger.metric("census.matrix_build_s", median(matrix_build_s_), "s");
  ledger.metric("census.records_per_s", median(records_per_s_), "1/s");
  ledger.metric("census.files_skipped", static_cast<double>(files_skipped_),
                "count");
  ledger.metric("concurrency.walk_parallel_eff", median(walk_eff_), "ratio");
  ledger.metric("concurrency.verdict_parallel_eff", median(verdict_eff_),
                "ratio");
  ledger.metric("analysis.verdict_s", median(verdict_s_), "s");
  ledger.metric("analysis.verdict_cpu_s", median(verdict_cpu_s_), "s");
  ledger.metric("serving.snapshot_build_s", median(snapshot_s_), "s");
  ledger.metric("serving.publish_us", median(publish_us_), "us");
  ledger.metric("bench.tracing_overhead_pct",
                overhead_pct(median(traced_total_s_),
                             median(warm_total_s_.empty()
                                        ? std::vector<double>{median(census_s_) +
                                                              median(ready_s_)}
                                        : warm_total_s_)),
                "%");
}

}  // namespace perfbench
