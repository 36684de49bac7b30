// The three workloads. Each runs all three stages — a simulated census
// (probe, collate, analyze, publish), a 6.6M-/24 generated census (build,
// analyze, publish) and serving that snapshot beside churned rounds — so
// each reports every end-to-end and per-layer metric. A workload puts its
// time into one stage (its main stage) and runs the others briefly:
//
//   census: simulated census at ~47k /24s (main); one untraced generated
//           census at 2% row density; a serving slice after each main
//           iteration;
//   paper:  a small simulated census; the generated census at 5% row
//           density (main), each iteration followed by a serving slice;
//   serve:  a small simulated census; one untraced generated census at 2%
//           row density; serving for all of --seconds (main).
//
// Serving always reads a generated snapshot: query figures over a small,
// cache-resident key space followed the machine's speed from run to run
// far more than those over the paper's 6.6M keys. The serving slices of
// `census` and `paper` alternate with the main iterations rather than
// following them in one block, so they sample the machine across the run.
//
// Where two stages measure the same metric, the workload emits its main
// stage last, so the main stage's figure is the one reported.
#include <filesystem>
#include <optional>

#include "bench.hpp"
#include "census_stage.hpp"
#include "generated_stage.hpp"
#include "serve_stage.hpp"

namespace perfbench {
namespace {

using namespace anycast;

// `census` main stage: 1,696 anycast /24s over ~45k answering unicast
// /24s, ~3.6% anycast, so iGreedy's share of the analysis is high and
// probing is the longest stage with collation next.
constexpr std::uint32_t kCensusUnicast = 45'400;
// World construction takes tens of milliseconds, so `census` builds it
// several times and set-up reports the median build.
constexpr int kCensusSetupRepeats = 15;
// The brief simulated census of `paper` and `serve`: the same catalog over
// a few thousand unicast /24s, three iterations of about a second each.
constexpr std::uint32_t kBriefCensusUnicast = 4'000;
constexpr int kBriefCensusIterations = 3;
// Share of VPs answering a unicast /24 (see generator.hpp). The census
// that only feeds serving has thinner rows, so a churned round (matrix
// copy + rebuild) stays sub-second.
constexpr double kPaperUnicastDensity = 0.05;
constexpr double kServeUnicastDensity = 0.02;
// `serve` generates its census once; set-up is repeated this many times
// in all (the extra ones after peak RSS is read), and setup_s is the
// median.
constexpr int kServeSetupRepeats = 3;
// `census` and `paper`: main iterations, each followed by a serving slice
// of this share of --seconds.
constexpr int kMainIterations = 2;
constexpr double kSliceShare = 0.2;

std::filesystem::path census_dir(const RunConfig& config) {
  return config.work_dir / "census";
}

ServeSource generated_source(const GeneratedCensus& census) {
  const CensusGenerator& generator = census.generator();
  return {generator.hitlist(), generator.anycast_targets(), census.analyzer(),
          [&generator](std::uint64_t round) {
            return generator.churn(round, data_plane());
          }};
}

void finish_trace(const RunConfig& config, const Tracer& tracer) {
  tracer.print_summary();
  tracer.write(config.work_dir / ("trace-" + config.workload + ".tsv"));
}

}  // namespace

void run_census(const RunConfig& config, Ledger& ledger) {
  concurrency::ThreadPool pool(kLanes);
  serving::SnapshotStore store;  // the generated census, served
  Tracer tracer(false);
  SimulatedCensus census(config.seed, kCensusUnicast, kCensusSetupRepeats,
                         census_dir(config));
  GeneratedCensus generated(config.seed, kServeUnicastDensity);
  generated.run(1, /*trace=*/false, pool, store, tracer, ledger);
  const ServeSource source = generated_source(generated);
  ServeStage serve(source, config.seed);

  for (int i = 0; i < kMainIterations; ++i) {
    census.run(1, config.trace, pool, tracer, ledger);
    serve.run(source, config.seconds * kSliceShare, config.trace, store, pool,
              tracer, ledger);
  }

  if (!config.trace) {
    serve.emit_end_to_end(ledger);
    census.emit_end_to_end(ledger);
    ledger.metric("peak_rss_mb", serve.peak_rss_mb(), "MiB");
    return;
  }
  serve.emit_layers(ledger);
  census.emit_layers(ledger);
  finish_trace(config, tracer);
}

void run_paper(const RunConfig& config, Ledger& ledger) {
  concurrency::ThreadPool pool(kLanes);
  serving::SnapshotStore store;
  Tracer tracer(false);
  SimulatedCensus brief(config.seed, kBriefCensusUnicast, 1,
                        census_dir(config));
  brief.run(kBriefCensusIterations, config.trace, pool, tracer, ledger);

  // Each iteration makes a new generator (of the same census, from the
  // seed); the serving slice after it reads that one.
  GeneratedCensus paper(config.seed, kPaperUnicastDensity);
  std::optional<ServeStage> serve;
  for (int i = 0; i < kMainIterations; ++i) {
    paper.run(1, config.trace, pool, store, tracer, ledger);
    const ServeSource source = generated_source(paper);
    if (!serve) serve.emplace(source, config.seed);
    serve->run(source, config.seconds * kSliceShare, config.trace, store, pool,
               tracer, ledger);
  }

  if (!config.trace) {
    brief.emit_end_to_end(ledger);
    serve->emit_end_to_end(ledger);
    paper.emit_end_to_end(ledger);
    ledger.metric("peak_rss_mb", serve->peak_rss_mb(), "MiB");
    return;
  }
  brief.emit_layers(ledger);
  serve->emit_layers(ledger);
  paper.emit_layers(ledger);
  finish_trace(config, tracer);
}

void run_serve(const RunConfig& config, Ledger& ledger) {
  concurrency::ThreadPool pool(kLanes);
  serving::SnapshotStore store;
  Tracer tracer(false);
  SimulatedCensus brief(config.seed, kBriefCensusUnicast, 1,
                        census_dir(config));
  brief.run(kBriefCensusIterations, config.trace, pool, tracer, ledger);

  // One untraced pass: this workload's per-layer figures come from the
  // serving stage and the brief census.
  GeneratedCensus generated(config.seed, kServeUnicastDensity);
  generated.run(1, /*trace=*/false, pool, store, tracer, ledger);
  const ServeSource source = generated_source(generated);
  ServeStage serve(source, config.seed);
  serve.run(source, config.seconds, config.trace, store, pool, tracer, ledger);

  if (!config.trace) {
    store.publish(serving::SnapshotView());  // one census in memory at a time
    generated.repeat_setup(kServeSetupRepeats - 1, pool);
    brief.emit_end_to_end(ledger);
    generated.emit_end_to_end(ledger);
    serve.emit_end_to_end(ledger);
    ledger.metric("peak_rss_mb", serve.peak_rss_mb(), "MiB");
    return;
  }
  brief.emit_layers(ledger);
  serve.emit_layers(ledger);
  finish_trace(config, tracer);
}

}  // namespace perfbench
