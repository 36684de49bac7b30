#include "generated_stage.hpp"

#include <cstdio>

#include "anycast/geo/city_index.hpp"

namespace perfbench {

using namespace anycast;

void GeneratedCensus::run(int iterations, bool trace,
                          concurrency::ThreadPool& pool,
                          serving::SnapshotStore& store, Tracer& tracer,
                          Ledger& ledger) {
  for (int k = 0; k < iterations; ++k) {
    const int i = iterations_++;
    const bool traced = trace && i % 2 == 1;
    tracer.set_enabled(traced);
    store.publish(serving::SnapshotView());
    analyzer_.reset();
    generator_.reset();
    const std::uint32_t root_span = tracer.open_id();
    const std::uint64_t iter_start = now_ns();

    // Set-up: the generator's world, platform, hitlist and fragments.
    std::uint64_t t0 = now_ns();
    generator_ = std::make_unique<CensusGenerator>(GeneratorConfig{
        .seed = seed_, .unicast_density = unicast_density_});
    analyzer_ = std::make_unique<analysis::CensusAnalyzer>(generator_->vps(),
                                                           geo::world_index());
    std::vector<std::vector<census::TargetRtt>> fragments =
        generator_->fragments(pool);
    const double setup = seconds_between(t0, now_ns());
    std::size_t samples = 0;
    for (const auto& fragment : fragments) samples += fragment.size();

    // Ready: fragments to a published snapshot.
    t0 = now_ns();
    census::ShardedCensusMatrix matrix;
    {
      const ScopedSpan span(tracer, "census.matrix_build", root_span);
      census::ShardedCensusMatrixBuilder builder(generator_->hitlist().size(),
                                                 data_plane());
      for (std::size_t v = 0; v < fragments.size(); ++v) {
        builder.add_fragment(static_cast<std::uint16_t>(v),
                             std::move(fragments[v]));
      }
      matrix = builder.build();
    }
    const double build = seconds_between(t0, now_ns());
    fragments = {};
    ledger.attempt(generator_->vps().size());
    if (matrix.observation_count() != samples) {
      ledger.fail_check("matrix lost generated samples");
    }
    ReadyTimes times;
    std::vector<analysis::TargetOutcome> outcomes = analyze_and_publish(
        *analyzer_, std::move(matrix), generator_->hitlist(),
        static_cast<std::uint64_t>(i + 1), pool, store, tracer, root_span,
        times);
    const double ready = seconds_between(t0, now_ns());
    tracer.record("generated.iteration", 0, iter_start, now_ns(), root_span);

    const Accuracy acc = accuracy(outcomes, generator_->truth(),
                                  generator_->anycast_targets().size());
    if (i == 0) {
      first_accuracy_ = acc;
      first_outcomes_ = std::move(outcomes);
    } else if (!same_outcomes(outcomes, first_outcomes_) ||
               acc.recall != first_accuracy_.recall ||
               acc.precision != first_accuracy_.precision) {
      ledger.fail_check("analysis outcomes differ between iterations");
    }
    std::printf("  generated iter %d%s: setup %.3f s (%zu samples), ready "
                "%.3f s (build %.3f, verdict %.3f, snapshot %.3f)\n",
                i, traced ? " traced" : "", setup, samples, ready, build,
                times.verdict_s, times.snapshot_build_s);

    setup_s_.push_back(setup);
    if (traced) {
      traced_ready_s_.push_back(ready);
      build_s_.push_back(build);
      verdict_s_.push_back(times.verdict_s);
      verdict_cpu_s_.push_back(times.verdict_cpu_s);
      verdict_eff_.push_back(times.verdict_cpu_s /
                             (times.verdict_s * static_cast<double>(kLanes)));
      snapshot_s_.push_back(times.snapshot_build_s);
      publish_us_.push_back(times.publish_s * 1e6);
      if (verdict_s_.size() == 1) {  // the first traced iteration
        const serving::ReadGuard guard = store.acquire();
        analysis_sweeps(*analyzer_, guard->matrix(), guard->outcomes(),
                        ledger);
      }
    } else {
      ready_s_.push_back(ready);
      if (i > 0) warm_ready_s_.push_back(ready);
    }
  }
  tracer.set_enabled(false);

  if (first_accuracy_.detected == 0) ledger.fail_check("no detections");
  std::printf("  generated recall %.6f precision %.6f (detected %zu, true "
              "%zu) outcome digest %016llx\n",
              first_accuracy_.recall, first_accuracy_.precision,
              first_accuracy_.detected, first_accuracy_.true_positives,
              static_cast<unsigned long long>(outcome_digest(first_outcomes_)));
}

void GeneratedCensus::repeat_setup(int n, concurrency::ThreadPool& pool) {
  for (int r = 0; r < n; ++r) {
    const std::uint64_t t0 = now_ns();
    const CensusGenerator generator(
        {.seed = seed_, .unicast_density = unicast_density_});
    const analysis::CensusAnalyzer analyzer(generator.vps(),
                                            geo::world_index());
    const auto fragments = generator.fragments(pool);
    setup_s_.push_back(seconds_between(t0, now_ns()));
  }
}

void GeneratedCensus::emit_end_to_end(Ledger& ledger) const {
  ledger.metric("setup_s", median(setup_s_), "s");
  ledger.metric("ready_s", median(ready_s_), "s");
  ledger.metric("anycast_recall", first_accuracy_.recall, "ratio");
  ledger.metric("anycast_precision", first_accuracy_.precision, "ratio");
}

void GeneratedCensus::emit_layers(Ledger& ledger) const {
  if (traced_ready_s_.empty()) return;
  ledger.metric("census.matrix_build_s", median(build_s_), "s");
  ledger.metric("concurrency.verdict_parallel_eff", median(verdict_eff_),
                "ratio");
  ledger.metric("analysis.verdict_s", median(verdict_s_), "s");
  ledger.metric("analysis.verdict_cpu_s", median(verdict_cpu_s_), "s");
  ledger.metric("serving.snapshot_build_s", median(snapshot_s_), "s");
  ledger.metric("serving.publish_us", median(publish_us_), "us");
  ledger.metric("bench.tracing_overhead_pct",
                overhead_pct(median(traced_ready_s_),
                             median(warm_ready_s_.empty() ? ready_s_
                                                          : warm_ready_s_)),
                "%");
}

}  // namespace perfbench
