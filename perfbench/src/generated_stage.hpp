// The paper-scale path from measurements to a published snapshot: the
// geography-consistent generator builds every VP's row fragment (set-up),
// then each iteration times the sharded matrix build,
// CensusAnalyzer::analyze, and SnapshotView::build + publish. Probing and
// file I/O are left out, so a prober or collation change leaves this
// stage's figures unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "anycast/analysis/analyzer.hpp"
#include "anycast/concurrency/thread_pool.hpp"
#include "anycast/serving/store.hpp"
#include "bench.hpp"
#include "generator.hpp"
#include "stages.hpp"

namespace perfbench {

class GeneratedCensus {
 public:
  GeneratedCensus(std::uint64_t seed, double unicast_density)
      : seed_(seed), unicast_density_(unicast_density) {}

  /// Runs `iterations` more iterations; each one generates the census
  /// afresh (set-up) and publishes its snapshot to `store`, retiring the
  /// previous one first so memory holds one census, not two. With
  /// `trace`, every second iteration of the stage is traced and the first
  /// traced one is swept row by row.
  void run(int iterations, bool trace,
           anycast::concurrency::ThreadPool& pool,
           anycast::serving::SnapshotStore& store, Tracer& tracer,
           Ledger& ledger);

  /// Builds the generator and its fragments `n` more times, for setup_s
  /// only: a caller whose run() made fewer set-ups than it wants to
  /// report a median of calls this after its peak RSS was read.
  void repeat_setup(int n, anycast::concurrency::ThreadPool& pool);

  /// The newest iteration's generator and analyzer (valid after run()).
  [[nodiscard]] const CensusGenerator& generator() const { return *generator_; }
  [[nodiscard]] const anycast::analysis::CensusAnalyzer& analyzer() const {
    return *analyzer_;
  }

  /// setup_s, ready_s, anycast_recall, anycast_precision.
  void emit_end_to_end(Ledger& ledger) const;
  /// census.matrix_build_s, the verdict and snapshot layers, and the
  /// tracing overhead; nothing when no iteration was traced.
  void emit_layers(Ledger& ledger) const;

 private:
  std::uint64_t seed_;
  double unicast_density_;
  std::unique_ptr<CensusGenerator> generator_;
  std::unique_ptr<anycast::analysis::CensusAnalyzer> analyzer_;
  int iterations_ = 0;

  std::vector<double> setup_s_, ready_s_, traced_ready_s_;
  // Untraced iterations after the first, which also pays first-touch
  // costs; the tracing overhead compares traced iterations with these.
  std::vector<double> warm_ready_s_;
  std::vector<double> build_s_, verdict_s_, verdict_cpu_s_, verdict_eff_;
  std::vector<double> snapshot_s_, publish_us_;
  std::vector<anycast::analysis::TargetOutcome> first_outcomes_;
  Accuracy first_accuracy_;
};

}  // namespace perfbench
