// The `anycastd census` -> `serve --in` path over the simulated Internet:
// each iteration probes a world from 300 PlanetLab-like VPs into a fresh
// checkpoint directory, then collates that directory, analyzes it and
// publishes a snapshot.
//
// The world keeps the simulator's full 1,696-/24 anycast catalog over a
// sampled unicast background whose size the caller picks: the `census`
// workload runs it at ~45k unicast /24s (~3.6% anycast), the others at a
// few thousand, so they report the probe and file layers without paying
// for them at length.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <vector>

#include "anycast/analysis/analyzer.hpp"
#include "anycast/census/hitlist.hpp"
#include "anycast/concurrency/thread_pool.hpp"
#include "anycast/net/internet.hpp"
#include "anycast/obs/latency.hpp"
#include "anycast/serving/store.hpp"
#include "bench.hpp"
#include "stages.hpp"

namespace perfbench {

class SimulatedCensus {
 public:
  /// Builds the world `setup_repeats` times (set-up reports the median
  /// build; the world is immutable, so every iteration probes the last).
  SimulatedCensus(std::uint64_t seed, std::uint32_t unicast_alive,
                  int setup_repeats, std::filesystem::path dir);

  /// Runs `iterations` more iterations. With `trace`, every second
  /// iteration of the stage is traced: it records spans, reads the walk
  /// latencies and per-VP spans the library records itself, and re-runs
  /// the per-file calls in a serial sweep outside the timed stages.
  void run(int iterations, bool trace, anycast::concurrency::ThreadPool& pool,
           Tracer& tracer, Ledger& ledger);

  /// setup_s, census_s, ready_s, anycast_recall, anycast_precision, geo_tpr.
  void emit_end_to_end(Ledger& ledger) const;
  /// The census.*, concurrency.*, verdict, snapshot and per-row analysis
  /// layers, and the tracing overhead of the traced iterations.
  void emit_layers(Ledger& ledger) const;

 private:
  struct World {
    std::unique_ptr<anycast::net::SimulatedInternet> internet;
    std::vector<anycast::net::VantagePoint> vps;
    anycast::census::Hitlist hitlist;
    std::vector<bool> truth;  // hitlist index -> really anycast
    std::size_t truth_count = 0;
    std::unique_ptr<anycast::analysis::CensusAnalyzer> analyzer;
  };
  static World make_world(std::uint64_t seed, std::uint32_t unicast_alive);

  std::filesystem::path dir_;
  World world_;
  anycast::serving::SnapshotStore store_;  // the newest iteration's

  std::vector<double> setup_s_;
  std::vector<double> census_s_, ready_s_;  // untraced iterations
  std::vector<double> traced_total_s_;
  // Untraced iterations after the first, which also pays first-touch
  // costs; the tracing overhead compares traced iterations with these.
  std::vector<double> warm_total_s_;
  std::vector<double> walk_eff_, verdict_eff_, verdict_s_, verdict_cpu_s_;
  std::vector<double> records_per_s_, snapshot_s_, publish_us_;
  std::vector<double> read_s_, fragment_s_, write_s_, matrix_build_s_;
  anycast::obs::LatencyHisto::Snapshot walks_;  // traced iterations' walks
  std::uint64_t probes_ = 0, echoes_ = 0;
  std::size_t files_skipped_ = 0;
  std::optional<std::uint64_t> first_digest_;
  std::vector<anycast::analysis::TargetOutcome> first_outcomes_;
  Accuracy first_accuracy_;
  double geo_tpr_ = 0.0;
  int iterations_ = 0;
};

}  // namespace perfbench
