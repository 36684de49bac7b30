// The serving path after a census is published: one closed-loop reader
// answers text-protocol queries against the store while one publisher
// thread republishes churned rounds — the watch daemon's work after
// probing.
//
// The reader answers a fixed mix of queries (mostly `point`, plus
// `batch`, `replicas` and `nearest`; dotted-quad and dense keys; ~1%
// unknown keys), pinning the current snapshot per query. The publisher
// folds a churned round into a copy of the published matrix, then runs
// dirty_rows + incremental_analyze + SnapshotView::build +
// SnapshotStore::publish and times that turnaround as one round.
//
// The mix shares and the round cadence are assumptions, not measurements
// of real traffic: no query log exists for this service. The reasons for
// each figure are given where it is defined.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "anycast/analysis/analyzer.hpp"
#include "anycast/census/hitlist.hpp"
#include "anycast/census/sharded.hpp"
#include "anycast/concurrency/thread_pool.hpp"
#include "anycast/serving/store.hpp"
#include "bench.hpp"

namespace perfbench {

/// The census a serve stage reads and churns: its hitlist, ground truth
/// for the query mix and the answer checks, and its churned rounds.
struct ServeSource {
  const anycast::census::Hitlist& hitlist;
  std::span<const std::uint32_t> anycast_targets;  // ascending
  const anycast::analysis::CensusAnalyzer& analyzer;
  /// Round `r`'s re-measured rows, to fold in with combine_min.
  std::function<anycast::census::ShardedCensusMatrix(std::uint64_t)> churn;
};

class ServeStage {
 public:
  /// Generates the query text for `source` from `seed` (set-up). Every
  /// later call must pass a source with the same hitlist and ground truth.
  ServeStage(const ServeSource& source, std::uint64_t seed);

  /// Serves `store` for `seconds`, then checks the newest snapshot's
  /// answers against the analyzer. May be called again (after a census
  /// stage republished the store); the figures cover every call. With
  /// `trace`, cycles 0.5 s segments: untraced with latency recording on
  /// (the production setting), traced with recording on, traced with
  /// recording off.
  void run(const ServeSource& source, double seconds, bool trace,
           anycast::serving::SnapshotStore& store,
           anycast::concurrency::ThreadPool& pool, Tracer& tracer,
           Ledger& ledger);

  /// Peak RSS when the last call's query phase ended, before its checks.
  [[nodiscard]] double peak_rss_mb() const { return peak_rss_mb_; }

  /// query_p50_us, query_p99_us, queries_per_s, round_s.
  void emit_end_to_end(Ledger& ledger) const;
  /// The serving.* layers, the round's analysis layers, and the tracing
  /// and latency-recording overheads from paired segments.
  void emit_layers(Ledger& ledger) const;

  enum Kind : std::uint8_t { kPoint, kBatch, kReplicas, kNearest, kKinds };

 private:
  struct QueryText {
    std::string buffer;
    struct Line {
      Kind kind;
      std::uint32_t offset;
      std::uint32_t length;
    };
    std::vector<Line> lines;
    [[nodiscard]] std::string_view line(std::size_t i) const {
      return std::string_view(buffer).substr(lines[i].offset,
                                             lines[i].length);
    }
  };
  enum Mode { kPlain, kTracedRecording, kTracedSilent, kModes };
  struct Segment {
    Mode mode;
    double seconds;
    std::size_t queries;
  };
  void make_queries(const ServeSource& source);
  void check_answers(const ServeSource& source,
                     const anycast::serving::SnapshotView& view,
                     std::span<const anycast::analysis::TargetOutcome> expected,
                     Ledger& ledger) const;

  std::uint64_t seed_;
  QueryText queries_;

  std::vector<Segment> segments_;
  Histogram all_ns_;           // every query of an untraced run
  Histogram kind_ns_[kKinds];  // recording segments of a traced run
  std::uint64_t answered_ = 0, swaps_ = 0;
  double phase_s_ = 0.0;
  double peak_rss_mb_ = 0.0;
  std::vector<double> round_s_, dirty_s_, incremental_s_, build_s_;
  std::vector<double> publish_us_, dirty_rows_;
  std::size_t unreclaimed_max_ = 0;
  std::uint64_t next_round_ = 1;  // churn rounds continue across calls
};

}  // namespace perfbench
