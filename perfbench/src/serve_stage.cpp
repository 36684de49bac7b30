#include "serve_stage.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <thread>

#include "anycast/analysis/incremental.hpp"
#include "anycast/obs/latency.hpp"
#include "anycast/serving/query.hpp"
#include "stages.hpp"

namespace perfbench {
namespace {

using namespace anycast;
using analysis::TargetOutcome;

constexpr std::size_t kQueryLines = std::size_t{1} << 20;
constexpr double kSegmentSeconds = 0.5;
constexpr std::size_t kUnicastChecks = 20'000;
// Assumed cadence: the publisher starts a round every kRoundPeriod
// seconds. The watch daemon runs its rounds back to back, but each of its
// rounds begins with probing, which this stage leaves out; the pause
// stands in for it. So the share of query time spent beside a round is
// fixed by the schedule, not by how fast rounds happen to run.
constexpr double kRoundPeriod = 2.0;
// Rounds publish snapshot ids above every id a census stage uses.
constexpr std::uint64_t kRoundIds = std::uint64_t{1} << 32;

constexpr const char* kKindNames[ServeStage::kKinds] = {"point", "batch",
                                                        "replicas", "nearest"};

std::uint64_t next_random(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t x = state;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::string dotted(std::uint32_t address) {
  return ipaddr::IPv4Address(address).to_string();
}

/// Parses `key=<n>` out of an answer line (npos-safe; -1 when absent).
long long field(std::string_view answer, std::string_view key) {
  const std::size_t at = answer.find(key);
  if (at == std::string_view::npos) return -1;
  return std::strtoll(answer.data() + at + key.size(), nullptr, 10);
}

/// What the publisher thread measured.
struct PublisherLog {
  std::vector<double> round_s, dirty_s, incremental_s, build_s, publish_us;
  std::vector<double> dirty_rows;
  std::size_t unreclaimed_max = 0;
  std::vector<TargetOutcome> last_outcomes;  // the newest round's analysis
  std::string error;                         // first check failure
  std::exception_ptr exception;
};

/// Publishes churned rounds `first_round`, `first_round` + 1, ... on the
/// kRoundPeriod schedule until `stop`.
void publish_rounds(const ServeSource& source, serving::SnapshotStore& store,
                    concurrency::ThreadPool& pool, Tracer& tracer,
                    std::uint64_t first_round, const std::atomic<bool>& stop,
                    PublisherLog& log) {
  try {
    serving::ReadGuard prev = store.acquire();
    const std::uint64_t start = now_ns();
    for (std::uint64_t round = first_round; !stop.load(); ++round) {
      const std::uint64_t due =
          start + static_cast<std::uint64_t>(
                      static_cast<double>(round - first_round) *
                      kRoundPeriod * 1e9);
      while (!stop.load() && now_ns() < due) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      if (stop.load()) break;
      census::ShardedCensusMatrix next = prev->matrix();
      next.combine_min(source.churn(round));

      const std::uint32_t round_span = tracer.open_id();
      const std::uint64_t r0 = now_ns();
      std::vector<std::uint32_t> dirty;
      analysis::IncrementalResult incremental;
      {
        const ScopedSpan span(tracer, "analysis.dirty_scan", round_span);
        dirty = analysis::dirty_rows(prev->matrix(), next, &pool);
      }
      const std::uint64_t r1 = now_ns();
      {
        const ScopedSpan span(tracer, "analysis.incremental", round_span);
        incremental = analysis::incremental_analyze(
            source.analyzer, prev->outcomes(), prev->matrix(), next,
            source.hitlist, /*min_vps=*/2, &pool);
      }
      const std::uint64_t r2 = now_ns();
      serving::SnapshotView view;
      {
        const ScopedSpan span(tracer, "serving.snapshot_build", round_span);
        view = serving::SnapshotView::build(std::move(next),
                                            incremental.outcomes,
                                            kRoundIds + round,
                                            &source.hitlist);
      }
      const std::uint64_t r3 = now_ns();
      {
        const ScopedSpan span(tracer, "serving.publish", round_span);
        store.publish(std::move(view));
      }
      const std::uint64_t r4 = now_ns();
      tracer.record("serving.round", 0, r0, r4, round_span);

      log.round_s.push_back(seconds_between(r0, r4));
      log.dirty_s.push_back(seconds_between(r0, r1));
      log.incremental_s.push_back(seconds_between(r1, r2));
      log.build_s.push_back(seconds_between(r2, r3));
      log.publish_us.push_back(seconds_between(r3, r4) * 1e6);
      log.dirty_rows.push_back(static_cast<double>(dirty.size()));
      log.unreclaimed_max = std::max(log.unreclaimed_max, store.retired_count());
      if (dirty != incremental.dirty && log.error.empty()) {
        log.error = "dirty_rows and incremental_analyze disagree";
      }
      log.last_outcomes = std::move(incremental.outcomes);
      prev = store.acquire();
    }
  } catch (...) {
    log.exception = std::current_exception();
  }
}

}  // namespace

ServeStage::ServeStage(const ServeSource& source, std::uint64_t seed)
    : seed_(seed) {
  make_queries(source);
}

/// The query mix, generated from the seed: 88% point, 4% batch of 8 keys,
/// 4% replicas, 4% nearest. Keys are uniform over the hitlist, half dense
/// and half dotted-quad, and 1% name no hitlist entry (a dense index past
/// the end, or an address in the reserved 240.0.0.0/4 block).
///
/// Every share is an assumption. Single-key `point` lookups dominate
/// because that is what a per-address lookup service mostly answers; the
/// other three verbs get an equal small share so each one's tail has tens
/// of thousands of samples per run. The batch of 8 keys is the batch in
/// the CLI smoke test's query file. `replicas` and `nearest` lean 90%
/// towards anycast targets, since only those have replicas to list or
/// choose between; a unicast key gets a one-line answer.
void ServeStage::make_queries(const ServeSource& source) {
  QueryText& text = queries_;
  std::uint64_t state = seed_ ^ 0x9E7BE5ULL;
  const std::size_t n = source.hitlist.size();
  const auto anycast = source.anycast_targets;
  const auto key = [&](bool lean_anycast) -> std::string {
    const std::uint64_t r = next_random(state);
    if (r % 100 == 0) {
      return (r >> 8) % 2 == 0
                 ? std::to_string(n + (r >> 16) % n)
                 : dotted(0xF0000000u |
                          static_cast<std::uint32_t>((r >> 16) & 0xFFFFF) << 8 |
                          7u);
    }
    const std::uint64_t pick = next_random(state);
    const std::uint32_t target =
        lean_anycast && pick % 10 != 0
            ? anycast[(pick >> 8) % anycast.size()]
            : static_cast<std::uint32_t>((pick >> 8) % n);
    return (r >> 8) % 2 == 0
               ? std::to_string(target)
               : dotted(source.hitlist[target].representative.value());
  };
  text.lines.reserve(kQueryLines);
  for (std::size_t q = 0; q < kQueryLines; ++q) {
    const std::uint64_t r = next_random(state) % 100;
    const Kind kind = r < 88 ? kPoint : r < 92 ? kBatch : r < 96 ? kReplicas
                                                                 : kNearest;
    std::string line = kKindNames[kind];
    for (int k = 0; k < (kind == kBatch ? 8 : 1); ++k) {
      line += ' ';
      line += key(kind != kPoint && kind != kBatch);
    }
    if (kind == kNearest) {
      char coords[48];
      std::snprintf(coords, sizeof coords, " %.2f %.2f",
                    static_cast<double>(next_random(state) % 13000) / 100.0 -
                        60.0,
                    static_cast<double>(next_random(state) % 36000) / 100.0 -
                        180.0);
      line += coords;
    }
    text.lines.push_back({kind, static_cast<std::uint32_t>(text.buffer.size()),
                          static_cast<std::uint32_t>(line.size())});
    text.buffer += line;
  }
}

/// Checks that `view` serves `expected` (the analyzer's outcome list) for
/// every ground-truth anycast target, every detected target, and a seeded
/// sample of other targets, by dense and dotted key.
void ServeStage::check_answers(const ServeSource& source,
                               const serving::SnapshotView& view,
                               std::span<const TargetOutcome> expected,
                               Ledger& ledger) const {
  std::vector<std::uint32_t> targets(source.anycast_targets.begin(),
                                     source.anycast_targets.end());
  for (const TargetOutcome& outcome : expected) {
    targets.push_back(outcome.target_index);
  }
  std::uint64_t state = seed_ ^ 0xC4EC4ULL;
  for (std::size_t k = 0; k < kUnicastChecks; ++k) {
    targets.push_back(static_cast<std::uint32_t>(
        next_random(state) % source.hitlist.size()));
  }
  const serving::QueryContext context{&view, nullptr};
  std::string out, error;
  std::size_t mismatches = 0;
  for (std::size_t k = 0; k < targets.size(); ++k) {
    const std::uint32_t t = targets[k];
    const auto it = std::lower_bound(
        expected.begin(), expected.end(), t,
        [](const TargetOutcome& o, std::uint32_t v) {
          return o.target_index < v;
        });
    const TargetOutcome* want =
        it != expected.end() && it->target_index == t ? &*it : nullptr;
    const std::string key =
        k % 2 == 0 ? std::to_string(t)
                   : dotted(source.hitlist[t].representative.value());
    out.clear();
    bool ok = serving::answer_query(context, std::string("point ").append(key),
                                    out, error);
    const long long replicas =
        want == nullptr ? 0 : static_cast<long long>(want->result.replicas.size());
    ok = ok && field(out, " anycast=") == (want != nullptr ? 1 : 0) &&
         field(out, " replicas=") == replicas;
    if (ok && want != nullptr) {
      out.clear();
      ok = serving::answer_query(context,
                                 std::string("replicas ").append(key), out,
                                 error) &&
           field(out, " count=") == replicas;
      std::size_t at = out.find('\n');
      for (const core::Replica& replica : want->result.replicas) {
        if (!ok) break;
        ok = at != std::string::npos &&
             field(std::string_view(out).substr(at), "vp=") ==
                 static_cast<long long>(replica.vp_id);
        at = out.find('\n', at + 1);
      }
    }
    if (!ok) ++mismatches;
  }
  if (mismatches != 0) {
    ledger.fail_check(std::to_string(mismatches) + " of " +
                      std::to_string(targets.size()) +
                      " served answers differ from the analysis");
  }
  std::printf("  answer check: %zu targets (%zu anycast, %zu detected)\n",
              targets.size(), source.anycast_targets.size(), expected.size());
}

void ServeStage::run(const ServeSource& source, double seconds, bool trace,
                     serving::SnapshotStore& store,
                     concurrency::ThreadPool& pool, Tracer& tracer,
                     Ledger& ledger) {
  tracer.set_enabled(trace);
  std::atomic<bool> stop{false};
  PublisherLog log;
  std::thread publisher([&] {
    publish_rounds(source, store, pool, tracer, next_round_, stop, log);
  });
  // Stops and joins the publisher on every exit from this scope, the
  // exceptional ones included.
  struct Joiner {
    std::atomic<bool>& stop;
    std::thread& thread;
    ~Joiner() {
      stop.store(true);
      if (thread.joinable()) thread.join();
    }
  } joiner{stop, publisher};

  std::uint64_t answered = 0, errors = 0;
  std::uint64_t last_id = 0;
  std::string out, error;
  std::size_t cursor = 0;
  const QueryText& queries = queries_;

  const std::size_t segments_before = segments_.size();
  const std::uint64_t phase_start = now_ns();
  const std::uint64_t deadline =
      phase_start + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t now = phase_start;
  while (now < deadline) {
    const Mode mode =
        trace ? static_cast<Mode>(segments_.size() % kModes) : kPlain;
    const bool traced = mode != kPlain;
    obs::set_latency_recording(mode != kTracedSilent);
    const std::uint32_t segment_span = traced ? tracer.open_id() : 0;
    const std::uint64_t seg_start = now_ns();
    const std::uint64_t seg_end =
        std::min(deadline, seg_start + static_cast<std::uint64_t>(
                                           kSegmentSeconds * 1e9));
    std::size_t in_segment = 0;
    while (now < seg_end) {
      for (int k = 0; k < 64; ++k) {
        const QueryText::Line& line = queries.lines[cursor];
        const std::string_view text = queries.line(cursor);
        cursor = cursor + 1 == queries.lines.size() ? 0 : cursor + 1;
        const std::uint64_t t0 = now_ns();
        bool ok = false;
        {
          const serving::ReadGuard guard = store.acquire();
          if (guard->id() != last_id) {
            last_id = guard->id();
            ++swaps_;
          }
          out.clear();
          ok = serving::answer_query({&guard.view(), nullptr}, text, out,
                                     error);
        }
        const std::uint64_t t1 = now_ns();
        if (!ok) ++errors;
        if (!trace) {
          all_ns_.add(t1 - t0);
        } else if (mode != kTracedSilent) {
          kind_ns_[line.kind].add(t1 - t0);
        }
        if (traced && (in_segment + k) % 16 == 0) {
          tracer.record(kKindNames[line.kind], segment_span, t0, t1);
        }
      }
      in_segment += 64;
      now = now_ns();
    }
    answered += in_segment;
    segments_.push_back({mode, seconds_between(seg_start, now), in_segment});
    if (traced) {
      tracer.record(mode == kTracedRecording ? "serving.segment_recording"
                                             : "serving.segment_silent",
                    0, seg_start, now, segment_span);
    }
  }
  const double phase_s = seconds_between(phase_start, now);
  answered_ += answered;
  phase_s_ += phase_s;
  std::printf("  segment kqps:");
  for (std::size_t k = segments_before; k < segments_.size(); ++k) {
    const Segment& segment = segments_[k];
    std::printf(" %.0f", static_cast<double>(segment.queries) /
                             segment.seconds / 1e3);
  }
  std::printf("\n");
  obs::set_latency_recording(true);
  stop.store(true);
  publisher.join();
  tracer.set_enabled(false);
  if (log.exception) std::rethrow_exception(log.exception);
  peak_rss_mb_ = perfbench::peak_rss_mb();  // before the output checks run

  ledger.attempt(answered + log.round_s.size());
  ledger.fail_op(errors);
  if (!log.error.empty()) ledger.fail_check(log.error);
  if (log.round_s.empty()) ledger.fail_check("no churned round completed");

  // Output checks against the newest published snapshot.
  {
    const serving::ReadGuard guard = store.acquire();
    check_answers(source, guard.view(), log.last_outcomes, ledger);
    if (trace) {
      const std::vector<TargetOutcome> full = source.analyzer.analyze(
          guard->matrix(), source.hitlist, /*min_vps=*/2, &pool);
      if (!same_outcomes(full, log.last_outcomes)) {
        ledger.fail_check("incremental analysis differs from a full analyze");
      }
    }
  }
  std::printf("  %llu queries in %.3f s, %llu errors, %zu rounds, %llu swaps "
              "seen\n",
              static_cast<unsigned long long>(answered), phase_s,
              static_cast<unsigned long long>(errors), log.round_s.size(),
              static_cast<unsigned long long>(swaps_));

  next_round_ += log.round_s.size();
  const auto append = [](std::vector<double>& to,
                         const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(round_s_, log.round_s);
  append(dirty_s_, log.dirty_s);
  append(incremental_s_, log.incremental_s);
  append(build_s_, log.build_s);
  append(publish_us_, log.publish_us);
  append(dirty_rows_, log.dirty_rows);
  unreclaimed_max_ = std::max(unreclaimed_max_, log.unreclaimed_max);
}

void ServeStage::emit_end_to_end(Ledger& ledger) const {
  std::printf("  query_p99_us from %llu samples\n",
              static_cast<unsigned long long>(all_ns_.count()));
  ledger.metric("query_p50_us", all_ns_.quantile(0.5) / 1e3, "us");
  ledger.metric("query_p99_us", all_ns_.quantile(0.99) / 1e3, "us");
  ledger.metric("queries_per_s", static_cast<double>(answered_) / phase_s_,
                "1/s");
  ledger.metric("round_s", median(round_s_), "s");
}

void ServeStage::emit_layers(Ledger& ledger) const {
  const Histogram& point = kind_ns_[kPoint];
  emit_percentiles(
      ledger, point.count(), [&](double q) { return point.quantile(q) / 1e3; },
      "serving.point_us_p50", "serving.point_us_p99", 0.99,
      "serving.point_samples", "us");
  const struct {
    Kind kind;
    const char* p99;
    const char* count;
  } tails[] = {
      {kBatch, "serving.batch_us_p99", "serving.batch_samples"},
      {kReplicas, "serving.replicas_us_p99", "serving.replicas_samples"},
      {kNearest, "serving.nearest_us_p99", "serving.nearest_samples"},
  };
  for (const auto& tail : tails) {
    const Histogram& h = kind_ns_[tail.kind];
    const double q = std::min(0.99, tail_fraction(h.count()));
    ledger.metric(tail.p99, h.quantile(q) / 1e3, "us");
    ledger.metric(tail.count, static_cast<double>(h.count()), "count");
  }
  ledger.metric("serving.swaps_seen", static_cast<double>(swaps_), "count");
  ledger.metric("serving.unreclaimed_max",
                static_cast<double>(unreclaimed_max_), "count");
  ledger.metric("serving.snapshot_build_s", median(build_s_), "s");
  ledger.metric("serving.publish_us", median(publish_us_), "us");
  ledger.metric("analysis.dirty_rows", median(dirty_rows_), "count");
  ledger.metric("analysis.dirty_scan_s", median(dirty_s_), "s");
  ledger.metric("analysis.incremental_s", median(incremental_s_), "s");

  // Paired segments: each cycle holds one segment of every mode, run back
  // to back, so the ratios cancel slow drift in the machine's load.
  std::vector<double> tracing, recording;
  for (std::size_t c = 0; c + kModes <= segments_.size(); c += kModes) {
    const auto cost = [&](std::size_t k) {
      return segments_[c + k].seconds /
             static_cast<double>(
                 std::max<std::size_t>(1, segments_[c + k].queries));
    };
    tracing.push_back(overhead_pct(cost(kTracedRecording), cost(kPlain)));
    recording.push_back(
        overhead_pct(cost(kTracedRecording), cost(kTracedSilent)));
  }
  ledger.metric("bench.tracing_overhead_pct", median(tracing), "%");
  ledger.metric("obs.recording_overhead_pct", median(recording), "%");
  ledger.metric("bench.overhead_pairs", static_cast<double>(tracing.size()),
                "count");
}

}  // namespace perfbench
