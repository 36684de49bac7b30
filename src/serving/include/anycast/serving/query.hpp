// The serving line protocol: text queries in, deterministic text out.
//
// One query per line, `#` comments and blank lines skipped. Tokens are
// separated by runs of spaces and tabs; leading and trailing ones are
// ignored:
//
//   point <key>                 anycast verdict + row stats for one target
//   replicas <key>              enumerated, geolocated replica set
//   batch <key> <key> ...       vectorized point lookups, aggregate answer
//   nearest <key> <lat> <lon>   closest replica to a client coordinate
//                               (finite decimal degrees; hex, inf and
//                               nan answer `bad coordinate`)
//   diff                        landscape delta vs. the previous snapshot
//   stats                       live telemetry: snapshot id, query count,
//                               qps (last per-second window), p50/p99/p999
//                               end-to-end latency in us (HDR in-process
//                               quantiles, <=1/128 relative error)
//   slo                         per-objective burn-rate state ("slo none"
//                               when no --slo objectives are configured)
//   metricsdump                 the full telemetry JSON document (metrics
//                               + latency + series + slo sections)
//
// `<key>` is either a dense target index or a dotted-quad IPv4 address
// (resolved through the snapshot's hitlist /24 index). Answers are
// byte-deterministic for a given snapshot pair — cli_smoke greps them and
// the watch serve loop compares final-epoch answers across runs — so all
// floating-point output is fixed-precision and iteration order is the
// snapshot's own. The telemetry verbs (stats/slo/metricsdump) report live
// wall-clock state and are exempt from that byte contract; the watch
// serve loop's cross-run answer comparison therefore must not include
// them.
//
// Every query is recorded into serving_query_ns and, for the verbs that
// have one, its stage histogram (serving_lookup_ns for point/replicas/
// batch, serving_nearest_ns, serving_diff_ns) unless
// obs::set_latency_recording(false). Both record the same whole-answer
// interval, so the SLO stages are lookup|nearest|diff|query. Malformed
// lines additionally bump serving_errors and the telemetry error window.
//
// Cost model. The data verbs (point/batch/replicas/nearest) allocate
// nothing once `out` has room for the answer. One pass over the line
// keeps its first four tokens and counts the rest; a batch walks its keys
// once more, from the end of the verb. No line is stored, so a batch of
// any length tokenises without allocating. The answer is appended
// straight into `out`: integers and the fixed-precision %.4f/%.1f fields
// go through std::to_chars (`append_fixed`), and a batch resolves its
// keys into a 16-entry buffer it looks up and sums as it fills. A dotted
// key costs one rank-bitmap probe (SnapshotView::target_of_address).
// Recording costs two clock reads (~20 ns each) and two histogram records
// (~3.5 ns each, a relaxed bump of the calling thread's own shard): a
// large share of a ~300 ns point query (ROADMAP item 4). The telemetry
// verbs (stats/slo/metricsdump) and `diff` keep printf formatting and
// allocate: they are not on the query hot path.
//
// Used by `anycastd serve` (file or stdin batch loop) and by the watch
// daemon's in-campaign serve thread; tests drive it directly.
#pragma once

#include <string>
#include <string_view>

#include "anycast/serving/snapshot.hpp"

namespace anycast::serving {

/// What a batch of queries runs against. `previous` may be null; `diff`
/// queries then answer an error.
struct QueryContext {
  const SnapshotView* current = nullptr;
  const SnapshotView* previous = nullptr;
};

/// Appends the answer for one query line to `out` (one or more lines,
/// each '\n'-terminated). Returns false on a malformed query, filling
/// `error` instead; `out` is untouched in that case, and when an
/// exception leaves the call. Unknown keys are NOT errors — they answer
/// `... unknown` (a serving plane must keep serving hostile input).
bool answer_query(const QueryContext& context, std::string_view line,
                  std::string& out, std::string& error);

/// Appends `value` as printf("%.*f", precision, value) prints it in the C
/// locale, via std::to_chars: no locale lookup, and no allocation when
/// `out` has room. `precision` must be at most 17. The line protocol's
/// coordinates (4 decimals) and distances (1 decimal) go through it.
void append_fixed(std::string& out, double value, int precision);

/// Result of answering a whole request text.
struct QueryBatchResult {
  std::size_t answered = 0;  // query lines answered (comments not counted)
  std::size_t error_line = 0;  // 1-based line of the first malformed query
  std::string error;           // empty on success
  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Answers every query line in `text` into `out`, all or nothing: a
/// malformed line anywhere, or an exception, leaves `out` as it was and
/// NO answers are produced (batch atomicity — a half-answered request
/// file cannot be mistaken for a complete one).
QueryBatchResult answer_queries(const QueryContext& context,
                                std::string_view text, std::string& out);

}  // namespace anycast::serving
