#include "anycast/serving/query.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <optional>
#include <vector>

#include "anycast/geo/city.hpp"
#include "anycast/ipaddr/ipv4.hpp"
#include "anycast/obs/latency.hpp"
#include "anycast/obs/metrics.hpp"
#include "anycast/obs/telemetry.hpp"

namespace anycast::serving {
namespace {

struct QueryInstruments {
  obs::Counter queries = obs::metrics().counter(
      "serving_queries", obs::MetricClass::kTiming,
      "query lines answered by the serving plane");
  obs::Counter unknown_keys = obs::metrics().counter(
      "serving_unknown_keys", obs::MetricClass::kTiming,
      "queries naming a target outside the snapshot");
  obs::Counter errors = obs::metrics().counter(
      "serving_errors", obs::MetricClass::kTiming,
      "malformed query lines rejected by the serving plane");
};

const QueryInstruments& query_instruments() {
  static const QueryInstruments instruments;
  return instruments;
}

/// Per-stage HDR latency histograms for the telemetry plane. Stage names
/// line up with the SLO spec grammar (p99_<stage>_us): lookup covers
/// point/replicas/batch, nearest and diff their own verbs, and query every
/// line. Each records a whole answer, tokenising and output formatting
/// included, so a stage histogram is its verb family's share of query.
struct StageHistos {
  obs::LatencyHisto& lookup = obs::LatencyHisto::get(
      "serving_lookup_ns", "ns", "point/replicas/batch answer latency");
  obs::LatencyHisto& nearest = obs::LatencyHisto::get(
      "serving_nearest_ns", "ns", "nearest-replica answer latency");
  obs::LatencyHisto& diff = obs::LatencyHisto::get(
      "serving_diff_ns", "ns", "diff answer latency");
  obs::LatencyHisto& query = obs::LatencyHisto::get(
      "serving_query_ns", "ns", "end-to-end serving query latency");
};

StageHistos& stage_histos() {
  static StageHistos histos;
  return histos;
}

/// RAII per-query recorder: two clock reads when recording is on (start
/// and destructor), none when off. The one interval feeds serving_query_ns
/// and the attributed stage histogram. Destructor placement makes every
/// return path — including malformed rejects — record the sample.
class QueryTimer {
  using Clock = std::chrono::steady_clock;

 public:
  QueryTimer() : enabled_(obs::latency_recording()) {
    if (enabled_) start_ = Clock::now();
  }
  QueryTimer(const QueryTimer&) = delete;
  QueryTimer& operator=(const QueryTimer&) = delete;

  /// Attribute the answer to one of the stage histograms.
  void attribute(obs::LatencyHisto& stage) { stage_ = &stage; }

  ~QueryTimer() {
    if (!enabled_) return;
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
    if (stage_ != nullptr) stage_->record(ns);
    stage_histos().query.record(ns);
  }

 private:
  bool enabled_;
  Clock::time_point start_{};
  obs::LatencyHisto* stage_ = nullptr;
};

constexpr bool is_separator(char c) { return c == ' ' || c == '\t'; }

/// Pops the next space- or tab-separated token off the front of `rest`;
/// empty once no token is left.
std::string_view next_token(std::string_view& rest) {
  const char* p = rest.data();
  const char* const end = p + rest.size();
  while (p != end && is_separator(*p)) ++p;
  const char* const start = p;
  while (p != end && !is_separator(*p)) ++p;
  rest = std::string_view(p, static_cast<std::size_t>(end - p));
  return std::string_view(start, static_cast<std::size_t>(p - start));
}

/// A query line after one tokenising pass: its first kKept tokens and the
/// count of all of them. A line is never stored, so a line of any length
/// tokenises without allocating.
struct Tokens {
  static constexpr std::size_t kKept = 4;
  std::string_view token[kKept];
  std::size_t count = 0;

  explicit Tokens(std::string_view line) {
    for (std::string_view t = next_token(line); !t.empty();
         t = next_token(line)) {
      if (count < kKept) token[count] = t;
      ++count;
    }
  }
};

/// Cuts `out` back to its size at construction unless `keep()` was called,
/// so a malformed line or an exception leaves the caller's `out` as it was.
class OutRollback {
 public:
  explicit OutRollback(std::string& out) : out_(out), size_(out.size()) {}
  OutRollback(const OutRollback&) = delete;
  OutRollback& operator=(const OutRollback&) = delete;
  ~OutRollback() {
    if (!kept_) out_.resize(size_);
  }
  void keep() { kept_ = true; }

 private:
  std::string& out_;
  std::size_t size_;
  bool kept_ = false;
};

std::optional<std::uint64_t> parse_u64(std::string_view token) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc{} || ptr != token.data() + token.size()) {
    return std::nullopt;
  }
  return value;
}

/// A finite number in from_chars' general (decimal) format, plus the one
/// leading '+' that format lacks. Hex, inf and nan spellings are refused.
std::optional<double> parse_coordinate(std::string_view token) {
  if (token.size() > 1 && token[0] == '+' && token[1] != '-') {
    token.remove_prefix(1);
  }
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value,
                      std::chars_format::general);
  if (ec != std::errc{} || ptr != token.data() + token.size() ||
      !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

/// A query key resolves to a target index, to "unknown" (valid syntax,
/// not in the snapshot), or to malformed.
enum class KeyStatus { kResolved, kUnknown, kMalformed };

KeyStatus resolve_key(const SnapshotView& view, std::string_view token,
                      std::uint32_t& target) {
  if (const std::optional<std::uint64_t> index = parse_u64(token)) {
    if (*index >= view.target_count()) return KeyStatus::kUnknown;
    target = static_cast<std::uint32_t>(*index);
    return KeyStatus::kResolved;
  }
  const auto address = ipaddr::IPv4Address::parse(token);
  if (!address) return KeyStatus::kMalformed;
  const std::optional<std::uint32_t> hit =
      view.target_of_address(address->slash24_index());
  if (!hit) return KeyStatus::kUnknown;
  target = *hit;
  return KeyStatus::kResolved;
}

/// printf formatting for the telemetry verbs, whose answers are not on the
/// query hot path.
void append_fmt(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void append_fmt(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out.append(buf, std::min<std::size_t>(n, sizeof(buf) - 1));
}

// The data verbs' answer lines are assembled by `append(out, parts...)`
// from text, unsigned integers (to_chars), fixed-precision doubles and
// city names, straight into `out`.

/// A double printed as "%.<precision>f".
struct Fixed {
  double value;
  int precision;
};

/// A replica's city as "<name>, <country>", or "-" when it has none.
struct CityName {
  const geo::City* city;
};

void put(std::string& out, std::string_view text) { out.append(text); }

void put(std::string& out, std::uint64_t value) {
  char buf[20];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

void put(std::string& out, Fixed value) {
  append_fixed(out, value.value, value.precision);
}

void put(std::string& out, CityName name) {
  if (name.city == nullptr) {
    out += '-';
    return;
  }
  out.append(name.city->name);
  out.append(", ");
  out.append(name.city->country);
}

template <typename... Parts>
void append(std::string& out, const Parts&... parts) {
  (put(out, parts), ...);
}

void answer_point(const SnapshotView& view, std::string_view key,
                  std::uint32_t target, std::string& out) {
  PointAnswer answer;
  const std::uint32_t one[1] = {target};
  view.lookup_batch(one, &answer);
  append(out, "point ", key, " target=", target, " anycast=", answer.anycast,
         " responsive=", answer.responsive, " vps=", answer.vp_count,
         " replicas=", answer.replica_count, "\n");
}

void answer_replicas(const SnapshotView& view, std::string_view key,
                     std::uint32_t target, std::string& out) {
  const std::span<const core::Replica> replicas = view.replicas(target);
  append(out, "replicas ", key, " target=", target, " count=",
         replicas.size(), "\n");
  for (const core::Replica& replica : replicas) {
    append(out, "  replica vp=", replica.vp_id, " city=\"",
           CityName{replica.city}, "\" lat=",
           Fixed{replica.location.latitude(), 4}, " lon=",
           Fixed{replica.location.longitude(), 4}, "\n");
  }
}

}  // namespace

void append_fixed(std::string& out, double value, int precision) {
  // The longest "%.17f" of a finite double: sign, 309 integer digits, the
  // point and 17 decimals.
  char buf[328];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value,
                                       std::chars_format::fixed, precision);
  if (ec == std::errc{}) out.append(buf, end);
}

bool answer_query(const QueryContext& context, std::string_view line,
                  std::string& out, std::string& error) {
  if (context.current == nullptr) {
    error = "no snapshot published";
    return false;
  }
  const SnapshotView& view = *context.current;
  QueryTimer timer;
  const Tokens tokens(line);
  const std::size_t arity = tokens.count;  // the verb included
  if (arity == 0) return true;  // caller filters blanks; be lenient
  const std::string_view verb = tokens.token[0];
  OutRollback rollback(out);

  const auto unknown = [&](std::string_view key) {
    query_instruments().unknown_keys.inc();
    append(out, verb, " ", key, " unknown\n");
  };
  const auto malformed = [&](const std::string& why) {
    query_instruments().errors.inc();
    obs::telemetry().note_query_error();
    error = why;
    return false;
  };

  if (verb == "point" || verb == "replicas") {
    timer.attribute(stage_histos().lookup);
    if (arity != 2) {
      return malformed("expected: " + std::string(verb) + " <target|a.b.c.d>");
    }
    const std::string_view key = tokens.token[1];
    std::uint32_t target = 0;
    switch (resolve_key(view, key, target)) {
      case KeyStatus::kMalformed:
        return malformed("bad target key '" + std::string(key) + "'");
      case KeyStatus::kUnknown:
        unknown(key);
        break;
      case KeyStatus::kResolved:
        if (verb == "point") {
          answer_point(view, key, target, out);
        } else {
          answer_replicas(view, key, target, out);
        }
        break;
    }
  } else if (verb == "batch") {
    timer.attribute(stage_histos().lookup);
    if (arity < 2) return malformed("expected: batch <key> <key> ...");
    // Keys resolve into a fixed buffer that is looked up and summed each
    // time it fills, so no batch length allocates here.
    constexpr std::size_t kChunk = 16;
    std::uint32_t targets[kChunk] = {};
    PointAnswer answers[kChunk];
    std::size_t pending = 0;
    std::size_t resolved = 0;
    std::size_t unknown_count = 0;
    std::size_t anycast = 0;
    std::size_t responsive = 0;
    std::size_t replicas = 0;
    const auto flush = [&] {
      view.lookup_batch({targets, pending}, answers);
      for (std::size_t i = 0; i < pending; ++i) {
        anycast += answers[i].anycast;
        responsive += answers[i].responsive;
        replicas += answers[i].replica_count;
      }
      resolved += pending;
      pending = 0;
    };
    // The tokenising pass only counted the keys; they are walked once,
    // from the end of the verb on.
    std::string_view rest =
        line.substr(verb.data() + verb.size() - line.data());
    for (std::string_view key = next_token(rest); !key.empty();
         key = next_token(rest)) {
      switch (resolve_key(view, key, targets[pending])) {
        case KeyStatus::kMalformed:
          return malformed("bad target key '" + std::string(key) + "'");
        case KeyStatus::kUnknown:
          ++unknown_count;
          break;
        case KeyStatus::kResolved:
          if (++pending == kChunk) flush();
          break;
      }
    }
    flush();
    if (unknown_count > 0) query_instruments().unknown_keys.add(unknown_count);
    append(out, "batch n=", resolved, " unknown=", unknown_count,
           " anycast=", anycast, " responsive=", responsive,
           " replicas=", replicas, "\n");
  } else if (verb == "nearest") {
    timer.attribute(stage_histos().nearest);
    if (arity != 4) {
      return malformed("expected: nearest <target|a.b.c.d> <lat> <lon>");
    }
    const std::string_view key = tokens.token[1];
    const std::optional<double> lat = parse_coordinate(tokens.token[2]);
    const std::optional<double> lon = parse_coordinate(tokens.token[3]);
    // Written so that a NaN fails it too.
    if (!lat || !lon || !(*lat >= -90.0 && *lat <= 90.0) ||
        !(*lon >= -180.0 && *lon <= 180.0)) {
      return malformed("bad coordinate");
    }
    std::uint32_t target = 0;
    switch (resolve_key(view, key, target)) {
      case KeyStatus::kMalformed:
        return malformed("bad target key '" + std::string(key) + "'");
      case KeyStatus::kUnknown:
        unknown(key);
        break;
      case KeyStatus::kResolved: {
        double km = 0.0;
        const core::Replica* hit =
            view.nearest_replica(target, *lat, *lon, &km);
        if (hit == nullptr) {
          append(out, "nearest ", key, " target=", target, " none\n");
        } else {
          append(out, "nearest ", key, " target=", target,
                 " vp=", hit->vp_id, " city=\"", CityName{hit->city},
                 "\" km=", Fixed{km, 1}, "\n");
        }
        break;
      }
    }
  } else if (verb == "diff") {
    timer.attribute(stage_histos().diff);
    if (arity != 1) return malformed("expected: diff");
    if (context.previous == nullptr) {
      return malformed("diff needs a previous snapshot (--against)");
    }
    const SnapshotDelta delta = view.changed_since(*context.previous);
    using Kind = analysis::PrefixChange::Kind;
    append_fmt(out,
               "diff dirty=%zu changes=%zu appeared=%zu disappeared=%zu "
               "grew=%zu shrank=%zu moved=%zu\n",
               delta.dirty.size(), delta.diff.changes.size(),
               delta.diff.count(Kind::kAppeared),
               delta.diff.count(Kind::kDisappeared),
               delta.diff.count(Kind::kGrew), delta.diff.count(Kind::kShrank),
               delta.diff.count(Kind::kMoved));
    for (const analysis::PrefixChange& change : delta.diff.changes) {
      append_fmt(out, "  %.*s slash24=%u before=%zu after=%zu\n",
                 static_cast<int>(analysis::to_string(change.kind).size()),
                 analysis::to_string(change.kind).data(),
                 change.slash24_index, change.replicas_before,
                 change.replicas_after);
    }
  } else if (verb == "stats") {
    if (arity != 1) return malformed("expected: stats");
    const obs::LatencyHisto::Snapshot snap = stage_histos().query.snapshot();
    // qps is the last per-second window (0 until a ticker has run — the
    // one-shot `serve` command has no ticker; watch --serve-queries does).
    const double qps = obs::telemetry().per_second().stats(0, 1).last;
    append_fmt(out,
               "stats snapshot=%llu targets=%zu anycast=%zu queries=%llu "
               "errors=%llu qps=%.1f p50_us=%.1f p99_us=%.1f p999_us=%.1f\n",
               static_cast<unsigned long long>(view.id()), view.target_count(),
               view.anycast_count(),
               static_cast<unsigned long long>(snap.count),
               static_cast<unsigned long long>(
                   obs::telemetry().query_errors()),
               qps, snap.quantile(0.5) / 1e3, snap.quantile(0.99) / 1e3,
               snap.quantile(0.999) / 1e3);
  } else if (verb == "slo") {
    if (arity != 1) return malformed("expected: slo");
    const std::vector<obs::SloTracker::State> states =
        obs::telemetry().slo_states();
    if (states.empty()) {
      out += "slo none\n";
    } else {
      append_fmt(out, "slo objectives=%zu\n", states.size());
      for (const obs::SloTracker::State& s : states) {
        append_fmt(out,
                   "  slo %s target=%.6g burn_short_permille=%llu "
                   "burn_long_permille=%llu windows=%llu violations=%llu "
                   "state=%s\n",
                   s.objective.name.c_str(), s.objective.threshold,
                   static_cast<unsigned long long>(s.burn_short_permille),
                   static_cast<unsigned long long>(s.burn_long_permille),
                   static_cast<unsigned long long>(s.windows),
                   static_cast<unsigned long long>(s.violations),
                   s.violating ? "violating" : "ok");
      }
    }
  } else if (verb == "metricsdump") {
    if (arity != 1) return malformed("expected: metricsdump");
    out += obs::telemetry().document_json();
  } else {
    return malformed("unknown verb '" + std::string(verb) + "'");
  }

  rollback.keep();
  query_instruments().queries.inc();
  return true;
}

QueryBatchResult answer_queries(const QueryContext& context,
                                std::string_view text, std::string& out) {
  QueryBatchResult result;
  // Answers go straight into `out`, which is cut back to its entry size
  // unless every line is answered: a malformed line anywhere (or an
  // exception) suppresses ALL output, so a half-answered request file
  // cannot pass for a full one.
  OutRollback rollback(out);
  std::string error;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::size_t end = eol == std::string_view::npos ? text.size() : eol;
    std::string_view line = text.substr(pos, end - pos);
    ++line_no;
    if (!line.empty() && line.back() == '\r') {
      line = line.substr(0, line.size() - 1);
    }
    const bool skip = line.empty() || line[0] == '#';
    if (!skip && !answer_query(context, line, out, error)) {
      result.error = error;
      result.error_line = line_no;
      return result;
    }
    if (!skip) ++result.answered;
    if (eol == std::string_view::npos) break;
    pos = eol + 1;
  }
  rollback.keep();
  return result;
}

}  // namespace anycast::serving
