#include "anycast/daemon/watch.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <climits>
#include <fstream>
#include <iterator>
#include <map>
#include <string>

#include "anycast/analysis/incremental.hpp"
#include "anycast/census/resume.hpp"
#include "anycast/census/storage.hpp"
#include "anycast/obs/durable.hpp"
#include "anycast/obs/journal.hpp"
#include "anycast/obs/latency.hpp"
#include "anycast/obs/telemetry.hpp"
#include "anycast/rng/distributions.hpp"
#include "anycast/serving/snapshot.hpp"
#include "anycast/serving/store.hpp"

namespace anycast::daemon {
namespace {

constexpr std::uint64_t kRoundSeedTag = 0xFA;

std::filesystem::path state_path(const std::filesystem::path& dir) {
  return dir / "watch.state";
}

int coverage_permille(double coverage) {
  return static_cast<int>(coverage * 1000.0 + 0.5);
}

/// `values`, separated by single spaces.
template <typename Values>
std::string join(const Values& values) {
  std::string out;
  for (const auto value : values) {
    out += (out.empty() ? "" : " ") + std::to_string(value);
  }
  return out;
}

/// The space-separated unsigned integers of `text`, each parsed whole
/// with std::from_chars and at most `max`; nullopt on anything else.
std::optional<std::vector<std::uint64_t>> parse_numbers(
    std::optional<std::string_view> text, std::uint64_t max) {
  if (!text.has_value()) return std::nullopt;
  std::vector<std::uint64_t> out;
  for (const char *at = text->data(), *end = at + text->size(); at != end;) {
    if (!out.empty() && *at++ != ' ') return std::nullopt;
    std::uint64_t value = 0;
    const auto [next, ec] = std::from_chars(at, end, value);
    if (ec != std::errc() || value > max) return std::nullopt;
    out.push_back(value);
    at = next;
  }
  return out;
}

}  // namespace

std::string encode_watch_state(const WatchState& state) {
  census::CensusManifest fields{{"rounds",
                                 std::to_string(state.verdicts.size())}};
  for (const RoundVerdict& v : state.verdicts) {
    const std::string round = std::to_string(v.round);
    fields["verdict" + round] =
        std::string(to_string(v.health)) + ' ' +
        join(std::array<std::uint64_t, 5>{
            static_cast<std::uint64_t>(coverage_permille(v.coverage)),
            v.completed, v.active, v.configured,
            static_cast<std::uint64_t>(v.escalation)});
    fields["quarantined" + round] = join(state.quarantined.at(v.round - 1));
  }
  std::vector<std::uint32_t> blacklist;
  for (const auto& [slash24, kind] : state.blacklist) {
    blacklist.insert(blacklist.end(),
                     {slash24, static_cast<std::uint32_t>(kind)});
  }
  fields["blacklist"] = join(blacklist);
  return census::encode_census_manifest(fields);
}

std::optional<WatchState> decode_watch_state(std::string_view text,
                                             std::string* error) {
  const auto fields = census::decode_census_manifest(text, error);
  if (!fields.has_value()) return std::nullopt;
  const auto value =
      [&](const std::string& key) -> std::optional<std::string_view> {
    const auto it = fields->find(key);
    if (it == fields->end()) return std::nullopt;
    return it->second;
  };
  const auto fail = [&](const std::string& what) {
    *error = "missing or bad " + what;
    return std::nullopt;
  };
  const auto rounds = parse_numbers(value("rounds"), INT_MAX);
  if (!rounds.has_value() || rounds->size() != 1 ||
      fields->size() != 2 + 2 * rounds->front()) {
    return fail("rounds");
  }
  WatchState state;
  for (int round = 1; round <= static_cast<int>(rounds->front()); ++round) {
    const std::string r = std::to_string(round);
    const std::string_view verdict = value("verdict" + r).value_or("");
    const std::string_view health = verdict.substr(0, verdict.find(' '));
    const auto counts = parse_numbers(
        verdict.substr(std::min(verdict.size(), health.size() + 1)), INT_MAX);
    const auto quarantined = parse_numbers(value("quarantined" + r), UINT32_MAX);
    if ((health != "healthy" && health != "degraded") || !counts ||
        counts->size() != 5 || (*counts)[0] > 1000 ||
        (*counts)[1] > (*counts)[2] || (*counts)[2] > (*counts)[3] ||
        !quarantined) {
      return fail("round " + r);
    }
    state.verdicts.push_back(
        {.round = round,
         .health = health == "healthy" ? RoundHealth::kHealthy
                                       : RoundHealth::kDegraded,
         .coverage = static_cast<double>((*counts)[0]) / 1000.0,
         .completed = (*counts)[1],
         .active = (*counts)[2],
         .configured = (*counts)[3],
         .escalation = static_cast<int>((*counts)[4])});
    state.quarantined.emplace_back(quarantined->begin(), quarantined->end());
  }
  const auto blacklist = parse_numbers(value("blacklist"), UINT32_MAX);
  for (std::size_t i = 0; blacklist && i + 1 < blacklist->size(); i += 2) {
    // Clamped into int first: ReplyKind's underlying type.
    const auto kind = static_cast<net::ReplyKind>(
        std::min<std::uint64_t>((*blacklist)[i + 1], INT_MAX));
    if (!net::is_prohibited(kind)) return fail("blacklist");
    state.blacklist.emplace_back((*blacklist)[i], kind);
  }
  if (!blacklist || blacklist->size() % 2 != 0) return fail("blacklist");
  return state;
}

WatchDaemon::WatchDaemon(net::SimulatedInternet& internet,
                         std::span<const net::VantagePoint> vps,
                         const geo::CityIndex& cities,
                         const census::Hitlist& hitlist, WatchConfig config)
    : internet_(internet),
      vps_(vps),
      cities_(cities),
      hitlist_(hitlist),
      config_(std::move(config)),
      analyzer_(vps, cities),
      monitor_(vps, cities),
      supervisor_(config_.supervisor) {}

std::optional<net::FaultPlan> WatchDaemon::plan_for_round(int round) const {
  if (!config_.chaos_enabled) return std::nullopt;
  net::FaultSpec spec = config_.chaos;
  // Re-seed per round so the weather moves while staying replayable: a
  // restarted daemon derives the identical plan for the round it resumes.
  spec.seed = rng::hash_key(config_.chaos.seed,
                            static_cast<std::uint64_t>(round), kRoundSeedTag);
  if (round < config_.hijack_from_round) {
    // Staged: the attack starts later, so earlier healthy rounds can
    // establish the unicast reference the monitor alarms against.
    spec.hijack_targets.clear();
    spec.hijack_vp_fraction = 0.0;
  }
  return net::FaultPlan(spec);
}

void WatchDaemon::apply_churn(int round) {
  if (!config_.churn) return;
  // Apply every round's toggle exactly once, in round order. The toggles
  // are pure functions of (churn_seed, round), so a restarted daemon
  // replays rounds 2..k and lands on the same world the killed process
  // probed.
  for (; churn_applied_ < round; ++churn_applied_) {
    const int r = churn_applied_ + 1;
    const auto draw = [&](std::uint64_t tag) {
      return rng::hash_uniform01(rng::hash_key(
          config_.churn_seed, static_cast<std::uint64_t>(r), tag));
    };
    const auto deployments = internet_.deployments();
    if (deployments.empty()) return;
    // Pick a deployment with at least two sites (so a toggle moves a
    // replica instead of flattening a singleton), scanning forward from a
    // seeded start.
    const std::size_t start =
        static_cast<std::size_t>(draw(1) * static_cast<double>(
                                               deployments.size()));
    std::size_t dep = deployments.size();
    for (std::size_t i = 0; i < deployments.size(); ++i) {
      const std::size_t candidate = (start + i) % deployments.size();
      if (deployments[candidate].sites.size() >= 2 &&
          !deployments[candidate].prefix_site_masks.empty()) {
        dep = candidate;
        break;
      }
    }
    if (dep == deployments.size()) return;
    const std::size_t prefixes = deployments[dep].prefix_site_masks.size();
    const std::size_t prefix =
        static_cast<std::size_t>(draw(2) * static_cast<double>(prefixes));
    const std::size_t sites = deployments[dep].sites.size();
    const std::size_t site =
        static_cast<std::size_t>(draw(3) * static_cast<double>(sites));
    const std::uint64_t before =
        deployments[dep].prefix_site_masks[prefix];
    const std::uint64_t after = before ^ (std::uint64_t{1} << site);
    internet_.set_prefix_site_mask(dep, prefix, after);
    obs::Journal& j = obs::journal();
    if (j.recording()) {
      j.emit(obs::MetricClass::kSemantic, obs::Severity::kInfo,
             "watch.world", j.next_order(),
             {{"round", r},
              {"deployment", dep},
              {"prefix", prefix},
              {"site", site},
              {"mask_before", before},
              {"mask_after", after}});
    }
  }
}

std::shared_ptr<const census::ShardedCensusMatrix> WatchDaemon::collate_round(
    int round, concurrency::ThreadPool* pool, std::string* error) const {
  // A committed round's matrix is exactly the collation of its checkpoint
  // files minus the quarantined VPs' — the same reduction
  // resume_census_sharded performed when the round ran, so no re-probing
  // (and no fault-plan or blacklist-history replay) is needed to
  // reconstruct it.
  const auto paths = census::list_census_checkpoints(
      config_.out_dir, static_cast<std::uint32_t>(round), vps_,
      quarantined_[static_cast<std::size_t>(round) - 1], error);
  if (!paths.has_value()) {
    *error = "refusing " + *error;
    return nullptr;
  }
  census::CollateStats stats;
  return std::make_shared<const census::ShardedCensusMatrix>(
      census::collate_census_files_sharded(*paths, hitlist_.size(),
                                           config_.data_plane, &stats,
                                           /*salvage=*/true, pool));
}

bool WatchDaemon::save_state(std::string* error) const {
  // Rendered whole, then written durably (obs::write_file_atomic): a crash
  // leaves the previous state or this one, never a torn file load_state
  // rejects.
  const auto path = state_path(config_.out_dir);
  if (const std::error_code ec = obs::write_file_atomic(
          path, encode_watch_state(
                    {verdicts_, quarantined_, blacklist_.entries()}))) {
    *error = "cannot write " + path.string() + ": " + ec.message();
    return false;
  }
  return true;
}

bool WatchDaemon::load_state(WatchState* state, std::string* error) const {
  const auto path = state_path(config_.out_dir);
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return true;  // fresh campaign
  std::string why;
  auto decoded = decode_watch_state(
      std::string(std::istreambuf_iterator<char>(in), {}), &why);
  if (!decoded.has_value()) {
    *error = path.string() + ": " + why;
    return false;
  }
  *state = std::move(*decoded);
  return true;
}

void WatchDaemon::prune_checkpoints() const {
  // Keep only the rounds the daemon can still need: the incremental-
  // analysis predecessor, the drift baseline, and the hijack reference.
  // Everything older is dead weight a continuous daemon must not hoard.
  for (int round = 1; round < prev_round_; ++round) {
    if (round == baseline_round_ || round == reference_round_) continue;
    for (const net::VantagePoint& vp : vps_) {
      std::error_code ec;
      std::filesystem::remove(
          census::census_checkpoint_path(
              config_.out_dir, static_cast<std::uint32_t>(round), vp.id),
          ec);
    }
  }
}

WatchResult WatchDaemon::run(concurrency::ThreadPool* pool) {
  WatchResult result;
  std::error_code ec;
  std::filesystem::create_directories(config_.out_dir, ec);

  WatchState state;
  if (!load_state(&state, &result.error)) {
    result.exit_code = 1;
    return result;
  }

  // Adopt the persisted campaign: blacklist, escalation ladder (verdict
  // replay), and the longitudinal anchors (previous round, drift
  // baseline, hijack reference) re-collated from kept checkpoints.
  verdicts_ = std::move(state.verdicts);
  quarantined_ = std::move(state.quarantined);
  for (const auto& [slash24, kind] : state.blacklist) {
    blacklist_.add(slash24, kind);
  }
  for (const RoundVerdict& v : verdicts_) {
    supervisor_.observe(v);
    if (v.health == RoundHealth::kHealthy) {
      if (reference_round_ == 0) reference_round_ = v.round;
      baseline_round_ = v.round;
    }
  }
  // Each anchor round is re-collated once, however many roles it plays.
  prev_round_ = static_cast<int>(verdicts_.size());
  std::map<int, std::shared_ptr<const census::ShardedCensusMatrix>> kept;
  for (const int round : {prev_round_, baseline_round_, reference_round_}) {
    if (round == 0 || kept.contains(round)) continue;
    kept[round] = collate_round(round, pool, &result.error);
    if (kept[round] == nullptr) {
      result.exit_code = 1;
      return result;
    }
  }
  if (prev_round_ > 0) {
    prev_matrix_ = kept[prev_round_];
    prev_outcomes_ =
        analyzer_.analyze(*prev_matrix_, hitlist_, config_.min_vps, pool);
  }
  if (baseline_round_ > 0) {
    baseline_matrix_ = kept[baseline_round_];
    baseline_snapshot_ = analysis::CensusSnapshot(
        baseline_round_ == prev_round_
            ? prev_outcomes_
            : analyzer_.analyze(*baseline_matrix_, hitlist_, config_.min_vps,
                                pool));
  }
  if (reference_round_ > 0) {
    monitor_.set_reference(*kept[reference_round_], hitlist_, config_.min_vps);
  }
  result.rounds_completed = prev_round_;

  obs::Journal& j = obs::journal();
  // Install (or clear) the campaign's SLO objectives. Burn windows are
  // process-local: a resumed campaign restarts them, exactly like the
  // escalation ladder replay restores supervisor state but not wall time.
  obs::telemetry().set_slo(config_.slo);
  for (int round = prev_round_ + 1; round <= config_.rounds;
       ++round) {
    const auto round_start = std::chrono::steady_clock::now();
    const census::FastPingConfig cfg = supervisor_.tuned(config_.fastping);
    const auto plan = plan_for_round(round);
    const net::FaultPlan* faults = plan ? &*plan : nullptr;
    apply_churn(round);

    if (round == config_.die_at_round) {
      // Watchdog abort drill: probe and checkpoint half the platform
      // through the census pass's own checkpointed-walk step, then die
      // without committing — the deterministic stand-in for kill -9
      // mid-round. The restart's resume_census_sharded inherits these
      // checkpoints verbatim.
      std::size_t checkpointed = 0;
      const census::ResolvedHitlist resolved =
          census::resolve_targets(internet_, hitlist_, blacklist_);
      for (std::size_t i = 0; i < vps_.size() / 2; ++i) {
        if (!census::vp_available(vps_[i], cfg)) continue;
        census::Greylist scratch;
        (void)census::checkpointed_walk(internet_, vps_[i], hitlist_, resolved,
                                        scratch, cfg, faults,
                                        config_.out_dir,
                                        static_cast<std::uint32_t>(round));
        ++checkpointed;
      }
      if (j.recording()) {
        j.emit(obs::MetricClass::kSemantic, obs::Severity::kWarn,
               "watch.abort", j.next_order(),
               {{"round", round}, {"vps_checkpointed", checkpointed}});
        j.commit();
      }
      result.exit_code = kAbortedExitCode;
      return result;
    }

    auto report = census::resume_census_sharded(
        internet_, vps_, hitlist_, blacklist_, cfg, config_.out_dir,
        static_cast<std::uint32_t>(round), config_.data_plane, faults, pool);
    const RoundVerdict verdict =
        supervisor_.assess(round, report.output.summary);

    RoundRecord record;
    record.verdict = verdict;
    record.vps_reused = report.vps_reused;
    record.vps_rerun = report.vps_rerun;
    record.resumed = report.vps_reused > 0;

    std::vector<analysis::TargetOutcome> outcomes;
    std::vector<std::uint32_t> dirty;
    const bool full = prev_round_ == 0;
    if (full) {
      outcomes = analyzer_.analyze(report.output.data, hitlist_,
                                   config_.min_vps, pool);
    } else {
      auto incremental = analysis::incremental_analyze(
          analyzer_, prev_outcomes_, *prev_matrix_, report.output.data,
          hitlist_, config_.min_vps, pool);
      outcomes = std::move(incremental.outcomes);
      dirty = std::move(incremental.dirty);
    }
    record.dirty = dirty.size();
    record.anycast = outcomes.size();

    // Longitudinal events come only from healthy rounds: a half-dark
    // platform "loses" replicas that are artifacts of the darkness, and
    // feeding those into churn events or hijack alarms would be exactly
    // the baseline poisoning the supervisor exists to prevent.
    std::vector<analysis::PrefixChange> changes;
    std::vector<analysis::HijackAlarm> alarms;
    if (verdict.health == RoundHealth::kHealthy) {
      if (baseline_round_ > 0) {
        const analysis::CensusSnapshot now(outcomes);
        changes = analysis::diff_censuses(baseline_snapshot_, now,
                                          config_.min_replica_delta)
                      .changes;
      }
      if (reference_round_ > 0) {
        if (baseline_round_ == prev_round_ && !full) {
          // Common case: the previous round is the baseline, so the
          // incremental dirty set already is the changed-vs-baseline set.
          alarms = monitor_.scan_targets(report.output.data, hitlist_, dirty,
                                         config_.min_vps);
        } else if (baseline_round_ > 0) {
          // Degraded rounds sat between this round and the baseline: diff
          // against the baseline matrix so transitions that happened
          // while degraded are not missed.
          const auto changed =
              analysis::dirty_rows(*baseline_matrix_, report.output.data, pool);
          alarms = monitor_.scan_targets(report.output.data, hitlist_,
                                         changed, config_.min_vps);
        }
      }
    }
    record.churn_events = changes.size();
    record.hijack_alarms = alarms.size();

    // Round telemetry: wall-clock latency plus the per-round window — all
    // kTiming, real operational data outside the semantic contract. The
    // availability SLO, by contrast, is fed from the verdict's semantic
    // counts, so its transitions below are drift-gated journal events.
    const double round_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - round_start)
            .count();
    obs::LatencyHisto::get("watch_round_ms", "ms",
                           "wall-clock per-round watch campaign latency")
        .record(static_cast<std::uint64_t>(round_ms));
    const census::CensusSummary& summary = report.output.summary;
    const double echo_rate =
        summary.probes_sent > 0
            ? static_cast<double>(summary.echo_replies) /
                  static_cast<double>(summary.probes_sent)
            : 0.0;
    obs::telemetry().note_round(
        static_cast<std::uint64_t>(round), verdict.coverage,
        static_cast<double>(verdict.completed),
        static_cast<double>(verdict.active),
        static_cast<double>(summary.probes_sent), echo_rate,
        static_cast<double>(record.dirty),
        static_cast<double>(record.anycast), round_ms);
    std::optional<obs::SloTracker::Transition> slo_transition;
    if (obs::telemetry().has_slo()) {
      slo_transition = obs::telemetry().observe_slo_ratio(
          "availability", static_cast<std::uint64_t>(round),
          verdict.completed, verdict.active - verdict.completed);
    }

    if (j.recording()) {
      j.emit(obs::MetricClass::kSemantic,
             verdict.health == RoundHealth::kDegraded ? obs::Severity::kWarn
                                                      : obs::Severity::kInfo,
             "watch.round", j.next_order(),
             {{"round", round},
              {"health", to_string(verdict.health)},
              {"coverage_permille", coverage_permille(verdict.coverage)},
              {"completed", verdict.completed},
              {"active", verdict.active},
              {"configured", verdict.configured},
              {"escalation", verdict.escalation},
              {"reused", record.vps_reused},
              {"rerun", record.vps_rerun},
              {"full", full},
              {"dirty", record.dirty},
              {"anycast", record.anycast}});
      for (const analysis::PrefixChange& change : changes) {
        j.emit(obs::MetricClass::kSemantic, obs::Severity::kInfo,
               "watch.churn", j.next_order(),
               {{"slash24", change.slash24_index},
                {"kind", to_string(change.kind)},
                {"before", change.replicas_before},
                {"after", change.replicas_after}});
      }
      for (const analysis::HijackAlarm& alarm : alarms) {
        j.emit(obs::MetricClass::kSemantic, obs::Severity::kWarn,
               "watch.hijack", j.next_order(),
               {{"slash24", alarm.slash24_index},
                {"target", alarm.target_index},
                {"origins", alarm.result.replicas.size()}});
      }
      if (slo_transition.has_value()) {
        // Availability burn windows are pure functions of the verdict
        // sequence, so this event is kSemantic: byte-identical across
        // thread counts, exactly like watch.round itself.
        j.emit(obs::MetricClass::kSemantic,
               slo_transition->entered ? obs::Severity::kWarn
                                       : obs::Severity::kInfo,
               slo_transition->entered ? "slo.violation" : "slo.recovered",
               j.next_order(),
               {{"objective", slo_transition->objective},
                {"round", round},
                {"burn_short_permille", slo_transition->burn_short_permille},
                {"burn_long_permille", slo_transition->burn_long_permille}});
      }
      j.commit();  // one deterministic batch per round
    }

    supervisor_.observe(verdict);
    verdicts_.push_back(verdict);
    std::vector<std::uint32_t> quarantined;
    for (const census::VpStatus& status : report.output.summary.vp_outcomes) {
      if (status.outcome == census::VpOutcome::kQuarantined) {
        quarantined.push_back(status.vp_id);
      }
    }
    quarantined_.push_back(std::move(quarantined));

    prev_round_ = round;
    prev_matrix_ = std::make_shared<const census::ShardedCensusMatrix>(
        std::move(report.output.data));
    prev_outcomes_ = std::move(outcomes);
    if (config_.serve_store != nullptr) {
      // Publish this round's frozen state. The matrix is immutable and
      // shared, so the snapshot and the daemon hold one resident copy;
      // in-flight readers keep answering from old epochs while the daemon
      // moves its own round-to-round pointers on.
      config_.serve_store->publish(serving::SnapshotView::build(
          prev_matrix_, prev_outcomes_, static_cast<std::uint64_t>(round),
          &hitlist_));
    }
    if (verdict.health == RoundHealth::kHealthy) {
      baseline_round_ = round;
      baseline_matrix_ = prev_matrix_;  // shares, never copies
      baseline_snapshot_ = analysis::CensusSnapshot(prev_outcomes_);
      if (reference_round_ == 0) {
        reference_round_ = round;
        monitor_.set_reference(*prev_matrix_, hitlist_, config_.min_vps);
      }
    }

    if (!save_state(&result.error)) {
      result.exit_code = 1;
      return result;
    }
    prune_checkpoints();
    result.rounds.push_back(record);
    result.rounds_completed = round;
  }
  return result;
}

}  // namespace anycast::daemon
