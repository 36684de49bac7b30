#include "anycast/daemon/watch.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
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

constexpr std::string_view kStateMagic = "anycastd-watch v1";
constexpr std::uint64_t kRoundSeedTag = 0xFA;

std::filesystem::path state_path(const std::filesystem::path& dir) {
  return dir / "watch.state";
}

int coverage_permille(double coverage) {
  return static_cast<int>(coverage * 1000.0 + 0.5);
}

}  // namespace

struct WatchDaemon::PersistedState {
  int rounds_completed = 0;
  std::vector<RoundVerdict> verdicts;
  std::vector<std::vector<std::uint32_t>> quarantined;  // [round - 1]
  std::vector<std::pair<std::uint32_t, int>> blacklist;
};

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

census::ShardedCensusMatrix WatchDaemon::collate_round(
    int round, std::span<const std::uint32_t> quarantined,
    concurrency::ThreadPool* pool) const {
  // A committed round's matrix is exactly the collation of its checkpoint
  // files minus the quarantined VPs' — the same reduction
  // resume_census_sharded performed when the round ran, so no re-probing
  // (and no fault-plan or blacklist-history replay) is needed to
  // reconstruct it.
  std::vector<std::filesystem::path> paths;
  paths.reserve(vps_.size());
  for (const net::VantagePoint& vp : vps_) {
    if (std::find(quarantined.begin(), quarantined.end(), vp.id) !=
        quarantined.end()) {
      continue;
    }
    auto path = census::census_checkpoint_path(
        config_.out_dir, static_cast<std::uint32_t>(round), vp.id);
    std::error_code ec;
    if (std::filesystem::exists(path, ec)) paths.push_back(std::move(path));
  }
  census::CollateStats stats;
  return census::collate_census_files_sharded(paths, hitlist_.size(),
                                              config_.data_plane, &stats,
                                              /*salvage=*/true, pool);
}

bool WatchDaemon::save_state(std::string* error) const {
  // Rendered whole, then written durably (obs::write_file_atomic): a crash
  // leaves the previous state or this one, never a torn file load_state
  // rejects.
  const auto field = [](auto value) { return " " + std::to_string(value); };
  std::string body = std::string(kStateMagic) + "\n";
  body += "rounds_completed" + field(verdicts_.size()) + "\n";
  for (const RoundVerdict& v : verdicts_) {
    body += "verdict" + field(v.round) + " " +
            std::string(to_string(v.health)) +
            field(coverage_permille(v.coverage)) + field(v.completed) +
            field(v.active) + field(v.configured) + field(v.escalation) +
            "\n";
  }
  for (std::size_t i = 0; i < quarantined_.size(); ++i) {
    for (const std::uint32_t vp : quarantined_[i]) {
      body += "quarantined" + field(i + 1) + field(vp) + "\n";
    }
  }
  for (const auto& [slash24, kind] : blacklist_.entries()) {
    body += "blacklist" + field(slash24) + field(static_cast<int>(kind)) +
            "\n";
  }
  body += "end\n";
  const auto path = state_path(config_.out_dir);
  if (const std::error_code ec = obs::write_file_atomic(path, body)) {
    *error = "cannot write " + path.string() + ": " + ec.message();
    return false;
  }
  return true;
}

bool WatchDaemon::load_state(PersistedState* state,
                             std::string* error) const {
  const auto path = state_path(config_.out_dir);
  std::FILE* f = std::fopen(path.string().c_str(), "rb");
  if (f == nullptr) return true;  // fresh campaign
  char line[256];
  bool saw_magic = false, saw_end = false;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    const std::size_t len = std::strlen(line);
    if (len > 0 && line[len - 1] == '\n') line[len - 1] = '\0';
    if (!saw_magic) {
      if (kStateMagic != line) {
        *error = path.string() + ": not a watch state file";
        std::fclose(f);
        return false;
      }
      saw_magic = true;
      continue;
    }
    int round = 0, permille = 0, escalation = 0, kind = 0;
    std::size_t completed = 0, active = 0, configured = 0, qround = 0;
    std::uint32_t vp = 0, slash24 = 0;
    char health[16] = {};
    if (std::sscanf(line, "rounds_completed %d", &round) == 1) {
      state->rounds_completed = round;
    } else if (std::sscanf(line, "verdict %d %15s %d %zu %zu %zu %d", &round,
                           health, &permille, &completed, &active,
                           &configured, &escalation) == 7) {
      RoundVerdict v;
      v.round = round;
      v.health = std::string_view(health) == "degraded"
                     ? RoundHealth::kDegraded
                     : RoundHealth::kHealthy;
      v.coverage = static_cast<double>(permille) / 1000.0;
      v.completed = completed;
      v.active = active;
      v.configured = configured;
      v.escalation = escalation;
      state->verdicts.push_back(v);
      state->quarantined.resize(state->verdicts.size());
    } else if (std::sscanf(line, "quarantined %zu %" SCNu32, &qround, &vp) ==
               2) {
      if (qround == 0 || qround > state->quarantined.size()) {
        *error = path.string() + ": quarantine entry for unknown round";
        std::fclose(f);
        return false;
      }
      state->quarantined[qround - 1].push_back(vp);
    } else if (std::sscanf(line, "blacklist %" SCNu32 " %d", &slash24,
                           &kind) == 2) {
      state->blacklist.emplace_back(slash24, kind);
    } else if (std::string_view(line) == "end") {
      saw_end = true;
      break;
    } else {
      *error = path.string() + ": unrecognised line: " + line;
      std::fclose(f);
      return false;
    }
  }
  std::fclose(f);
  if (!saw_end) {
    *error = path.string() + ": truncated (missing end marker)";
    return false;
  }
  if (state->rounds_completed !=
      static_cast<int>(state->verdicts.size())) {
    *error = path.string() + ": verdict count disagrees with rounds_completed";
    return false;
  }
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

  PersistedState state;
  if (!load_state(&state, &result.error)) {
    result.exit_code = 1;
    return result;
  }

  // Adopt the persisted campaign: blacklist, escalation ladder (verdict
  // replay), and the longitudinal anchors (previous round, drift
  // baseline, hijack reference) re-collated from kept checkpoints.
  verdicts_ = state.verdicts;
  quarantined_ = state.quarantined;
  for (const auto& [slash24, kind] : state.blacklist) {
    blacklist_.add(slash24, static_cast<net::ReplyKind>(kind));
  }
  for (const RoundVerdict& v : verdicts_) {
    supervisor_.observe(v);
    if (v.health == RoundHealth::kHealthy) {
      if (reference_round_ == 0) reference_round_ = v.round;
      baseline_round_ = v.round;
    }
  }
  prev_round_ = state.rounds_completed;
  if (prev_round_ > 0) {
    prev_matrix_ = std::make_shared<const census::ShardedCensusMatrix>(
        collate_round(prev_round_, quarantined_[prev_round_ - 1], pool));
    prev_outcomes_ =
        analyzer_.analyze(*prev_matrix_, hitlist_, config_.min_vps, pool);
  }
  if (baseline_round_ > 0) {
    if (baseline_round_ == prev_round_) {
      baseline_matrix_ = prev_matrix_;
      baseline_snapshot_ = analysis::CensusSnapshot(prev_outcomes_);
    } else {
      baseline_matrix_ = std::make_shared<const census::ShardedCensusMatrix>(
          collate_round(baseline_round_, quarantined_[baseline_round_ - 1],
                        pool));
      const auto outcomes = analyzer_.analyze(*baseline_matrix_, hitlist_,
                                              config_.min_vps, pool);
      baseline_snapshot_ = analysis::CensusSnapshot(outcomes);
    }
  }
  if (reference_round_ > 0) {
    if (reference_round_ == prev_round_) {
      monitor_.set_reference(*prev_matrix_, hitlist_, config_.min_vps);
    } else if (reference_round_ == baseline_round_) {
      monitor_.set_reference(*baseline_matrix_, hitlist_, config_.min_vps);
    } else {
      const auto reference = collate_round(
          reference_round_, quarantined_[reference_round_ - 1], pool);
      monitor_.set_reference(reference, hitlist_, config_.min_vps);
    }
  }
  result.rounds_completed = state.rounds_completed;

  obs::Journal& j = obs::journal();
  // Install (or clear) the campaign's SLO objectives. Burn windows are
  // process-local: a resumed campaign restarts them, exactly like the
  // escalation ladder replay restores supervisor state but not wall time.
  obs::telemetry().set_slo(config_.slo);
  for (int round = state.rounds_completed + 1; round <= config_.rounds;
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
