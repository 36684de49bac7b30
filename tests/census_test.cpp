#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <initializer_list>
#include <random>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>

#include "anycast/census/census.hpp"
#include "anycast/census/fastping.hpp"
#include "anycast/census/greylist.hpp"
#include "anycast/census/hitlist.hpp"
#include "anycast/census/record.hpp"
#include "anycast/census/sharded.hpp"
#include "anycast/net/fault.hpp"
#include "anycast/net/platform.hpp"
#include "legacy_census.hpp"

namespace anycast::census {
namespace {

net::WorldConfig tiny_world_config() {
  net::WorldConfig config;
  config.seed = 21;
  config.unicast_alive_slash24 = 400;
  config.unicast_dead_slash24 = 300;
  return config;
}

const net::SimulatedInternet& tiny_world() {
  static const net::SimulatedInternet world(tiny_world_config());
  return world;
}

// --- Hitlist ---------------------------------------------------------------

TEST(Hitlist, FromWorldCoversEveryRoutedSlash24) {
  const Hitlist hitlist = Hitlist::from_world(tiny_world());
  EXPECT_EQ(hitlist.size(), tiny_world().targets().size());
  std::set<std::uint32_t> seen;
  for (const HitlistEntry& entry : hitlist.entries()) {
    EXPECT_TRUE(seen.insert(entry.representative.slash24_index()).second);
  }
}

TEST(Hitlist, WithoutDeadDropsExactlyTheDeadSpace) {
  const Hitlist full = Hitlist::from_world(tiny_world());
  const Hitlist live = full.without_dead();
  std::size_t dead = 0;
  for (const net::TargetInfo& info : tiny_world().targets()) {
    if (info.kind == net::TargetInfo::Kind::kDead) ++dead;
  }
  EXPECT_EQ(live.size(), full.size() - dead);
  for (const HitlistEntry& entry : live.entries()) {
    EXPECT_GT(entry.score, -2);
  }
}

// --- Greylist ----------------------------------------------------------------

TEST(Greylist, AddAndContains) {
  Greylist list;
  EXPECT_TRUE(list.add(100, net::ReplyKind::kAdminProhibited));
  EXPECT_FALSE(list.add(100, net::ReplyKind::kAdminProhibited));
  EXPECT_TRUE(list.contains(100));
  EXPECT_FALSE(list.contains(101));
  EXPECT_EQ(list.size(), 1u);
  EXPECT_EQ(list.admin_filtered_count(), 1u);
}

TEST(Greylist, CodeBreakdownCounters) {
  Greylist list;
  list.add(1, net::ReplyKind::kAdminProhibited);
  list.add(2, net::ReplyKind::kHostProhibited);
  list.add(3, net::ReplyKind::kNetProhibited);
  EXPECT_EQ(list.admin_filtered_count(), 1u);
  EXPECT_EQ(list.host_prohibited_count(), 1u);
  EXPECT_EQ(list.net_prohibited_count(), 1u);
}

TEST(Greylist, MergeUnions) {
  Greylist a;
  Greylist b;
  a.add(1, net::ReplyKind::kAdminProhibited);
  b.add(2, net::ReplyKind::kHostProhibited);
  b.add(1, net::ReplyKind::kAdminProhibited);
  a.merge(b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_TRUE(a.contains(1));
  EXPECT_TRUE(a.contains(2));
}

TEST(Greylist, MergeCountsOnlyNewMembers) {
  Greylist blacklist;
  blacklist.add(1, net::ReplyKind::kAdminProhibited);

  Greylist census1;
  census1.add(1, net::ReplyKind::kAdminProhibited);  // already blacklisted
  census1.add(2, net::ReplyKind::kHostProhibited);

  // Merging the same overlapping greylist repeatedly must not inflate the
  // per-code breakdown: counters follow membership, not merge calls.
  blacklist.merge(census1);
  blacklist.merge(census1);
  blacklist.merge(census1);
  EXPECT_EQ(blacklist.size(), 2u);
  EXPECT_EQ(blacklist.admin_filtered_count(), 1u);
  EXPECT_EQ(blacklist.host_prohibited_count(), 1u);
  EXPECT_EQ(blacklist.net_prohibited_count(), 0u);

  const std::uint64_t total = blacklist.admin_filtered_count() +
                              blacklist.host_prohibited_count() +
                              blacklist.net_prohibited_count();
  EXPECT_EQ(total, blacklist.size());
}

// --- Record formats -----------------------------------------------------------

std::vector<Observation> sample_observations() {
  return {
      {0, 0.5, net::ReplyKind::kEchoReply, 12.34},
      {12345, 100.0, net::ReplyKind::kTimeout, 0.0},
      {999999, 3000.0, net::ReplyKind::kAdminProhibited, 0.0},
      {7, 9000.0, net::ReplyKind::kHostProhibited, 0.0},
      {8, 15000.0, net::ReplyKind::kNetProhibited, 0.0},
      {42, 16000.0, net::ReplyKind::kEchoReply, 0.019},
      {43, 16200.0, net::ReplyKind::kEchoReply, 399.99},
  };
}

TEST(Record, BinaryRoundTrip) {
  const auto original = sample_observations();
  const auto bytes = encode_binary(original);
  EXPECT_EQ(bytes.size(), 8 + original.size() * binary_bytes_per_observation());
  const auto decoded = decode_binary(bytes);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ((*decoded)[i].target_index, original[i].target_index) << i;
    EXPECT_EQ((*decoded)[i].kind, original[i].kind) << i;
    if (original[i].kind == net::ReplyKind::kEchoReply) {
      // 1/50 ms quantisation.
      EXPECT_NEAR((*decoded)[i].rtt_ms, original[i].rtt_ms, 0.021) << i;
    }
  }
}

TEST(Record, BinaryRejectsCorruptedBuffers) {
  const auto bytes = encode_binary(sample_observations());
  // Truncated payload.
  const std::span<const std::uint8_t> truncated(bytes.data(),
                                                bytes.size() - 3);
  EXPECT_FALSE(decode_binary(truncated).has_value());
  // Bad magic.
  auto corrupt = bytes;
  corrupt[0] ^= 0xFF;
  EXPECT_FALSE(decode_binary(corrupt).has_value());
  // Empty buffer.
  EXPECT_FALSE(decode_binary({}).has_value());
}

TEST(Record, BinaryEmptyStream) {
  const auto bytes = encode_binary({});
  const auto decoded = decode_binary(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->empty());
}

TEST(Record, BinarySaturatesHugeRtt) {
  const std::vector<Observation> huge{
      {1, 0.0, net::ReplyKind::kEchoReply, 5000.0}};
  const auto decoded = decode_binary(encode_binary(huge));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ((*decoded)[0].kind, net::ReplyKind::kEchoReply);
  EXPECT_NEAR((*decoded)[0].rtt_ms, 655.34, 0.01);
}

TEST(Record, BinaryDropsOversizedTargetIndexInsteadOfWrapping) {
  // 2^24 would alias target 0 if wrapped; the encoder must drop it.
  const std::vector<Observation> stream{
      {5, 0.0, net::ReplyKind::kEchoReply, 10.0},
      {0x1000000, 1.0, net::ReplyKind::kEchoReply, 11.0},
      {0xFFFFFF, 2.0, net::ReplyKind::kEchoReply, 12.0},   // max valid
      {0xFFFFFFFF, 3.0, net::ReplyKind::kTimeout, 0.0},
  };
  std::size_t dropped = 0;
  const auto bytes = encode_binary(stream, &dropped);
  EXPECT_EQ(dropped, 2u);
  EXPECT_EQ(bytes.size(), 8 + 2 * binary_bytes_per_observation());
  const auto decoded = decode_binary(bytes);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ((*decoded)[0].target_index, 5u);
  EXPECT_EQ((*decoded)[1].target_index, 0xFFFFFFu);
}

TEST(Record, BinaryInRangeStreamReportsZeroDropped) {
  std::size_t dropped = 123;
  const auto bytes = encode_binary(sample_observations(), &dropped);
  EXPECT_EQ(dropped, 0u);
  EXPECT_EQ(decode_binary(bytes)->size(), sample_observations().size());
}

TEST(Record, TextualRoundTrip) {
  const auto original = sample_observations();
  const auto text = encode_textual(original);
  const auto decoded = decode_textual(text);
  ASSERT_EQ(decoded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(decoded[i].target_index, original[i].target_index);
    EXPECT_EQ(decoded[i].kind, original[i].kind);
    EXPECT_NEAR(decoded[i].rtt_ms, original[i].rtt_ms, 1e-6);
    EXPECT_NEAR(decoded[i].time_s, original[i].time_s, 1e-6);
  }
}

TEST(Record, TextualIsMuchLargerThanBinary) {
  // Tab. 1: csv is an order of magnitude bigger (270 MB vs 21 MB/host).
  std::vector<Observation> many;
  for (std::uint32_t i = 0; i < 10000; ++i) {
    many.push_back({i, i * 0.001, net::ReplyKind::kEchoReply,
                    20.0 + (i % 100) * 0.37});
  }
  const auto text_size = textual_bytes(many);
  const auto binary_size = encode_binary(many).size();
  EXPECT_GT(text_size, 5 * binary_size);
}

// --- FastPing ----------------------------------------------------------------

TEST(FastPing, DropModel) {
  EXPECT_DOUBLE_EQ(reply_drop_probability(1000.0, 2000.0, 0.45), 0.0);
  EXPECT_DOUBLE_EQ(reply_drop_probability(2000.0, 2000.0, 0.45), 0.0);
  EXPECT_NEAR(reply_drop_probability(4000.0, 2000.0, 0.45), 0.45, 1e-12);
  EXPECT_DOUBLE_EQ(reply_drop_probability(1e9, 2000.0, 0.45), 0.9);
}

TEST(FastPing, ThresholdsAreHeterogeneousAndDeterministic) {
  FastPingConfig config;
  const auto vps = net::make_planetlab({.node_count = 30, .seed = 31});
  std::set<long> buckets;
  for (const net::VantagePoint& vp : vps) {
    const double t1 = vp_drop_threshold(vp, config);
    const double t2 = vp_drop_threshold(vp, config);
    EXPECT_DOUBLE_EQ(t1, t2);
    EXPECT_GE(t1, config.min_drop_threshold_pps);
    EXPECT_LE(t1, config.max_drop_threshold_pps);
    buckets.insert(std::lround(t1 / 500.0));
  }
  EXPECT_GT(buckets.size(), 4u);  // spread across the range
}

TEST(FastPing, ProbesEveryNonBlacklistedTargetOnce) {
  const Hitlist hitlist = Hitlist::from_world(tiny_world()).without_dead();
  const auto vps = net::make_planetlab({.node_count = 1, .seed = 32});
  Greylist blacklist;
  blacklist.add(hitlist[0].representative.slash24_index(),
                net::ReplyKind::kAdminProhibited);
  Greylist greylist;
  const FastPingResult result = run_fastping(
      tiny_world(), vps[0], hitlist, blacklist, greylist, FastPingConfig{});
  EXPECT_EQ(result.probes_sent, hitlist.size() - 1);
  std::set<std::uint32_t> probed;
  for (const Observation& obs : result.observations) {
    EXPECT_TRUE(probed.insert(obs.target_index).second);
  }
  EXPECT_FALSE(probed.contains(0));  // blacklisted
  EXPECT_EQ(result.echo_replies + result.errors + result.timeouts,
            result.probes_sent);
}

TEST(FastPing, FeedsGreylistWithProhibitedTargets) {
  const Hitlist hitlist = Hitlist::from_world(tiny_world()).without_dead();
  const auto vps = net::make_planetlab({.node_count = 1, .seed = 33});
  Greylist blacklist;
  Greylist greylist;
  const FastPingResult result = run_fastping(
      tiny_world(), vps[0], hitlist, blacklist, greylist, FastPingConfig{});
  EXPECT_EQ(greylist.size(), result.errors);
  EXPECT_GT(greylist.size(), 0u);
}

TEST(FastPing, SlowerProbingTakesProportionallyLonger) {
  const Hitlist hitlist = Hitlist::from_world(tiny_world()).without_dead();
  const auto vps = net::make_planetlab({.node_count = 1, .seed = 34});
  Greylist blacklist;
  Greylist grey1;
  Greylist grey2;
  FastPingConfig fast;
  fast.probe_rate_pps = 10000.0;
  FastPingConfig slow;
  slow.probe_rate_pps = 1000.0;
  const auto fast_result =
      run_fastping(tiny_world(), vps[0], hitlist, blacklist, grey1, fast);
  const auto slow_result =
      run_fastping(tiny_world(), vps[0], hitlist, blacklist, grey2, slow);
  EXPECT_NEAR(slow_result.duration_hours / fast_result.duration_hours, 10.0,
              0.2);
}

TEST(FastPing, OverdrivingLosesReplies) {
  // The Sec. 3.5 lesson: at 10k pps many VPs drop replies; at 1k pps
  // almost none do. Pick a VP with a low tolerance threshold.
  const Hitlist hitlist = Hitlist::from_world(tiny_world()).without_dead();
  const auto vps = net::make_planetlab({.node_count = 20, .seed = 35});
  FastPingConfig config;
  const net::VantagePoint* fragile = &vps[0];
  for (const net::VantagePoint& vp : vps) {
    if (vp_drop_threshold(vp, config) <
        vp_drop_threshold(*fragile, config)) {
      fragile = &vp;
    }
  }
  Greylist blacklist;
  Greylist grey;
  FastPingConfig fast = config;
  fast.probe_rate_pps = 10000.0;
  FastPingConfig slow = config;
  slow.probe_rate_pps = 1000.0;
  const auto fast_result =
      run_fastping(tiny_world(), *fragile, hitlist, blacklist, grey, fast);
  const auto slow_result =
      run_fastping(tiny_world(), *fragile, hitlist, blacklist, grey, slow);
  EXPECT_GT(fast_result.drop_probability, 0.3);
  EXPECT_DOUBLE_EQ(slow_result.drop_probability, 0.0);
  EXPECT_LT(fast_result.echo_replies, slow_result.echo_replies * 0.8);
}

// --- The walk's observation stream, pinned ----------------------------------

/// FNV-1a over every observation of `result`: target, kind and the bit
/// patterns of RTT and timestamp, so any change to an RNG draw, a
/// floating-point operation order or a routing decision moves it.
std::uint64_t stream_digest(const FastPingResult& result,
                            std::uint64_t h = 0xCBF29CE484222325ULL) {
  const auto mix = [&h](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      h = (h ^ ((value >> (8 * byte)) & 0xFFu)) * 0x100000001B3ULL;
    }
  };
  for (const Observation& obs : result.observations) {
    mix(obs.target_index);
    mix(static_cast<std::uint64_t>(obs.kind));
    mix(std::bit_cast<std::uint64_t>(obs.rtt_ms));
    mix(std::bit_cast<std::uint64_t>(obs.time_s));
  }
  return h;
}

/// A walk that touches every branch of the prober: the full hitlist (dead
/// space times out, so retry passes run), a blacklisted /24, prohibited
/// replies, and a rate that overdrives some VPs into reply drops.
FastPingConfig pinned_walk_config() {
  FastPingConfig config;
  config.seed = 2207;
  config.probe_rate_pps = 4000.0;
  config.retry_max_attempts = 2;
  return config;
}

/// Outage, storm, flap and hijack on every VP; the hijack captures the
/// first anycast targets of the hitlist.
net::FaultPlan pinned_fault_plan(const Hitlist& hitlist) {
  net::FaultSpec spec;
  spec.seed = 2208;
  spec.outage_rate = 1.0;
  spec.storm_rate = 1.0;
  spec.flap_rate = 1.0;
  spec.hijack_vp_fraction = 1.0;
  for (std::uint32_t t = 0; t < hitlist.size() &&
                            spec.hijack_targets.size() < 6;
       ++t) {
    const net::TargetInfo* info =
        tiny_world().target_for(hitlist[t].representative);
    if (info != nullptr && info->kind == net::TargetInfo::Kind::kAnycast) {
      spec.hijack_targets.push_back(t);
    }
  }
  return net::FaultPlan(spec);
}

/// What the pinned walks exercised, summed over their VPs.
struct WalkCoverage {
  std::uint64_t anycast_echoes = 0;
  std::uint64_t prohibited = 0;
  std::uint64_t injected_timeouts = 0;
  std::uint64_t retry_probes = 0;
  std::uint64_t retry_recovered = 0;
};

/// Digests the pinned walks of six VPs over `world`, in VP order.
std::uint64_t pinned_walks_digest(const net::SimulatedInternet& world,
                                  const net::FaultPlan* faults,
                                  WalkCoverage* coverage = nullptr) {
  const Hitlist hitlist = Hitlist::from_world(world);
  const auto vps = net::make_planetlab({.node_count = 6, .seed = 38});
  Greylist blacklist;
  blacklist.add(hitlist[hitlist.size() / 2].representative.slash24_index(),
                net::ReplyKind::kAdminProhibited);
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const net::VantagePoint& vp : vps) {
    Greylist greylist;
    const FastPingResult result = run_fastping(
        world, vp, hitlist, blacklist, greylist, pinned_walk_config(), faults);
    h = stream_digest(result, h);
    if (coverage == nullptr) continue;
    coverage->prohibited += result.errors;
    coverage->injected_timeouts += result.injected_timeouts;
    coverage->retry_probes += result.retry_probes;
    coverage->retry_recovered += result.retry_recovered;
    for (const Observation& obs : result.observations) {
      const net::TargetInfo* info =
          world.target_for(hitlist[obs.target_index].representative);
      if (obs.kind == net::ReplyKind::kEchoReply &&
          info->kind == net::TargetInfo::Kind::kAnycast) {
        ++coverage->anycast_echoes;
      }
    }
  }
  return h;
}

TEST(CensusWalk, ObservationStreamIsPinned) {
  WalkCoverage coverage;
  EXPECT_EQ(pinned_walks_digest(tiny_world(), nullptr, &coverage),
            0x9662CB57463C6D3FULL);
  // The pinned walks cover every branch the digest is meant to guard.
  EXPECT_GT(coverage.anycast_echoes, 1000u);
  EXPECT_GT(coverage.prohibited, 0u);
  EXPECT_GT(coverage.retry_probes, 0u);
  EXPECT_GT(coverage.retry_recovered, 0u);
}

TEST(CensusWalk, FaultedObservationStreamIsPinned) {
  const Hitlist hitlist = Hitlist::from_world(tiny_world());
  const net::FaultPlan plan = pinned_fault_plan(hitlist);
  ASSERT_EQ(plan.spec().hijack_targets.size(), 6u);
  WalkCoverage coverage;
  EXPECT_EQ(pinned_walks_digest(tiny_world(), &plan, &coverage),
            0x40198C92B34AAF38ULL);
  EXPECT_GT(coverage.anycast_echoes, 1000u);
  EXPECT_GT(coverage.prohibited, 0u);
  EXPECT_GT(coverage.injected_timeouts, 0u);
  EXPECT_GT(coverage.retry_recovered, 0u);
}

TEST(CensusProbe, ResolvedFormMatchesAddressFormForEveryTarget) {
  const net::SimulatedInternet& world = tiny_world();
  const auto vps = net::make_planetlab({.node_count = 3, .seed = 39});
  constexpr net::Protocol kProtocols[] = {
      net::Protocol::kIcmpEcho, net::Protocol::kTcpSyn53,
      net::Protocol::kTcpSyn80, net::Protocol::kDnsUdp,
      net::Protocol::kDnsTcp};
  std::size_t echoes = 0;
  for (const net::VantagePoint& vp : vps) {
    net::SimulatedInternet::VpProber walk(world, vp);
    rng::Xoshiro256 by_address(vp.id + 1);
    rng::Xoshiro256 resolved(vp.id + 1);
    // Each target twice, so the second pass answers from warm catchments.
    for (int pass = 0; pass < 2; ++pass) {
      for (const net::TargetInfo& info : world.targets()) {
        const auto address =
            ipaddr::IPv4Address::from_slash24_index(info.slash24_index, 1);
        const net::TargetInfo* target = world.target_for(address);
        ASSERT_EQ(target, &info);
        for (const net::Protocol protocol : kProtocols) {
          const double drop = pass == 0 ? 0.0 : 0.3;
          const net::ProbeReply a =
              world.probe(vp, address, protocol, by_address, drop);
          const net::ProbeReply b =
              walk.probe(target, protocol, resolved, drop);
          ASSERT_EQ(a.kind, b.kind);
          ASSERT_EQ(std::bit_cast<std::uint64_t>(a.rtt_ms),
                    std::bit_cast<std::uint64_t>(b.rtt_ms));
          if (a.kind == net::ReplyKind::kEchoReply) ++echoes;
        }
      }
    }
    // Same draws in the same order: the generators stay in lockstep.
    EXPECT_EQ(resolved(), by_address());
  }
  EXPECT_GT(echoes, 1000u);
}

TEST(CensusProbe, UnknownAddressTimesOutInBothForms) {
  const net::SimulatedInternet& world = tiny_world();
  const auto vps = net::make_planetlab({.node_count = 1, .seed = 40});
  const ipaddr::IPv4Address unknown(1, 2, 3, 4);
  ASSERT_EQ(world.target_for(unknown), nullptr);
  net::SimulatedInternet::VpProber walk(world, vps[0]);
  rng::Xoshiro256 gen(5);
  const net::ProbeReply a =
      world.probe(vps[0], unknown, net::Protocol::kIcmpEcho, gen);
  const net::ProbeReply b =
      walk.probe(nullptr, net::Protocol::kIcmpEcho, gen);
  EXPECT_EQ(a.kind, net::ReplyKind::kTimeout);
  EXPECT_EQ(b.kind, net::ReplyKind::kTimeout);
  EXPECT_EQ(a.rtt_ms, 0.0);
  EXPECT_EQ(b.rtt_ms, 0.0);
  // Neither form draws from the generator for an unrouted address.
  EXPECT_EQ(gen(), rng::Xoshiro256(5)());
}

TEST(CensusProbe, ProberFollowsAMaskChange) {
  // A prober warmed on every prefix, then every multi-site prefix moved
  // to one other site: each probe must answer as a fresh address probe.
  net::SimulatedInternet world(tiny_world_config());
  const auto vps = net::make_planetlab({.node_count = 2, .seed = 43});
  std::size_t moved = 0;
  for (const net::VantagePoint& vp : vps) {
    net::SimulatedInternet::VpProber walk(world, vp);
    rng::Xoshiro256 warm(1);
    for (const net::TargetInfo& info : world.targets()) {
      (void)walk.probe(&info, net::Protocol::kIcmpEcho, warm);
    }
    for (std::size_t d = 0; d < world.deployments().size(); ++d) {
      const net::Deployment& deployment = world.deployments()[d];
      for (std::size_t p = 0; p < deployment.prefixes.size(); ++p) {
        const net::ReplicaSite* reached = world.catchment(vp, d, p);
        if (reached == nullptr || deployment.sites.size() < 2) continue;
        const auto here =
            static_cast<std::size_t>(reached - deployment.sites.data());
        world.set_prefix_site_mask(
            d, p, std::uint64_t{1} << ((here + 1) % deployment.sites.size()));
        ++moved;
      }
    }
    rng::Xoshiro256 by_address(2);
    rng::Xoshiro256 resolved(2);
    for (const net::TargetInfo& info : world.targets()) {
      const net::ProbeReply a = world.probe(
          vp, ipaddr::IPv4Address::from_slash24_index(info.slash24_index, 1),
          net::Protocol::kIcmpEcho, by_address);
      const net::ProbeReply b =
          walk.probe(&info, net::Protocol::kIcmpEcho, resolved);
      ASSERT_EQ(a.kind, b.kind);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a.rtt_ms),
                std::bit_cast<std::uint64_t>(b.rtt_ms));
    }
  }
  EXPECT_GT(moved, 100u);
}

TEST(CensusWalk, ResolvedTargetsMustMatchTheHitlist) {
  const Hitlist hitlist = Hitlist::from_world(tiny_world());
  Greylist blacklist;
  ResolvedHitlist resolved = resolve_targets(tiny_world(), hitlist, blacklist);
  ASSERT_EQ(resolved.targets.size(), hitlist.size());
  ASSERT_EQ(resolved.blacklisted.size(), hitlist.size());
  const auto vps = net::make_planetlab({.node_count = 1, .seed = 42});
  Greylist grey_a;
  Greylist grey_b;
  const FastPingResult walked =
      run_fastping(tiny_world(), vps[0], hitlist, resolved, grey_a, {});
  const FastPingResult itself =
      run_fastping(tiny_world(), vps[0], hitlist, blacklist, grey_b, {});
  EXPECT_EQ(stream_digest(walked), stream_digest(itself));
  ResolvedHitlist short_skip = resolved;
  short_skip.blacklisted.pop_back();
  EXPECT_THROW((void)run_fastping(tiny_world(), vps[0], hitlist, short_skip,
                                  grey_a, {}),
               std::invalid_argument);
  resolved.targets.pop_back();
  EXPECT_THROW((void)run_fastping(tiny_world(), vps[0], hitlist, resolved,
                                  grey_a, {}),
               std::invalid_argument);
}

TEST(CensusWalk, SkipTableMatchesTheBlacklistForAnySize) {
  // The resolved skip bits stand in for a blacklist lookup at every walk
  // position: the observation stream, the greylist and the skip count
  // match a walk that tests the blacklist itself, for an empty list, one
  // census's greylist, and a list of 100k /24s mostly outside the hitlist.
  const Hitlist hitlist = Hitlist::from_world(tiny_world());
  const auto vps = net::make_planetlab({.node_count = 2, .seed = 42});
  Greylist seeded;
  (void)run_fastping(tiny_world(), vps[0], hitlist, Greylist{}, seeded, {});
  ASSERT_GT(seeded.size(), 0u);
  Greylist wide = seeded;
  std::mt19937_64 gen(24);
  while (wide.size() < 100'000) {
    (void)wide.add(static_cast<std::uint32_t>(gen() % (1u << 24)),
                   net::ReplyKind::kAdminProhibited);
  }
  for (const Greylist* blacklist : {&seeded, &wide}) {
    SCOPED_TRACE("blacklist of " + std::to_string(blacklist->size()));
    const ResolvedHitlist resolved =
        resolve_targets(tiny_world(), hitlist, *blacklist);
    std::size_t skipped = 0;
    for (std::size_t i = 0; i < hitlist.size(); ++i) {
      const bool listed =
          blacklist->contains(hitlist[i].representative.slash24_index());
      ASSERT_EQ(resolved.blacklisted[i], listed) << "entry " << i;
      skipped += listed ? 1 : 0;
    }
    ASSERT_GT(skipped, 0u);
    Greylist grey;
    const FastPingResult walked =
        run_fastping(tiny_world(), vps[1], hitlist, resolved, grey, {});
    // Every position either probed once or skipped once.
    EXPECT_EQ(walked.probes_sent - walked.retry_probes + skipped,
              hitlist.size());
    for (const Observation& obs : walked.observations) {
      ASSERT_FALSE(resolved.blacklisted[obs.target_index]);
    }
  }
}

/// Moves replicas of every multi-site deployment: each prefix of it keeps
/// only the sites whose index parity matches the prefix's.
void move_replicas(net::SimulatedInternet& world) {
  for (std::size_t d = 0; d < world.deployments().size(); ++d) {
    const net::Deployment& deployment = world.deployments()[d];
    if (deployment.sites.size() < 3) continue;
    for (std::size_t p = 0; p < deployment.prefixes.size(); ++p) {
      const std::uint64_t parity =
          p % 2 == 0 ? 0x5555555555555555ULL : 0xAAAAAAAAAAAAAAAAULL;
      world.set_prefix_site_mask(
          d, p, deployment.prefix_site_masks[p] & parity);
    }
  }
}

TEST(CensusWalk, WalkAfterMaskChangeMatchesFreshWorldWithThatMask) {
  net::SimulatedInternet changed(tiny_world_config());
  const std::uint64_t before = pinned_walks_digest(changed, nullptr);
  move_replicas(changed);
  const std::uint64_t after = pinned_walks_digest(changed, nullptr);
  EXPECT_NE(after, before);  // the move reroutes probes

  net::SimulatedInternet fresh(tiny_world_config());
  move_replicas(fresh);
  EXPECT_EQ(pinned_walks_digest(fresh, nullptr), after);
  // And back: restoring the masks restores the walk.
  net::SimulatedInternet restored(tiny_world_config());
  move_replicas(restored);
  (void)pinned_walks_digest(restored, nullptr);
  for (std::size_t d = 0; d < tiny_world().deployments().size(); ++d) {
    const net::Deployment& original = tiny_world().deployments()[d];
    for (std::size_t p = 0; p < original.prefixes.size(); ++p) {
      restored.set_prefix_site_mask(d, p, original.prefix_site_masks[p]);
    }
  }
  EXPECT_EQ(pinned_walks_digest(restored, nullptr), before);
}

// --- CensusMatrix ----------------------------------------------------------

CensusMatrix matrix_of(std::size_t targets,
                       std::initializer_list<std::tuple<std::uint32_t,
                                                        std::uint16_t, float>>
                           samples) {
  CensusMatrixBuilder builder(targets);
  for (const auto& [target, vp, rtt] : samples) builder.add(target, vp, rtt);
  return builder.build();
}

TEST(CensusMatrix, BuilderKeepsMinimumPerVp) {
  const CensusMatrix data = matrix_of(
      4, {{1, 7, 30.0F}, {1, 7, 20.0F}, {1, 7, 25.0F}, {1, 3, 40.0F}});
  const auto row = data.measurements(1);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0].vp, 3);   // sorted by vp
  EXPECT_EQ(row[1].vp, 7);
  EXPECT_FLOAT_EQ(row[1].rtt_ms, 20.0F);
  EXPECT_EQ(data.observation_count(), 2u);
}

TEST(CensusMatrix, ResponsiveTargetCounts) {
  const CensusMatrix data =
      matrix_of(5, {{0, 1, 10.0F}, {0, 2, 11.0F}, {3, 1, 12.0F}});
  EXPECT_EQ(data.responsive_targets(1), 2u);
  EXPECT_EQ(data.responsive_targets(2), 1u);
  EXPECT_EQ(data.responsive_targets(3), 0u);
}

TEST(CensusMatrix, CombineMinIsPointwiseMinimumAndUnion) {
  CensusMatrix a = matrix_of(3, {{0, 1, 10.0F}, {0, 2, 50.0F}});
  const CensusMatrix b =
      matrix_of(3, {{0, 2, 30.0F}, {0, 3, 70.0F}, {2, 1, 5.0F}});
  a.combine_min(b);
  const auto row0 = a.measurements(0);
  ASSERT_EQ(row0.size(), 3u);
  EXPECT_FLOAT_EQ(row0[0].rtt_ms, 10.0F);  // vp1 only in a
  EXPECT_FLOAT_EQ(row0[1].rtt_ms, 30.0F);  // min(50, 30)
  EXPECT_FLOAT_EQ(row0[2].rtt_ms, 70.0F);  // vp3 only in b
  EXPECT_EQ(a.measurements(2).size(), 1u);
}

TEST(CensusMatrix, CombineMinIsIdempotent) {
  CensusMatrix a = matrix_of(2, {{0, 1, 10.0F}, {1, 2, 20.0F}});
  const CensusMatrix copy = a;
  a.combine_min(copy);
  EXPECT_FLOAT_EQ(a.measurements(0)[0].rtt_ms, 10.0F);
  EXPECT_FLOAT_EQ(a.measurements(1)[0].rtt_ms, 20.0F);
}

TEST(CensusMatrix, OffsetsAreCumulativeRowEnds) {
  const CensusMatrix data =
      matrix_of(4, {{0, 1, 10.0F}, {0, 2, 11.0F}, {2, 5, 12.0F}});
  const auto offsets = data.row_offsets();
  ASSERT_EQ(offsets.size(), 5u);
  EXPECT_EQ(offsets[0], 0u);
  EXPECT_EQ(offsets[1], 2u);
  EXPECT_EQ(offsets[2], 2u);  // empty row
  EXPECT_EQ(offsets[3], 3u);
  EXPECT_EQ(offsets[4], 3u);
  // Rows are views into one contiguous buffer.
  EXPECT_EQ(data.measurements(0).data() + 2, data.measurements(2).data());
}

TEST(CensusMatrix, BuilderDropsOutOfRangeTargets) {
  CensusMatrixBuilder builder(2);
  builder.add(0, 1, 10.0F);
  builder.add(2, 1, 11.0F);  // beyond target_count: damaged record
  builder.add_fragment(4, {TargetRtt{1, 12.0F}, TargetRtt{9, 13.0F}});
  const CensusMatrix data = builder.build();
  EXPECT_EQ(data.observation_count(), 2u);
  EXPECT_EQ(data.measurements(0).size(), 1u);
  EXPECT_EQ(data.measurements(1).size(), 1u);
}

TEST(CensusMatrix, BuildResetsTheBuilder) {
  CensusMatrixBuilder builder(3);
  builder.add(0, 1, 10.0F);
  EXPECT_EQ(builder.build().observation_count(), 1u);
  const CensusMatrix empty_again = builder.build();
  EXPECT_EQ(empty_again.target_count(), 3u);
  EXPECT_EQ(empty_again.observation_count(), 0u);
}

// --- CensusMatrix vs. the legacy row-of-vectors oracle -----------------------
//
// `LegacyCensusData` is the pre-CSR container kept verbatim as a test
// oracle; on any input stream, matrix and oracle must expose identical
// rows through the shared `measurements()` read API.

void expect_matches_oracle(const CensusMatrix& matrix,
                           const LegacyCensusData& oracle) {
  ASSERT_EQ(matrix.target_count(), oracle.target_count());
  std::size_t total = 0;
  for (std::uint32_t t = 0; t < oracle.target_count(); ++t) {
    const auto got = matrix.measurements(t);
    const auto want = oracle.measurements(t);
    ASSERT_EQ(got.size(), want.size()) << "target " << t;
    total += want.size();
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].vp, want[i].vp) << "target " << t;
      EXPECT_EQ(got[i].rtt_ms, want[i].rtt_ms) << "target " << t;
    }
  }
  EXPECT_EQ(matrix.observation_count(), total);
}

TEST(CensusMatrixOracle, EmptyCensus) {
  CensusMatrixBuilder builder(16);
  expect_matches_oracle(builder.build(), LegacyCensusData(16));
  expect_matches_oracle(CensusMatrix(16), LegacyCensusData(16));
  expect_matches_oracle(CensusMatrix(), LegacyCensusData());
}

TEST(CensusMatrixOracle, SingleVpFragment) {
  const std::vector<TargetRtt> fragment{
      {0, 12.0F}, {3, 9.5F}, {4, 80.25F}, {7, 3.0F}};
  CensusMatrixBuilder builder(8);
  builder.add_fragment(5, fragment);
  LegacyCensusData oracle(8);
  oracle.record_fragment(5, fragment);
  expect_matches_oracle(builder.build(), oracle);
}

TEST(CensusMatrixOracle, DuplicateVpTargetPairsKeepTheMinimum) {
  // Same (vp, target) seen repeatedly, interleaved across targets and in
  // descending vp order — the worst case for the canonicalisation sweep.
  const std::uint32_t targets[] = {2, 0, 2, 1, 2, 0, 2};
  const std::uint16_t vps[] = {9, 4, 9, 9, 2, 4, 9};
  const float rtts[] = {30.0F, 12.0F, 10.0F, 55.0F, 41.0F, 11.5F, 20.0F};
  CensusMatrixBuilder builder(3);
  LegacyCensusData oracle(3);
  for (std::size_t i = 0; i < std::size(targets); ++i) {
    builder.add(targets[i], vps[i], rtts[i]);
    oracle.record(targets[i], vps[i], rtts[i]);
  }
  const CensusMatrix matrix = builder.build();
  expect_matches_oracle(matrix, oracle);
  EXPECT_FLOAT_EQ(matrix.measurements(2)[1].rtt_ms, 10.0F);  // min of vp 9
}

TEST(CensusMatrixOracle, CombineMinDisjointVpSets) {
  CensusMatrixBuilder builder_a(4);
  CensusMatrixBuilder builder_b(4);
  LegacyCensusData oracle_a(4);
  LegacyCensusData oracle_b(4);
  for (std::uint32_t t = 0; t < 4; ++t) {
    builder_a.add(t, static_cast<std::uint16_t>(2 * t), 10.0F + t);
    oracle_a.record(t, static_cast<std::uint16_t>(2 * t), 10.0F + t);
    builder_b.add(t, static_cast<std::uint16_t>(2 * t + 1), 20.0F + t);
    oracle_b.record(t, static_cast<std::uint16_t>(2 * t + 1), 20.0F + t);
  }
  CensusMatrix a = builder_a.build();
  a.combine_min(builder_b.build());
  oracle_a.combine_min(oracle_b);
  expect_matches_oracle(a, oracle_a);
  EXPECT_EQ(a.measurements(0).size(), 2u);
}

TEST(CensusMatrixOracle, CombineMinOverlappingVpSets) {
  CensusMatrixBuilder builder_a(3);
  CensusMatrixBuilder builder_b(3);
  LegacyCensusData oracle_a(3);
  LegacyCensusData oracle_b(3);
  const auto feed_a = [&](std::uint32_t t, std::uint16_t vp, float rtt) {
    builder_a.add(t, vp, rtt);
    oracle_a.record(t, vp, rtt);
  };
  const auto feed_b = [&](std::uint32_t t, std::uint16_t vp, float rtt) {
    builder_b.add(t, vp, rtt);
    oracle_b.record(t, vp, rtt);
  };
  feed_a(0, 1, 10.0F);
  feed_a(0, 2, 50.0F);
  feed_a(1, 3, 7.0F);
  feed_b(0, 2, 30.0F);  // overlaps: min wins
  feed_b(0, 3, 70.0F);
  feed_b(1, 3, 9.0F);   // overlaps: ours is smaller
  feed_b(2, 1, 5.0F);   // empty row on our side
  CensusMatrix a = builder_a.build();
  a.combine_min(builder_b.build());
  oracle_a.combine_min(oracle_b);
  expect_matches_oracle(a, oracle_a);
}

TEST(CensusMatrixOracle, CombineMinGrowsToTheLargerTargetCount) {
  CensusMatrixBuilder small_builder(2);
  small_builder.add(1, 4, 15.0F);
  CensusMatrix small = small_builder.build();
  CensusMatrixBuilder big_builder(5);
  big_builder.add(4, 6, 25.0F);
  LegacyCensusData oracle_small(2);
  oracle_small.record(1, 4, 15.0F);
  LegacyCensusData oracle_big(5);
  oracle_big.record(4, 6, 25.0F);
  small.combine_min(big_builder.build());
  oracle_small.combine_min(oracle_big);
  expect_matches_oracle(small, oracle_small);
  EXPECT_EQ(small.target_count(), 5u);
}

// --- vp_row_fragment vs a comparison-sort oracle ----------------------------

/// The pre-radix vp_row_fragment: filter, sort by (target, RTT), keep the
/// first entry of each target group.
std::vector<TargetRtt> sort_unique_fragment(
    std::span<const Observation> observations, std::size_t target_limit,
    std::size_t* echo_in_range) {
  std::vector<TargetRtt> fragment;
  for (const Observation& obs : observations) {
    if (obs.kind != net::ReplyKind::kEchoReply) continue;
    if (obs.target_index >= target_limit) continue;
    fragment.push_back(
        TargetRtt{obs.target_index, static_cast<float>(obs.rtt_ms)});
  }
  *echo_in_range = fragment.size();
  std::sort(fragment.begin(), fragment.end(),
            [](const TargetRtt& a, const TargetRtt& b) {
              if (a.target_index != b.target_index) {
                return a.target_index < b.target_index;
              }
              return a.rtt_ms < b.rtt_ms;
            });
  fragment.erase(std::unique(fragment.begin(), fragment.end(),
                             [](const TargetRtt& a, const TargetRtt& b) {
                               return a.target_index == b.target_index;
                             }),
                 fragment.end());
  return fragment;
}

void expect_fragment_matches_oracle(std::span<const Observation> stream,
                                    std::size_t target_limit) {
  std::size_t want_echo = 0;
  const std::vector<TargetRtt> want =
      sort_unique_fragment(stream, target_limit, &want_echo);
  std::size_t got_echo = 12345;
  const std::vector<TargetRtt> got =
      vp_row_fragment(stream, target_limit, &got_echo);
  EXPECT_EQ(got_echo, want_echo);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].target_index, want[i].target_index) << "entry " << i;
    ASSERT_EQ(got[i].rtt_ms, want[i].rtt_ms) << "entry " << i;
  }
}

/// A seeded stream over `target_limit` targets: a scrambled subset of
/// targets (so every digit of the index varies), retries that revisit
/// targets with other RTTs (including exact RTT ties), non-echo kinds,
/// and damaged out-of-range indices up to 2^32 - 1.
std::vector<Observation> random_stream(std::uint64_t seed,
                                       std::size_t target_limit) {
  std::mt19937_64 rng(seed);
  const auto below = [&rng](std::uint64_t n) {
    return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(rng);
  };
  const std::size_t support = 1 + below(std::max<std::size_t>(
                                      1, std::min<std::size_t>(
                                             target_limit, 2000)));
  std::vector<std::uint32_t> targets(support);
  for (std::uint32_t& t : targets) {
    t = target_limit == 0 ? 0 : static_cast<std::uint32_t>(below(target_limit));
  }
  std::vector<Observation> stream(below(4000));
  for (Observation& obs : stream) {
    const std::uint64_t roll = below(100);
    if (roll == 0) {
      obs.target_index = 0xFFFFFFFFu;
    } else if (roll < 4) {
      obs.target_index = static_cast<std::uint32_t>(
          target_limit + below((std::uint64_t{1} << 32) - target_limit));
    } else {
      obs.target_index = targets[below(targets.size())];
    }
    const std::uint64_t kind = below(10);
    obs.kind = kind < 7   ? net::ReplyKind::kEchoReply
               : kind < 9 ? net::ReplyKind::kTimeout
                          : net::ReplyKind::kAdminProhibited;
    // Coarse RTTs make exact ties common within a target's group.
    obs.rtt_ms =
        quantised_rtt_us(1.0 + static_cast<double>(below(40)) * 2.5) / 1000.0;
  }
  return stream;
}

TEST(RowFragment, MatchesSortUniqueOracleOnRandomStreams) {
  for (const std::size_t limit :
       {std::size_t{0}, std::size_t{1}, std::size_t{255}, std::size_t{256},
        std::size_t{65537}, std::size_t{1} << 24}) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      SCOPED_TRACE("target_limit " + std::to_string(limit) + " seed " +
                   std::to_string(seed));
      const std::vector<Observation> stream = random_stream(seed, limit);
      expect_fragment_matches_oracle(stream, limit);
    }
  }
}

TEST(RowFragment, RetryPassesKeepTheMinimumPerTarget) {
  // A full LFSR-like walk over 70000 targets (three radix digits), then a
  // retry pass over every third target with a different RTT.
  constexpr std::uint32_t kTargets = 70000;
  std::vector<Observation> stream;
  for (std::uint32_t i = 0; i < kTargets; ++i) {
    Observation obs;
    obs.target_index = static_cast<std::uint32_t>(
        (std::uint64_t{i} * 48271u) % kTargets);
    obs.kind = i % 13 == 0 ? net::ReplyKind::kTimeout
                           : net::ReplyKind::kEchoReply;
    obs.rtt_ms = 10.0 + static_cast<double>(obs.target_index % 97);
    stream.push_back(obs);
  }
  for (std::uint32_t t = 0; t < kTargets; t += 3) {
    stream.push_back(
        {t, 0.0, net::ReplyKind::kEchoReply, 5.0 + static_cast<double>(t % 11)});
  }
  expect_fragment_matches_oracle(stream, kTargets);
  const std::vector<TargetRtt> fragment = vp_row_fragment(stream, kTargets);
  for (std::size_t i = 1; i < fragment.size(); ++i) {
    ASSERT_LT(fragment[i - 1].target_index, fragment[i].target_index);
  }
}

TEST(RowFragment, SingleTargetAndEmptyStreams) {
  // Every entry on one target, at every digit count: the fragment is
  // the one minimum.
  std::vector<Observation> stream;
  for (const double rtt : {30.0, 12.0, 45.0, 12.0}) {
    stream.push_back({300, 0.0, net::ReplyKind::kEchoReply, rtt});
  }
  for (const std::size_t limit :
       {std::size_t{301}, std::size_t{1} << 24, std::size_t{1} << 40}) {
    std::size_t echo = 0;
    const std::vector<TargetRtt> fragment =
        vp_row_fragment(stream, limit, &echo);
    EXPECT_EQ(echo, 4u);
    ASSERT_EQ(fragment.size(), 1u);
    EXPECT_EQ(fragment[0].target_index, 300u);
    EXPECT_EQ(fragment[0].rtt_ms, 12.0F);
  }
  std::size_t echo = 99;
  EXPECT_TRUE(vp_row_fragment(stream, 300, &echo).empty());
  EXPECT_EQ(echo, 0u);
  EXPECT_TRUE(vp_row_fragment(std::span<const Observation>(), 1000).empty());
}

// --- run_census_sharded ---------------------------------------------------

TEST(RunCensus, FunnelAccountingIsConsistent) {
  const Hitlist hitlist = Hitlist::from_world(tiny_world()).without_dead();
  const auto vps = net::make_planetlab({.node_count = 8, .seed = 36});
  Greylist blacklist;
  const ShardedCensusOutput output = run_census_sharded(
      tiny_world(), vps, hitlist, blacklist, FastPingConfig{});
  EXPECT_EQ(output.summary.probes_sent,
            output.summary.echo_replies + output.summary.errors +
                output.summary.timeouts);
  EXPECT_EQ(output.summary.vp_duration_hours.size(), vps.size());
  // The blacklist received this census's greylist.
  EXPECT_EQ(blacklist.size(), output.summary.greylist_new);
  EXPECT_GT(blacklist.size(), 0u);
  // Responsive targets answered at least one VP.
  EXPECT_GT(output.data.responsive_targets(1), 0u);
}

TEST(RunCensus, SecondCensusSkipsBlacklistedTargets) {
  const Hitlist hitlist = Hitlist::from_world(tiny_world()).without_dead();
  const auto vps = net::make_planetlab({.node_count = 4, .seed = 37});
  Greylist blacklist;
  const ShardedCensusOutput first = run_census_sharded(
      tiny_world(), vps, hitlist, blacklist, FastPingConfig{});
  const ShardedCensusOutput second = run_census_sharded(
      tiny_world(), vps, hitlist, blacklist, FastPingConfig{});
  // Prohibited targets answered (as errors) in census 1, are skipped in 2.
  EXPECT_GT(first.summary.errors, 0u);
  EXPECT_EQ(second.summary.errors, 0u);
  EXPECT_LT(second.summary.probes_sent, first.summary.probes_sent);
}

}  // namespace
}  // namespace anycast::census
