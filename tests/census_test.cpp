#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <set>
#include <tuple>

#include "anycast/census/census.hpp"
#include "anycast/census/fastping.hpp"
#include "anycast/census/greylist.hpp"
#include "anycast/census/hitlist.hpp"
#include "anycast/census/record.hpp"
#include "anycast/census/sharded.hpp"
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
