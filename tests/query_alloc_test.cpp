// Allocation guard for the serving line protocol (serving/query.hpp).
//
// The data verbs (point, replicas, nearest, and a batch of any length)
// must answer into an `out` string that already has room without a
// single heap allocation. This binary replaces the global operator new
// with a counting one and checks the count around each answer, after one
// warm-up pass (a thread's first record allocates its metrics shard and
// histogram blocks). The same operator new can be told to throw, which
// checks that an exception mid-request leaves `out` as it was. It is its
// own test binary because the replacement operator new is program-wide.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "anycast/analysis/analyzer.hpp"
#include "anycast/census/hitlist.hpp"
#include "anycast/census/sharded.hpp"
#include "anycast/geo/city_index.hpp"
#include "anycast/ipaddr/ipv4.hpp"
#include "anycast/obs/latency.hpp"
#include "anycast/serving/query.hpp"
#include "anycast/serving/snapshot.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<bool> g_fail_allocations{false};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (g_fail_allocations.load(std::memory_order_relaxed)) {
    throw std::bad_alloc();
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Not inlined: GCC would otherwise pair an inlined free() with a call to
// operator new and warn (-Wmismatched-new-delete), though this operator
// new allocates with malloc.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace anycast {
namespace {

/// 20 targets on /24s 10.0.t.0; targets 2 and 5 are anycast, one replica
/// of each without a city.
struct Plane {
  census::Hitlist hitlist;
  serving::SnapshotView view;
};

Plane make_plane() {
  constexpr std::uint32_t kTargets = 20;
  std::vector<census::HitlistEntry> entries;
  census::ShardedCensusMatrixBuilder builder(kTargets);
  for (std::uint32_t t = 0; t < kTargets; ++t) {
    entries.push_back(census::HitlistEntry{
        ipaddr::IPv4Address((10U << 24) | (t << 8) | 1U), 3});
    for (std::uint16_t vp = 0; vp < t % 4; ++vp) builder.add(t, vp, 7.0F);
  }
  const geo::CityIndex& cities = geo::world_index();
  std::vector<analysis::TargetOutcome> outcomes;
  for (const std::uint32_t t : {2U, 5U}) {
    analysis::TargetOutcome outcome;
    outcome.target_index = t;
    outcome.slash24_index = (10U << 16) | t;
    outcome.result.anycast = true;
    core::Replica named;
    named.vp_id = 1;
    named.city = cities.by_name("Sydney");
    named.location = named.city->location();
    core::Replica bare;
    bare.vp_id = 3;
    bare.location = geodesy::GeoPoint(-12.5, -45.25);
    outcome.result.replicas = {named, bare};
    outcomes.push_back(std::move(outcome));
  }
  census::Hitlist hitlist(std::move(entries));
  serving::SnapshotView view = serving::SnapshotView::build(
      builder.build(), std::move(outcomes), /*id=*/1, &hitlist);
  return Plane{std::move(hitlist), std::move(view)};
}

TEST(QueryAlloc, DataVerbsAllocateNothingIntoAnOutWithRoom) {
  const Plane plane = make_plane();
  const serving::QueryContext context{&plane.view, nullptr};
  const std::vector<std::string> lines = {
      "point 3",
      "point 10.0.5.1",
      "point 99",
      "replicas 2",
      "replicas 10.0.5.7",
      "nearest 2 -33.9 151.2",
      "nearest 10.0.5.2 0 -180",
      "nearest 7 1 1",
      "batch 0 1 2 3 4 5 6 7 8 9 10 11 10.0.12.1 10.0.13.1 99 10.9.9.9",
      "batch 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16",
      "batch 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 10.0.0.1 "
      "10.0.1.1 10.0.2.1 10.0.3.1 10.0.4.1 10.0.5.1 10.0.6.1 10.0.7.1 "
      "10.0.8.1 10.0.9.1 10.0.10.1 10.0.11.1 10.0.12.1 10.0.13.1 "
      "10.0.14.1 10.0.15.1 10.0.16.1 10.0.17.1 10.0.18.1 10.0.19.1 20 "
      "10.9.9.9",
  };
  std::string out;
  out.reserve(1 << 16);
  std::string error;
  for (const bool recording : {true, false}) {
    obs::set_latency_recording(recording);
    for (const std::string& line : lines) {  // warm-up
      ASSERT_TRUE(serving::answer_query(context, line, out, error)) << line;
    }
    for (const std::string& line : lines) {
      out.clear();
      const std::uint64_t before = g_allocations.load();
      const bool ok = serving::answer_query(context, line, out, error);
      const std::uint64_t allocations = g_allocations.load() - before;
      EXPECT_TRUE(ok) << line;
      EXPECT_FALSE(out.empty()) << line;
      EXPECT_EQ(allocations, 0U) << line << " (recording " << recording
                                 << ")";
    }
  }
  obs::set_latency_recording(true);

  // The counter is live: the same answer into an `out` with no room
  // allocates.
  std::string fresh;
  const std::uint64_t before = g_allocations.load();
  ASSERT_TRUE(serving::answer_query(
      context, "batch 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16", fresh, error));
  EXPECT_GT(g_allocations.load() - before, 0U);
  EXPECT_EQ(fresh,
            "batch n=17 unknown=0 anycast=2 responsive=12 replicas=4\n");
}

TEST(QueryAlloc, AThrowMidRequestLeavesOutAsItWas) {
  const Plane plane = make_plane();
  const serving::QueryContext context{&plane.view, nullptr};
  // Two answers that fit `out` land before `metricsdump` allocates its
  // document and the allocation throws.
  const std::string text = "point 3\nreplicas 10.0.5.1\nmetricsdump\n";
  std::string out = "earlier answers\n";
  out.reserve(1 << 16);
  std::string warm;
  ASSERT_TRUE(serving::answer_queries(context, text, warm).ok());

  bool threw = false;
  g_fail_allocations.store(true);
  try {
    (void)serving::answer_queries(context, text, out);
  } catch (const std::bad_alloc&) {
    threw = true;
  }
  g_fail_allocations.store(false);
  EXPECT_TRUE(threw);
  EXPECT_EQ(out, "earlier answers\n");
}

}  // namespace
}  // namespace anycast
