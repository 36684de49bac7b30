#include "anycast/core/mis.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <vector>

#include "anycast/geodesy/chord.hpp"
#include "anycast/geodesy/grid.hpp"

namespace anycast::core {

namespace {

/// Per-thread scratch reused across every MIS call on the analyzer's
/// sharded target loop: trig caches, the flat bitset adjacency, and the
/// branch-and-bound candidate stack. Grow-only; no allocation on the hot
/// path after warm-up.
struct MisScratch {
  std::vector<geodesy::Unit3> units;
  std::vector<geodesy::CapTrig> caps;
  std::vector<geodesy::GeoPoint> centers;
  std::vector<std::size_t> order;
  std::vector<std::size_t> kept;
  std::vector<std::uint64_t> adj;    // n rows x words, row-major
  std::vector<std::uint64_t> stack;  // (n + 2) candidate sets for B&B

  void prepare(std::span<const geodesy::Disk> disks) {
    const std::size_t n = disks.size();
    units.resize(n);
    caps.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      units[i] = geodesy::unit_vector(disks[i].center());
      caps[i] = geodesy::cap_trig(disks[i].radius_km());
    }
  }

  /// Identical boolean to disks[i].intersects(disks[j]).
  [[nodiscard]] bool intersects(std::span<const geodesy::Disk> disks,
                                std::size_t i, std::size_t j) const {
    return geodesy::caps_intersect(units[i], units[j], caps[i], caps[j],
                                   disks[i].center(), disks[j].center());
  }
};

MisScratch& mis_scratch() {
  thread_local MisScratch scratch;
  return scratch;
}

/// Above this instance size the adjacency build prunes candidate pairs
/// with a LatLonGrid over disk centres instead of testing all n^2/2.
constexpr std::size_t kGridPruneThreshold = 96;

/// Builds the flat bitset intersection matrix into scratch.adj. The grid
/// prune is a strict superset filter (see grid.hpp), so the resulting
/// bits are identical to the all-pairs build.
void build_adjacency(std::span<const geodesy::Disk> disks,
                     MisScratch& scratch, std::size_t words) {
  const std::size_t n = disks.size();
  scratch.adj.assign(n * words, 0);
  const auto set_pair = [&](std::size_t i, std::size_t j) {
    scratch.adj[i * words + j / 64] |= std::uint64_t{1} << (j % 64);
    scratch.adj[j * words + i / 64] |= std::uint64_t{1} << (i % 64);
  };
  if (n < kGridPruneThreshold) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (scratch.intersects(disks, i, j)) set_pair(i, j);
      }
    }
    return;
  }
  double r_max = 0.0;
  scratch.centers.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    scratch.centers[i] = disks[i].center();
    r_max = std::max(r_max, disks[i].radius_km());
  }
  // Cell edge ~1/3 of a typical query radius: big enough that a query
  // touches O(10) cells, small enough to actually prune.
  const double cell_deg =
      std::clamp(2.0 * r_max / (3.0 * 111.195), 1.0, 30.0);
  const geodesy::LatLonGrid grid(scratch.centers, cell_deg);
  for (std::size_t i = 0; i < n; ++i) {
    grid.visit_within(
        scratch.centers[i], disks[i].radius_km() + r_max,
        [&](std::uint32_t j) {
          if (j > i && scratch.intersects(disks, i, j)) set_pair(i, j);
        });
  }
}

/// Branch-and-bound over bitset candidate sets. Replicates the scalar
/// oracle's (tests/oracle) vector-list traversal exactly: its candidate
/// list is always sorted ascending (iota start, order-preserving
/// erase/filter), its pick is the LAST max-degree candidate in that order
/// (>= comparison), and the exclude branch re-enters with the pick
/// removed — here the enclosing loop. Same traversal, same first-found
/// optimum, same returned set.
struct BitsetBranch {
  std::span<const std::uint64_t> adj;
  std::size_t words = 0;
  std::vector<std::size_t> best;
  std::vector<std::size_t> current;
  std::uint64_t* stack = nullptr;  // (depth) levels x words

  [[nodiscard]] std::size_t count(const std::uint64_t* set) const {
    std::size_t total = 0;
    for (std::size_t w = 0; w < words; ++w) {
      total += static_cast<std::size_t>(std::popcount(set[w]));
    }
    return total;
  }

  void branch(std::uint64_t* cand, std::size_t depth) {
    for (;;) {
      const std::size_t remaining = count(cand);
      if (current.size() + remaining <= best.size()) return;  // bound
      if (remaining == 0) {
        if (current.size() > best.size()) best = current;
        return;
      }
      // Pick the last max-degree candidate in ascending order (the
      // oracle's `>=` scan).
      std::size_t pick = 0;
      std::size_t max_degree = 0;
      for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t bits = cand[w];
        while (bits != 0) {
          const auto b = static_cast<std::size_t>(std::countr_zero(bits));
          bits &= bits - 1;
          const std::size_t candidate = w * 64 + b;
          const std::uint64_t* row = &adj[candidate * words];
          std::size_t degree = 0;
          for (std::size_t v = 0; v < words; ++v) {
            degree += static_cast<std::size_t>(std::popcount(row[v] & cand[v]));
          }
          if (degree >= max_degree) {
            max_degree = degree;
            pick = candidate;
          }
        }
      }

      // Include `pick`: candidates minus pick and its neighbours.
      std::uint64_t* reduced = stack + (depth + 1) * words;
      const std::uint64_t* row = &adj[pick * words];
      for (std::size_t w = 0; w < words; ++w) reduced[w] = cand[w] & ~row[w];
      reduced[pick / 64] &= ~(std::uint64_t{1} << (pick % 64));
      current.push_back(pick);
      branch(reduced, depth + 1);
      current.pop_back();

      // Exclude `pick`: drop it and re-enter (the loop).
      cand[pick / 64] &= ~(std::uint64_t{1} << (pick % 64));
    }
  }
};

}  // namespace

std::vector<std::size_t> greedy_mis(std::span<const geodesy::Disk> disks) {
  MisScratch& scratch = mis_scratch();
  scratch.prepare(disks);
  scratch.order.resize(disks.size());
  std::iota(scratch.order.begin(), scratch.order.end(), std::size_t{0});
  std::stable_sort(scratch.order.begin(), scratch.order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return disks[a].radius_km() < disks[b].radius_km();
                   });
  scratch.kept.clear();
  for (const std::size_t candidate : scratch.order) {
    const bool clear = std::none_of(
        scratch.kept.begin(), scratch.kept.end(), [&](std::size_t held) {
          return scratch.intersects(disks, candidate, held);
        });
    if (clear) scratch.kept.push_back(candidate);
  }
  return {scratch.kept.begin(), scratch.kept.end()};
}

std::vector<std::size_t> exact_mis(std::span<const geodesy::Disk> disks) {
  const std::size_t n = disks.size();
  if (n == 0) return {};
  // Seed the bound with the greedy solution: exact can only improve on it.
  // (Must run before the adjacency build: greedy shares the scratch.)
  std::vector<std::size_t> seed = greedy_mis(disks);
  MisScratch& scratch = mis_scratch();
  const std::size_t words = (n + 63) / 64;
  build_adjacency(disks, scratch, words);
  scratch.stack.assign((n + 2) * words, 0);
  std::uint64_t* root = scratch.stack.data();
  for (std::size_t i = 0; i < n; ++i) {
    root[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  BitsetBranch state;
  state.adj = scratch.adj;
  state.words = words;
  state.best = std::move(seed);
  state.stack = scratch.stack.data();
  state.branch(root, 0);
  std::sort(state.best.begin(), state.best.end());
  return state.best;
}

bool has_disjoint_pair(std::span<const geodesy::Disk> disks) {
  MisScratch& scratch = mis_scratch();
  scratch.prepare(disks);
  for (std::size_t i = 0; i < disks.size(); ++i) {
    for (std::size_t j = i + 1; j < disks.size(); ++j) {
      if (!scratch.intersects(disks, i, j)) return true;
    }
  }
  return false;
}

}  // namespace anycast::core
