// Maximum Independent Set over latency disks.
//
// Enumeration (Fig. 3c) reduces to MIS on the disk intersection graph: a
// set of pairwise non-overlapping disks must each contain a *different*
// replica, so |MIS| lower-bounds the replica count. MIS is NP-hard in
// general, but greedily picking disks by increasing radius is a
// 5-approximation for disk graphs and, per the paper, "in practice yields
// results very close to the optimum provided by a prohibitively more
// costly brute force solution" — both are implemented here so the claim is
// testable (see bench_mis_ablation).
//
// Pairwise disk tests run in chord space (geodesy/chord.hpp) with a
// guard-banded scalar fallback; the plain scalar solvers they replaced
// live in the test-only oracle library (tests/oracle), which kernel_test
// and bench_analysis_kernel pin these functions to bit for bit.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "anycast/geodesy/disk.hpp"

namespace anycast::core {

/// Greedy 5-approximation: scan disks by increasing radius, keep a disk
/// when it intersects no kept disk. Returns indices into `disks`, in the
/// order picked (i.e. by increasing radius). Pairwise tests run in chord
/// space (precomputed unit vectors + cap trig, no libm per pair) with a
/// guard-banded scalar fallback, so the result is byte-identical to the
/// scalar oracle.
std::vector<std::size_t> greedy_mis(std::span<const geodesy::Disk> disks);

/// Exact maximum independent set by branch-and-bound over the intersection
/// graph, held as flat uint64_t bitset rows: the candidate set is a
/// bitmask, the bound is a popcount, and including a disk reduces the
/// candidates with a single AND-NOT sweep. The adjacency build prunes
/// pairwise tests with a latitude/longitude grid over disk centres on
/// large instances. Exponential in the worst case; intended for
/// validation on instances up to a few dozen disks (the paper's
/// 10^3-seconds-per-target brute force). Returns indices in increasing
/// order — the exact same set the scalar oracle returns (the branching
/// order is replicated, see mis.cpp).
std::vector<std::size_t> exact_mis(std::span<const geodesy::Disk> disks);

/// Convenience: true when at least two disks are disjoint, i.e. the
/// measurements are geo-inconsistent (speed-of-light violation, Fig. 3b).
bool has_disjoint_pair(std::span<const geodesy::Disk> disks);

}  // namespace anycast::core
