// Fixed-size thread pool with fork-join helpers.
//
// The census and the analysis are embarrassingly parallel with clean
// merge points: per-VP walks are independent (each VP carries its own
// RNG, fault schedule, and greylist) and per-target iGreedy runs are
// independent. This pool supplies the only concurrency primitive those
// hot paths need — a blocking `parallel_for` over an index space with
// dynamic work claiming — and nothing else. No external dependencies.
//
// Determinism contract: the pool never changes *what* is computed, only
// *where*. Callers must produce results indexed by input position and
// reduce them in input order on the calling thread; every user in this
// repository does exactly that, which is why census and analysis output
// is byte-identical for any thread count (asserted by
// tests/concurrency_test.cpp). Callers fork through `ordered_map` and
// `ordered_concat`, which take the inline serial path for a null or
// one-lane pool; `fork_lanes` is the single place that decides.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <iterator>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

namespace anycast::concurrency {

/// The hardware's concurrency, never less than 1 (the standard allows
/// `hardware_concurrency()` to return 0 when unknown).
std::size_t default_thread_count();

/// A fixed-size pool. `ThreadPool(n)` provides `n` lanes of execution:
/// the calling thread participates in every `parallel_for`, so `n - 1`
/// worker threads are spawned. `ThreadPool(1)` spawns no threads at all —
/// every helper runs inline on the caller, the exact legacy serial path.
/// `ThreadPool(0)` resolves to `default_thread_count()`.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t thread_count = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total lanes, including the calling thread; always >= 1.
  [[nodiscard]] std::size_t thread_count() const {
    return workers_.size() + 1;
  }

  /// Runs `fn(i)` for every i in [0, n), blocking until all complete.
  /// Indices are claimed dynamically (one at a time), so heterogeneous
  /// task costs balance; the caller participates. The first exception
  /// thrown by any `fn(i)` stops new claims and is rethrown here after
  /// in-flight tasks drain. Not reentrant from inside `fn`.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& fn);

  /// `parallel_for` that collects `fn(i)` into a vector indexed by i —
  /// the result is position-stable regardless of execution order.
  ///
  /// Requires the result type to be default-constructible and
  /// move-assignable: the output vector is value-initialized up front and
  /// each slot is assigned when its index completes. Wrap a
  /// non-default-constructible result in `std::optional<T>` (and unwrap
  /// after) to use it here, or through `ordered_map`.
  template <typename Fn>
  auto parallel_map(std::size_t n, Fn&& fn)
      -> std::vector<decltype(fn(std::size_t{0}))> {
    std::vector<decltype(fn(std::size_t{0}))> out(n);
    parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

  /// Work units (loop indices) completed and submitted so far, summed
  /// over every `parallel_for` this pool has run — including the serial
  /// inline path, so progress reporting is identical at any lane count.
  /// Cheap enough to poll: two relaxed loads.
  [[nodiscard]] std::pair<std::size_t, std::size_t> progress() const {
    return {op_done_.load(std::memory_order_relaxed),
            op_total_.load(std::memory_order_relaxed)};
  }

  /// Starts a dedicated ticker thread invoking `on_tick(done, total)`
  /// every `interval` until `stop_heartbeat()` (or destruction). The
  /// ticker never runs pipeline work and only observes the progress
  /// counters, so it cannot perturb what the lanes compute — the
  /// determinism contract is untouched. One heartbeat at a time; calling
  /// again replaces the previous one.
  void start_heartbeat(std::chrono::milliseconds interval,
                       std::function<void(std::size_t, std::size_t)> on_tick);

  /// Stops and joins the ticker, if one is running. Idempotent.
  void stop_heartbeat();

 private:
  void worker_loop();
  void post(std::function<void()> task);

  std::vector<std::thread> workers_;
  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;

  std::atomic<std::size_t> op_done_{0};
  std::atomic<std::size_t> op_total_{0};
  std::thread heartbeat_;
  std::mutex heartbeat_mutex_;
  std::condition_variable heartbeat_cv_;
  bool heartbeat_stop_ = false;  // guarded by heartbeat_mutex_
};

/// Contiguous [begin, end) shards covering [0, n), at most `max_shards`
/// of them, sized within one item of each other. Shard boundaries never
/// affect results (reductions are index-ordered); they only set task
/// granularity.
std::vector<std::pair<std::size_t, std::size_t>> shard_ranges(
    std::size_t n, std::size_t max_shards);

/// Contiguous [begin, end) shards covering [0, n) where n =
/// `cumulative.size() - 1`, balanced by *weight* instead of item count:
/// `cumulative` is a non-decreasing prefix-weight array (item i weighs
/// `cumulative[i + 1] - cumulative[i]`, e.g. a CSR row-offset array), and
/// each shard covers as close to `total / shards` weight as item
/// boundaries allow. At most `max_shards` non-empty shards are returned;
/// with all-zero weights this degrades to `shard_ranges`. As with
/// `shard_ranges`, boundaries never affect results, only load balance.
std::vector<std::pair<std::size_t, std::size_t>> shard_ranges_weighted(
    std::span<const std::uint64_t> cumulative, std::size_t max_shards);

/// Lanes a fork over `n` items gets: 1 for a null or one-lane `pool`, or
/// when `n` is below `min_parallel`, and the pool's lane count otherwise.
/// 1 means "run inline on the caller, in index order, without touching
/// the pool" — the exact serial path. This is the one place that chooses
/// between the serial and the pooled path; callers size windows and
/// shards from its answer.
inline std::size_t fork_lanes(const ThreadPool* pool, std::size_t n = 0,
                              std::size_t min_parallel = 0) {
  if (pool == nullptr || n < min_parallel) return 1;
  return pool->thread_count();
}

/// `fn(i)` for every i in [0, n), collected in index order: inline when
/// `fork_lanes(pool)` is 1, else `pool->parallel_map`. Exceptions from
/// `fn` propagate either way (inline: the first one, immediately).
template <typename Fn>
auto ordered_map(ThreadPool* pool, std::size_t n, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  if (fork_lanes(pool) > 1) return pool->parallel_map(n, fn);
  std::vector<decltype(fn(std::size_t{0}))> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(fn(i));
  return out;
}

/// `fn(begin, end)` over contiguous ranges covering [0, n), each returning
/// a vector, concatenated in range order. Inline this is the one call
/// `fn(0, n)`; pooled, [0, n) is cut into up to eight ranges per lane —
/// weighted by `cumulative` (n + 1 prefix weights, as in
/// `shard_ranges_weighted`) when given, even otherwise. `fn` must give
/// the same concatenation for any cut, so the result never depends on the
/// lane count. Sets under `min_parallel` items always run inline.
template <typename Fn>
auto ordered_concat(ThreadPool* pool, std::size_t n, Fn&& fn,
                    std::span<const std::uint64_t> cumulative = {},
                    std::size_t min_parallel = 0)
    -> decltype(fn(std::size_t{0}, std::size_t{0})) {
  const std::size_t lanes = fork_lanes(pool, n, min_parallel);
  if (lanes == 1) return fn(std::size_t{0}, n);
  const auto ranges = cumulative.empty()
                          ? shard_ranges(n, lanes * 8)
                          : shard_ranges_weighted(cumulative, lanes * 8);
  auto parts = pool->parallel_map(ranges.size(), [&](std::size_t r) {
    return fn(ranges[r].first, ranges[r].second);
  });
  decltype(fn(std::size_t{0}, std::size_t{0})) out;
  std::size_t total = 0;
  for (const auto& part : parts) total += part.size();
  out.reserve(total);
  for (auto& part : parts) {
    out.insert(out.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  return out;
}

}  // namespace anycast::concurrency
