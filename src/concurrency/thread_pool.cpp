#include "anycast/concurrency/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "anycast/obs/metrics.hpp"

namespace anycast::concurrency {
namespace {

/// Pool instruments. All kTiming class: how indices distribute over lanes
/// and how long each lane stays busy is scheduling-dependent by nature.
struct PoolInstruments {
  obs::Counter parallel_ops = obs::metrics().counter(
      "pool_parallel_ops", obs::MetricClass::kTiming,
      "parallel_for/parallel_map invocations that fanned out");
  obs::Counter helper_dispatches = obs::metrics().counter(
      "pool_helper_dispatches", obs::MetricClass::kTiming,
      "helper tasks posted to worker lanes");
  obs::Counter indices_by_caller = obs::metrics().counter(
      "pool_indices_by_caller", obs::MetricClass::kTiming,
      "loop indices the calling thread claimed itself");
  obs::Counter indices_by_helpers = obs::metrics().counter(
      "pool_indices_by_helpers", obs::MetricClass::kTiming,
      "loop indices claimed by worker lanes");
  obs::LatencyHisto& lane_busy_us = obs::metrics().histogram(
      "pool_lane_busy_us", obs::MetricClass::kTiming, "us",
      "per-lane busy time inside one parallel op");
};

const PoolInstruments& pool_instruments() {
  static const PoolInstruments instruments;
  return instruments;
}

}  // namespace

std::size_t default_thread_count() {
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t thread_count) {
  if (thread_count == 0) thread_count = default_thread_count();
  workers_.reserve(thread_count - 1);
  for (std::size_t i = 0; i + 1 < thread_count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  stop_heartbeat();
  {
    const std::lock_guard lock(queue_mutex_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::start_heartbeat(
    std::chrono::milliseconds interval,
    std::function<void(std::size_t, std::size_t)> on_tick) {
  stop_heartbeat();
  {
    const std::lock_guard lock(heartbeat_mutex_);
    heartbeat_stop_ = false;
  }
  heartbeat_ = std::thread([this, interval, tick = std::move(on_tick)] {
    std::unique_lock lock(heartbeat_mutex_);
    while (true) {
      if (heartbeat_cv_.wait_for(lock, interval,
                                 [this] { return heartbeat_stop_; })) {
        return;
      }
      // Tick outside the lock: a slow sink delays the next tick, never
      // the stop/join handshake.
      lock.unlock();
      tick(op_done_.load(std::memory_order_relaxed),
           op_total_.load(std::memory_order_relaxed));
      lock.lock();
    }
  });
}

void ThreadPool::stop_heartbeat() {
  {
    const std::lock_guard lock(heartbeat_mutex_);
    heartbeat_stop_ = true;
  }
  heartbeat_cv_.notify_all();
  if (heartbeat_.joinable()) heartbeat_.join();
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::post(std::function<void()> task) {
  {
    const std::lock_guard lock(queue_mutex_);
    queue_.push_back(std::move(task));
  }
  queue_cv_.notify_one();
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  op_total_.fetch_add(n, std::memory_order_relaxed);
  if (workers_.empty() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) {
      fn(i);
      op_done_.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }

  // Shared fork-join state, alive until the last helper signals done.
  struct Join {
    std::atomic<std::size_t> next{0};
    std::size_t limit = 0;
    std::mutex done_mutex;
    std::condition_variable done_cv;
    std::size_t helpers_left = 0;  // guarded by done_mutex
    std::mutex error_mutex;
    std::exception_ptr first_error;
  } join;
  join.limit = n;

  // Returns the indices this lane claimed; the lane flushes its own tally
  // once, so per-index work never touches a shared metrics counter. (The
  // progress counter is bumped per index — it feeds the live heartbeat,
  // and at per-VP/per-shard granularity one relaxed add is noise.)
  const auto claim_loop = [this, &fn, &join] {
    std::uint64_t claimed = 0;
    while (true) {
      const std::size_t i = join.next.fetch_add(1);
      if (i >= join.limit) break;
      ++claimed;
      try {
        fn(i);
        op_done_.fetch_add(1, std::memory_order_relaxed);
      } catch (...) {
        {
          const std::lock_guard lock(join.error_mutex);
          if (!join.first_error) join.first_error = std::current_exception();
        }
        // Poison the counter so no further index is claimed.
        join.next.store(join.limit);
      }
    }
    return claimed;
  };
  const PoolInstruments& in = pool_instruments();
  in.parallel_ops.inc();
  const auto lane_start = std::chrono::steady_clock::now();
  const auto lane_busy_us = [lane_start] {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - lane_start)
            .count());
  };

  const std::size_t helpers = std::min(workers_.size(), n - 1);
  join.helpers_left = helpers;
  in.helper_dispatches.add(helpers);
  for (std::size_t h = 0; h < helpers; ++h) {
    post([&claim_loop, &join, &in, lane_busy_us] {
      in.indices_by_helpers.add(claim_loop());
      in.lane_busy_us.record(lane_busy_us());
      // Decrement, check, and notify all under done_mutex: the caller's
      // predicate cannot observe helpers_left == 0 (and destroy Join)
      // until this helper has released the lock — its last touch of Join.
      const std::lock_guard lock(join.done_mutex);
      if (--join.helpers_left == 0) join.done_cv.notify_one();
    });
  }

  in.indices_by_caller.add(claim_loop());  // the caller is a lane too
  in.lane_busy_us.record(lane_busy_us());
  {
    std::unique_lock lock(join.done_mutex);
    join.done_cv.wait(lock, [&join] { return join.helpers_left == 0; });
  }
  if (join.first_error) std::rethrow_exception(join.first_error);
}

std::vector<std::pair<std::size_t, std::size_t>> shard_ranges(
    std::size_t n, std::size_t max_shards) {
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  if (n == 0 || max_shards == 0) return ranges;
  const std::size_t shards = std::min(n, max_shards);
  ranges.reserve(shards);
  const std::size_t base = n / shards;
  const std::size_t extra = n % shards;  // first `extra` shards get +1
  std::size_t begin = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t end = begin + base + (s < extra ? 1 : 0);
    ranges.emplace_back(begin, end);
    begin = end;
  }
  return ranges;
}

std::vector<std::pair<std::size_t, std::size_t>> shard_ranges_weighted(
    std::span<const std::uint64_t> cumulative, std::size_t max_shards) {
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  if (cumulative.size() <= 1 || max_shards == 0) return ranges;
  const std::size_t n = cumulative.size() - 1;
  const std::uint64_t total = cumulative[n] - cumulative[0];
  if (total == 0) return shard_ranges(n, max_shards);
  const std::size_t shards = std::min(n, max_shards);
  ranges.reserve(shards);
  std::size_t begin = 0;
  for (std::size_t s = 1; s <= shards && begin < n; ++s) {
    std::size_t end = n;
    if (s < shards) {
      // First boundary whose cumulative weight reaches this shard's
      // quantile; heavy single rows may swallow several quantiles, which
      // simply yields fewer (non-empty) shards.
      const std::uint64_t quantile =
          cumulative[0] + (total / shards) * s + (total % shards) * s / shards;
      end = static_cast<std::size_t>(
          std::lower_bound(cumulative.begin() + 1, cumulative.end(),
                           quantile) -
          cumulative.begin());
      end = std::min(std::max(end, begin + 1), n);
    }
    ranges.emplace_back(begin, end);
    begin = end;
  }
  if (!ranges.empty()) ranges.back().second = n;
  return ranges;
}

}  // namespace anycast::concurrency
